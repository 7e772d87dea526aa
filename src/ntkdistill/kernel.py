"""Neural tangent kernels of ReLU stacks, analytic and empirical.

The infinite-width tangent kernel of the network in :mod:`ntkdistill.network`
follows the standard arc-cosine recursion.  With the activation covariance
started at

    S(x, x') = sw^2 * x . x' / d + sb^2,

each of the L hidden layers (the last step crossing into the output affine
layer) updates, writing theta for the correlation angle
arccos(S(x,x') / sqrt(S(x,x) S(x',x'))),

    S_next  = sw^2 * sqrt(S(x,x) S(x',x')) * (sin t + (pi - t) cos t) / (2 pi) + sb^2
    Sdot    = sw^2 * (pi - t) / (2 pi)
    K_next  = S_next + Sdot * K_prev,           K_0 = S.

One loop evaluates the recursion on input pairs packed into vectors.
``analytic_ntk_gram`` runs it on the upper triangle, which is exact because
each step is symmetric entrywise; ``analytic_ntk_diag`` runs the same loop
on the pairs (x, x), where theta = 0.

At finite width the same object is the Gram matrix of the parameter
gradients; ``empirical_ntk_gram`` and ``empirical_ntk_diag`` read it off a
:class:`~ntkdistill.network.Sweep`, which assembles it from per-layer
activation and delta inner products, so no length-p feature vector is ever
formed.
"""

from __future__ import annotations

import numpy as np

from .linalg import KernelMatrix
from .network import NetConfig, Sweep, as_batch, row_blocks


def _arc_cosine(cfg: NetConfig, s: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """The recursion on packed input pairs: ``s[k]`` is the base covariance
    of the pair ``(ia[k], ib[k])``, and the pairs ``(i, i)`` of every input
    index are among them, in index order; returns K per pair."""
    sw, sb = cfg.weight_scale, cfg.bias_scale
    on_diag = np.flatnonzero(ia == ib)
    k = s.copy()
    for _ in range(cfg.hidden_layers):
        diag = s[on_diag]
        if np.any(diag < 0):
            raise RuntimeError("negative variance in kernel recursion")
        norm = np.sqrt(diag[ia] * diag[ib])
        with np.errstate(invalid="ignore", divide="ignore"):
            c = np.where(norm > 0, s / np.where(norm > 0, norm, 1.0), 1.0)
        c = np.clip(c, -1.0, 1.0)
        theta = np.arccos(c)
        j = np.sqrt(np.maximum(0.0, 1.0 - c**2)) + (np.pi - theta) * c
        s = sw**2 * norm * j / (2 * np.pi) + sb**2
        k = s + sw**2 * (np.pi - theta) / (2 * np.pi) * k
    return k


def analytic_ntk_diag(cfg: NetConfig, x: np.ndarray) -> np.ndarray:
    """Kernel diagonal K(x, x) for a batch: the recursion on the pairs (x, x)."""
    batch, _ = as_batch(cfg, x)
    sw, sb = cfg.weight_scale, cfg.bias_scale
    s = sw**2 * np.einsum("ij,ij->i", batch, batch) / cfg.input_dim + sb**2
    pairs = np.arange(len(s))
    return _arc_cosine(cfg, s, pairs, pairs)


def analytic_ntk_gram(
    cfg: NetConfig, x: np.ndarray, jitter: float | None = None
) -> KernelMatrix:
    """Entrywise analytic kernel over a batch of inputs."""
    batch, _ = as_batch(cfg, x)
    sw, sb = cfg.weight_scale, cfg.bias_scale
    s = sw**2 * (batch @ batch.T) / cfg.input_dim + sb**2
    # exact symmetry here is what lets the packed upper triangle carry the
    # whole recursion: every step maps (i, j) and (j, i) alike
    s = 0.5 * (s + s.T)
    n = s.shape[0]
    ia, ib = np.triu_indices(n)
    k = _arc_cosine(cfg, s[ia, ib], ia, ib)
    gram = np.empty((n, n))
    gram[ia, ib] = k
    gram[ib, ia] = k
    return KernelMatrix(gram, jitter=jitter)


def empirical_ntk_gram(
    cfg: NetConfig, params: np.ndarray, x: np.ndarray, jitter: float | None = None
) -> KernelMatrix:
    """Finite-width tangent Gram phi(X) phi(X)^T, without explicit features
    (:meth:`~ntkdistill.network.Sweep.gram` of one sweep of ``x``)."""
    return KernelMatrix(Sweep(cfg, params, as_batch(cfg, x)[0]).gram(), jitter=jitter)


def empirical_ntk_diag(cfg: NetConfig, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Diagonal of the finite-width Gram, |phi(x)|^2 per sample, swept in row
    blocks (bitwise the single-sweep values)."""
    return row_blocks(cfg, params, as_batch(cfg, x)[0], Sweep.diag)
