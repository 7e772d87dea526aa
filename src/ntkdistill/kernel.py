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

``analytic_ntk_gram`` evaluates the recursion on the upper triangle packed
into vectors, which is exact because each step is symmetric entrywise.

At finite width the same object is the Gram matrix of the parameter
gradients; ``empirical_ntk_gram`` assembles it from one batched
forward/backward sweep using per-layer activation and delta inner products,
so no length-p feature vector is ever formed.
"""

from __future__ import annotations

import numpy as np

from .linalg import KernelMatrix
from .network import NetConfig, _as_batch, _Cache, _row_blocks


def _recursion_step(s_cross, s_diag_a, s_diag_b, k_prev, sw, sb):
    norm = np.sqrt(s_diag_a * s_diag_b)
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.where(norm > 0, s_cross / np.where(norm > 0, norm, 1.0), 1.0)
    c = np.clip(c, -1.0, 1.0)
    theta = np.arccos(c)
    j = np.sqrt(np.maximum(0.0, 1.0 - c**2)) + (np.pi - theta) * c
    s_next = sw**2 * norm * j / (2 * np.pi) + sb**2
    sdot = sw**2 * (np.pi - theta) / (2 * np.pi)
    return s_next, s_next + sdot * k_prev


def analytic_ntk(cfg: NetConfig, x: np.ndarray, x2: np.ndarray) -> float:
    """Infinite-width tangent kernel value for one input pair."""
    sw, sb = cfg.weight_scale, cfg.bias_scale
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x.shape != (cfg.input_dim,) or x2.shape != (cfg.input_dim,):
        raise ValueError(f"inputs must have shape ({cfg.input_dim},)")
    if np.array_equal(x, x2):
        return float(analytic_ntk_diag(cfg, x[None, :])[0])
    sxx = sw**2 * float(x @ x) / cfg.input_dim + sb**2
    syy = sw**2 * float(x2 @ x2) / cfg.input_dim + sb**2
    sxy = sw**2 * float(x @ x2) / cfg.input_dim + sb**2
    k = sxy
    for _ in range(cfg.hidden_layers):
        if sxx < 0 or syy < 0:
            raise RuntimeError("negative variance in kernel recursion")
        sxy, k = _recursion_step(sxy, sxx, syy, k, sw, sb)
        sxx = sw**2 * sxx / 2 + sb**2
        syy = sw**2 * syy / 2 + sb**2
    return float(k)


def analytic_ntk_diag(cfg: NetConfig, x: np.ndarray) -> np.ndarray:
    """Kernel diagonal K(x, x) for a batch, via the zero-angle recursion."""
    batch, _ = _as_batch(cfg, x)
    sw, sb = cfg.weight_scale, cfg.bias_scale
    s = sw**2 * np.einsum("ij,ij->i", batch, batch) / cfg.input_dim + sb**2
    k = s.copy()
    for _ in range(cfg.hidden_layers):
        # theta = 0 on the diagonal: the J factor reduces to pi
        s = sw**2 * s / 2 + sb**2
        k = s + sw**2 * k / 2
    return k


def analytic_ntk_gram(
    cfg: NetConfig, x: np.ndarray, jitter: float | None = None
) -> KernelMatrix:
    """Entrywise analytic kernel over a batch of inputs."""
    batch, _ = _as_batch(cfg, x)
    sw, sb = cfg.weight_scale, cfg.bias_scale
    s = sw**2 * (batch @ batch.T) / cfg.input_dim + sb**2
    # exact symmetry here is what lets the packed upper triangle carry the
    # whole recursion: every step maps (i, j) and (j, i) alike
    s = 0.5 * (s + s.T)
    n = s.shape[0]
    ia, ib = np.triu_indices(n)
    on_diag = np.flatnonzero(ia == ib)
    s = s[ia, ib]
    k = s.copy()
    for _ in range(cfg.hidden_layers):
        diag = s[on_diag]
        if np.any(diag < 0):
            raise RuntimeError("negative variance in kernel recursion")
        s, k = _recursion_step(s, diag[ia], diag[ib], k, sw, sb)
    gram = np.empty((n, n))
    gram[ia, ib] = k
    gram[ib, ia] = k
    return KernelMatrix(gram, jitter=jitter)


def empirical_kernel(feats: np.ndarray, jitter: float | None = None) -> KernelMatrix:
    """Gram matrix of explicit feature vectors (rows)."""
    f = np.asarray(feats, dtype=float)
    if f.ndim != 2:
        raise ValueError("expected a list of equal-length feature vectors")
    g = f @ f.T
    return KernelMatrix(0.5 * (g + g.T), jitter=jitter)


def empirical_ntk_gram(
    cfg: NetConfig, params: np.ndarray, x: np.ndarray, jitter: float | None = None
) -> KernelMatrix:
    """Finite-width tangent Gram phi(X)^T phi(X), without explicit features.

    Per affine layer, the feature inner products factor into (delta . delta)
    * (activation . activation) terms, so the Gram accumulates from (n, m)
    matrices even when p is in the tens of millions.
    """
    batch, _ = _as_batch(cfg, x)
    return _sweep_gram(_Cache(cfg, np.asarray(params, dtype=float), batch), jitter)


def _sweep_gram(sweep: _Cache, jitter: float | None = None) -> KernelMatrix:
    """``empirical_ntk_gram`` of the inputs of an existing sweep, for callers
    that also need the sweep itself (its logits or weighted gradients)."""
    cfg = sweep.cfg
    sw, sb = cfg.weight_scale, cfg.bias_scale
    d, m = cfg.input_dim, cfg.width
    n = sweep.logits.shape[0]

    gram = np.zeros((n, n))
    for l, delta in enumerate(sweep.deltas):
        dd = delta @ delta.T
        aa = sweep.acts[l] @ sweep.acts[l].T
        gram += (sw**2 / (d if l == 0 else m)) * dd * aa + sb**2 * dd
    a_out = sweep.acts[-1]
    gram += (sw**2 / m) * (a_out @ a_out.T) + sb**2
    return KernelMatrix(0.5 * (gram + gram.T), jitter=jitter)


def empirical_ntk_diag(cfg: NetConfig, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Diagonal of the finite-width Gram, |phi(x)|^2 per sample, swept in row
    blocks (bitwise the single-sweep values)."""
    batch, _ = _as_batch(cfg, x)
    sw, sb = cfg.weight_scale, cfg.bias_scale
    d, m = cfg.input_dim, cfg.width

    def diag(sweep):
        out = np.zeros(sweep.logits.shape[0])
        for l, delta in enumerate(sweep.deltas):
            dd = np.einsum("ij,ij->i", delta, delta)
            aa = np.einsum("ij,ij->i", sweep.acts[l], sweep.acts[l])
            out += (sw**2 / (d if l == 0 else m)) * dd * aa + sb**2 * dd
        a_out = sweep.acts[-1]
        out += (sw**2 / m) * np.einsum("ij,ij->i", a_out, a_out) + sb**2
        return out

    return _row_blocks(cfg, params, batch, diag)


def save_kernel_csv(kernel: KernelMatrix, path) -> None:
    """Plain CSV dump of the kernel entries, for offline inspection."""
    np.savetxt(path, kernel.entries, delimiter=",")
