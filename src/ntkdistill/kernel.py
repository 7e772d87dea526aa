"""Neural tangent kernels of ReLU stacks, analytic and empirical.

The infinite-width tangent kernel of the network in :mod:`ntkdistill.network`
follows the standard arc-cosine recursion at unit weight and bias scales.
With the activation covariance started at

    S(x, x') = x . x' / d + 1,

each of the L hidden layers (the last step crossing into the output affine
layer) updates, writing theta for the correlation angle
arccos(S(x,x') / sqrt(S(x,x) S(x',x'))),

    S_next  = sqrt(S(x,x) S(x',x')) * (sin t + (pi - t) cos t) / (2 pi) + 1
    Sdot    = (pi - t) / (2 pi)
    K_next  = S_next + Sdot * K_prev,           K_0 = S.

Every variance is at least 1: S(x, x) = |x|^2 / d + 1 >= 1, and at theta = 0
each layer maps it to S(x, x) / 2 + 1.  So every pair norm
sqrt(S(x,x) S(x',x')) is at least 1, and the correlation is an ordinary
quotient on every pair.

One loop runs all L steps on a block of input pairs, in place in buffers
allocated once.  ``analytic_ntk_diag`` runs it on the pairs (x, x), where
theta = 0.  ``analytic_ntk_gram`` does the same on its own inputs first,
which gives every layer's diagonal S(x, x).  It then builds the Gram in
tiles of about 16k entries, rows i0:i1 against columns i0:n, running every
layer on a tile while the tile is in cache, with the pair norms broadcast
from the layer's diagonal.  Each tile goes into the Gram together with its
transpose.  That is exact because each step is symmetric entrywise, and
every entry takes the same IEEE operations in the same order whichever tile
holds it.  The tiles are written back into S itself, so the Gram costs no
second n x n buffer: tile i0:i1 reads only S[i0:i1, i0:] and S[i0:, i0:i1],
which is exactly the region it writes, and every later tile reads only rows
and columns from i1 on, which no earlier tile has written.

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


# Entries per tile of the Gram: a tile's five buffers (about 640 kB) stay in
# a core's L2 cache while every layer runs on them.
_TILE_ENTRIES = 1 << 14


def _arc_cosine(cfg: NetConfig, s: np.ndarray, work, diags=None, rows=None, cols=None):
    """The L recursion steps, in place on ``s``, the base covariances of a
    set of input pairs; returns K of the pairs (in ``work[0]``) and the
    per-layer diagonals.

    For a Gram tile, ``s`` is the block ``rows`` x ``cols`` and ``diags[l]``
    is layer l's S(x, x) over every input; the pair norms broadcast from it,
    row value first.  With ``diags`` None, ``s`` holds the pairs (x, x)
    themselves, so each layer's ``s`` is its own diagonal, and it is kept.
    ``work`` holds four buffers shaped like ``s``.
    """
    two_pi = 2 * np.pi
    k, norm, c, theta = work
    k[...] = s
    own = diags is None
    if own:
        diags = []
    for layer in range(cfg.hidden_layers):
        if own:
            diags.append(s.copy())
            np.multiply(s, s, out=norm)
        else:
            d = diags[layer]
            np.multiply(d[rows, None], d[None, cols], out=norm)
        np.sqrt(norm, out=norm)
        np.divide(s, norm, out=c)
        np.clip(c, -1.0, 1.0, out=c)
        np.arccos(c, out=theta)
        # J = sqrt(1 - c^2) + (pi - theta) c, built in s
        np.multiply(c, c, out=s)
        np.subtract(1.0, s, out=s)  # no clamp at 0: |c| <= 1 gives fl(c c) <= 1
        np.sqrt(s, out=s)
        np.subtract(np.pi, theta, out=theta)
        np.multiply(theta, c, out=c)
        np.add(s, c, out=s)
        # S_next = norm J / (2 pi) + 1
        np.multiply(norm, s, out=norm)
        np.divide(norm, two_pi, out=norm)
        np.add(norm, 1.0, out=s)
        # K_next = S_next + (pi - theta) / (2 pi) K
        np.divide(theta, two_pi, out=theta)
        np.multiply(theta, k, out=k)
        np.add(s, k, out=k)
    return k, diags


def analytic_ntk_diag(cfg: NetConfig, x: np.ndarray) -> np.ndarray:
    """Kernel diagonal K(x, x) for a batch: the recursion on the pairs (x, x)."""
    batch = as_batch(cfg, x)
    s = np.einsum("ij,ij->i", batch, batch) / cfg.input_dim + 1.0
    return _arc_cosine(cfg, s, np.empty((4, len(s))))[0]


def analytic_ntk_gram(cfg: NetConfig, x: np.ndarray) -> KernelMatrix:
    """Entrywise analytic kernel over a batch of inputs, built in tiles."""
    batch = as_batch(cfg, x)
    s = batch @ batch.T
    s /= cfg.input_dim
    s += 1.0
    n = s.shape[0]
    # each tile starts from the symmetrized 0.5 (S + S^T); that exact
    # symmetry is what lets a tile's transpose stand for its mirror image,
    # since every step maps (i, j) and (j, i) alike
    d = np.diagonal(s)
    _, diags = _arc_cosine(cfg, 0.5 * (d + d), np.empty((4, n)))
    flat = np.empty((5, max(_TILE_ENTRIES, n)))
    i0 = 0
    while i0 < n:
        # rows i0:i1 against columns i0:n, the upper triangle and the
        # tile's share of the diagonal block
        i1 = min(n, i0 + max(1, _TILE_ENTRIES // (n - i0)))
        shape = (i1 - i0, n - i0)
        tile, *work = (buf[: shape[0] * shape[1]].reshape(shape) for buf in flat)
        np.add(s[i0:i1, i0:], s[i0:, i0:i1].T, out=tile)
        np.multiply(0.5, tile, out=tile)
        k, _ = _arc_cosine(cfg, tile, work, diags, slice(i0, i1), slice(i0, n))
        s[i0:i1, i0:] = k
        s[i0:, i0:i1] = k.T
        i0 = i1
    return KernelMatrix(s)


def empirical_ntk_gram(cfg: NetConfig, params: np.ndarray, x: np.ndarray) -> KernelMatrix:
    """Finite-width tangent Gram phi(X) phi(X)^T, without explicit features
    (:meth:`~ntkdistill.network.Sweep.gram` of one sweep of ``x``)."""
    return KernelMatrix(Sweep(cfg, params, as_batch(cfg, x)).gram())


def empirical_ntk_diag(cfg: NetConfig, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Diagonal of the finite-width Gram, |phi(x)|^2 per sample, swept in row
    blocks (bitwise the single-sweep values)."""
    return row_blocks(cfg, params, as_batch(cfg, x), Sweep.diag)
