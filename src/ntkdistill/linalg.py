"""Dense SPD linear algebra and vector geometry for kernel computations.

Everything downstream (kernel norms, inner products, angle metrics) funnels
through the Cholesky factorization K = L L^T of a jittered Gram matrix, so
the policy for conditioning lives here and nowhere else.  A kernel inner
product a^T K^{-1} b is the dot product of the whitened vectors L^{-1} a and
L^{-1} b (``KernelMatrix.half_solve``); callers whiten each vector once and
take as many dot products of it as they need.

The factorization and the substitutions run on numpy alone, by blocks of
``_BLOCK`` columns (Golub and Van Loan, *Matrix Computations*, ch. 4): the
off-diagonal work is matrix products, and each diagonal block is factored by
``np.linalg.cholesky`` and solved against by ``np.linalg.solve``.
``KernelMatrix`` factors through this module's global ``cholesky``, so a
caller may rebind it (to count factorizations, say).
"""

from __future__ import annotations

import numpy as np

# Relative jitter added to the diagonal before factorization, as a fraction
# of the mean diagonal scale trace(K)/n.  Near-duplicate samples make Gram
# matrices numerically singular; this keeps solves stable without visibly
# perturbing well-conditioned problems.
DEFAULT_JITTER_SCALE = 1e-8

# A failed factorization is retried this many times, multiplying the jitter
# by 10 each attempt, before giving up.
JITTER_RETRIES = 3

SYMMETRY_RTOL = 1e-10


# Columns per block: wide enough that the off-diagonal work runs as matrix
# products, narrow enough that a diagonal block's own solves stay cheap.
_BLOCK = 64


def _blocks(n: int):
    return [(j, min(j + _BLOCK, n)) for j in range(0, n, _BLOCK)]


def cholesky(entries: np.ndarray, jitter: float) -> np.ndarray:
    """Lower-triangular L with L L^T = entries + jitter * I, left-looking by
    column blocks into one new array.  Raises ``np.linalg.LinAlgError`` when
    a jittered diagonal block is not positive definite."""
    n = entries.shape[0]
    lo = np.zeros((n, n))
    for j, e in _blocks(n):
        panel = lo[j:, j:e]
        panel[...] = entries[j:, j:e]
        if j:
            panel -= lo[j:, :j] @ lo[j:e, :j].T
        diag = panel[:e - j]
        diag[np.diag_indices(e - j)] += jitter
        diag[...] = np.linalg.cholesky(diag)
        if e < n:
            panel[e - j:] = np.linalg.solve(diag, panel[e - j:].T).T
    return lo


def _forward(lo: np.ndarray, y: np.ndarray) -> np.ndarray:
    """L^{-1} y in place, block by block from the top."""
    for j, e in _blocks(len(y)):
        if j:
            y[j:e] -= lo[j:e, :j] @ y[:j]
        y[j:e] = np.linalg.solve(lo[j:e, j:e], y[j:e])
    return y


def _back(lo: np.ndarray, y: np.ndarray) -> np.ndarray:
    """L^{-T} y in place, block by block from the bottom."""
    n = len(y)
    for j, e in reversed(_blocks(n)):
        if e < n:
            y[j:e] -= lo[e:, j:e].T @ y[e:]
        y[j:e] = np.linalg.solve(lo[j:e, j:e].T, y[j:e])
    return y


class SingularKernelError(np.linalg.LinAlgError):
    """Gram matrix could not be factorized even after jitter escalation."""


class DegenerateVectorError(ValueError):
    """A vector with zero (or non-finite) norm where a direction is required."""


class KernelMatrix:
    """Symmetric positive-semidefinite Gram matrix with a diagonal jitter.

    The entries are copied and stored exactly symmetric.  An input that is
    symmetric bit for bit is stored as it is; any other input within
    ``SYMMETRY_RTOL`` of its scale is stored as 0.5 (K + K^T), which also
    turns a mirrored -0.0/+0.0 pair into +0.0 on both sides.  (A bitwise
    symmetric entry of magnitude 2^1023 or more thus stays finite; the
    average would overflow it to inf.)

    The matrix is immutable after construction and may be shared across
    threads.  The Cholesky factor of ``entries + jitter_used * I`` is computed
    lazily on first solve and cached; ``jitter_used`` starts at ``jitter`` and
    escalates by factors of 10 (up to ``JITTER_RETRIES`` times) if the
    factorization fails.  Each attempt writes its factor into one new array
    straight from the entries, with no jittered copy, so a factorization
    holds the entries and one more n x n array.
    """

    def __init__(self, entries: np.ndarray, jitter: float | None = None):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"kernel matrix must be square, got {entries.shape}")
        # the largest magnitude is non-finite exactly when some entry is
        # (max and min propagate NaN, and need no n x n temporary)
        scale = max(entries.max(), -entries.min())
        if not np.isfinite(scale):
            raise ValueError("kernel matrix has non-finite entries")
        bits = entries.view(np.uint64)
        if np.array_equal(bits, bits.T):
            entries = entries.copy()
        else:
            asym = np.max(np.abs(entries - entries.T))
            if scale > 0 and asym > SYMMETRY_RTOL * scale:
                raise ValueError(
                    f"kernel matrix is not symmetric: max asymmetry {asym:.3e} "
                    f"exceeds {SYMMETRY_RTOL:.0e} * scale {scale:.3e}"
                )
            # Exact symmetry simplifies everything downstream.
            entries = 0.5 * (entries + entries.T)
        self._store(entries, jitter)

    def _store(self, entries: np.ndarray, jitter: float | None) -> None:
        """Keep checked, exactly symmetric entries read-only, with ``jitter``
        or else the default of ``DEFAULT_JITTER_SCALE`` times the mean
        diagonal."""
        if jitter is None:
            jitter = DEFAULT_JITTER_SCALE * float(np.trace(entries)) / entries.shape[0]
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self._entries = entries
        self._entries.setflags(write=False)
        self.jitter = float(jitter)
        self._chol: np.ndarray | None = None
        self._jitter_used: float | None = None

    def leading(self, n: int) -> "KernelMatrix":
        """The leading n x n block as its own matrix, with the default
        jitter of that block: what ``KernelMatrix(self.entries[:n, :n])``
        gives, bit for bit, without checking or copying the block again.
        Its entries are a read-only view of this matrix's."""
        if not 1 <= n <= self.n:
            raise ValueError(f"leading block size must be in [1, {self.n}], got {n}")
        out = KernelMatrix.__new__(KernelMatrix)
        out._store(self._entries[:n, :n], None)
        return out

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    def cholesky(self) -> np.ndarray:
        """Lower-triangular factor L with L L^T = entries + jitter_used * I."""
        if self._chol is None:
            jitter = self.jitter
            for attempt in range(JITTER_RETRIES + 1):
                try:
                    self._chol = cholesky(self._entries, jitter)
                    self._jitter_used = jitter
                    break
                except np.linalg.LinAlgError:
                    # escalate: zero jitter needs a finite starting point
                    jitter = jitter * 10 if jitter > 0 else max(
                        DEFAULT_JITTER_SCALE * float(np.trace(self._entries)) / self.n,
                        np.finfo(float).tiny,
                    )
            else:
                eigs = np.linalg.eigvalsh(self._entries)
                raise SingularKernelError(
                    f"Cholesky failed after {JITTER_RETRIES} jitter escalations "
                    f"(final jitter {jitter:.3e}); smallest eigenvalue "
                    f"{eigs[0]:.3e}, largest {eigs[-1]:.3e}"
                )
        return self._chol

    @property
    def jitter_used(self) -> float:
        self.cholesky()
        return self._jitter_used

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve (entries + jitter_used * I) v = b for one or many right-hand sides."""
        b = np.array(b, dtype=float)
        if b.shape[:1] != (self.n,):
            raise ValueError(f"right-hand side has shape {b.shape}, expected {self.n} rows")
        lo = self.cholesky()
        return _back(lo, _forward(lo, b))

    def half_solve(self, b: np.ndarray) -> np.ndarray:
        """L^{-1} b, the 'whitened' coordinates of b: a^T K^{-1} b is the dot
        product of the whitened a and b, so it is exactly symmetric in (a, b)
        and non-negative for a == b."""
        b = np.array(b, dtype=float)
        if b.shape[:1] != (self.n,):
            raise ValueError(f"right-hand side has shape {b.shape}, expected {self.n} rows")
        return _forward(self.cholesky(), b)


def acute_angle(u: np.ndarray, v: np.ndarray) -> float:
    """Acute angle arccos(|u.v| / (|u||v|)) in [0, pi/2].

    The absolute value folds sign disagreements of both classes into one
    angle; the cosine is clamped to [0, 1] because rounding can push it
    marginally above 1.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0 or nv == 0 or not (np.isfinite(nu) and np.isfinite(nv)):
        raise DegenerateVectorError(
            f"acute_angle needs nonzero finite vectors, got norms {nu}, {nv}"
        )
    c = abs(float(u @ v)) / (nu * nv)
    return float(np.arccos(min(c, 1.0)))
