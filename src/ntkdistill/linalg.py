"""Dense SPD linear algebra and vector geometry for kernel computations.

Everything downstream (kernel norms, inner products, angle metrics) funnels
through the Cholesky factorization K = L L^T of a jittered Gram matrix, so
the policy for conditioning lives here and nowhere else.  A kernel inner
product a^T K^{-1} b is the dot product of the whitened vectors L^{-1} a and
L^{-1} b (``KernelMatrix.half_solve``); callers whiten each vector once and
take as many dot products of it as they need.

scipy.linalg, whose import is most of the package's start-up time, is
imported by the first call of the thin wrappers ``cholesky``, ``cho_solve``
and ``solve_triangular``, so a run that factors no Gram never loads it.
``KernelMatrix`` calls them through this module's globals, so a caller may
rebind them (to count factorizations, say).
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


def cholesky(a, **kwargs):
    """``scipy.linalg.cholesky``, imported on the first call."""
    import scipy.linalg
    return scipy.linalg.cholesky(a, **kwargs)


def cho_solve(factor, b):
    """``scipy.linalg.cho_solve``, imported on the first call."""
    import scipy.linalg
    return scipy.linalg.cho_solve(factor, b)


def solve_triangular(a, b, **kwargs):
    """``scipy.linalg.solve_triangular``, imported on the first call."""
    import scipy.linalg
    return scipy.linalg.solve_triangular(a, b, **kwargs)


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
    factorization fails.  It is factored in place in one Fortran-ordered
    copy that is ``entries + jitter * I`` bit for bit, written afresh for
    each jitter tried, so a factorization holds the entries and one more
    n x n array.
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
            jittered = np.empty((self.n, self.n), order="F")
            for attempt in range(JITTER_RETRIES + 1):
                # entries + jitter * I bit for bit: + 0.0 turns -0.0 into
                # +0.0 off the diagonal, as the product's zeros do
                np.add(self._entries, 0.0, out=jittered)
                np.fill_diagonal(jittered, np.diagonal(self._entries) + jitter)
                try:
                    self._chol = cholesky(jittered, lower=True, overwrite_a=True)
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
        b = np.asarray(b, dtype=float)
        if b.shape[:1] != (self.n,):
            raise ValueError(f"right-hand side has shape {b.shape}, expected {self.n} rows")
        return cho_solve((self.cholesky(), True), b)

    def half_solve(self, b: np.ndarray) -> np.ndarray:
        """L^{-1} b, the 'whitened' coordinates of b: a^T K^{-1} b is the dot
        product of the whitened a and b, so it is exactly symmetric in (a, b)
        and non-negative for a == b."""
        b = np.asarray(b, dtype=float)
        if b.shape[:1] != (self.n,):
            raise ValueError(f"right-hand side has shape {b.shape}, expected {self.n} rows")
        return solve_triangular(self.cholesky(), b, lower=True)


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
