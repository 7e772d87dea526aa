import numpy as np
import pytest
import scipy.linalg

from ntkdistill.linalg import (
    DEFAULT_JITTER_SCALE,
    DegenerateVectorError,
    KernelMatrix,
    SingularKernelError,
    acute_angle,
)


def random_spd(n, rng, scale=1.0):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T + n * np.eye(n))


def test_solve_identity():
    k = KernelMatrix(np.eye(3), jitter=0.0)
    b = np.array([1.0, 2.0, 3.0])
    assert np.allclose(k.solve(b), b, rtol=0, atol=1e-12)


def test_solve_diagonal():
    k = KernelMatrix(np.diag([2.0, 2.0]), jitter=0.0)
    assert np.allclose(k.solve(np.array([1.0, 1.0])), [0.5, 0.5])


def test_solve_matches_explicit_inverse():
    # brute-force oracle: multiply by the explicitly inverted matrix
    rng = np.random.default_rng(7)
    m = random_spd(5, rng)
    k = KernelMatrix(m, jitter=0.0)
    b = rng.standard_normal(5)
    expected = np.linalg.inv(m) @ b
    assert np.allclose(k.solve(b), expected, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("n", [2, 16, 128, 512])
def test_solve_residual(n):
    rng = np.random.default_rng(n)
    m = random_spd(n, rng)
    k = KernelMatrix(m)
    b = rng.standard_normal(n)
    v = k.solve(b)
    assert np.linalg.norm(m @ v - b) / np.linalg.norm(b) <= 1e-6


def test_inner_identity_kernel():
    k = KernelMatrix(np.eye(2), jitter=0.0)
    w = k.half_solve(np.array([3.0, 4.0]))
    assert w @ w == pytest.approx(25.0)


def test_inner_diagonal():
    k = KernelMatrix(np.diag([4.0, 1.0]), jitter=0.0)
    w = k.half_solve(np.array([2.0, 0.0]))
    assert w @ w == pytest.approx(1.0)


def test_inner_matches_explicit_inverse():
    rng = np.random.default_rng(11)
    m = random_spd(6, rng)
    k = KernelMatrix(m, jitter=0.0)
    a = rng.standard_normal(6)
    b = rng.standard_normal(6)
    expected = a @ np.linalg.inv(m) @ b
    wa, wb = k.half_solve(a), k.half_solve(b)
    assert wa @ wb == pytest.approx(expected, rel=1e-8)
    # symmetry is exact by construction
    assert wa @ wb == wb @ wa


def test_inner_self_equals_whitened_norm():
    rng = np.random.default_rng(3)
    m = random_spd(8, rng)
    k = KernelMatrix(m)
    a = rng.standard_normal(8)
    lo = np.linalg.cholesky(m + k.jitter_used * np.eye(8))
    w = scipy.linalg.solve_triangular(lo, a, lower=True)
    wa = k.half_solve(a)
    assert wa @ wa == pytest.approx(w @ w, rel=1e-9)
    assert wa @ wa >= 0


@pytest.mark.parametrize("b", [np.ones(2), np.ones(4), np.ones((2, 3)), 1.0],
                         ids=["short", "long", "short-rows", "scalar"])
def test_solves_reject_a_right_hand_side_of_the_wrong_length(b):
    k = KernelMatrix(np.eye(3), jitter=0.0)
    for solve in (k.solve, k.half_solve):
        with pytest.raises(ValueError, match="right-hand side has shape"):
            solve(b)


def test_default_jitter_scales_with_trace():
    k = KernelMatrix(np.diag([1.0, 3.0]))
    assert k.jitter == pytest.approx(1e-8 * 2.0)


def test_jitter_escalation_recovers_semidefinite():
    # rank-1 PSD matrix: plain Cholesky of K itself would fail
    v = np.array([1.0, 1.0])
    k = KernelMatrix(np.outer(v, v), jitter=0.0)
    b = np.array([1.0, 1.0])
    sol = k.solve(b)
    assert np.all(np.isfinite(sol))
    assert k.jitter_used > 0


def test_singular_error_names_eigen_scale():
    bad = np.diag([1.0, -5.0])  # indefinite, no jitter can fix it at this scale
    k = KernelMatrix(bad, jitter=1e-16)
    with pytest.raises(SingularKernelError, match="eigenvalue"):
        k.cholesky()


def test_asymmetry_rejected():
    m = np.array([[1.0, 0.5], [0.3, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        KernelMatrix(m)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_rejected(bad):
    m = np.eye(3)
    m[1, 2] = m[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite entries"):
        KernelMatrix(m)


def test_near_symmetric_input_stored_as_its_symmetric_part():
    rng = np.random.default_rng(12)
    m = random_spd(6, rng)
    m[1, 4] *= 1 + 1e-12  # well inside SYMMETRY_RTOL
    k = KernelMatrix(m)
    assert np.array_equal(k.entries.view(np.uint64), (0.5 * (m + m.T)).view(np.uint64))


def test_mirrored_signed_zeros_stored_as_positive_zero():
    m = np.array([[1.0, -0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    k = KernelMatrix(m)
    assert k.entries[0, 1] == 0.0 and k.entries[1, 0] == 0.0
    assert not np.signbit(k.entries[0, 1]) and not np.signbit(k.entries[1, 0])


def test_exactly_symmetric_input_stored_bitwise_as_a_copy():
    rng = np.random.default_rng(13)
    m = random_spd(5, rng)
    m = np.triu(m) + np.triu(m, 1).T  # symmetric bit for bit
    m[0, 3] = m[3, 0] = -0.0
    k = KernelMatrix(m)
    assert np.array_equal(k.entries.view(np.uint64), m.view(np.uint64))
    assert not np.shares_memory(k.entries, m)
    m[0, 0] = 99.0
    assert k.entries[0, 0] != 99.0
    assert not k.entries.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 9, 130, 544, 576])
def test_leading_block_is_bitwise_a_fresh_matrix_of_the_block(n):
    # leading(n) shares the checked entries instead of checking and copying
    # the block again; its entries, default jitter, factor and solves are
    # those of KernelMatrix(entries[:n, :n]) bit for bit
    rng = np.random.default_rng(n)
    a = rng.standard_normal((576, 40)) * rng.uniform(0.5, 2.0, size=(576, 1))
    full = KernelMatrix(a @ a.T + np.diag(rng.uniform(0.0, 1.0, size=576)), jitter=1e-3)
    block, fresh = full.leading(n), KernelMatrix(full.entries[:n, :n])
    bits = lambda v: np.ascontiguousarray(v).view(np.uint64)
    assert np.shares_memory(block.entries, full.entries)
    assert not block.entries.flags.writeable
    assert np.array_equal(bits(block.entries), bits(fresh.entries))
    assert block.jitter == fresh.jitter
    b = rng.standard_normal((n, 3))
    assert np.array_equal(bits(block.solve(b)), bits(fresh.solve(b)))
    assert np.array_equal(bits(block.cholesky()), bits(fresh.cholesky()))
    assert block.jitter_used == fresh.jitter_used


def _signed_zero_spd():
    m = random_spd(6, np.random.default_rng(14))
    m = np.triu(m) + np.triu(m, 1).T
    m[0, 3] = m[3, 0] = -0.0
    return KernelMatrix(m)


def _escalating_psd():
    # rank 2 in 7 dimensions: zero jitter fails, so the jitter escalates
    a = np.random.default_rng(15).standard_normal((7, 2))
    return KernelMatrix(np.triu(a @ a.T) + np.triu(a @ a.T, 1).T, jitter=0.0)


@pytest.mark.parametrize("make, escalates", [(_signed_zero_spd, False), (_escalating_psd, True)],
                         ids=["signed-zeros", "jitter-escalation"])
def test_cholesky_is_the_factor_of_the_jittered_entries(make, escalates):
    # the blocked factor agrees with LAPACK's factor of entries + jitter_used
    # * I, scipy's as the oracle; zero jitter fails on the rank-2 matrix and
    # its first escalation, the default jitter, succeeds, as with scipy
    k = make()
    factor = k.cholesky()
    expect = scipy.linalg.cholesky(k.entries + k.jitter_used * np.eye(k.n), lower=True)
    assert np.allclose(factor, expect, rtol=1e-12, atol=1e-12 * np.abs(expect).max())
    assert np.array_equal(factor, np.tril(factor))
    default = DEFAULT_JITTER_SCALE * float(np.trace(k.entries)) / k.n
    assert k.jitter_used == (default if escalates else k.jitter)
    assert (k.jitter_used > k.jitter) == escalates


# sizes on either side of the 64-column blocks, and several blocks
@pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 544])
@pytest.mark.parametrize("columns", [None, 3], ids=["vector", "matrix"])
def test_blocked_solves_match_lapack_substitutions(n, columns):
    rng = np.random.default_rng(n)
    k = KernelMatrix(random_spd(n, rng))
    lo = k.cholesky()
    b = rng.standard_normal(n if columns is None else (n, columns))
    half = k.half_solve(b)
    full = k.solve(b)
    assert half.shape == full.shape == b.shape
    expect = scipy.linalg.solve_triangular(lo, b, lower=True)
    assert np.allclose(half, expect, rtol=1e-12, atol=1e-13 * np.abs(expect).max())
    expect = scipy.linalg.cho_solve((lo, True), b)
    assert np.allclose(full, expect, rtol=1e-12, atol=1e-13 * np.abs(expect).max())
    assert np.allclose(lo @ lo.T, k.entries + k.jitter_used * np.eye(n), rtol=0,
                       atol=1e-13 * np.abs(k.entries).max())


def test_cholesky_holds_one_more_array_at_its_peak(traced_peak):
    # the factor is written block by block straight from the entries: no
    # identity matrix, no jittered copy
    k = KernelMatrix(random_spd(544, np.random.default_rng(16)))
    _, peak = traced_peak(k.cholesky)
    assert peak <= 1.25 * 544**2 * 8


@pytest.mark.parametrize("n", [0, 6])
def test_leading_block_size_must_fit(n):
    with pytest.raises(ValueError):
        KernelMatrix(np.eye(5)).leading(n)


def test_angle_trivial_cases():
    u = np.array([1.0, 2.0, -0.5])
    assert acute_angle(u, u) == pytest.approx(0.0, abs=1e-7)
    assert acute_angle(u, -u) == pytest.approx(0.0, abs=1e-7)
    assert acute_angle(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
        np.pi / 2
    )


def test_angle_scale_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        for c in (2.0, -3.5, 1e-6, 1e6):
            assert abs(acute_angle(c * u, v) - acute_angle(u, v)) <= 1e-12


def test_angle_degenerate():
    with pytest.raises(DegenerateVectorError):
        acute_angle(np.zeros(3), np.ones(3))
