import numpy as np
import pytest
from scipy.special import expit

from ntkdistill.distillation import correction_logit
from ntkdistill.hardlabel import (
    cos_alpha_g,
    correction_projection,
    hard_label_derivative,
)
from ntkdistill.linalg import DegenerateVectorError, KernelMatrix


def random_kernel(n, rng):
    a = rng.standard_normal((n, n))
    return KernelMatrix(a @ a.T + n * np.eye(n), jitter=0.0)


def whiten(k, *vectors):
    """Each vector's whitened coordinates, what the functions take."""
    return [k.half_solve(v) for v in vectors]


def test_cos_alpha_g_self_is_one():
    rng = np.random.default_rng(0)
    k = random_kernel(6, rng)
    [w] = whiten(k, rng.normal(size=6))
    norm = np.sqrt(w @ w)
    assert cos_alpha_g(w, w, norm) == pytest.approx(1.0, rel=1e-12)


def test_cos_alpha_g_orthogonal_is_zero():
    k = KernelMatrix(np.eye(2), jitter=0.0)
    assert cos_alpha_g(*whiten(k, np.array([1.0, 0.0]), np.array([0.0, 2.0])), 1.0) == 0.0


def test_cos_alpha_g_in_range_when_norm_dominates():
    # oracle-norm estimates from training can only exceed the projected norm
    rng = np.random.default_rng(1)
    for _ in range(25):
        k = random_kernel(8, rng)
        w_g, w_s = whiten(k, rng.normal(size=8), rng.normal(size=8))
        norm = np.sqrt(w_g @ w_g) * rng.uniform(1.0, 3.0)
        val = cos_alpha_g(w_g, w_s, norm)
        assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


def test_cos_alpha_g_degenerate_student():
    k = KernelMatrix(np.eye(3), jitter=0.0)
    with pytest.raises(DegenerateVectorError):
        cos_alpha_g(*whiten(k, np.ones(3), np.zeros(3)), 1.0)


def test_projection_collinear_correction_cancels():
    rng = np.random.default_rng(2)
    k = random_kernel(5, rng)
    dz_g = rng.normal(size=5)
    dz_t = rng.normal(size=5)
    assert correction_projection(*whiten(k, dz_g, dz_t, 3.7 * dz_t)) == pytest.approx(
        0.0, abs=1e-9
    )


def test_projection_perfect_teacher_vanishes():
    rng = np.random.default_rng(3)
    k = random_kernel(5, rng)
    w_g, w_h = whiten(k, rng.normal(size=5), rng.normal(size=5))
    projection = correction_projection(w_g, w_g, w_h)
    assert projection == pytest.approx(0.0, abs=1e-9)
    assert hard_label_derivative(w_g, projection, 2.0) == pytest.approx(
        0.0, abs=1e-9
    )


def test_projection_orthogonal_correction_vanishes():
    k = KernelMatrix(np.eye(4), jitter=0.0)
    dz_g = np.array([1.0, 0.0, 0.0, 0.0])
    dz_t = np.array([0.0, 1.0, 0.0, 0.0])
    dz_h = np.array([0.0, 0.0, 2.0, -1.0])
    assert correction_projection(*whiten(k, dz_g, dz_t, dz_h)) == 0.0


def test_projection_bilinear():
    rng = np.random.default_rng(4)
    k = random_kernel(6, rng)
    dz_t = rng.normal(size=6)
    g1, g2, h1, h2 = rng.normal(size=(4, 6))
    a, b = 1.7, -0.6
    proj = lambda g, t, h: correction_projection(*whiten(k, g, t, h))
    lhs = proj(a * g1 + b * g2, dz_t, h1)
    rhs = a * proj(g1, dz_t, h1) + b * proj(g2, dz_t, h1)
    assert lhs == pytest.approx(rhs, rel=1e-9)
    lhs = proj(g1, dz_t, a * h1 + b * h2)
    rhs = a * proj(g1, dz_t, h1) + b * proj(g1, dz_t, h2)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_derivative_definitional_consistency():
    rng = np.random.default_rng(5)
    k = random_kernel(7, rng)
    w_g, w_t, w_h = whiten(k, *rng.normal(size=(3, 7)))
    norm = 2.3
    lhs = correction_projection(w_g, w_t, w_h)
    rhs = hard_label_derivative(w_t, lhs, norm) * norm * np.sqrt(w_t @ w_t)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def _solve_root(z_t, y, rho, temp):
    def f(z):
        return (rho / temp) * (expit(z / temp) - expit(z_t / temp)) + (1 - rho) * (
            expit(z) - y
        )

    lo, hi = -1e4, 1e4
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_derivative_matches_finite_difference_of_cosine():
    # central finite difference across rho = 1 of the student-oracle cosine
    # with per-sample solver targets, over many random small instances
    rng = np.random.default_rng(6)
    h = 1e-3
    checked = 0
    for trial in range(60):
        n = int(rng.integers(4, 65))
        k = random_kernel(n, rng)
        # reduced-scale teacher logits keep the correction logits comparable
        # to the teacher deltas, where the linear expansion is meaningful
        z_t = rng.uniform(-2.0, 2.0, size=n)
        y = (rng.random(n) < 0.7).astype(float)
        dz_g = rng.normal(scale=2.0, size=n)
        temp = float(rng.choice([1.0, 2.0]))
        w_g, w_t = whiten(k, dz_g, z_t)
        norm = np.sqrt(w_g @ w_g) * 1.5

        w_h = k.half_solve(correction_logit(z_t, y, temp))
        deriv = hard_label_derivative(w_t, correction_projection(w_g, w_t, w_h), norm)

        cos_hi = cos_alpha_g(
            w_g, k.half_solve([_solve_root(z, yy, 1 - h, temp) for z, yy in zip(z_t, y)]), norm
        )
        cos_lo = cos_alpha_g(
            w_g, k.half_solve([_solve_root(z, yy, 1 + h, temp) for z, yy in zip(z_t, y)]), norm
        )
        fd = (cos_hi - cos_lo) / (2 * h)
        if abs(fd) < 1e-6:  # derivative too small for a relative comparison
            continue
        assert deriv == pytest.approx(fd, rel=1e-2)
        checked += 1
    assert checked >= 50
