import warnings

import numpy as np
import pytest
from scipy.special import expit

from ntkdistill import distillation
from ntkdistill.distillation import (
    DistillParams,
    UnboundedSolutionError,
    correction_logit,
    distill_loss,
    effective_logit_closed_t1,
    effective_logits,
    label_smoothing_logit,
    loss_gradient,
    z_max,
)


def test_expit_matches_scipy_without_warnings():
    # numpy's exp in scipy's formula: equal to rounding, exactly 0 and 1 at
    # the ends, and the overflow of exp(-x) below about -709 stays silent
    x = np.linspace(-800.0, 800.0, 160_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = distillation.expit(x)
        ends = [distillation.expit(v) for v in (-800.0, 800.0, -800, 0.5)]
    want = expit(x)
    assert np.allclose(got, want, rtol=1e-15, atol=0)
    assert ends[:3] == [0.0, 1.0, 0.0]
    assert np.ndim(ends[3]) == 0 and ends[3] == pytest.approx(expit(0.5), rel=1e-15)


def test_loss_minimized_at_matched_logits():
    p = DistillParams(soft_ratio=1.0, temperature=3.0)
    z_t = 1.3
    base = distill_loss(z_t, z_t, 1, p)
    soft = expit(z_t / 3.0)
    entropy = -(soft * np.log(soft) + (1 - soft) * np.log(1 - soft))
    assert base == pytest.approx(entropy, rel=1e-12)
    for dz in (-0.5, 0.2, 2.0):
        assert distill_loss(z_t + dz, z_t, 1, p) > base


def test_loss_hard_label_tail():
    p = DistillParams(soft_ratio=0.0, temperature=1.0)
    val = distill_loss(-30.0, 0.0, 1, p)
    assert np.isfinite(val)
    assert val == pytest.approx(30.0, rel=1e-10)  # softplus(30) ~ 30


def test_loss_stable_at_extreme_logits():
    p = DistillParams(soft_ratio=0.5, temperature=2.0)
    for z in (-1e3, 1e3):
        assert np.isfinite(distill_loss(z, 5.0, 1, p))
        assert np.isfinite(loss_gradient(z, 5.0, 1, p))


def test_gradient_matches_finite_difference():
    rng = np.random.default_rng(0)
    p = DistillParams(soft_ratio=0.7, temperature=4.0)
    h = 1e-6
    for _ in range(50):
        z_s, z_t = rng.normal(scale=3.0, size=2)
        y = float(rng.integers(0, 2))
        fd = (distill_loss(z_s + h, z_t, y, p) - distill_loss(z_s - h, z_t, y, p)) / (
            2 * h
        )
        assert loss_gradient(z_s, z_t, y, p) == pytest.approx(fd, abs=1e-8)


def test_gradient_trivial_and_limits():
    p = DistillParams(soft_ratio=1.0, temperature=2.0)
    assert loss_gradient(1.5, 1.5, 1, p) == pytest.approx(0.0, abs=1e-15)
    p2 = DistillParams(soft_ratio=0.3, temperature=2.0)
    limit = 0.3 / 2.0 * (1 - expit(1.0 / 2.0)) + 0.7
    assert loss_gradient(1e4, 1.0, 0, p2) == pytest.approx(limit, rel=1e-12)


def test_effective_logit_pure_soft_identity():
    for temp in (1.0, 5.0, 10.0):
        p = DistillParams(soft_ratio=1.0, temperature=temp)
        assert float(effective_logits(1.7, 1, p)) == pytest.approx(1.7, abs=1e-10)


def test_effective_logit_known_roots():
    p = DistillParams(soft_ratio=0.5, temperature=1.0)
    assert float(effective_logits(0.0, 1, p)) == pytest.approx(np.log(3.0), abs=1e-9)
    p = DistillParams(soft_ratio=0.4, temperature=1.0)
    # logit of 0.4*sigmoid(-2) + 0.6 = 0.647681...
    assert float(effective_logits(-2.0, 1, p)) == pytest.approx(0.6088620157608744, abs=1e-9)


def test_effective_logit_residual_small():
    rng = np.random.default_rng(1)
    for _ in range(100):
        rho = rng.uniform(0.05, 1.0)
        temp = rng.uniform(0.5, 10.0)
        p = DistillParams(soft_ratio=rho, temperature=temp)
        z_t = rng.normal(scale=5.0)
        y = float(rng.integers(0, 2))
        root = float(effective_logits(z_t, y, p))
        assert abs(loss_gradient(root, z_t, y, p)) <= 1e-12


def test_effective_logit_closed_form_t1_grid():
    z_grid = np.linspace(-5, 5, 21)
    for rho in np.linspace(1.0 / 11.0, 1.0, 11):
        p = DistillParams(soft_ratio=rho, temperature=1.0)
        for y in (0.0, 1.0):
            solved = effective_logits(z_grid, y, p)
            closed = effective_logit_closed_t1(z_grid, y, rho)
            assert np.allclose(solved, closed, atol=1e-9)


def test_closed_t1_trivial_and_bound():
    assert effective_logit_closed_t1(2.3, 1, 1.0) == pytest.approx(2.3, abs=1e-12)
    for z_t in np.linspace(-8, 8, 33):
        val = effective_logit_closed_t1(z_t, 1, 0.3)
        assert expit(val) >= 0.7 - 1e-12
    with pytest.raises(UnboundedSolutionError):
        effective_logit_closed_t1(0.0, 1, 0.0)


def test_pure_hard_labels_saturate_at_z_max():
    # at rho = 0 the root diverges, and every entry is the clamp
    # sign(2 y - 1) * z_max(T), bit for bit, whatever the teacher logit
    z_t = np.linspace(-40.0, 40.0, 33)[:, None]
    y = np.array([0.0, 1.0])
    for temp in (0.5, 1.0, 2.0, 10.0, 37.5):
        got = effective_logits(z_t, y, DistillParams(0.0, temp))
        clamp = np.sign(2.0 * np.broadcast_to(y, got.shape) - 1.0) * z_max(temp)
        assert got.shape == (33, 2)
        assert np.array_equal(got, clamp)
        assert np.all(got[:, 1] == max(30.0, 30.0 * temp))


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
def test_effective_logits_keep_the_broadcast_shape(rho):
    p = DistillParams(rho, 2.0)
    assert np.shape(effective_logits(0.5, 1.0, p)) == ()
    assert effective_logits([0.5, -1.0, 2.0], 1.0, p).shape == (3,)
    assert effective_logits(0.5, [0.0, 1.0], p).shape == (2,)
    grid = effective_logits(np.array([[0.5], [-1.0], [2.0]]), [0.0, 1.0], p)
    assert grid.shape == (3, 2)
    # each entry is its own scalar solve
    for i, z_t in enumerate((0.5, -1.0, 2.0)):
        for j, y in enumerate((0.0, 1.0)):
            assert grid[i, j] == float(effective_logits(z_t, y, p))


def test_monotone_in_teacher_and_label():
    p = DistillParams(soft_ratio=0.6, temperature=3.0)
    grid = np.linspace(-6, 6, 49)
    for y in (0.0, 1.0):
        vals = effective_logits(grid, y, p)
        assert np.all(np.diff(vals) >= -1e-10)
    assert np.all(
        effective_logits(grid, 1.0, p) >= effective_logits(grid, 0.0, p) - 1e-10
    )


def test_amplification_when_teacher_correct():
    # converged student logits exceed the teacher's in magnitude
    for rho in (0.2, 0.5, 0.9):
        p = DistillParams(soft_ratio=rho, temperature=5.0)
        for z_t in (-3.0, -0.4, 0.4, 3.0):
            y = 1.0 if z_t > 0 else 0.0
            z_eff = float(effective_logits(z_t, y, p))
            assert abs(z_eff) > abs(z_t)
            assert np.sign(z_eff) == np.sign(z_t)


def test_pointwise_correction_bound():
    # hard labels cap how wrong the student can be, regardless of the teacher
    for rho in (0.2, 0.5, 0.8):
        p = DistillParams(soft_ratio=rho, temperature=1.0)
        for z_t in np.linspace(-20, 20, 41):
            z_eff = float(effective_logits(z_t, 1, p))
            assert expit(z_eff) >= 1 - rho - 1e-9
            if rho <= 0.5:
                assert z_eff > 0


def test_split_positive_and_widens():
    eps = 1e-9
    temp = 5.0
    jumps = []
    for rho in (0.9, 0.5, 0.2):
        p = DistillParams(soft_ratio=rho, temperature=temp)
        jump = float(effective_logits(eps, 1, p)) - float(effective_logits(-eps, 0, p))
        assert jump > 0
        jumps.append(jump)
    assert jumps == sorted(jumps)  # widens as rho decreases


def test_cutoff_shape_at_small_rho():
    p = DistillParams(soft_ratio=0.05, temperature=5.0)
    threshold = float(effective_logits(1e-9, 1, p))
    for z_t in np.linspace(-4, 4, 33):
        y = 1.0 if z_t > 0 else 0.0
        assert abs(float(effective_logits(z_t, y, p))) >= threshold - 1e-6


def test_correction_logit_values():
    assert correction_logit(0.0, 1, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert correction_logit(0.0, 0, 1.0) == pytest.approx(-2.0, rel=1e-12)
    assert correction_logit(0.0, 1, 2.0) == pytest.approx(8.0, rel=1e-12)
    with pytest.raises(OverflowError):
        correction_logit(600.0, 1, 1.0)


def _solve_root(z_t, y, rho, temp):
    # independent bisection on the stationarity residual; tolerates rho > 1
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


# the grid of the solver tests below: soft ratios, temperatures and teacher
# logits from the pure-soft end to nearly pure hard labels
SOLVER_RHOS = (1.0, 0.5, 0.05, 0.01)
SOLVER_TEMPS = (1.0, 4.0, 10.0, 30.0)
SOLVER_Z_T = np.linspace(-50.0, 50.0, 41)


def _root_uncertainty(z, z_t, y, rho, temp):
    # how far a root at z can move while the residual stays within its own
    # rounding error: eps times the size of the residual's pieces, over the
    # slope
    u = z / temp
    pieces = (rho / temp) * np.maximum(expit(u), expit(z_t / temp)) + (1 - rho) * np.maximum(
        expit(z), y
    )
    slope = (rho / temp**2) * expit(u) * expit(-u) + (1 - rho) * expit(z) * expit(-z)
    return np.finfo(float).eps * pieces / slope


@pytest.mark.parametrize("rho", SOLVER_RHOS)
def test_effective_logits_entries_solved_independently(rho):
    # an entry's root does not depend on the batch it is solved in; every
    # residual is below 1e-12, and the root agrees with an independent
    # bisection wherever the residual's rounding pins it that closely
    compared = 0
    for temp in SOLVER_TEMPS:
        p = DistillParams(soft_ratio=rho, temperature=temp)
        for y in (0.0, 1.0):
            batch = effective_logits(SOLVER_Z_T, y, p)
            alone = np.array([effective_logits(z_t, y, p) for z_t in SOLVER_Z_T])
            assert np.array_equal(batch, alone)
            assert np.all(np.abs(loss_gradient(batch, SOLVER_Z_T, y, p)) < 1e-12)
            ref = np.array([_solve_root(z_t, y, rho, temp) for z_t in SOLVER_Z_T])
            tol = 1e-9 * np.maximum(1.0, np.abs(ref))
            # flat roots (sigmoid' tiny at the root next to a sigmoid near 1)
            # are pinned only to within the residual's rounding error
            pinned = 4 * _root_uncertainty(ref, SOLVER_Z_T, y, rho, temp) <= tol
            assert np.all(np.abs(batch - ref)[pinned] <= tol[pinned])
            compared += pinned.sum()
    assert compared >= len(SOLVER_TEMPS) * len(SOLVER_Z_T)  # half the entries


def test_effective_logits_residual_budget(monkeypatch):
    # each entry stops on its own test, so a 128-entry solve costs a bounded
    # number of residual evaluations (bisection to rounding level took ~58)
    import ntkdistill.distillation as distillation

    calls = []
    original = distillation.loss_gradient

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(distillation, "loss_gradient", counting)
    rng = np.random.default_rng(3)
    for rho in (1.0, 0.5, 0.05):
        p = DistillParams(soft_ratio=rho, temperature=10.0)
        for _ in range(20):
            z_t = rng.normal(scale=3.0, size=128)
            y = (z_t + rng.normal(size=128) > 0).astype(float)
            calls.clear()
            effective_logits(z_t, y, p)
            assert len(calls) <= 30


def test_correction_logit_matches_solver_derivative():
    # central finite difference of the root across rho = 1 (the residual
    # stays strictly monotone slightly beyond rho = 1)
    rng = np.random.default_rng(2)
    h = 1e-4
    for _ in range(30):
        z_t = rng.normal(scale=2.0)
        y = float(rng.integers(0, 2))
        temp = rng.choice([1.0, 2.0, 5.0])
        fd = (_solve_root(z_t, y, 1 - h, temp) - _solve_root(z_t, y, 1 + h, temp)) / (
            2 * h
        )
        assert correction_logit(z_t, y, temp) == pytest.approx(fd, rel=1e-3)


def test_linearization_error_is_second_order():
    p_ref = 2.0  # expected order of the remainder
    z_t, y, temp = 0.8, 0.0, 2.0
    errs = []
    for h in (1e-2, 1e-3):
        p = DistillParams(soft_ratio=1 - h, temperature=temp)
        approx = z_t + h * correction_logit(z_t, y, temp)
        errs.append(abs(float(effective_logits(z_t, y, p)) - approx))
    ratio = errs[0] / errs[1]
    assert 10 ** (p_ref - 0.4) <= ratio <= 10 ** (p_ref + 0.4)


def test_label_smoothing_logit():
    assert label_smoothing_logit(1, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert label_smoothing_logit(1, 0.2) == pytest.approx(np.log(9.0), rel=1e-12)
    assert label_smoothing_logit(0, 0.2) == pytest.approx(-np.log(9.0), rel=1e-12)
    with pytest.raises(ValueError):
        label_smoothing_logit(1, 0.0)
    with pytest.raises(ValueError):
        label_smoothing_logit(1, 1.5)


def test_params_validation():
    with pytest.raises(ValueError):
        DistillParams(soft_ratio=1.5)
    with pytest.raises(ValueError):
        DistillParams(soft_ratio=0.5, temperature=0.0)


@pytest.mark.parametrize("z_t, y_g", [
    ([np.nan, 1.0], 1.0),
    ([0.5, np.inf], 1.0),
    ([0.5, -1.0], [1.0, np.nan]),
], ids=["nan-logit", "inf-logit", "nan-label"])
def test_non_finite_inputs_fail_loudly(z_t, y_g):
    # a non-finite input must raise, not come back as a made-up root beside
    # the solved entries, also on the saturated rho = 0 path
    for rho in (0.0, 0.5, 1.0):
        with pytest.raises(FloatingPointError):
            effective_logits(z_t, y_g, DistillParams(rho, 10.0))
