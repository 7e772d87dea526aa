import numpy as np
import pytest

from ntkdistill.kernel import analytic_ntk_gram
from ntkdistill.linalg import KernelMatrix
from ntkdistill.metrics import (
    AngleCurve,
    angle_distribution,
    alpha_n,
    data_inefficiency,
    default_beta_grid,
    empirical_risk,
    fit_power_law,
    inefficiency_from_norms,
    inefficiency_of_norm_law,
    risk_bound,
    unit_rng,
)
from ntkdistill.network import NetConfig, Sweep, forward, init_params
from ntkdistill.tasks import Task, TaskSpec


def test_weight_change_norm_trivial():
    k = KernelMatrix(np.eye(2), jitter=0.0)
    w = k.half_solve(np.array([3.0, 4.0]))
    assert np.sqrt(w @ w) == pytest.approx(5.0)
    w0 = k.half_solve(np.zeros(2))
    assert w0 @ w0 == 0.0


def test_weight_change_norm_matches_feature_space():
    # kernel-form norm equals the 2-norm of the explicit feature-space solution
    cfg = NetConfig(2, 2, 64)
    p0 = init_params(cfg, 0)
    rng = np.random.default_rng(0)
    x = rng.normal(scale=5.0, size=(12, 2))
    dz = rng.normal(size=12)
    sweep = Sweep(cfg, p0, x)
    gram = KernelMatrix(sweep.gram(), jitter=0.0)
    f = np.stack([sweep.vjp(unit) for unit in np.eye(len(x))])
    delta = f.T @ gram.solve(dz)
    w = gram.half_solve(dz)
    assert np.sqrt(w @ w) == pytest.approx(
        np.linalg.norm(delta), rel=1e-6
    )


def test_injected_power_law_oracle():
    # n * [ln law(n+1) - ln law(n)] for law = c * n^0.5 at n = 100
    vals = inefficiency_of_norm_law(lambda n: 3.7 * n**0.5, [100])
    assert vals[0] == pytest.approx(50.0 * np.log(1.01), abs=1e-12)
    assert vals[0] == pytest.approx(0.49751654265778614, abs=1e-6)


def test_constant_norm_law_gives_zero():
    assert inefficiency_of_norm_law(lambda n: 2.5, [10, 100])[0] == 0.0
    assert np.allclose(inefficiency_from_norms([8, 16], [1.0, 1.0], [1.0, 1.0]), 0.0)


def test_unit_rng_keyed_streams():
    a = unit_rng(7, 1, 2).standard_normal(4)
    b = unit_rng(7, 1, 2).standard_normal(4)
    c = unit_rng(7, 1, 3).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_data_inefficiency_matches_manual_computation():
    task = Task(TaskSpec(kind="mixture", modes=3, seed=2))
    cfg = NetConfig(2, 2, 16)
    curve = data_inefficiency(task, cfg, [8], repeats=1, root_seed=5)

    rng = unit_rng(5, 0, 0)
    x = task.sample_inputs(9, rng)
    z = task.target_logits(x, rng)
    dz = z - forward(cfg, init_params(cfg, rng), x)
    full = analytic_ntk_gram(cfg, x)
    base = KernelMatrix(full.entries[:8, :8])
    aug = KernelMatrix(full.entries, jitter=base.jitter_used)
    w_aug, w_base = aug.half_solve(dz), base.half_solve(dz[:8])
    expect = 8 * (
        np.log(np.sqrt(w_aug @ w_aug))
        - np.log(np.sqrt(w_base @ w_base))
    )
    assert curve.inefficiency[0] == pytest.approx(expect, rel=1e-6)
    assert curve.skipped[0] == 0 and not curve.unreliable[0]


def test_data_inefficiency_deterministic_and_schedule_free():
    task = Task(TaskSpec(kind="random-labels", seed=1))
    cfg = NetConfig(2, 2, 16)
    a = data_inefficiency(task, cfg, [8, 16], repeats=3, root_seed=9, extra_points=4)
    b = data_inefficiency(task, cfg, [8, 16, 32], repeats=3, root_seed=9, extra_points=4)
    # adding a grid point does not perturb existing ones
    assert np.allclose(a.inefficiency, b.inefficiency[:2], atol=1e-12)


@pytest.mark.parametrize("kind, draws", [("random-labels", 0), ("mixture", 4)])
def test_data_inefficiency_draws_student_init_only_when_read(monkeypatch, kind, draws):
    # the student initialization is read only by the initial logits of tasks
    # that subtract them; otherwise it is not drawn.  It is each unit
    # stream's last draw, so skipping it moves no value.
    import ntkdistill.metrics as metrics

    calls = []
    original = metrics.init_params

    def spy(cfg, rng):
        calls.append(1)
        return original(cfg, rng)

    monkeypatch.setattr(metrics, "init_params", spy)
    task = Task(TaskSpec(kind=kind, modes=3, seed=1))
    cfg = NetConfig(2, 2, 16)
    curve = data_inefficiency(task, cfg, [6, 10], repeats=2, root_seed=3)
    assert len(calls) == draws
    assert np.all(np.isfinite(curve.inefficiency))


def test_data_inefficiency_checks_each_gram_once(monkeypatch):
    # each (n, repeat) unit builds one KernelMatrix, the full Gram; the base
    # block is its leading block, not a second checked copy
    calls = []
    original = KernelMatrix.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(KernelMatrix, "__init__", counting)
    task = Task(TaskSpec(kind="mixture", modes=3, seed=1))
    curve = data_inefficiency(task, NetConfig(2, 2, 16), [6, 10], repeats=2, root_seed=3)
    assert len(calls) == 4
    assert np.all(np.isfinite(curve.inefficiency))


def test_data_inefficiency_half_solves_each_unit_once(monkeypatch):
    # the base norm dz^T K^{-1} dz half-solves dz once and dots the
    # whitened vector with itself
    calls = []
    original = KernelMatrix.half_solve

    def counting(self, b):
        calls.append(1)
        return original(self, b)

    monkeypatch.setattr(KernelMatrix, "half_solve", counting)
    task = Task(TaskSpec(kind="mixture", modes=3, seed=1))
    curve = data_inefficiency(task, NetConfig(2, 2, 16), [6], repeats=1, root_seed=3)
    assert len(calls) == 1
    assert np.all(np.isfinite(curve.inefficiency))


def test_data_inefficiency_holds_two_grams_at_its_peak(traced_peak):
    # a unit holds its Gram and one factor at its peak and frees both
    # before the next unit draws, so a second repeat adds nothing
    task = Task(TaskSpec(kind="mixture", dim=1, modes=10, seed=7))
    cfg = NetConfig(1, 5, 256)
    peaks = [
        traced_peak(lambda: data_inefficiency(task, cfg, [512], repeats=r, root_seed=99,
                                              extra_points=32))[1]
        for r in (1, 2)
    ]
    assert peaks[1] <= 2.5 * 544**2 * 8
    assert peaks[1] <= 1.05 * peaks[0]


def test_nested_norms_nondecreasing():
    # the weight change is a projection onto a growing span
    task = Task(TaskSpec(kind="mixture", modes=5, seed=3))
    cfg = NetConfig(2, 3, 32)
    rng = np.random.default_rng(4)
    x = task.sample_inputs(128, rng)
    z = task.target_logits(x, rng)
    dz = z - forward(cfg, init_params(cfg, rng), x)
    gram = analytic_ntk_gram(cfg, x)
    norms = []
    for n in (16, 32, 64, 128):
        sub = KernelMatrix(gram.entries[:n, :n])
        w = sub.half_solve(dz[:n])
        norms.append(np.sqrt(w @ w))
    for small, big in zip(norms, norms[1:]):
        assert big >= small * (1 - 1e-6)


def test_alpha_n_trivial_cases():
    p = 20
    rng = np.random.default_rng(0)
    dw = rng.normal(size=p)
    zero = np.zeros(p)
    assert alpha_n(dw, dw, zero) == pytest.approx(0.0, abs=1e-7)
    e1, e2 = np.eye(p)[0], np.eye(p)[1]
    assert alpha_n(e1, e2, zero) == pytest.approx(np.pi / 2)


def _uniform_sampler(n, rng):
    return rng.normal(size=(n, 3))


def test_angle_distribution_endpoints_and_monotone():
    rng = np.random.default_rng(1)
    curve = angle_distribution(
        eff_logits_fn=lambda x: np.sin(x[:, 0]),
        kernel_diag_fn=lambda x: 1.0 + np.sum(x**2, axis=1),
        norm_delta=2.0,
        sampler=_uniform_sampler,
        n_samples=4000,
        rng=rng,
    )
    assert curve.survival[0] == pytest.approx(1.0)
    assert curve.survival[-1] == 0.0
    assert np.all(np.diff(curve.survival) <= 0)
    assert np.all(curve.half_width >= 0) and np.all(curve.half_width <= 0.02)


def test_angle_distribution_known_angle():
    # cos is identically 1/2, so every sampled angle is pi/3
    rng = np.random.default_rng(2)
    curve = angle_distribution(
        eff_logits_fn=lambda x: np.ones(len(x)),
        kernel_diag_fn=lambda x: np.ones(len(x)),
        norm_delta=2.0,
        sampler=_uniform_sampler,
        n_samples=100,
        rng=rng,
    )
    third = np.pi / 3
    assert risk_bound(curve, np.pi / 2 - third + 1e-6) == pytest.approx(1.0)
    # one full grid step past the atom, the conservative bound drops to 0
    assert risk_bound(curve, np.pi / 2 - third - 0.01) == 0.0


def test_risk_bound_endpoints():
    betas = default_beta_grid(64)
    survival = np.linspace(1.0, 0.0, 64)
    curve = AngleCurve(betas, survival, np.zeros(64))
    assert risk_bound(curve, 0.0) == 0.0
    assert risk_bound(curve, np.pi / 2) == 1.0
    with pytest.raises(ValueError):
        risk_bound(curve, 2.0)


def test_risk_bound_is_conservative():
    betas = default_beta_grid(16)
    survival = np.linspace(1.0, 0.0, 16) ** 2
    curve = AngleCurve(betas, survival, np.zeros(16))
    rng = np.random.default_rng(3)
    for _ in range(50):
        alpha = rng.uniform(0, np.pi / 2)
        exact = np.interp(np.pi / 2 - alpha, betas, survival)
        assert risk_bound(curve, alpha) >= exact - 1e-12


def test_empirical_risk_trivial():
    rng = np.random.default_rng(4)
    f = lambda x: x[:, 0] + 0.3
    est = empirical_risk(f, f, _uniform_sampler, 500, rng)
    assert est.risk == 0.0 and est.tie_rate == 0.0
    est = empirical_risk(f, lambda x: -f(x), _uniform_sampler, 500, rng)
    assert est.risk == 1.0


def test_empirical_risk_halfspace_angle():
    # two centered halfspaces at angle gamma disagree with probability
    # gamma / pi under any rotation-invariant law
    gamma = 0.8
    u = np.array([1.0, 0.0])
    v = np.array([np.cos(gamma), np.sin(gamma)])
    rng = np.random.default_rng(5)
    est = empirical_risk(
        lambda x: x @ u,
        lambda x: x @ v,
        lambda n, rng_: rng_.normal(size=(n, 2)),
        10**5,
        rng,
    )
    assert est.risk == pytest.approx(gamma / np.pi, abs=0.01)
    assert est.std_error == pytest.approx(
        np.sqrt(est.risk * (1 - est.risk) / 10**5), rel=1e-9
    )


def test_fit_power_law_exact():
    ns = np.array([10, 20, 40, 80, 160])
    assert fit_power_law(ns, 4.0 * ns ** (-0.7)) == pytest.approx(-0.7, abs=1e-12)


def test_fit_power_law_constant_and_errors():
    ns = [8, 16, 32]
    assert fit_power_law(ns, [2.0, 2.0, 2.0]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_power_law([8, 16], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_power_law(ns, [1.0, -2.0, 3.0])
