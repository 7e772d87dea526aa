"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines and timings.  Criterion 9's confident teacher is the session's
shared ``mixture_teacher`` (conftest.py), trained once for this module and
``test_pipeline.py`` alike.  Students are built from the runners' pieces:
``student_closed_form`` for a kernel solve, a ``Sweep`` where the Gram is
needed too, and one ``row_blocks`` pass for a Monte Carlo evaluation.
"""

import time

import numpy as np
import pytest
from scipy.special import expit

from ntkdistill.distillation import (
    DistillParams,
    correction_logit,
    effective_logits,
    z_max,
)
from ntkdistill.hardlabel import cos_alpha_g, correction_projection, hard_label_derivative
from ntkdistill.kernel import (
    analytic_ntk_diag,
    analytic_ntk_gram,
    empirical_ntk_diag,
    empirical_ntk_gram,
)
from ntkdistill.linalg import KernelMatrix
from ntkdistill.metrics import (
    alpha_n,
    angle_distribution,
    data_inefficiency,
    empirical_risk,
    fit_power_law,
    inefficiency_of_norm_law,
    risk_bound,
    unit_rng,
)
from ntkdistill.network import (
    NetConfig,
    SquaredTargets,
    Sweep,
    TrainConfig,
    forward,
    init_params,
    row_blocks,
    train_linearized,
    train_teacher,
)
from ntkdistill.tasks import LabelSource, Task, TaskSpec, realize_mixture
from ntkdistill.experiments import _SignTask, distilled_target_fn, student_closed_form


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


# ---------------------------------------------------------------- fixtures


def input_sampler(n, rng):
    return rng.normal(scale=5.0, size=(n, 2))


def linear_student(net, params0, delta):
    """The linearized student z0 + delta . phi, swept in row blocks."""
    return lambda x: row_blocks(net, params0, x, lambda s: s.logits + s.jvp(delta))


@pytest.fixture(scope="module")
def confident_teacher(mixture_teacher):
    """The perfect-teacher reference: the session's network trained long on
    mixture labels, at reduction 0.3."""
    task, net, params = mixture_teacher
    return LabelSource(net, params, reduction=0.3, ground_truth=task.target_logits)


# ------------------------------------------------------------ criterion 1


def test_criterion_1_effective_logit_closed_form_t1():
    start = time.perf_counter()
    z_grid = np.linspace(-5, 5, 21)
    rhos = np.linspace(1.0 / 11.0, 1.0, 11)
    worst = 0.0
    for rho in rhos:
        dp = DistillParams(soft_ratio=float(rho), temperature=1.0)
        for y in (0.0, 1.0):
            solved = effective_logits(z_grid, y, dp)
            achieved = expit(solved)
            target = rho * expit(z_grid) + (1 - rho) * y
            worst = max(worst, float(np.max(np.abs(achieved - target))))
            if y == 1.0:
                assert np.all(achieved >= 1 - rho - 1e-9)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 1.0
    report(1, f"sigma(z_eff) matches the mixed probability to {worst:.1e} "
              f"over 21x11x2 grid points in {elapsed:.2f} s; "
              f"sigma(z_eff) >= 1 - rho at every point")


# ------------------------------------------------------------ criterion 2


def test_criterion_2_pure_soft_identity():
    worst = 0.0
    for temp in (1.0, 5.0, 10.0):
        dp = DistillParams(soft_ratio=1.0, temperature=temp)
        for z_t in np.linspace(-5, 5, 21):
            worst = max(worst, abs(float(effective_logits(z_t, 1, dp)) - z_t))
    assert worst <= 1e-10
    report(2, f"rho = 1 returns the teacher logit to {worst:.1e} for T in (1, 5, 10)")


# ------------------------------------------------------------ criterion 3


def _solve_root(z_t, y, rho, temp):
    # independent bisection on the stationarity residual (tolerates rho > 1)
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


def test_criterion_3_hard_label_derivative_numerics():
    rng = np.random.default_rng(6)
    h = 1e-3
    checked = 0
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(4, 65))
        a = rng.standard_normal((n, n))
        k = KernelMatrix(a @ a.T + n * np.eye(n), jitter=0.0)
        z_t = rng.uniform(-2.0, 2.0, size=n)
        y = (rng.random(n) < 0.7).astype(float)
        dz_g = rng.normal(scale=2.0, size=n)
        temp = float(rng.choice([1.0, 2.0]))
        w_g, w_t = k.half_solve(dz_g), k.half_solve(z_t)
        norm = np.sqrt(w_g @ w_g) * 1.5
        # the derivative is the projection rescaled, so the finite
        # difference checks both, and the projection's sign with them
        proj = correction_projection(w_g, w_t, k.half_solve(correction_logit(z_t, y, temp)))
        deriv = hard_label_derivative(w_t, proj, norm)
        hi = cos_alpha_g(
            w_g,
            k.half_solve([_solve_root(z, yy, 1 - h, temp) for z, yy in zip(z_t, y)]), norm,
        )
        lo = cos_alpha_g(
            w_g,
            k.half_solve([_solve_root(z, yy, 1 + h, temp) for z, yy in zip(z_t, y)]), norm,
        )
        fd = (hi - lo) / (2 * h)
        if abs(fd) < 1e-6:
            continue
        worst = max(worst, abs(deriv - fd) / abs(fd))
        assert np.sign(proj) == np.sign(fd)
        checked += 1
    assert checked >= 50
    assert worst <= 0.01

    # pointwise: the correction logit against solver finite differences
    h2 = 1e-4
    worst_pt = 0.0
    for _ in range(50):
        z_t = rng.normal(scale=1.5)
        y = float(rng.integers(0, 2))
        temp = float(rng.choice([1.0, 2.0, 5.0]))
        fd = (_solve_root(z_t, y, 1 - h2, temp) - _solve_root(z_t, y, 1 + h2, temp)) / (
            2 * h2
        )
        worst_pt = max(worst_pt, abs(correction_logit(z_t, y, temp) - fd) / abs(fd))
    assert worst_pt <= 1e-3
    report(3, f"derivative matches the cosine finite difference to {worst:.2%} on "
              f"{checked} instances; correction logit to {worst_pt:.3%} pointwise")


# ------------------------------------------------------------ criterion 4


def test_criterion_4_kernel_correctness():
    cfg1 = NetConfig(2, 1, 4)
    x11 = np.array([1.0, 1.0])
    base = (x11 @ x11) / 2 + 1.0
    assert abs(base - 2.0) <= 1e-12
    assert abs(analytic_ntk_diag(cfg1, x11[None, :])[0] - 3.0) <= 1e-12

    rng = np.random.default_rng(3)
    xs = rng.normal(scale=5.0, size=(16, 2))
    errs = []
    for width in (64, 256, 1024, 4096):
        cfg = NetConfig(2, 3, width)
        target = analytic_ntk_gram(cfg, xs).entries
        per_seed = [
            np.linalg.norm(
                empirical_ntk_gram(cfg, init_params(cfg, seed), xs).entries
                - target
            )
            / np.linalg.norm(target)
            for seed in range(5)
        ]
        errs.append(float(np.mean(per_seed)))
    assert all(np.diff(errs) < 0)
    assert errs[-1] <= 0.05

    cfg3 = NetConfig(2, 3, 4)
    ratios = []
    for norm in np.linspace(10, 100, 19):
        d = rng.normal(size=2)
        point = norm * d / np.linalg.norm(d)
        ratios.append(analytic_ntk_diag(cfg3, point[None, :])[0] / norm**2)
    assert min(ratios) >= 0.25
    report(4, f"hand cases exact; width sweep errors {np.round(errs, 4).tolist()} "
              f"strictly decreasing with {errs[-1]:.3f} at width 4096; "
              f"diagonal ratio >= {min(ratios):.4f} for |x| in [10, 100]")


# ------------------------------------------------------------ criterion 5


def test_criterion_5_training_equivalence():
    cfg = NetConfig(2, 3, 256)
    p0 = init_params(cfg, 1)
    rng = np.random.default_rng(5)
    n = 32
    x = rng.normal(scale=5.0, size=(n, 2))
    targets = np.sin(x[:, 0] * 0.3) + 0.5 * x[:, 1] ** 2 / 25.0
    [delta_solve] = student_closed_form(cfg, p0, x, [targets])
    solve_logits = linear_student(cfg, p0, delta_solve)(x)

    tc = TrainConfig(learning_rate=0.01, batch_size=n, epochs=4000)
    [res] = train_linearized(cfg, p0, [SquaredTargets(targets)], tc,
                             sampler=lambda m, _: x, rng=rng)
    trained_logits = linear_student(cfg, p0, res.delta)(x)

    gap_targets = float(np.max(np.abs(trained_logits - targets)))
    gap_solve = float(np.max(np.abs(trained_logits - solve_logits)))
    assert gap_targets <= 1e-3
    assert gap_solve <= 1e-3
    report(5, f"trained logits reproduce targets to {gap_targets:.1e} and the "
              f"kernel solve to {gap_solve:.1e} on n = {n}, width 256")


# ------------------------------------------------------------ criterion 6


def test_criterion_6_data_inefficiency():
    start = time.perf_counter()

    # (a) injected power-law oracle
    val = inefficiency_of_norm_law(lambda n: 2.0 * n**0.5, [100])[0]
    assert abs(val - 0.49751654265778614) <= 1e-6

    # (b) random-label plateau, infinite-width kernel, d = 2
    ns = np.array([64, 96, 128, 192, 256, 384, 512])
    random_task = Task(TaskSpec(kind="random-labels", seed=3))
    plateau = data_inefficiency(
        random_task, NetConfig(2, 5, 256), ns, repeats=60, root_seed=77,
        extra_points=64,
    ).inefficiency
    assert np.all(plateau >= 0.65) and np.all(plateau <= 0.95)

    # (c) mode-count difficulty ordering on visible one-dimensional bumps
    cfg1 = NetConfig(1, 5, 256)
    curves = {}
    for q in (10, 50, 250):
        task = Task(TaskSpec(kind="mixture", dim=1, modes=q, seed=7))
        curves[q] = data_inefficiency(
            task, cfg1, ns, repeats=20, root_seed=202, extra_points=48
        ).inefficiency
    ordered = np.sum((curves[10] < curves[50]) & (curves[50] < curves[250]))
    assert ordered >= 0.8 * len(ns)

    # (d) the zero task sits below every mixture; its I(n) runs at the
    # noise floor, so this curve gets the most averaging
    zero = data_inefficiency(
        Task(TaskSpec(kind="zero", dim=1, seed=7)), cfg1, ns, repeats=100,
        root_seed=303, extra_points=64,
    ).inefficiency
    for q in (10, 50, 250):
        assert np.all(zero < curves[q])

    elapsed = time.perf_counter() - start
    assert elapsed < 600
    # each statistic's slack: the plateau's distance to the nearer end of
    # its band, the ordered points above 0.8 * 7, the zero task's smallest
    # gap below a mixture
    plateau_slack = min(plateau.min() - 0.65, 0.95 - plateau.max())
    zero_gap = min(np.min(curves[q] - zero) for q in curves)
    report(6, f"I(100) oracle exact; random-label plateau in "
              f"[{plateau.min():.3f}, {plateau.max():.3f}] against [0.65, 0.95], slack "
              f"{plateau_slack:.3f}; mode ordering at {ordered}/{len(ns)} grid points "
              f"against 0.8*{len(ns)} = {0.8 * len(ns):.1f}, slack "
              f"{ordered - 0.8 * len(ns):.1f}; zero task lowest, smallest gap "
              f"{zero_gap:.3f}; {elapsed:.0f} s total")


# ------------------------------------------------------------ criterion 7


def test_criterion_7_soft_ratio_inefficiency():
    ns = np.array([64, 96, 128, 192, 256, 384, 512])
    cfg = NetConfig(1, 5, 256)
    task = Task(TaskSpec(kind="mixture", dim=1, modes=10, seed=7))
    curves = {}
    for rho in (1.0, 0.0):
        dp = DistillParams(rho, 1.0)
        curves[rho] = data_inefficiency(
            task, cfg, ns, repeats=40, root_seed=55,
            targets=distilled_target_fn(task, dp), extra_points=48,
        ).inefficiency
    assert np.all(curves[1.0] < curves[0.0])
    hard_mean = float(np.mean(curves[0.0]))
    assert 0.3 <= hard_mean <= 0.7
    gap = curves[0.0] - curves[1.0]
    report(7, f"pure-soft I(n) below saturated-hard at every grid point, smallest gap "
              f"{gap.min():.3f} at n = {ns[np.argmin(gap)]}; hard plateau mean "
              f"{hard_mean:.3f} against [0.3, 0.7], slack "
              f"{min(hard_mean - 0.3, 0.7 - hard_mean):.3f} (Z_MAX-dependent, saturated "
              f"targets at +/- {z_max(1.0):.0f})")


# ------------------------------------------------------------ criterion 8


def test_criterion_8_risk_bound_validity():
    student = NetConfig(2, 2, 128)
    cases = 0
    margin = (np.inf, None, None)  # (slack, t, n) of the tightest case
    for t in range(10):
        rng = unit_rng(7000, t)
        mixture = realize_mixture(
            TaskSpec(
                modes=int(rng.integers(4, 11)),
                dim=2,
                amplitude=float(rng.uniform(2, 5)),
                width=float(rng.uniform(3, 8)),
            ),
            rng,
        )
        reduction = float(rng.uniform(0.4, 1.0))
        teacher_fn = lambda x: reduction * mixture.values(x)
        dp = DistillParams(
            soft_ratio=float(rng.choice([0.5, 1.0])),
            temperature=float(rng.choice([1.0, 5.0])),
        )

        def eff_fn(x):
            z_t = teacher_fn(x)
            return effective_logits(z_t, (z_t > 0).astype(float), dp)

        p0 = init_params(student, rng)
        tc = TrainConfig(0.01, 128, 3000, final_learning_rate=1e-4)
        [star] = train_linearized(
            student, p0, [SquaredTargets(eff_fn)], tc,
            sampler=input_sampler, rng=unit_rng(7001, t),
        )
        [zero] = train_linearized(
            student, p0, [SquaredTargets(lambda x: np.zeros(len(x)))], tc,
            sampler=input_sampler, rng=unit_rng(7002, t),
        )
        delta_star, delta_zero = star.delta, zero.delta

        curve = angle_distribution(
            eff_fn,
            lambda x: empirical_ntk_diag(student, p0, x),
            float(np.linalg.norm(delta_star - delta_zero)),
            input_sampler,
            10_000,
            unit_rng(7003, t),
        )
        for n in (8, 32, 128):
            rng_n = unit_rng(7004, t, n)
            x = input_sampler(n, rng_n)
            [delta_hat] = student_closed_form(student, p0, x, [eff_fn(x)])
            bound = risk_bound(curve, alpha_n(delta_hat, delta_star, delta_zero))
            est = empirical_risk(
                linear_student(student, p0, delta_hat),
                teacher_fn,
                input_sampler,
                10_000,
                rng_n,
            )
            assert est.risk <= bound + 2 * est.std_error, (t, n, est.risk, bound)
            cases += 1
            margin = min(margin, (bound + 2 * est.std_error - est.risk, t, n))
    assert cases == 30
    report(8, f"empirical risk within the bound (+2 MC standard errors) in "
              f"{cases}/30 cases over 10 random tasks; smallest slack "
              f"bound + 2 se - risk = {margin[0]:.4f} at (t, n) = ({margin[1]}, {margin[2]})")


# ------------------------------------------------------------ criterion 9


def test_criterion_9_risk_power_law_ordering(confident_teacher):
    student = NetConfig(2, 2, 128)
    ns = [8, 16, 32, 64, 128, 256]
    label = confident_teacher
    wins = 0
    gaps = []  # slope(rho = 0.5) - slope(rho = 1) per seed; a win is a positive gap
    for seed in range(5):
        p0 = init_params(student, 100 + seed)
        slopes = {}
        for rho in (1.0, 0.5):
            dp = DistillParams(rho, 10.0)
            risks = []
            for n in ns:
                rng = np.random.default_rng(seed * 1000 + n)
                x = input_sampler(n, rng)
                targets = effective_logits(label.logits(x), label.hard(x), dp)
                [delta] = student_closed_form(student, p0, x, [targets])
                est = empirical_risk(
                    linear_student(student, p0, delta),
                    label.logits,
                    input_sampler,
                    10_000,
                    rng,
                )
                risks.append(max(est.risk, 1e-4))
            slopes[rho] = fit_power_law(ns, risks)
        wins += slopes[1.0] < slopes[0.5]
        gaps.append(slopes[0.5] - slopes[1.0])
    assert wins >= 3
    report(9, f"pure-soft risk slope more negative than rho = 0.5 in {wins}/5 seeds "
              f"against 3 (slack {wins - 3}); smallest slope gap {min(gaps):.3f} at seed "
              f"{int(np.argmin(gaps))}")


# ----------------------------------------------------------- criterion 10


def test_criterion_10_hard_label_sign_flip():
    teacher_net = NetConfig(2, 2, 64)
    student = NetConfig(2, 2, 128)
    mixture = Task(TaskSpec(kind="mixture", dim=2, modes=6, amplitude=2.0, seed=11))
    gt_params = train_teacher(
        teacher_net, mixture, TrainConfig(0.01, 256, 16384), seed=5,
        checkpoint_epochs=[16384],
    )[16384]
    gt_fn = lambda x: forward(teacher_net, gt_params, x)

    stops = [16, 64, 256, 1024, 4096, 16384, 32768]
    teachers = train_teacher(
        teacher_net, _SignTask(mixture, gt_fn), TrainConfig(0.01, 256, 32768), seed=6,
        checkpoint_epochs=stops,
    )
    probe = np.random.default_rng(123).normal(scale=5.0, size=(20000, 2))
    gt_sign = gt_fn(probe) > 0
    temp, reduction = 2.0, 0.3

    flips = 0
    crossing_above_student = 0
    for seed in range(5):
        p0 = init_params(student, 200 + seed)
        rng = np.random.default_rng(300 + seed)
        x = rng.normal(scale=5.0, size=(384, 2))
        # one sweep of the sample gives the initial logits, the Gram and the
        # hard-label student's weight change
        sweep = Sweep(student, p0, x)
        z0 = sweep.logits
        z_g = gt_fn(x)
        dz_g = z_g - z0
        y_g = (z_g > 0).astype(float)
        gram = KernelMatrix(sweep.gram())

        # the best pure-hard-label student at this sample size
        hard_targets = np.sign(2 * y_g - 1) * z_max(1.0)
        delta_hard = sweep.vjp(gram.solve(hard_targets - z0))
        hard_student = linear_student(student, p0, delta_hard)(probe)
        student_acc = np.mean((hard_student > 0) == gt_sign)

        track = []
        w_g = gram.half_solve(dz_g)
        for epoch, params in teachers.items():
            label = LabelSource(teacher_net, params, reduction, ground_truth=gt_fn)
            z_t = label.logits(x)
            proj = correction_projection(
                w_g, gram.half_solve(z_t - z0), gram.half_solve(correction_logit(z_t, y_g, temp))
            )
            teacher_acc = np.mean((label.logits(probe) > 0) == gt_sign)
            track.append((epoch, teacher_acc, proj))

        signs = [p > 0 for _, _, p in track]
        crossed = signs[0] and not signs[-1]
        if crossed:
            flips += 1
            cross_acc = next(acc for _, acc, p in track if p < 0)
            crossing_above_student += cross_acc > student_acc
    assert flips >= 3
    assert crossing_above_student == flips
    report(10, f"projection flips positive -> negative in {flips}/5 seeds against 3 "
               f"(slack {flips - 3}), always after the teacher passes the pure-hard "
               f"student's accuracy")


# ----------------------------------------------------------- criterion 11


def test_criterion_11_determinism(tmp_path):
    import json as json_mod

    from ntkdistill.experiments import run

    configs = [
        {
            "experiment": "effective-logits",
            "seed": 1,
            "net": {"input_dim": 2, "hidden_layers": 2, "width": 8},
            "distill": [
                {"soft_ratio": 0.5, "temperature": 2.0},
                {"soft_ratio": 0.0, "temperature": 2.0},
            ],
            "z_t_grid": [-1.0, 0.5, 2.0],
        },
        {
            "experiment": "ntk-check",
            "seed": 2,
            "net": {"input_dim": 2, "hidden_layers": 2, "width": 8},
            "width_grid": [16, 32],
            "kernel_inputs": 5,
            "repeats": 2,
            "norm_grid": [10.0],
        },
        {
            "experiment": "inefficiency",
            "seed": 3,
            "net": {"input_dim": 2, "hidden_layers": 2, "width": 16},
            "tasks": [
                {"kind": "mixture", "modes": 4, "seed": 1},
                {"kind": "random-labels", "seed": 2},
            ],
            "n_grid": [8, 16],
            "repeats": 3,
            "extra_points": 2,
        },
    ]
    compared = 0
    for config in configs:
        path = tmp_path / f"{config['experiment']}.json"
        path.write_text(json_mod.dumps(config))
        _, paths_a = run(path, out_dir=tmp_path / "a")
        _, paths_b = run(path, out_dir=tmp_path / "b")
        for pa, pb in zip(paths_a, paths_b):
            if str(pa).endswith("manifest.json"):
                assert open(pa, "rb").read() == open(pb, "rb").read()
            else:
                # byte-identical after stripping the wall-time column
                strip = lambda p: [
                    line.rsplit(",", 1)[0] for line in open(p).read().splitlines()
                ]
                assert strip(pa) == strip(pb)
            compared += 1
    report(11, f"{compared} output files byte-identical across reruns "
               f"(wall-time column excluded)")
