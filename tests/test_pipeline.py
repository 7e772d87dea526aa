"""End-to-end checks of the oracle pipeline and the heavier runners.

The module-scoped fixture trains one pair of online-batch oracle runs
against the session's confident teacher (``mixture_teacher`` in
conftest.py); the invariants checked against them are the ones that need
real weight-change vectors rather than synthetic algebra.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from ntkdistill.distillation import DistillParams, effective_logits
from ntkdistill.experiments import run
from ntkdistill.kernel import empirical_ntk_diag
from ntkdistill.linalg import KernelMatrix
from ntkdistill.metrics import alpha_n, angle_distribution
from ntkdistill.network import (
    NetConfig,
    SquaredTargets,
    Sweep,
    TrainConfig,
    init_params,
    train_linearized,
)
from ntkdistill.tasks import LabelSource

STUDENT = NetConfig(2, 2, 128)


@pytest.fixture(scope="module")
def oracle_setup(mixture_teacher):
    """Teacher plus unreduced-scale oracle runs (the regime where the zero
    weight change is small relative to the oracle's)."""
    task, net, params = mixture_teacher
    label = LabelSource(net, params, reduction=1.0, ground_truth=task.target_logits)
    params0 = init_params(STUDENT, 7)
    dp = DistillParams(1.0, 10.0)

    def eff_fn(x):
        return effective_logits(label.logits(x), label.hard(x), dp)

    tc = TrainConfig(learning_rate=0.01, batch_size=128, epochs=6000,
                     final_learning_rate=1e-5)
    # separate streams, so two runs rather than one lockstep run
    [zero] = train_linearized(
        STUDENT, params0, [SquaredTargets()], tc, sampler=task.sample_inputs,
        rng=np.random.default_rng(1), targets=lambda x: [np.zeros(len(x))],
    )
    [star] = train_linearized(
        STUDENT, params0, [SquaredTargets()], tc, sampler=task.sample_inputs,
        rng=np.random.default_rng(2), targets=lambda x: [eff_fn(x)],
    )
    return task.sample_inputs, params0, eff_fn, star.delta, zero.delta


def test_zero_function_weight_change_is_small(oracle_setup):
    # fitting the zero function costs far less weight motion than fitting a
    # confident teacher; with the teacher's scale unreduced the ratio drops
    # below 0.1
    _, _, _, delta_star, delta_zero = oracle_setup
    ratio = np.linalg.norm(delta_zero) / np.linalg.norm(delta_star)
    assert ratio < 0.1


def test_feature_oracle_angles_pinned_near_right_angle(oracle_setup):
    # the kernel diagonal grows with the input norm while effective logits
    # stay teacher-bounded, so sampled feature-oracle cosines stay small and
    # the survival curve is identically 1 far out toward pi/2
    sampler, params0, eff_fn, delta_star, delta_zero = oracle_setup
    norm_diff = float(np.linalg.norm(delta_star - delta_zero))
    rng = np.random.default_rng(3)
    x = sampler(20000, rng)
    cos = np.abs(eff_fn(x)) / (norm_diff * np.sqrt(empirical_ntk_diag(STUDENT, params0, x)))
    beta_t = float(np.arccos(np.max(np.clip(cos, 0, 1))))
    assert beta_t >= 1.2  # survival == 1 on [0, beta_t], beta_t near pi/2

    curve = angle_distribution(
        eff_fn, lambda xx: empirical_ntk_diag(STUDENT, params0, xx),
        norm_diff, sampler, 5000, np.random.default_rng(4),
    )
    assert np.all(curve.survival[curve.betas <= 1.2] == 1.0)


def test_neglect_zero_angle_approximation(oracle_setup):
    # with |dw_z| / |dw_*| < 0.1, the zero-shifted student-oracle cosine is
    # approximated by |dw_hat| / |dw_*| to 5% (exact when dw_z is dropped)
    sampler, params0, _, delta_star, delta_zero = oracle_setup
    assert np.linalg.norm(delta_zero) / np.linalg.norm(delta_star) < 0.1
    rng = np.random.default_rng(5512)
    # one sweep of the sample gives the oracle's logit changes, the Gram and
    # the student's weight change
    sweep = Sweep(STUDENT, params0, sampler(512, rng))
    gram = KernelMatrix(sweep.gram())
    delta_hat = sweep.vjp(gram.solve(sweep.jvp(delta_star)))
    shifted_cos = np.cos(alpha_n(delta_hat, delta_star, delta_zero))
    norm_ratio = np.linalg.norm(delta_hat) / np.linalg.norm(delta_star)
    assert shifted_cos == pytest.approx(norm_ratio, rel=0.05)


# --- runner smoke tests: tiny recipes exercising every experiment kind ----


def _tiny_fig2_config(kind, **extra):
    base = {
        "experiment": kind,
        "seed": 13,
        "net": {"input_dim": 2, "hidden_layers": 2, "width": 32},
        "teacher_net": {"input_dim": 2, "hidden_layers": 2, "width": 16},
        "tasks": [{"kind": "mixture", "dim": 2, "modes": 4, "amplitude": 2.0,
                   "seed": 11, "width": 5.0}],
        "teacher": {"epochs": 128, "learning_rate": 0.01, "batch_size": 64,
                    "seed": 5, "temperature": 2.0, "reduction": 0.5},
        "oracle": {"epochs": 80, "learning_rate": 0.01, "batch_size": 32},
        "samples": 400,
    }
    base.update(extra)
    return base


# in the order that keeps the first four cases' test ids
SMOKE_CASES = {
    "risk": {"n_grid": [4, 8, 16], "repeats": 1,
             "distill": [{"soft_ratio": 1.0, "temperature": 2.0}]},
    "angle-dist": {"beta_points": 17,
                   "distill": [{"soft_ratio": 0.5, "temperature": 2.0}]},
    "zero-norm": {"distill": [{"soft_ratio": 1.0, "temperature": 2.0}]},
    "hard-label-effect": {"n_grid": [32], "repeats": 2,
                          "teacher": {"epochs": 128, "learning_rate": 0.01,
                                      "batch_size": 64, "seed": 5,
                                      "stop_epochs": [16, 128],
                                      "temperature": 2.0, "reduction": 0.5}},
    "effective-logits": {"distill": [{"soft_ratio": 1.0, "temperature": 2.0},
                                     {"soft_ratio": 0.0, "temperature": 2.0}],
                         "z_t_grid": [-3.0, -0.5, 0.5, 3.0]},
    "ntk-check": {"width_grid": [16, 64], "kernel_inputs": 6, "repeats": 2,
                  "norm_grid": [10.0, 50.0]},
    "inefficiency": {"tasks": [{"kind": "mixture", "modes": 5, "seed": 1},
                               {"kind": "flipped-mixture", "modes": 5, "p_flip": 0.3,
                                "seed": 1}],
                     "distill": [{"soft_ratio": 1.0, "temperature": 2.0},
                                 {"soft_ratio": 0.0, "temperature": 2.0}],
                     "n_grid": [8, 16], "repeats": 2, "extra_points": 2},
}

# Golden CSVs (wall_ms dropped) of the smoke runs.  They pin every value, so a
# refactor of the runners must reproduce them; a change that moves numbers on
# purpose re-records them with ``PYTHONPATH=src python tests/test_pipeline.py``
# and says why.  ENV.json records the numpy and BLAS build they were written
# with: bitwise results hang on the BLAS kernels and their blocking, so values
# are compared as strings only where the running build matches it, and to
# 1e-9 relative anywhere else.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_ENV = GOLDEN / "ENV.json"


def _numeric_env():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        return {"numpy": np.__version__}
    return {"numpy": np.__version__, "blas": blas["name"], "blas_version": blas["version"],
            "openblas_config": blas.get("openblas configuration", "")}


EXACT_GOLDEN = GOLDEN_ENV.exists() and json.loads(GOLDEN_ENV.read_text()) == _numeric_env()


def _csv_without_wall_ms(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if "wall_ms" not in rows[0]:
        return rows
    wall = rows[0].index("wall_ms")
    return [row[:wall] + row[wall + 1:] for row in rows]


def _run_smoke(kind, extra, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "cfg.json"
    path.write_text(json.dumps(_tiny_fig2_config(kind, **extra)))
    return run(path, out_dir=out_dir / "out")


def _assert_matches_golden(path, kind, same_config=True):
    """The CSV at ``path`` against the golden file of ``kind``: every
    coordinate, name and flag equal (the config hash too, for the golden
    config itself), every value equal as written (``EXACT_GOLDEN``) or
    else to 1e-9 relative."""
    got = _csv_without_wall_ms(path)
    want = _csv_without_wall_ms(GOLDEN / f"{kind}.csv")
    assert len(got) > 1  # header plus records
    value = got[0].index("value")
    skip = {value} if same_config else {value, got[0].index("config_hash")}
    keys = lambda rows: [[c for i, c in enumerate(row) if i not in skip] for row in rows]
    assert keys(got) == keys(want)
    if EXACT_GOLDEN:
        assert [g[value] for g in got] == [w[value] for w in want]
        return
    for g, w in zip(got[1:], want[1:]):
        assert float(g[value]) == pytest.approx(float(w[value]), rel=1e-9, abs=0)


@pytest.mark.parametrize("kind,extra", list(SMOKE_CASES.items()))
def test_runner_smoke(tmp_path, kind, extra):
    start = time.perf_counter()
    status, paths = _run_smoke(kind, extra, tmp_path)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    assert status == 0
    manifest = json.loads(Path(paths[-1]).read_text())
    assert not manifest["incomplete"]
    _assert_matches_golden(paths[0], kind)
    # every row's wall_ms is its share of the run's one clock, so the column
    # sums to no more than the run took
    with open(paths[0], newline="") as fh:
        wall_ms = [float(row["wall_ms"]) for row in csv.DictReader(fh)]
    assert min(wall_ms) >= 0 and sum(wall_ms) <= elapsed_ms


def test_hard_label_effect_whitens_each_vector_once(tmp_path, monkeypatch):
    # per (repeat, n): the ground truth's logit difference once, and each
    # swept teacher's logit and correction differences once, however many
    # kernel inner products read them
    calls = []
    original = KernelMatrix.half_solve

    def counting(self, b):
        calls.append(1)
        return original(self, b)

    monkeypatch.setattr(KernelMatrix, "half_solve", counting)
    extra = SMOKE_CASES["hard-label-effect"]
    status, paths = _run_smoke("hard-label-effect", extra, tmp_path)
    assert status == 0
    teachers = len(extra["teacher"]["stop_epochs"])
    assert len(calls) == extra["repeats"] * len(extra["n_grid"]) * (1 + 2 * teachers) == 10
    _assert_matches_golden(paths[0], "hard-label-effect")


def test_perfect_teacher_is_the_final_checkpoint(tmp_path):
    # stop_epochs picks the imperfect teachers of hard-label-effect; the
    # perfect teacher of risk is the recipe's last epoch whatever it says
    teacher = _tiny_fig2_config("risk")["teacher"] | {"stop_epochs": [16]}
    status, paths = _run_smoke("risk", SMOKE_CASES["risk"] | {"teacher": teacher}, tmp_path)
    assert status == 0
    _assert_matches_golden(paths[0], "risk", same_config=False)


def test_risk_runner_emits_bound_and_slope(tmp_path):
    cfg = _tiny_fig2_config(
        "risk", n_grid=[4, 8, 16], repeats=1,
        distill=[{"soft_ratio": 1.0, "temperature": 2.0}],
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    _, paths = run(path, out_dir=tmp_path / "out")
    with open(paths[0]) as fh:
        rows = list(csv.DictReader(fh))
    names = {r["value_name"] for r in rows}
    assert {"empirical_risk", "risk_bound", "alpha_n", "risk_slope"} <= names
    for r in rows:
        if r["value_name"] == "empirical_risk":
            bound = next(
                float(b["value"]) for b in rows
                if b["value_name"] == "risk_bound" and b["n"] == r["n"]
            )
            assert float(r["value"]) <= bound + 0.1  # tiny-sample slack


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for kind, extra in SMOKE_CASES.items():
            status, paths = _run_smoke(kind, extra, Path(tmp) / kind)
            assert status == 0, kind
            with open(GOLDEN / f"{kind}.csv", "w", newline="") as fh:
                csv.writer(fh).writerows(_csv_without_wall_ms(paths[0]))
    GOLDEN_ENV.write_text(json.dumps(_numeric_env(), indent=2) + "\n")
