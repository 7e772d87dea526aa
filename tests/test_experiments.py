import csv
import json

import numpy as np
import pytest

from ntkdistill.cli import main
from ntkdistill.distillation import DistillParams, effective_logit, z_max
from ntkdistill.experiments import (
    CSV_COLUMNS,
    ConfigError,
    estimate_cost,
    load_config,
    parse_config,
    run,
    validate,
)


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


MINIMAL = {
    "experiment": "effective-logits",
    "seed": 3,
    "net": {"input_dim": 2, "hidden_layers": 2, "width": 8},
    "distill": [
        {"soft_ratio": 1.0, "temperature": 2.0},
        {"soft_ratio": 0.5, "temperature": 2.0},
        {"soft_ratio": 0.0, "temperature": 2.0},
    ],
    "z_t_grid": [-2.0, 0.5, 3.0],
}


def read_rows(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [dict(zip(header, row)) for row in reader]
    return header, rows


def test_validate_minimal_ok(tmp_path):
    report = validate(write_config(tmp_path, MINIMAL))
    assert "OK" in report
    assert "WARNING" not in report


def test_validate_rejects_bad_soft_ratio(tmp_path):
    bad = dict(MINIMAL, distill=[{"soft_ratio": 1.5, "temperature": 1.0}])
    with pytest.raises(ConfigError, match="distill\\[0\\]"):
        validate(write_config(tmp_path, bad))


def test_validate_cost_warning(tmp_path):
    big = {
        "experiment": "inefficiency",
        "seed": 1,
        "net": {"input_dim": 2, "hidden_layers": 2, "width": 8},
        "tasks": [{"kind": "zero"}],
        "n_grid": [100_000],
        "repeats": 20,
    }
    report = validate(write_config(tmp_path, big))
    assert "WARNING" in report


def test_parse_rejects_unknown_fields_and_kinds():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config(dict(MINIMAL, experiment="nope"))
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(dict(MINIMAL, bogus=1))
    with pytest.raises(ConfigError, match="seed"):
        parse_config({k: v for k, v in MINIMAL.items() if k != "seed"})
    with pytest.raises(ConfigError, match="n_grid"):
        parse_config(
            {
                "experiment": "risk",
                "seed": 1,
                "net": MINIMAL["net"],
                "tasks": [{"kind": "mixture"}],
                "distill": [{"soft_ratio": 1.0, "temperature": 1.0}],
            }
        )


def test_effective_logits_run_matches_solver(tmp_path):
    path = write_config(tmp_path, MINIMAL)
    status, paths = run(path, out_dir=tmp_path / "out")
    assert status == 0
    header, rows = read_rows(paths[0])
    assert header == list(CSV_COLUMNS)
    for row in rows:
        rho, temp = float(row["rho"]), float(row["T"])
        z_t = float(row["beta"])
        y = 1.0 if row["value_name"].endswith("y1") else 0.0
        if rho == 0.0:
            assert row["flag"] == "saturated"
            assert abs(float(row["value"])) == z_max(temp)
        else:
            expect = effective_logit(z_t, y, DistillParams(rho, temp))
            assert float(row["value"]) == pytest.approx(expect, abs=1e-9)


def test_run_is_deterministic_modulo_walltime(tmp_path):
    path = write_config(tmp_path, MINIMAL)
    _, paths_a = run(path, out_dir=tmp_path / "a")
    _, paths_b = run(path, out_dir=tmp_path / "b")
    _, rows_a = read_rows(paths_a[0])
    _, rows_b = read_rows(paths_b[0])
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
    assert strip(rows_a) == strip(rows_b)
    # manifests are fully deterministic
    assert (tmp_path / "a" / "effective_logits_manifest.json").read_text() == (
        tmp_path / "b" / "effective_logits_manifest.json"
    ).read_text()


def test_manifest_reconstructs_run(tmp_path):
    path = write_config(tmp_path, MINIMAL)
    _, paths = run(path, out_dir=tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "effective_logits_manifest.json").read_text())
    assert manifest["records"] > 0
    assert not manifest["incomplete"]
    assert manifest["columns"] == list(CSV_COLUMNS)
    # re-running from the manifest's resolved config reproduces the CSV
    path2 = write_config(tmp_path, manifest["config"] | {"out": "ignored"}, "re.json")
    _, paths2 = run(path2, out_dir=tmp_path / "re")
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
    assert strip(read_rows(paths[0])[1]) == strip(read_rows(paths2[0])[1])


def test_seed_override_changes_hash(tmp_path):
    path = write_config(tmp_path, MINIMAL)
    run(path, out_dir=tmp_path / "x", seed=99)
    manifest = json.loads((tmp_path / "x" / "effective_logits_manifest.json").read_text())
    assert manifest["root_seed"] == 99


def test_ntk_check_rows(tmp_path):
    cfg = {
        "experiment": "ntk-check",
        "seed": 5,
        "net": {"input_dim": 2, "hidden_layers": 2, "width": 8},
        "width_grid": [16, 64],
        "kernel_inputs": 6,
        "repeats": 2,
        "norm_grid": [10.0, 50.0],
    }
    status, paths = run(write_config(tmp_path, cfg), out_dir=tmp_path / "out")
    assert status == 0
    _, rows = read_rows(paths[0])
    per_width = [r for r in rows if r["value_name"] == "frob_rel_err"]
    assert len(per_width) == 4
    means = {int(r["n"]): float(r["value"]) for r in rows if r["value_name"] == "frob_rel_err_mean"}
    assert set(means) == {16, 64}
    assert means[64] < means[16]
    ratios = [float(r["value"]) for r in rows if r["value_name"] == "diag_ratio"]
    assert len(ratios) == 2 and all(r >= 0.25 for r in ratios)


def test_inefficiency_rows_carry_task_coordinates(tmp_path):
    cfg = {
        "experiment": "inefficiency",
        "seed": 5,
        "net": {"input_dim": 2, "hidden_layers": 2, "width": 16},
        "tasks": [
            {"kind": "mixture", "modes": 5, "seed": 1},
            {"kind": "flipped-mixture", "modes": 5, "p_flip": 0.3, "seed": 1},
        ],
        "n_grid": [8, 16],
        "repeats": 2,
        "extra_points": 2,
    }
    status, paths = run(write_config(tmp_path, cfg), out_dir=tmp_path / "out")
    assert status == 0
    _, rows = read_rows(paths[0])
    ineff = [r for r in rows if r["value_name"] == "inefficiency"]
    assert len(ineff) == 4  # 2 tasks x 2 grid points
    assert {r["q"] for r in ineff} == {"5"}
    flips = {r["p_flip"] for r in ineff}
    assert flips == {"", "0.3"}


def test_threads_do_not_change_results(tmp_path):
    cfg = {
        "experiment": "inefficiency",
        "seed": 5,
        "net": {"input_dim": 2, "hidden_layers": 2, "width": 16},
        "tasks": [{"kind": "zero", "seed": 1}, {"kind": "random-labels", "seed": 2}],
        "n_grid": [8, 16],
        "repeats": 2,
    }
    path = write_config(tmp_path, cfg)
    _, a = run(path, out_dir=tmp_path / "a", threads=1)
    _, b = run(path, out_dir=tmp_path / "b", threads=2)
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
    assert strip(read_rows(a[0])[1]) == strip(read_rows(b[0])[1])


def test_json_format_emits_records(tmp_path):
    path = write_config(tmp_path, MINIMAL)
    status, paths = run(path, out_dir=tmp_path / "out", fmt="json")
    json_paths = [p for p in paths if str(p).endswith(".json") and "manifest" not in str(p)]
    assert len(json_paths) == 1
    records = json.loads(open(json_paths[0]).read())
    assert len(records) > 0 and set(records[0]) == set(CSV_COLUMNS)


def test_cli_exit_codes(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL)
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["effective-logits", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    # mismatched subcommand is a config error
    assert main(["ntk-check", "--config", str(path)]) == 1
    assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 1
    bad = write_config(tmp_path, dict(MINIMAL, experiment="nope"), "bad.json")
    assert main(["validate", "--config", str(bad)]) == 1


def test_partial_failure_keeps_completed_rows(tmp_path, monkeypatch):
    import ntkdistill.experiments as exp
    from ntkdistill.linalg import SingularKernelError

    def exploding(cfg, threads, records):
        records.append(
            exp.RunRecord(cfg.experiment, cfg.hash(), cfg.seed, "before_crash", 1.0)
        )
        raise SingularKernelError("synthetic failure")

    monkeypatch.setitem(exp._RUNNERS, "effective-logits", exploding)
    path = write_config(tmp_path, MINIMAL)
    status, paths = run(path, out_dir=tmp_path / "out")
    assert status == 2
    _, rows = read_rows(paths[0])
    assert len(rows) == 1 and rows[0]["value_name"] == "before_crash"
    manifest = json.loads((tmp_path / "out" / "effective_logits_manifest.json").read_text())
    assert manifest["incomplete"]
    assert "synthetic failure" in manifest["errors"][0]


def test_estimate_cost_scales():
    cfg = parse_config(
        {
            "experiment": "inefficiency",
            "seed": 1,
            "net": {"input_dim": 2, "hidden_layers": 2, "width": 8},
            "tasks": [{"kind": "zero"}],
            "n_grid": [10, 20],
            "repeats": 3,
        }
    )
    assert estimate_cost(cfg) == pytest.approx((1000 + 8000) * 3)


ORACLE_TASKS = [{"kind": "mixture", "modes": 3, "seed": 1}]
ORACLE_COMMON = {
    "seed": 4,
    "net": {"input_dim": 2, "hidden_layers": 2, "width": 8},
    "tasks": ORACLE_TASKS,
    "teacher": {"epochs": 8, "batch_size": 16, "seed": 2},
    "oracle": {"epochs": 6, "batch_size": 8},
    "samples": 64,
}
TINY_RISK = ORACLE_COMMON | {
    "experiment": "risk",
    "distill": [
        {"soft_ratio": 1.0, "temperature": 2.0},
        {"soft_ratio": 0.5, "temperature": 2.0},
    ],
    "n_grid": [4, 8, 16],
    "repeats": 2,
}
TINY_ANGLE = ORACLE_COMMON | {
    "experiment": "angle-dist",
    "distill": [
        {"soft_ratio": 1.0, "temperature": 2.0},
        {"soft_ratio": 0.5, "temperature": 2.0},
        {"soft_ratio": 0.0, "temperature": 2.0},
    ],
    "beta_points": 5,
}


def test_estimate_cost_counts_adam_steps():
    # oracle and teacher epochs dominate the trained kinds; kinds that train
    # nothing keep their estimate whatever the recipes say
    def cost(data, **oracle):
        return estimate_cost(parse_config(data | {"oracle": data.get("oracle", {}) | oracle}))

    assert cost(TINY_RISK, epochs=12) > cost(TINY_RISK, epochs=6)
    longer_teacher = TINY_RISK | {"teacher": TINY_RISK["teacher"] | {"epochs": 16}}
    assert cost(longer_teacher) > cost(TINY_RISK)
    assert cost(MINIMAL, epochs=6000) == cost(MINIMAL) == estimate_cost(parse_config(MINIMAL))


@pytest.mark.parametrize(
    "data, expected_runs",
    [
        (TINY_RISK, TINY_RISK["repeats"] * (len(TINY_RISK["distill"]) + 1)),
        (TINY_ANGLE, len(TINY_ANGLE["distill"]) + 1),
    ],
    ids=["risk", "angle-dist"],
)
def test_zero_oracle_trained_once_per_initialization(tmp_path, monkeypatch, data, expected_runs):
    import ntkdistill.experiments as exp

    calls = []
    original = exp.train_linearized

    def counting(*args, **kwargs):
        # a lockstep call trains one oracle per objective in its list
        objective = args[2]
        calls.append(len(objective) if isinstance(objective, (list, tuple)) else 1)
        return original(*args, **kwargs)

    monkeypatch.setattr(exp, "train_linearized", counting)
    path = write_config(tmp_path, data)
    outputs = []
    for name in ("a", "b"):
        calls.clear()
        status, paths = run(path, out_dir=tmp_path / name)
        assert status == 0
        assert sum(calls) == expected_runs
        outputs.append(paths[0])

    def without_wall_ms(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        wall = rows[0].index("wall_ms")
        return [row[:wall] + row[wall + 1:] for row in rows]

    first = without_wall_ms(outputs[0])
    assert len(first) > 1
    assert first == without_wall_ms(outputs[1])


@pytest.mark.parametrize(
    "data, expected_calls",
    [(TINY_RISK, TINY_RISK["repeats"]), (TINY_ANGLE, 1)],
    ids=["risk", "angle-dist"],
)
def test_mc_kernel_diagonal_computed_once_per_initialization(
    tmp_path, monkeypatch, data, expected_calls
):
    # every distill point of an initialization reuses the Monte Carlo inputs
    import ntkdistill.experiments as exp

    rows = []
    original = exp.empirical_ntk_diag

    def counting(net, params, x):
        rows.append(len(x))
        return original(net, params, x)

    monkeypatch.setattr(exp, "empirical_ntk_diag", counting)
    status, _ = run(write_config(tmp_path, data), out_dir=tmp_path / "out")
    assert status == 0
    assert rows == [data["samples"]] * expected_calls


@pytest.mark.parametrize(
    "data, expected_calls",
    [(TINY_RISK, TINY_RISK["repeats"]), (TINY_ANGLE, 1)],
    ids=["risk", "angle-dist"],
)
def test_mc_teacher_evaluated_once_per_initialization(
    tmp_path, monkeypatch, data, expected_calls
):
    # the teacher's logits and hard labels on the Monte Carlo inputs are
    # evaluated together, once per initialization; no other hard-label call
    # in these runs sees that many inputs (oracle batches and the risk grid
    # are smaller, and empirical_risk reads only logits)
    from ntkdistill.tasks import LabelSource

    rows = []
    original = LabelSource.hard

    def counting(self, x):
        rows.append(len(x))
        return original(self, x)

    monkeypatch.setattr(LabelSource, "hard", counting)
    status, _ = run(write_config(tmp_path, data), out_dir=tmp_path / "out")
    assert status == 0
    assert rows.count(data["samples"]) == expected_calls


def test_student_closed_form_sweeps_its_inputs_once(monkeypatch):
    # the Gram comes from the same sweep as the logits and the weighted
    # gradients, so x is swept forward and backward once per call
    import ntkdistill.experiments as exp
    import ntkdistill.kernel as kernel
    from ntkdistill.network import NetConfig, _Cache, init_params

    built = []

    class Counting(_Cache):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(exp, "_Cache", Counting)
    monkeypatch.setattr(kernel, "_Cache", Counting)
    net = NetConfig(2, 2, 16)
    x = np.random.default_rng(3).normal(size=(12, 2))
    deltas = exp.student_closed_form(net, init_params(net, 3), x, [np.ones(12), np.zeros(12)])
    assert len(deltas) == 2
    assert len(built) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_risk_divergence_in_second_repeat_keeps_first_repeat_rows(tmp_path, monkeypatch):
    # the risk runner works repeat by repeat; a repeat that diverges leaves
    # every row of the repeats before it, for every distill point, in the
    # distill -> repeat -> n order of a successful run
    import ntkdistill.experiments as exp

    def without_wall_ms(path):
        _, rows = read_rows(path)
        return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]

    path = write_config(tmp_path, TINY_RISK)
    status, paths = run(path, out_dir=tmp_path / "full")
    assert status == 0
    full = without_wall_ms(paths[0])

    draws = []
    original = exp.init_params

    def second_repeat_diverges(net, rng):
        # params0 is drawn once per repeat; blown-up weights overflow the
        # linearized logits of the second repeat's first oracle step
        draws.append(1)
        params = original(net, rng)
        return params * 1e200 if len(draws) > 1 else params

    monkeypatch.setattr(exp, "init_params", second_repeat_diverges)
    status, paths = run(path, out_dir=tmp_path / "failed")
    assert status == 2
    kept = without_wall_ms(paths[0])
    first_repeat = [r for r in full if r["seed"] == "0"]
    assert {r["rho"] for r in first_repeat} == {"1.0", "0.5"}
    assert kept == first_repeat
    manifest = json.loads((tmp_path / "failed" / "risk_manifest.json").read_text())
    assert manifest["incomplete"] and manifest["records"] == len(kept)
    assert manifest["errors"][0].startswith("DivergenceError")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exits_numerical_and_keeps_manifest(tmp_path):
    data = {
        "experiment": "zero-norm",
        "seed": 1,
        "net": {"input_dim": 2, "hidden_layers": 1, "width": 8},
        "tasks": ORACLE_TASKS,
        "teacher": {"epochs": 4, "learning_rate": 1e200, "batch_size": 16},
        "oracle": {"epochs": 2, "batch_size": 8},
    }
    out = tmp_path / "out"
    path = write_config(tmp_path, data)
    assert main(["zero-norm", "--config", str(path), "--out", str(out)]) == 2
    header, rows = read_rows(out / "zero_norm.csv")
    assert header == list(CSV_COLUMNS) and rows == []
    manifest = json.loads((out / "zero_norm_manifest.json").read_text())
    assert manifest["incomplete"] is True
    assert manifest["errors"][0].startswith("DivergenceError")


def test_nan_teacher_logits_exit_numerical_and_keep_manifest(tmp_path, monkeypatch):
    # a teacher that returns NaN must stop the run at the effective-logit
    # solve, not train oracles on made-up targets
    from ntkdistill.tasks import LabelSource

    monkeypatch.setattr(LabelSource, "logits", lambda self, x: np.full(len(x), np.nan))
    data = ORACLE_COMMON | {"experiment": "zero-norm",
                            "distill": [{"soft_ratio": 0.5, "temperature": 2.0}]}
    out = tmp_path / "out"
    path = write_config(tmp_path, data)
    assert main(["zero-norm", "--config", str(path), "--out", str(out)]) == 2
    header, rows = read_rows(out / "zero_norm.csv")
    assert header == list(CSV_COLUMNS) and rows == []
    manifest = json.loads((out / "zero_norm_manifest.json").read_text())
    assert manifest["incomplete"] is True
    assert manifest["errors"][0].startswith("FloatingPointError")


def test_monte_carlo_passes_stay_small():
    # a risk-oracle-sized grid point and initialization memo sweep their
    # 10,000 Monte Carlo inputs in row blocks; whole-batch sweeps of the
    # width-128 student peaked at 61.7 and 51.4 MB, the blocks (the last
    # one 1,808 rows) at 11.7 and 9.4 MB
    import tracemalloc

    import ntkdistill.experiments as exp
    from ntkdistill.network import Checkpoint, init_params
    from ntkdistill.tasks import LabelSource, Task

    cfg = parse_config({
        "experiment": "risk", "seed": 13,
        "net": {"input_dim": 2, "hidden_layers": 2, "width": 128},
        "teacher_net": {"input_dim": 2, "hidden_layers": 3, "width": 64},
        "tasks": [{"kind": "mixture", "dim": 2, "modes": 6, "amplitude": 2.0, "seed": 11}],
        "oracle": {"epochs": 1, "batch_size": 128},
        "distill": [{"soft_ratio": 1.0, "temperature": 10.0},
                    {"soft_ratio": 0.5, "temperature": 10.0}],
        "n_grid": [128], "repeats": 1, "samples": 10_000,
    })
    task = Task(cfg.tasks[0])
    teacher = Checkpoint(cfg.teacher_net, 5, 0, init_params(cfg.teacher_net, 5))
    label = LabelSource(teacher, 10.0, 0.3, task.target_logits)
    targets = exp._distilled_targets(label, cfg.distill)
    params0, delta_zero, memo = exp._perfect_teacher_init(cfg, task.sample_inputs, label, 0)
    rng = np.random.default_rng(0)
    deltas_star = [rng.normal(scale=0.01, size=params0.size) for _ in cfg.distill]
    x_mc = task.sample_inputs(cfg.samples, rng)

    def peak_mb(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    point = peak_mb(lambda: exp._risk_point(cfg, params0, task.sample_inputs, label, targets,
                                            0, 128, deltas_star, delta_zero))
    init = peak_mb(lambda: memo(x_mc))
    assert point < 16 and init < 16, (point, init)
