import csv
import json
import os
import threading
import time
import weakref

import numpy as np
import pytest

from ntkdistill.cli import main
from ntkdistill.distillation import DistillParams, effective_logits, z_max
from ntkdistill.experiments import (
    CSV_COLUMNS,
    ConfigError,
    estimate_cost,
    load_config,
    parse_config,
    run,
    validate,
)
from ntkdistill.network import NetConfig, param_count


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


def rows_without_wall_ms(path):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in read_rows(path)[1]]


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
            expect = float(effective_logits(z_t, y, DistillParams(rho, temp)))
            assert float(row["value"]) == pytest.approx(expect, abs=1e-9)


def test_run_is_deterministic_modulo_walltime(tmp_path):
    path = write_config(tmp_path, MINIMAL)
    _, paths_a = run(path, out_dir=tmp_path / "a")
    _, paths_b = run(path, out_dir=tmp_path / "b")
    assert rows_without_wall_ms(paths_a[0]) == rows_without_wall_ms(paths_b[0])
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
    assert rows_without_wall_ms(paths[0]) == rows_without_wall_ms(paths2[0])


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
    assert rows_without_wall_ms(a[0]) == rows_without_wall_ms(b[0])


def test_ntk_check_smoke_is_byte_identical_at_one_and_two_threads(tmp_path, monkeypatch):
    # every worker thread draws its units' parameters into its own buffer,
    # so the rows match the serial run's as written
    import ntkdistill.experiments as exp
    from test_pipeline import SMOKE_CASES, _csv_without_wall_ms, _tiny_fig2_config

    draws = []
    original = exp.init_params

    def spy(net, seed, out=None):
        draws.append((threading.get_ident(), out))
        time.sleep(0.02)  # so that both workers take units
        return original(net, seed, out=out)

    path = write_config(tmp_path, _tiny_fig2_config("ntk-check", **SMOKE_CASES["ntk-check"]))
    _, a = run(path, out_dir=tmp_path / "a", threads=1)
    monkeypatch.setattr(exp, "init_params", spy)
    _, b = run(path, out_dir=tmp_path / "b", threads=2)
    assert _csv_without_wall_ms(a[0]) == _csv_without_wall_ms(b[0])
    assert len({thread for thread, _ in draws}) == 2
    for i, (thread, out) in enumerate(draws):
        for other, other_out in draws[i + 1:]:
            assert thread == other or not np.shares_memory(out, other_out)


@pytest.mark.parametrize("threads", [1, 2])
def test_failed_ntk_check_run_keeps_no_draw_buffer(tmp_path, monkeypatch, threads):
    # the draw buffers belong to the run: one that fails before its last
    # unit releases them as a finished one does (at width 4096 a buffer
    # holds 269 MB)
    import ntkdistill.experiments as exp
    from test_pipeline import SMOKE_CASES, _tiny_fig2_config

    buffers = []

    def injected(net, seed, out=None):
        buffers.append(weakref.ref(out.base))
        raise FloatingPointError("injected")

    path = write_config(tmp_path, _tiny_fig2_config("ntk-check", **SMOKE_CASES["ntk-check"]))
    monkeypatch.setattr(exp, "init_params", injected)
    status, _ = run(path, out_dir=tmp_path / "out", threads=threads)
    assert status == 2
    assert buffers and all(buf() is None for buf in buffers)


def _assert_failing_unit_keeps_earlier_rows(tmp_path, data, inject, threads=1,
                                            error="FloatingPointError"):
    """Run ``data`` whole, then again after ``inject(full_rows)`` has made
    one unit fail with ``error("injected")`` and returned the index of that
    unit's first row: the failed run exits 2 and keeps exactly the rows
    before that index, in order, under an incomplete manifest."""
    path = write_config(tmp_path, data)
    status, paths = run(path, out_dir=tmp_path / "full", threads=threads)
    assert status == 0
    full = rows_without_wall_ms(paths[0])
    first_failed = inject(full)

    status, paths = run(path, out_dir=tmp_path / "failed", threads=threads)
    assert status == 2
    kept = rows_without_wall_ms(paths[0])
    assert first_failed > 0 and kept == full[:first_failed]
    with open(paths[1]) as fh:
        manifest = json.load(fh)
    assert manifest["incomplete"] and manifest["records"] == len(kept)
    assert manifest["errors"] == [f"{error}: injected"]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", ["inefficiency", "ntk-check"])
def test_failing_unit_keeps_the_rows_of_the_units_before_it(
    tmp_path, monkeypatch, kind, threads
):
    # units hand over their rows as they finish, in unit order, so a failing
    # unit leaves exactly the rows of the units before it and an incomplete
    # manifest.  The failing unit is picked by its key, not by call count,
    # so worker threads cannot move it
    import ntkdistill.experiments as exp
    from test_pipeline import SMOKE_CASES, _tiny_fig2_config

    def inject(full):
        if kind == "inefficiency":
            # the second unit: the unflipped mixture under the second distill point
            original = exp.distilled_target_fn

            def injected(task, dp):
                if task.spec.kind == "mixture" and dp.soft_ratio == 0.0:
                    raise FloatingPointError("injected")
                return original(task, dp)

            monkeypatch.setattr(exp, "distilled_target_fn", injected)
            return next(i for i, r in enumerate(full) if r["p_flip"] == "" and r["rho"] == "0.0")
        # the third unit: the first repeat at width 64, whose network is
        # drawn from the seed its row carries
        failing = next(r for r in full if r["value_name"] == "frob_rel_err" and r["n"] == "64")
        original = exp.init_params

        def injected(net, seed, out=None):
            if seed == int(failing["seed"]):
                raise FloatingPointError("injected")
            return original(net, seed, out=out)

        monkeypatch.setattr(exp, "init_params", injected)
        return full.index(failing)

    _assert_failing_unit_keeps_earlier_rows(
        tmp_path, _tiny_fig2_config(kind, **SMOKE_CASES[kind]), inject, threads)


def test_overflowing_correction_logit_keeps_the_rows_of_the_units_before_it(
    tmp_path, monkeypatch
):
    # an OverflowError from correction_logit (|z_t / T| > 500, reached by a
    # teacher learning rate of 1.5) used to escape run() with a traceback,
    # exit 1 and an empty output directory; it is a numerical failure.  The
    # second repeat fails, picked by the key of its training sample's stream
    import ntkdistill.experiments as exp
    from test_pipeline import SMOKE_CASES, _tiny_fig2_config

    original_rng, original_logit = exp.unit_rng, exp.correction_logit
    failing = threading.Event()

    def keyed_rng(root_seed, *key):
        if key[:2] == (82, 1):
            failing.set()
        return original_rng(root_seed, *key)

    def overflowing(z_t, y_g, temperature):
        if failing.is_set():
            raise OverflowError("injected")
        return original_logit(z_t, y_g, temperature)

    def inject(full):
        monkeypatch.setattr(exp, "unit_rng", keyed_rng)
        monkeypatch.setattr(exp, "correction_logit", overflowing)
        return next(i for i, r in enumerate(full) if r["seed"] == "1")

    _assert_failing_unit_keeps_earlier_rows(
        tmp_path, _tiny_fig2_config("hard-label-effect", **SMOKE_CASES["hard-label-effect"]),
        inject, error="OverflowError")


@pytest.mark.parametrize("kind", ["effective-logits", "angle-dist", "hard-label-effect"])
def test_failing_unit_keeps_the_rows_of_the_units_before_it_in_serial_runners(
    tmp_path, monkeypatch, kind
):
    # the same contract for three more kinds, at one thread; each failing
    # unit is picked by the key its rows carry
    import ntkdistill.experiments as exp
    from test_pipeline import SMOKE_CASES, _tiny_fig2_config

    extra = SMOKE_CASES[kind]
    if kind == "effective-logits":
        # the unit (rho 0, z_t -0.5): the second distill point's second logit
        original = exp.effective_logits

        def injected(z_t, y, dp):
            if dp.soft_ratio == 0.0 and z_t == -0.5:
                raise FloatingPointError("injected")
            return original(z_t, y, dp)

        name, failing = "effective_logits", {"rho": "0.0", "beta": "-0.5"}
    elif kind == "angle-dist":
        # the curve of a second distill point, rho 1, at its effective-logit
        # solve on the 400 Monte Carlo inputs (the oracle chunks hold 1,024
        # or 512 rows)
        extra = extra | {"distill": extra["distill"] + [{"soft_ratio": 1.0, "temperature": 2.0}]}
        original = exp.effective_logits

        def injected(z_t, y, dp):
            if dp.soft_ratio == 1.0 and len(z_t) == _tiny_fig2_config(kind)["samples"]:
                raise FloatingPointError("injected")
            return original(z_t, y, dp)

        name, failing = "effective_logits", {"rho": "1.0"}
    else:
        # the unit (repeat 1, n 32), by the key of its training sample's stream
        original = exp.unit_rng

        def injected(root_seed, *key):
            if key == (82, 1, 32):
                raise FloatingPointError("injected")
            return original(root_seed, *key)

        name, failing = "unit_rng", {"seed": "1", "n": "32"}

    def inject(full):
        monkeypatch.setattr(exp, name, injected)
        return next(i for i, r in enumerate(full) if failing.items() <= r.items())

    _assert_failing_unit_keeps_earlier_rows(tmp_path, _tiny_fig2_config(kind, **extra), inject)


@pytest.mark.parametrize("threads", [0, -1, (os.cpu_count() or 1) + 1])
def test_cli_rejects_threads_out_of_range(tmp_path, capsys, monkeypatch, threads):
    # exit 1 with a message before any work: no run, no worker thread, no
    # output directory
    import ntkdistill.cli as cli
    import ntkdistill.experiments as exp

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "run", no_work)
    monkeypatch.setattr(exp, "ThreadPoolExecutor", no_work)
    alive = threading.active_count()
    path = write_config(tmp_path, MINIMAL)
    out = tmp_path / "o"
    argv = ["effective-logits", "--config", str(path), "--out", str(out),
            "--threads", str(threads)]
    assert main(argv) == 1
    assert "--threads must be between 1 and" in capsys.readouterr().err
    assert threading.active_count() == alive
    assert not out.exists()


def test_cli_exit_codes(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL)
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["effective-logits", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    # mismatched subcommand is a config error
    assert main(["ntk-check", "--config", str(path)]) == 1
    assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 1
    bad = write_config(tmp_path, dict(MINIMAL, experiment="nope"), "bad.json")
    assert main(["validate", "--config", str(bad)]) == 1


def test_out_that_cannot_be_created_is_a_config_error(tmp_path, capsys, monkeypatch):
    # an --out naming an existing file exits 1 with a config error on stderr
    # before any work starts, not with a traceback
    import ntkdistill.experiments as exp

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(exp, "train_teacher", no_work)
    afile = tmp_path / "afile"
    afile.write_text("kept")
    path = write_config(tmp_path, TINY_HARD_LABEL)
    assert main(["hard-label-effect", "--config", str(path), "--out", str(afile)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: out: ")
    assert "Traceback" not in err
    assert afile.read_text() == "kept"


def test_partial_failure_keeps_completed_rows(tmp_path, monkeypatch):
    # the first unit hands over one row, the second raises
    import ntkdistill.experiments as exp
    from ntkdistill.linalg import SingularKernelError

    kind = exp._KINDS["effective-logits"]

    def exploding(cfg, shared, key):
        if key != kind.units(cfg)[0]:
            raise SingularKernelError("synthetic failure")
        return [({"before_crash": 1.0}, None, {})]

    monkeypatch.setitem(exp._KINDS, "effective-logits", kind._replace(unit=exploding))
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


def test_estimate_cost_counts_ntk_check_draws():
    # every (width, repeat) draws a fresh initialization, so the estimate
    # grows with repeats even where the kernel inputs are few
    data = {"experiment": "ntk-check", "seed": 1,
            "net": {"input_dim": 2, "hidden_layers": 2, "width": 8},
            "width_grid": [16, 64], "kernel_inputs": 1, "repeats": 2}
    cost = lambda **f: estimate_cost(parse_config(data | f))
    assert cost(repeats=4) == 2 * cost()
    # more than the Gram term, kernel inputs x parameters x repeats
    assert cost() > 2 * sum(param_count(NetConfig(2, 2, w)) for w in (16, 64))


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


TINY_HARD_LABEL = ORACLE_COMMON | {
    "experiment": "hard-label-effect", "n_grid": [12, 20], "repeats": 2,
    "teacher_net": {"input_dim": 2, "hidden_layers": 2, "width": 6},
    "teacher": {"epochs": 8, "batch_size": 16, "seed": 2, "stop_epochs": [4, 8]},
}
TINY_NTK_CHECK = {
    "experiment": "ntk-check", "seed": 2,
    "net": {"input_dim": 2, "hidden_layers": 2, "width": 8},
    "width_grid": [16, 32], "kernel_inputs": 5, "repeats": 1, "norm_grid": [10.0],
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


# validate's estimate of every shipped config, benchmark workload and smoke
# config, recorded before the cost terms moved into each kind's _KINDS entry;
# the benchmark prints it beside run_s, so it must not drift unsaid
RECORDED_COSTS = {
    "configs/angle_dist.json": 71353785408.0,
    "configs/effective_logits.json": 0.0,
    "configs/hard_label_effect.json": 99246608384.0,
    "configs/inefficiency_modes.json": 21793996800.0,
    "configs/inefficiency_soft_ratio.json": 13076398080.0,
    "configs/ntk_check.json": 10030577760.0,
    "configs/risk.json": 178687362128.0,
    "configs/zero_norm.json": 105708945408.0,
    "perfbench/workloads/ineff-analytic.json": 3269099520.0,
    "perfbench/workloads/ntk-wide.json": 12036693312.0,
    "perfbench/workloads/risk-oracle.json": 8203425824.0,
    "smoke/risk": 11267776.0,
    "smoke/angle-dist": 9436704.0,
    "smoke/zero-norm": 8827904.0,
    "smoke/hard-label-effect": 11654144.0,
    "smoke/effective-logits": 0.0,
    "smoke/ntk-check": 437368.0,
    "smoke/inefficiency": 36864.0,
}


def test_estimate_cost_keeps_its_recorded_values():
    from test_pipeline import SMOKE_CASES, _tiny_fig2_config

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    costs = {name: estimate_cost(load_config(os.path.join(root, name)))
             for name in RECORDED_COSTS if not name.startswith("smoke/")}
    costs |= {f"smoke/{kind}": estimate_cost(parse_config(_tiny_fig2_config(kind, **extra)))
              for kind, extra in SMOKE_CASES.items()}
    assert costs == RECORDED_COSTS


def _with_teacher(**fields):
    return TINY_RISK | {"teacher": TINY_RISK["teacher"] | fields}


def _without(data, key):
    return {k: v for k, v in data.items() if k != key}


@pytest.mark.parametrize(
    "data, field",
    [
        (ORACLE_COMMON | {"experiment": "inefficiency", "n_grid": [8, 8, 16]}, "n_grid"),
        (_with_teacher(learning_rate=0.0), "teacher"),
        (TINY_RISK | {"oracle": TINY_RISK["oracle"] | {"learning_rate": -0.003}}, "oracle"),
        (_with_teacher(temperature=0.0), "teacher"),
        (_with_teacher(reduction=0.0), "teacher"),
        (TINY_RISK | {"tasks": [{"kind": "mixture", "modes": 0}]}, "tasks[0]"),
        (MINIMAL | {"distill": []}, "distill"),
        (ORACLE_COMMON | {"experiment": "zero-norm"}, "distill"),
        (ORACLE_COMMON | {"experiment": "zero-norm", "distill": TINY_RISK["distill"]}, "distill"),
        (_without(TINY_HARD_LABEL, "n_grid"), "n_grid"),
        (TINY_HARD_LABEL | {"teacher": _without(TINY_HARD_LABEL["teacher"], "stop_epochs")},
         "teacher.stop_epochs"),
        (TINY_NTK_CHECK | {"width_grid": [0, 8]}, "width_grid"),
        (TINY_NTK_CHECK | {"kernel_inputs": 0}, "kernel_inputs"),
        (ORACLE_COMMON | {"experiment": "inefficiency", "n_grid": [8, 16], "extra_points": 0},
         "extra_points"),
        (TINY_ANGLE | {"beta_points": 0}, "beta_points"),
        (TINY_NTK_CHECK | {"norm_grid": [0.0, 10.0]}, "norm_grid"),
        (TINY_NTK_CHECK | {"norm_grid": [-3.0]}, "norm_grid"),
        (MINIMAL | {"z_t_grid": []}, "z_t_grid"),
        (TINY_NTK_CHECK | {"width_grid": [], "norm_grid": []}, "width_grid"),
        (TINY_NTK_CHECK | {"norm_grid": []}, "norm_grid"),
        (TINY_RISK | {"n_grid": [4, 8]}, "n_grid"),
        (TINY_HARD_LABEL | {"teacher": TINY_HARD_LABEL["teacher"] | {"stop_epochs": [0]}},
         "teacher.stop_epochs"),
        (TINY_HARD_LABEL | {"teacher": TINY_HARD_LABEL["teacher"] | {"stop_epochs": [-4, 16]}},
         "teacher.stop_epochs"),
        (MINIMAL | {"seed": -3}, "seed"),
        (TINY_RISK | {"tasks": [TINY_RISK["tasks"][0] | {"seed": -1}]}, "tasks[0]"),
        (_with_teacher(seed=-1), "teacher"),
        (TINY_RISK | {"tasks": [TINY_RISK["tasks"][0] | {"seed": 1.5}]}, "tasks[0]"),
        (_with_teacher(seed=2.5), "teacher"),
        (MINIMAL | {"seed": True}, "seed"),
        (TINY_RISK | {"tasks": [TINY_RISK["tasks"][0] | {"seed": True}]}, "tasks[0]"),
        (_with_teacher(seed=True), "teacher"),
        (TINY_RISK | {"repeats": True}, "repeats"),
        (TINY_RISK | {"net": TINY_RISK["net"] | {"width": True}}, "net.width"),
        (TINY_HARD_LABEL | {"teacher_net": TINY_HARD_LABEL["teacher_net"] | {"input_dim": 2.0}},
         "teacher_net.input_dim"),
        (TINY_RISK | {"n_grid": [4.5, 8, 16]}, "n_grid"),
        (TINY_NTK_CHECK | {"width_grid": [16, True]}, "width_grid"),
        (TINY_RISK | {"oracle": TINY_RISK["oracle"] | {"epochs": 0}}, "oracle.epochs"),
        (TINY_ANGLE | {"oracle": TINY_ANGLE["oracle"] | {"epochs": 0}}, "oracle.epochs"),
        (ORACLE_COMMON | {"experiment": "zero-norm", "distill": TINY_RISK["distill"][:1],
                          "oracle": {"epochs": 0, "batch_size": 8}}, "oracle.epochs"),
        (TINY_HARD_LABEL | {"oracle": TINY_HARD_LABEL["oracle"] | {"epochs": 0}},
         "oracle.epochs"),
        (TINY_NTK_CHECK | {"norm_grid": [float("inf")]}, "norm_grid"),
        (ORACLE_COMMON | {"experiment": "inefficiency", "n_grid": 8}, "n_grid"),
        (MINIMAL | {"z_t_grid": 0.5}, "z_t_grid"),
        (TINY_NTK_CHECK | {"width_grid": 16}, "width_grid"),
        (TINY_NTK_CHECK | {"norm_grid": 10.0}, "norm_grid"),
        (MINIMAL | {"distill": MINIMAL["distill"][0]}, "distill"),
        (TINY_RISK | {"tasks": TINY_RISK["tasks"][0]}, "tasks"),
        (TINY_HARD_LABEL | {"teacher": TINY_HARD_LABEL["teacher"] | {"stop_epochs": 8}},
         "teacher.stop_epochs"),
        (TINY_HARD_LABEL | {"teacher": TINY_HARD_LABEL["teacher"] | {"reduction": float("inf")}},
         "teacher.reduction"),
        (TINY_RISK | {"tasks": [TINY_RISK["tasks"][0] | {"amplitude": float("nan")}]},
         "tasks[0].amplitude"),
        (TINY_RISK | {"distill": [{"soft_ratio": 1.0, "temperature": float("inf")}]},
         "distill[0].temperature"),
        (TINY_HARD_LABEL | {"teacher": TINY_HARD_LABEL["teacher"] | {"reduction": 10**400}},
         "teacher.reduction"),
        *[(TINY_HARD_LABEL | {"teacher_net": falsy}, "teacher_net")
          for falsy in ({}, False, 0, [])],
    ],
    ids=["repeated-n", "teacher-rate", "oracle-rate", "teacher-temperature",
         "teacher-reduction", "no-modes", "effective-logits-no-distill",
         "zero-norm-no-distill", "zero-norm-two-distill", "hard-label-no-n-grid",
         "hard-label-no-stop-epochs", "zero-width", "no-kernel-inputs", "no-extra-points",
         "no-beta-points", "zero-norm-grid-entry", "negative-norm", "empty-z-t-grid",
         "empty-width-and-norm-grids", "empty-norm-grid", "risk-two-n", "stop-epoch-zero",
         "negative-stop-epoch", "negative-root-seed", "negative-task-seed",
         "negative-teacher-seed", "fractional-task-seed", "fractional-teacher-seed",
         "boolean-root-seed", "boolean-task-seed", "boolean-teacher-seed", "boolean-repeats",
         "boolean-net-width", "fractional-teacher-net-input-dim", "fractional-n-grid-entry",
         "boolean-width-grid-entry", "risk-no-oracle-epochs", "angle-dist-no-oracle-epochs",
         "zero-norm-no-oracle-epochs", "hard-label-no-oracle-epochs", "infinite-norm",
         "bare-n-grid", "bare-z-t-grid", "bare-width-grid", "bare-norm-grid", "bare-distill",
         "bare-tasks", "bare-stop-epochs", "infinite-teacher-reduction", "nan-task-amplitude",
         "infinite-distill-temperature", "huge-integer-teacher-reduction",
         "empty-teacher-net", "false-teacher-net", "zero-teacher-net", "list-teacher-net"],
)
def test_validate_rejects_what_a_run_would_reject(tmp_path, capsys, data, field):
    # each of the first six, and the no-kernel-inputs and no-extra-points
    # cases, used to pass validate and then die mid-run with a traceback, no
    # CSV and no manifest; a zero width crashed validate itself with a
    # traceback; no beta points and the empty grids used to run to exit 0
    # with a header-only CSV, a zero norm to a diag_ratio of inf and a
    # negative norm to the ratio of its absolute value; the rest used to run
    # on what a runner filled in (a default distill point, only the first of
    # several, n = 256, or the final checkpoint as the only imperfect
    # teacher); a two-point risk grid trained the teacher and the oracles
    # and then died in the power-law fit with a traceback, a stop epoch of 0
    # ran to a header-only CSV and a negative one was dropped unsaid; a
    # negative root, task or teacher seed, or a fractional task or teacher
    # seed, died in SeedSequence with a traceback and an empty output
    # directory.  A JSON true for an integer ran as 1 with true in the
    # manifest (the root seed) or died with a TypeError (a network field), a
    # fractional n ran as its floor while the manifest kept the fraction, no
    # oracle epochs trained the teacher and then died dividing by a zero
    # weight change, and an infinite norm ran to exit 0 with a non-finite
    # diag_ratio.  A list field given as a bare value crashed validate with
    # a TypeError.  An infinite teacher reduction died in hard-label-effect
    # with an OverflowError, a NaN amplitude trained the teacher on NaN
    # targets and ran to exit 0, and an infinite distill temperature ran to
    # exit 0 through numpy RuntimeWarnings; an integer too large for a
    # float is no finite float either.  A falsy teacher_net slipped past
    # the parse and crashed validate and every run with a TypeError
    assert main(["validate", "--config", str(write_config(tmp_path, data))]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


@pytest.mark.parametrize(
    "data, message",
    [
        (TINY_RISK | {"tasks": [TINY_RISK["tasks"][0] | {"modes": "3"}]},
         "tasks[0].modes: must be an integer"),
        (_with_teacher(learning_rate="0.01"), "teacher.learning_rate: must be a number"),
        (TINY_RISK | {"tasks": [TINY_RISK["tasks"][0] | {"mode": 3}]},
         "tasks[0]: unknown or missing field"),
        (TINY_RISK | {"net": {"input_dim": 2, "width": 8}}, "net: unknown or missing field"),
        (TINY_RISK | {"oracle": 6}, "oracle: must be an object"),
        (MINIMAL | {"out": 3}, "out: must be a string"),
    ],
    ids=["string-modes", "string-teacher-rate", "misspelt-task-field", "missing-net-field",
         "bare-oracle", "numeric-out"],
)
def test_config_errors_tell_a_wrong_type_from_a_wrong_name(tmp_path, capsys, data, message):
    # a value of the wrong type used to fail a comparison in __post_init__
    # and read as "unknown or missing field", like a misspelt key
    assert main(["validate", "--config", str(write_config(tmp_path, data))]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_negative_seed_override_is_a_config_error(tmp_path, capsys):
    # --seed -1 used to die in SeedSequence with a traceback, after the
    # output directory was made
    path = write_config(tmp_path, MINIMAL)
    assert main(["effective-logits", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--seed", "-1"]) == 1
    assert capsys.readouterr().err.startswith("config error: seed: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "data, net",
    [
        (ORACLE_COMMON | {"experiment": "inefficiency", "n_grid": [4, 8], "repeats": 1,
                          "tasks": [{"kind": "mixture", "dim": 3, "modes": 3, "seed": 1}]},
         "net"),
        (TINY_HARD_LABEL | {"teacher_net": {"input_dim": 3, "hidden_layers": 2, "width": 6}},
         "teacher_net"),
    ],
    ids=["net", "teacher_net"],
)
def test_task_dim_must_match_every_network(tmp_path, capsys, command, data, net):
    # a task whose dim differs from a network's input_dim used to pass
    # validate, then fail mid-run with a traceback and an empty output
    # directory
    path = write_config(tmp_path, data)
    out = tmp_path / "out"
    argv = ["--config", str(path)] + (["--out", str(out)] if command == "run" else [])
    assert main([data["experiment"] if command == "run" else "validate"] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: tasks[0].dim: ") and f" {net}.input_dim " in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


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
    from ntkdistill.network import NetConfig, Sweep, init_params

    built = []

    class Counting(Sweep):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(exp, "Sweep", Counting)
    monkeypatch.setattr(kernel, "Sweep", Counting)
    net = NetConfig(2, 2, 16)
    x = np.random.default_rng(3).normal(size=(12, 2))
    deltas = exp.student_closed_form(net, init_params(net, 3), x, [np.ones(12), np.zeros(12)])
    assert len(deltas) == 2
    assert len(built) == 1


def _hard_label_input_sets(data):
    """The input set of every (repeat, n) point of a hard-label-effect run."""
    from ntkdistill.metrics import unit_rng
    from ntkdistill.tasks import Task

    cfg = parse_config(data)
    sampler = Task(cfg.tasks[0]).sample_inputs
    return [sampler(n, unit_rng(cfg.seed, 82, rep, n))
            for rep in range(cfg.repeats) for n in cfg.n_grid]


def test_hard_label_effect_sweeps_each_input_set_once(tmp_path, monkeypatch):
    # the initial logits and the Gram of each (repeat, n) input set come from
    # one student sweep (two before: forward, then empirical_ntk_gram)
    import ntkdistill.experiments as exp
    import ntkdistill.kernel as kernel
    import ntkdistill.network as network

    built = []

    class Counting(network.Sweep):
        def __init__(self, cfg, params, x):
            built.append((cfg, np.array(x)))
            super().__init__(cfg, params, x)

    for module in (exp, kernel, network):
        monkeypatch.setattr(module, "Sweep", Counting)
    status, _ = run(write_config(tmp_path, TINY_HARD_LABEL), out_dir=tmp_path / "out")
    assert status == 0
    net = parse_config(TINY_HARD_LABEL).net
    for x in _hard_label_input_sets(TINY_HARD_LABEL):
        sweeps = [1 for cfg, xx in built
                  if cfg == net and xx.shape == x.shape and np.array_equal(xx, x)]
        assert len(sweeps) == 1


def test_hard_label_effect_evaluates_the_ground_truth_once_per_input_set(
    tmp_path, monkeypatch
):
    # dz_g and every swept teacher's hard labels come from one ground-truth
    # evaluation of each (repeat, n) input set, not one plus one per teacher
    import ntkdistill.experiments as exp

    seen = []
    original = exp.forward

    def counting(cfg, params, x):
        seen.append(np.array(x))
        return original(cfg, params, x)

    monkeypatch.setattr(exp, "forward", counting)
    status, _ = run(write_config(tmp_path, TINY_HARD_LABEL), out_dir=tmp_path / "out")
    assert status == 0
    for x in _hard_label_input_sets(TINY_HARD_LABEL):
        calls = [1 for xx in seen if xx.shape == x.shape and np.array_equal(xx, x)]
        assert len(calls) == 1


def test_nan_teacher_logit_in_an_oracle_chunk_exits_numerical(tmp_path, monkeypatch):
    # one NaN teacher logit among the rows of a lockstep oracle chunk stops
    # the risk run at the effective-logit solve with exit code 2
    from ntkdistill.tasks import LabelSource

    original = LabelSource.logits

    def one_nan(self, x):
        z = original(self, x)
        z[-1] = np.nan
        return z

    monkeypatch.setattr(LabelSource, "logits", one_nan)
    out = tmp_path / "out"
    path = write_config(tmp_path, TINY_RISK)
    assert main(["risk", "--config", str(path), "--out", str(out)]) == 2
    header, rows = read_rows(out / "risk.csv")
    assert header == list(CSV_COLUMNS) and rows == []
    manifest = json.loads((out / "risk_manifest.json").read_text())
    assert manifest["incomplete"] is True
    assert manifest["errors"][0].startswith("FloatingPointError")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_risk_divergence_in_second_repeat_keeps_first_repeat_rows(tmp_path, monkeypatch):
    # each risk unit is one repeat, and its rows run distill point -> n; a
    # repeat that diverges leaves every row of the repeats before it, for
    # every distill point, in the repeat -> distill point -> n order of a
    # successful run
    import ntkdistill.experiments as exp

    path = write_config(tmp_path, TINY_RISK)
    status, paths = run(path, out_dir=tmp_path / "full")
    assert status == 0
    full = rows_without_wall_ms(paths[0])

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
    kept = rows_without_wall_ms(paths[0])
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
        "distill": [{"soft_ratio": 1.0, "temperature": 10.0}],
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
    # a risk-oracle-sized grid point and angle pass sweep their 10,000 Monte
    # Carlo inputs in row blocks; whole-batch sweeps of the width-128
    # student peaked at 61.7 and 51.4 MB, the row blocks at about 1.5 and
    # 2.1 MB
    import tracemalloc

    import ntkdistill.experiments as exp
    from ntkdistill.network import init_params
    from ntkdistill.tasks import LabelSource, Task

    cfg = parse_config({
        "experiment": "risk", "seed": 13,
        "net": {"input_dim": 2, "hidden_layers": 2, "width": 128},
        "teacher_net": {"input_dim": 2, "hidden_layers": 3, "width": 64},
        "tasks": [{"kind": "mixture", "dim": 2, "modes": 6, "amplitude": 2.0, "seed": 11}],
        "oracle": {"epochs": 1, "batch_size": 128},
        "distill": [{"soft_ratio": 1.0, "temperature": 10.0},
                    {"soft_ratio": 0.5, "temperature": 10.0}],
        "n_grid": [32, 64, 128], "repeats": 1, "samples": 10_000,
    })
    task = Task(cfg.tasks[0])
    label = LabelSource(cfg.teacher_net, init_params(cfg.teacher_net, 5), 0.3,
                        task.target_logits)
    targets = exp._distilled_targets(label, cfg.distill)
    params0, delta_zero, _ = exp._perfect_teacher_repeat(cfg, task.sample_inputs, targets, 0)
    rng = np.random.default_rng(0)
    deltas_star = [rng.normal(scale=0.01, size=params0.size) for _ in cfg.distill]

    def peak_mb(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    point = peak_mb(lambda: exp._risk_point(cfg, params0, task.sample_inputs, label, targets,
                                            0, 128, deltas_star, delta_zero))

    def angle_pass():
        inputs = exp._angle_inputs(cfg, task.sample_inputs, label, params0, rng)
        return [exp._angle_curve(cfg, inputs, dp, np.linalg.norm(delta_star - delta_zero), None)
                for dp, delta_star in zip(cfg.distill, deltas_star)]

    angles = peak_mb(angle_pass)
    assert point < 16 and angles < 16, (point, angles)
