"""Tests of the benchmark's own output check and tracer.

They run the CLI in-process on tiny configs, so they take a few seconds.
"""

import csv
import io
import json
import math
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import outputcheck  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

from ntkdistill import cli  # noqa: E402

TINY = {
    "risk": {
        "experiment": "risk", "seed": 3,
        "net": {"input_dim": 2, "hidden_layers": 2, "width": 16},
        "teacher_net": {"input_dim": 2, "hidden_layers": 2, "width": 16},
        "tasks": [{"kind": "mixture", "dim": 2, "modes": 3, "seed": 1}],
        "teacher": {"epochs": 8, "batch_size": 32, "seed": 5},
        "oracle": {"epochs": 4, "batch_size": 16},
        "distill": [{"soft_ratio": 0.5, "temperature": 10.0}],
        "n_grid": [4, 8, 16], "repeats": 1, "samples": 200,
    },
    "inefficiency": {
        "experiment": "inefficiency", "seed": 4,
        "net": {"input_dim": 1, "hidden_layers": 2, "width": 16},
        "tasks": [{"kind": "mixture", "dim": 1, "modes": 5, "seed": 7},
                  {"kind": "zero", "dim": 1, "seed": 7},
                  {"kind": "random-labels", "dim": 1, "seed": 7}],
        "n_grid": [8, 16], "repeats": 2, "extra_points": 2,
    },
    "ntk-check": {
        "experiment": "ntk-check", "seed": 5,
        "net": {"input_dim": 2, "hidden_layers": 2, "width": 8},
        "width_grid": [8, 32], "kernel_inputs": 4, "repeats": 2,
    },
}


def run_cli(tmp_path, kind, name, tracer=None):
    """Run one tiny config; returns (exit code, csv text, manifest text)."""
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(TINY[kind]))
    out = tmp_path / name
    argv = [kind, "--config", str(config), "--out", str(out), "--threads", "1"]
    if tracer is None:
        status = cli.main(argv)
    else:
        tracer.install()
        close = tracer.root("cli.main")
        try:
            status = cli.main(argv)
        finally:
            close()
            tracer.uninstall()
    stem = out / kind.replace("-", "_")
    return (status, (stem.parent / (stem.name + ".csv")).read_text(),
            (stem.parent / (stem.name + "_manifest.json")).read_text())


@pytest.fixture(scope="module")
def ineff_output(tmp_path_factory):
    return run_cli(tmp_path_factory.mktemp("ineff"), "inefficiency", "plain")


def stored_reference(csv_text):
    """Round-trip through the stored reference format, as run.py reads it."""
    text = outputcheck.reference_text(outputcheck.read_rows(csv_text))
    return outputcheck.keyed_values(outputcheck.read_rows(text))


def test_clean_run_against_own_reference(ineff_output):
    status, csv_text, manifest = ineff_output
    result = outputcheck.check_run(status, csv_text, manifest, stored_reference(csv_text))
    assert result["failures"] == []
    assert result["max_rel_dev"] == 0.0
    # zero and random-labels tasks share coordinates; ordinals keep both
    rows = outputcheck.read_rows(csv_text)
    assert len(result["values"]) == len(rows)


def test_perturbed_reference_value_raises_max_rel_dev(ineff_output):
    status, csv_text, manifest = ineff_output
    reference = stored_reference(csv_text)
    key = next(iter(reference))
    reference[key] *= 1.0 + 1e-3
    result = outputcheck.check_run(status, csv_text, manifest, reference)
    assert result["failures"] == []
    assert result["max_rel_dev"] == pytest.approx(1e-3, rel=1e-2)
    assert result["max_rel_dev"] > run.MAX_REL_DEV


def test_dropped_reference_row_fails_the_run(ineff_output):
    status, csv_text, manifest = ineff_output
    reference = stored_reference(csv_text)
    del reference[next(iter(reference))]
    result = outputcheck.check_run(status, csv_text, manifest, reference)
    assert any("row keys differ" in f for f in result["failures"])
    assert result["max_rel_dev"] == 0.0


def test_nan_reference_value_makes_max_rel_dev_infinite(ineff_output):
    status, csv_text, manifest = ineff_output
    reference = stored_reference(csv_text)
    reference[next(iter(reference))] = math.nan
    result = outputcheck.check_run(status, csv_text, manifest, reference)
    assert result["failures"] == []
    assert result["max_rel_dev"] == math.inf


def test_all_three_reference_faults_together(ineff_output):
    status, csv_text, manifest = ineff_output
    reference = stored_reference(csv_text)
    keys = list(reference)
    reference[keys[0]] *= 1.5
    del reference[keys[1]]
    reference[keys[2]] = math.nan
    result = outputcheck.check_run(status, csv_text, manifest, reference)
    assert any("row keys differ" in f for f in result["failures"])
    assert result["max_rel_dev"] == math.inf


def test_nan_output_exit_code_and_incomplete_manifest_fail(ineff_output):
    status, csv_text, manifest = ineff_output
    rows = outputcheck.read_rows(csv_text)
    rows[0]["value"] = "nan"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    nan_csv = buf.getvalue()
    assert any("non-finite" in f
               for f in outputcheck.check_run(0, nan_csv, manifest, None)["failures"])
    assert outputcheck.check_run(2, csv_text, manifest, None)["failures"]
    incomplete = json.dumps(dict(json.loads(manifest), incomplete=True))
    assert outputcheck.check_run(0, csv_text, incomplete, None)["failures"]
    assert outputcheck.check_run(0, None, None, None)["failures"]


def test_no_reference_reports_max_rel_dev_absent(ineff_output):
    status, csv_text, manifest = ineff_output
    assert outputcheck.check_run(status, csv_text, manifest, None)["max_rel_dev"] is None


@pytest.mark.parametrize("kind", ["risk", "inefficiency", "ntk-check"])
def test_tracer_is_deterministic_and_leaves_nothing_behind(tmp_path, kind):
    plain = run_cli(tmp_path, kind, "plain")
    traced = []
    for i in range(2):
        tracer = Tracer()
        status, csv_text, manifest = run_cli(tmp_path, kind, f"traced{i}", tracer)
        assert status == 0
        # tracing changes no output value
        assert outputcheck.compare(outputcheck.keyed_values(outputcheck.read_rows(csv_text)),
                                   outputcheck.keyed_values(outputcheck.read_rows(plain[1]))
                                   ) == (0.0, True)
        summary = tracer.summary()
        assert tracer.wrappers_remaining() == []
        root_s = summary["layers"]["cli.main"]["total_s"]
        assert sum(summary["thread_self_s"].values()) == pytest.approx(root_s, rel=1e-9)
        traced.append(({k: v["calls"] for k, v in summary["layers"].items()},
                       summary["counts"], json.loads(manifest)["records"]))
    assert traced[0] == traced[1]
    assert traced[0][1], "no counters recorded"


def test_wrappers_reach_every_importing_module(tmp_path):
    from ntkdistill import experiments, metrics, network

    original = network.forward
    tracer = Tracer().install()
    try:
        assert metrics.forward is network.forward is experiments.forward
        assert network.forward is not original
    finally:
        tracer.uninstall()
    assert metrics.forward is original and experiments.forward is original


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(n, u) for n, u, _ in run.PER_LAYER] + list(run.RUN_LEVEL)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer
