"""The README's run contracts as properties of every experiment kind, on the
seven smoke configs of ``test_pipeline.py``."""

import csv
import json
from pathlib import Path

import pytest

from ntkdistill.experiments import CSV_COLUMNS, run
from test_pipeline import SMOKE_CASES, _csv_without_wall_ms, _tiny_fig2_config


@pytest.mark.parametrize(
    "kind, extra",
    [pytest.param(kind, extra, id=kind) for kind, extra in SMOKE_CASES.items()] + [
        # the smoke cases give each of these kinds a single unit
        pytest.param("risk", SMOKE_CASES["risk"] | {"repeats": 2}, id="risk-two-repeats"),
        pytest.param("angle-dist",
                     {**SMOKE_CASES["angle-dist"],
                      "distill": SMOKE_CASES["angle-dist"]["distill"]
                      + [{"soft_ratio": 1.0, "temperature": 2.0}]},
                     id="angle-dist-two-distill-points"),
    ],
)
def test_threads_leave_every_output_unchanged(tmp_path, kind, extra):
    # --threads 2 writes the CSV of --threads 1 byte for byte, wall_ms
    # aside, and the same manifest
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_tiny_fig2_config(kind, **extra)))
    outputs = []
    for threads in (1, 2):
        status, (csv_path, manifest_path) = run(path, out_dir=tmp_path / str(threads),
                                                threads=threads)
        assert status == 0
        with open(manifest_path, "rb") as fh:
            outputs.append((_csv_without_wall_ms(csv_path), fh.read()))
    assert len(outputs[0][0]) > 1
    assert outputs[0] == outputs[1]


ONE, HALF = ({"soft_ratio": r, "temperature": 2.0} for r in (1.0, 0.5))


def _rows_without_wall_ms_and_hash(tmp_path, name, kind, extra):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_tiny_fig2_config(kind, **SMOKE_CASES[kind] | extra)))
    status, (csv_path, _) = run(path, out_dir=tmp_path / name)
    assert status == 0
    with open(csv_path, newline="") as fh:
        return [{k: v for k, v in row.items() if k not in ("wall_ms", "config_hash")}
                for row in csv.DictReader(fh)]


@pytest.mark.parametrize(
    "kind, extra, is_new, refit",
    [
        # risk_slope fits a power law to the whole n grid, so an inserted n
        # moves it
        ("risk", {"n_grid": [4, 6, 8, 16]}, lambda r: r["n"] == "6", {"risk_slope"}),
        ("risk", {"distill": SMOKE_CASES["risk"]["distill"] + [HALF]},
         lambda r: r["rho"] == "0.5", set()),
        ("angle-dist", {"distill": [ONE] + SMOKE_CASES["angle-dist"]["distill"]},
         lambda r: r["rho"] == "1.0", set()),
        ("effective-logits",
         {"z_t_grid": [-3.0, -0.5, 0.0, 0.5, 3.0],
          "distill": [ONE, HALF] + SMOKE_CASES["effective-logits"]["distill"][1:]},
         lambda r: r["beta"] == "0.0" or r["rho"] == "0.5", set()),
        ("hard-label-effect",
         {"n_grid": [24, 32],
          "teacher": SMOKE_CASES["hard-label-effect"]["teacher"] | {"stop_epochs": [16, 64, 128]}},
         lambda r: r["n"] == "24" or r["epoch"] == "64", set()),
        ("ntk-check", {"width_grid": [16, 32, 64], "norm_grid": [10.0, 30.0, 50.0]},
         lambda r: r["n"] == "32" or r["beta"] == "30.0", set()),
    ],
    ids=["risk-insert-n", "risk-append-distill-point", "angle-dist-prepend-distill-point",
         "effective-logits-insert-z-t-and-distill-point", "hard-label-effect-insert-n-and-epoch",
         "ntk-check-insert-width-and-norm"],
)
def test_grid_extension_keeps_every_old_row(tmp_path, kind, extra, is_new, refit):
    # each row's random streams are keyed by its own grid coordinates (an
    # ntk-check frob_rel_err row by its width and repeat, a diag_ratio row by
    # its norm), so a config with more grid points writes every row of the
    # smaller one unchanged, in order; only the config hash differs.
    # Inefficiency, which keys its streams by grid index, is not held to this
    # yet, and zero-norm has no grid.
    old = _rows_without_wall_ms_and_hash(tmp_path, "old", kind, {})
    new = _rows_without_wall_ms_and_hash(tmp_path, "new", kind, extra)
    kept = [r for r in new if not is_new(r) and r["value_name"] not in refit]
    assert len(new) > len(old)
    assert kept == [r for r in old if r["value_name"] not in refit]


def test_readme_lists_the_csv_columns():
    # the README's column block is the schema's, RunRecord's fields in order
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Outputs", 1)[1].split("```")[1]
    assert tuple(block.replace(",", " ").split()) == CSV_COLUMNS
