"""The README's run contracts as properties of every experiment kind, on the
seven smoke configs of ``test_pipeline.py``."""

import ast
import copy
import csv
import json
import math
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

import ntkdistill.experiments as exp
from ntkdistill.cli import main
from ntkdistill.experiments import (
    _KINDS, _PARTS, CSV_COLUMNS, EXPERIMENT_KINDS, ConfigError, ExperimentConfig, parse_config,
    run, validate)
from ntkdistill.metrics import default_beta_grid
from ntkdistill.tasks import TASK_KINDS
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


ROOT = Path(__file__).parents[1]


def _recording(part, path, reads):
    """A copy of the config part ``part`` that adds ``path + name`` to
    ``reads`` whenever its field ``name`` is read; the parts it holds are
    recording copies too, each list entry under its list's path."""
    names = {f.name for f in fields(part)}

    def getattribute(self, name):
        if name in names:
            reads.add(path + name)
        return object.__getattribute__(self, name)

    copied = copy.copy(part)
    for f in fields(part):
        value = getattr(part, f.name)
        if is_dataclass(value):
            value = _recording(value, f"{path}{f.name}.", reads)
        elif isinstance(value, list) and any(map(is_dataclass, value)):
            value = [_recording(v, f"{path}{f.name}.", reads) for v in value]
        object.__setattr__(copied, f.name, value)
    cls = type(part)
    object.__setattr__(copied, "__class__",
                       type(cls.__name__, (cls,), {"__getattribute__": getattribute}))
    return copied


# run() reads these of every config, whatever its kind: the kind, the root
# seed of every row and the output directory
RUN_READS = {"experiment", "seed", "out"}
# a field that a kind's shipped configs set but its pieces never read, and why
UNREAD = {
    **{(kind, "teacher.temperature"):
       "only hard-label-effect's correction logit reads it; the configs and the "
       "risk-oracle benchmark workload still set it, and dropping it there moves "
       "config_hash, so it waits on the benchmark change that re-records that workload"
       for kind in ("risk", "angle-dist", "zero-norm")},
    ("effective-logits", "net"):
        "every config must set net, and effective-logits solves each logit on its "
        "own, with no network",
}


@pytest.mark.parametrize("kind", list(SMOKE_CASES))
def test_each_kind_reads_what_it_requires_and_what_its_configs_set(kind):
    # the kind's pieces run on its smoke config through a copy that records
    # each field path read; every field the kind requires is read, and a
    # field the kind's shipped configs and benchmark workloads set goes
    # unread only if UNREAD names it (its children are not listed again)
    reads = set()
    cfg = _recording(parse_config(_tiny_fig2_config(kind, **SMOKE_CASES[kind])), "", reads)
    pieces = _KINDS[kind]
    shared = pieces.setup(cfg)
    results = [pieces.unit(cfg, shared, key) for key in pieces.units(cfg)]
    if pieces.finish is not None:
        pieces.finish(cfg, shared, results)
    assert {path for path, _, _ in pieces.requires} <= reads
    reads |= RUN_READS
    configs = [json.loads(p.read_text()) for p in sorted(ROOT.glob("configs/*.json"))
               + sorted(ROOT.glob("perfbench/workloads/*.json"))]
    # the path of every key those configs set, list entries under their
    # list's path
    set_paths = {".".join(p for p in path + (key,) if isinstance(p, str))
                 for data in configs if data["experiment"] == kind
                 for _, path, part in config_parts(ExperimentConfig, data) for key in part}
    assert set_paths
    unread = {path for path in set_paths - reads if path.rpartition(".")[0] in reads | {""}}
    assert unread == {path for k, path in UNREAD if k == kind}


def test_no_kind_name_outside_the_kinds_table():
    # what a kind requires, costs and runs sits in its _KINDS entry, so no
    # other string literal of the module names a kind.  The one literal
    # allowed is a CSV value_name that happens to be a kind's name
    tree = ast.parse(Path(exp.__file__).read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["_KINDS"])
    keys = {id(key) for key in table.keys}
    named = [(getattr(top, "name", None), node.value) for top in tree.body
             for node in ast.walk(top)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value in EXPERIMENT_KINDS and id(node) not in keys]
    assert named == [("_inefficiency_unit", "inefficiency")]


@pytest.mark.parametrize("kind", ["risk", "angle-dist", "zero-norm", "hard-label-effect"])
def test_teacher_kinds_take_one_task_and_read_its_labels_without_noise(kind):
    # these kinds train their teacher on tasks[0], so a second task would be
    # ignored; risk, angle-dist and zero-norm read that task's labels with
    # no rng, which a noisy kind needs.  Hard-label-effect reads no labels
    base = _tiny_fig2_config(kind, **SMOKE_CASES[kind])
    bad = [[], base["tasks"] * 2]
    if kind != "hard-label-effect":
        bad += [[base["tasks"][0] | {"kind": "flipped-mixture", "p_flip": 0.3}],
                [base["tasks"][0] | {"kind": "random-labels"}]]
    for tasks in bad:
        with pytest.raises(ConfigError, match=r"^tasks: "):
            parse_config(base | {"tasks": tasks})
    for task_kind in ("mixture", "zero"):
        parse_config(base | {"tasks": [base["tasks"][0] | {"kind": task_kind}]})


def test_readme_requires_table_names_each_kinds_required_fields():
    readme = (ROOT / "README.md").read_text()
    lines = readme.split("| kind | requires |", 1)[1].splitlines()[2:]
    rows = {}
    for line in lines:
        if not line.startswith("|"):
            break
        _, kind, requires, _ = line.split("|")
        rows[kind.strip().strip("`")] = set(re.findall(r"`([^`]+)`", requires))
    assert rows == {kind: {path for path, _, _ in entry.requires}
                    for kind, entry in _KINDS.items()}


def test_readme_lists_the_csv_columns():
    # the README's column block is the schema's, RunRecord's fields in order
    readme = (ROOT / "README.md").read_text()
    block = readme.split("### Outputs", 1)[1].split("```")[1]
    assert tuple(block.replace(",", " ").split()) == CSV_COLUMNS


# the mutation table's values: every field takes each of these ([] is the
# empty grid), and each grid a config sets also comes with its last entry
# repeated and reversed
MUTATIONS = [0, -1, True, False, 1.5, float("nan"), float("inf"), -float("inf"), "x", None, {}, []]


def config_parts(cls, data, path=()):
    """``(part, path, value)`` for the config ``data`` read as ``cls`` and
    for each config part it nests, found through the field annotations the
    config walk reads (its ``_PARTS``); ``value`` is the part's JSON
    object."""
    yield cls, path, data
    for f in fields(cls):
        part = _PARTS.get(f.type.removesuffix(" | None").removeprefix("list[").removesuffix("]"))
        value = data.get(f.name)
        if part is not None and isinstance(value, dict):
            yield from config_parts(part, value, path + (f.name,))
        elif part is not None and isinstance(value, list):
            for i, entry in enumerate(value):
                if isinstance(entry, dict):
                    yield from config_parts(part, entry, path + (f.name, i))


def _field_paths(data):
    """The path of every field, set or not, of the config and of each part
    it nests."""
    for cls, path, _ in config_parts(ExperimentConfig, data):
        for f in fields(cls):
            yield path + (f.name,)


def _holder(data, path):
    """The object or list that holds the field at ``path``."""
    for key in path[:-1]:
        data = data[key]
    return data


def _mutated(data, path, value):
    data = copy.deepcopy(data)
    _holder(data, path)[path[-1]] = value
    return data


def _mutations(data, path):
    value = _holder(data, path).get(path[-1])
    if isinstance(value, list) and value and not isinstance(value[0], dict):
        return MUTATIONS + [value + value[-1:], value[::-1]]
    return MUTATIONS


def _whole_mutations(data):
    """``(name, config)`` mutations of more than one field: each task's kind
    set to each other task kind, with a ``p_flip`` where the kind needs one,
    and a second task where the config has one."""
    for i, task in enumerate(data["tasks"]):
        for kind in TASK_KINDS:
            if kind != task["kind"]:
                flip = {"p_flip": 0.3} if kind == "flipped-mixture" else {}
                tasks = data["tasks"][:i] + [task | {"kind": kind} | flip] + data["tasks"][i + 1:]
                yield f"tasks.{i}.kind = {kind!r}", data | {"tasks": tasks}
    if len(data["tasks"]) == 1:
        yield "tasks = two tasks", data | {"tasks": data["tasks"] * 2}


def _cell(value):
    return repr(value) if isinstance(value, float) else str(value)


def _coordinates(config):
    """The values each coordinate column may hold, from a manifest's
    config; an empty cell is allowed in each."""
    kind, tasks, dps = config["experiment"], config["tasks"], config["distill"]
    temps = [dp["temperature"] for dp in dps]
    if kind == "hard-label-effect":
        temps.append(config["teacher"]["temperature"])
    betas = {"effective-logits": config["z_t_grid"], "ntk-check": config["norm_grid"],
             "angle-dist": default_beta_grid(config["beta_points"])}.get(kind, [])
    allowed = {
        "n": config["width_grid"] if kind == "ntk-check" else config["n_grid"],
        "rho": [dp["soft_ratio"] for dp in dps],
        "T": temps,
        "epoch": config["teacher"]["stop_epochs"],
        "q": [t["modes"] for t in tasks],
        "p_flip": [t["p_flip"] for t in tasks],
    }
    allowed = {col: {_cell(v) for v in vs} for col, vs in allowed.items()}
    allowed["beta"] = {repr(float(v)) for v in betas}
    return allowed


def _contract_break(tmp_path, capsys, kind, data, out):
    """Why ``data``, run as ``kind``, breaks the validate/run contract, or
    None."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    try:
        validate(path)
        valid = True
    except ConfigError:
        valid = False
    except Exception as exc:
        return f"validate raised {type(exc).__name__}: {exc}"
    try:
        status = main([kind, "--config", str(path), "--out", str(out)])
    except Exception as exc:
        return f"run raised {type(exc).__name__}: {exc}"
    finally:
        capsys.readouterr()
    if not valid:
        return None if status == 1 and not out.exists() else f"rejected, but run exited {status}"
    if status not in (0, 2):
        return f"validated, but run exited {status}"
    stem = out / kind.replace("-", "_")
    manifest = json.loads(Path(f"{stem}_manifest.json").read_text())
    if manifest["incomplete"] != (status == 2) or bool(manifest["errors"]) != (status == 2):
        return f"exit {status} with manifest errors {manifest['errors']}"
    allowed = _coordinates(manifest["config"])
    with open(f"{stem}.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if (row["experiment"], row["config_hash"]) != (manifest["experiment"],
                                                           manifest["config_hash"]):
                return f"row {row} names another run"
            if not (math.isfinite(float(row["value"])) or row["flag"]):
                return f"unflagged non-finite value in {row}"
            for col, values in allowed.items():
                if row[col] not in values | {""}:
                    return f"{col} {row[col]!r} is not in the config"
    return None


@pytest.mark.parametrize("kind", list(SMOKE_CASES))
def test_validate_and_run_agree_on_every_field_mutation(tmp_path, capsys, kind):
    # the mutation table: each field of the smoke config, top-level or
    # nested, set to each mutation, and the whole-task mutations.  Either
    # validate raises a ConfigError and the run exits 1 before making its
    # output directory, or validate passes and the run exits 0 or 2 with a
    # manifest, finite or flagged values and rows whose coordinates the
    # manifest's config holds
    base = _tiny_fig2_config(kind, **SMOKE_CASES[kind])
    mutated = [(f"{'.'.join(map(str, path))} = {value!r}", _mutated(base, path, value))
               for path in _field_paths(base) for value in _mutations(base, path)]
    breaks = []
    for i, (name, data) in enumerate(mutated + list(_whole_mutations(base))):
        problem = _contract_break(tmp_path, capsys, kind, data, tmp_path / f"out-{i}")
        if problem:
            breaks.append(f"{name}: {problem}")
    assert not breaks, "\n".join(breaks)
