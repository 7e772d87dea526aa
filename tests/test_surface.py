"""Guards on the public surface: the shipped configs, the demos, the
package's own module boundaries and public names that nothing in the lab
reads.

The configs and demos are not exercised end to end by the suite (they take
minutes), so these checks catch a renamed field or a deleted function that
would break them.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from ntkdistill.cli import main
from ntkdistill.experiments import _PARTS, ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "ntkdistill").glob("*.py"))
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WORKLOADS = sorted((ROOT / "perfbench" / "workloads").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_validates(path, capsys):
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out.rstrip().endswith("OK")


def _ntkdistill_imports(path):
    """(module, name) for every name a file imports from ntkdistill; name is
    None for a plain ``import ntkdistill.x``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ntkdistill":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ntkdistill":
                    yield alias.name, None


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = list(_ntkdistill_imports(path))
    assert imports  # every demo drives the library
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{module}.{name}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_calls_bind_to_library_signatures(path):
    # a call with a removed or renamed parameter would only show when the
    # demo runs; calls that unpack * or ** arguments are not checked
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name: getattr(importlib.import_module(node.module), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ntkdistill"
        for alias in node.names
    }
    checked = 0
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in imported):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                kw.arg is None for kw in node.keywords):
            continue
        signature = inspect.signature(imported[node.func.id])
        try:
            signature.bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            pytest.fail(f"{path.name}:{node.lineno} {node.func.id}: {exc}")
        checked += 1
    assert checked  # every demo calls the library


def test_configs_and_demos_found():
    assert CONFIGS and DEMOS and WORKLOADS


# fields that no shipped, smoke or workload config sets, each with the path
# that keeps it
UNSET_BY_CONFIGS = {
    ("TrainConfig", "final_learning_rate"): "demos/imperfect_teacher_demo.py sets it",
}


def _lab_configs():
    """Every config the lab runs: the shipped ones, the benchmark workloads
    and the golden smoke configs."""
    from test_pipeline import SMOKE_CASES, _tiny_fig2_config

    yield from (json.loads(path.read_text()) for path in CONFIGS + WORKLOADS)
    yield from (_tiny_fig2_config(kind, **extra) for kind, extra in SMOKE_CASES.items())


def test_every_config_field_is_set_by_a_config():
    # a field, top-level or nested, that no config the lab runs sets is an
    # option nothing in the lab uses; the parts are the config walk's own
    from test_contracts import config_parts

    used = defaultdict(set)
    for data in _lab_configs():
        for cls, _, part in config_parts(ExperimentConfig, data):
            used[cls] |= set(part)
    unset = {
        (cls.__name__, name)
        for cls in _PARTS.values()
        for name in cls.__dataclass_fields__
        if name not in used[cls]
    }
    assert unset == set(UNSET_BY_CONFIGS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_no_private_names(path):
    # whatever two modules share goes through a public name, so no module
    # couples to another's internals; dunders such as __version__ aside
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "ntkdistill")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert not private


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_scipy_only_inside_functions(path):
    # nor inside them: the package runs on numpy alone, so no module imports
    # scipy at all; scipy is only the tests' oracle
    imported = [
        node.lineno for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "scipy" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"
    ]
    assert not imported


_IMPORT_PROBE = """
import contextlib, io, json, sys
from ntkdistill import cli, linalg
from ntkdistill.experiments import run
configs, smoke, out = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    report = {"validate": [cli.main(["validate", "--config", path]) for path in configs]}
calls = []
factor = linalg.cholesky
linalg.cholesky = lambda *args, **kwargs: calls.append(1) or factor(*args, **kwargs)
report["runs"] = {kind: run(path, out_dir=out + "/" + kind)[0] for kind, path in smoke.items()}
report["factorizations"] = len(calls)
report["scipy"] = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps(report))
"""


def test_runs_load_no_scipy(tmp_path):
    # in one fresh interpreter, validating every shipped config and a smoke
    # run of every kind load no scipy module; the runs still factor their
    # Grams through linalg.cholesky, the name the benchmark's tracer rebinds
    # to count factorizations
    from test_pipeline import SMOKE_CASES, _tiny_fig2_config

    smoke = {}
    for kind, extra in SMOKE_CASES.items():
        smoke[kind] = str(tmp_path / f"{kind}.json")
        Path(smoke[kind]).write_text(json.dumps(_tiny_fig2_config(kind, **extra)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    args = json.dumps([list(map(str, CONFIGS)), smoke, str(tmp_path / "out")])
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, args],
                           env=env, capture_output=True, text=True, check=True, timeout=300)
    report = json.loads(probe.stdout)
    assert report["scipy"] == []
    assert report["validate"] == [0] * len(CONFIGS)
    assert report["runs"] == dict.fromkeys(SMOKE_CASES, 0)
    assert report["factorizations"] > 0


def test_only_the_emitter_reads_the_clock():
    # wall_ms has one meaning because one function times a run: no runner
    # or other piece of experiments.py keeps a clock of its own
    tree = ast.parse((ROOT / "src" / "ntkdistill" / "experiments.py").read_text())

    def reads_clock(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "perf_counter"
                   or isinstance(n, ast.Name) and n.id == "perf_counter"
                   for n in ast.walk(node))

    readers = [getattr(node, "name", type(node).__name__) for node in tree.body
               if reads_clock(node)]
    assert readers == ["_emitter"]


def test_only_run_maps_units_and_emits_rows():
    # row order, --threads and the rows kept on failure live in one place:
    # no kind's pieces call the unit map or the row emitter themselves
    tree = ast.parse((ROOT / "src" / "ntkdistill" / "experiments.py").read_text())

    def calls(node, name):
        return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == name
                   for n in ast.walk(node))

    callers = {name: [node.name for node in tree.body
                      if isinstance(node, ast.FunctionDef) and calls(node, name)]
               for name in ("_pmap", "_emitter")}
    assert callers == {"_pmap": ["run"], "_emitter": ["run"]}
    # nor does a module-level statement, such as the table of kinds
    assert not any(calls(node, name) for node in tree.body
                   if not isinstance(node, ast.FunctionDef) for name in callers)


def test_students_are_built_from_the_runners_pieces():
    # tests and demos build a student as the runners do, from Sweep,
    # row_blocks and student_closed_form; the two per-call wrappers are
    # exercised only by the network tests, which check them against features
    wrappers = {"feature_dot", "weighted_feature_sum"}

    def calls(path):
        return sorted(
            f"{path.relative_to(ROOT)}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) in wrappers
                 or getattr(node.func, "attr", None) in wrappers))

    files = sorted((ROOT / "tests").glob("*.py")) + DEMOS
    assert [f for path in files if path.name != "test_network.py" for f in calls(path)] == []
    assert calls(ROOT / "tests" / "test_network.py")  # the guard sees the calls it allows


# public names that no other module, demo or benchmark file reads, each with
# the test that keeps it
UNREACHED_BY_THE_LAB = {
    "DistillTargets": "test_train_linearized_distill_objective_reaches_effective_logits",
    "distill_loss": "the finite-difference reference of loss_gradient",
    "effective_logit_closed_t1": "the independent oracle of criterion 1",
    "cos_alpha_g": "the independent oracle of criterion 3",
    "inefficiency_of_norm_law": "the injected power-law oracle of criterion 6",
    "feature_dot": "perfbench/tracer.py rebinds it by name (ROADMAP item 1)",
    "weighted_feature_sum": "perfbench/tracer.py rebinds it by name (ROADMAP item 1)",
}


def test_every_public_name_is_reached():
    # a public top-level name of the package must be read somewhere in the
    # package (the re-exports of __init__.py aside), in a demo or in the
    # benchmark harness; a name only tests read is surface nothing in the
    # lab uses
    def defined(path):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))

    def read(path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                yield getattr(node, "id", None) or node.attr
            elif isinstance(node, ast.alias):
                yield node.name.rsplit(".", 1)[-1]

    harness = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
               if not p.name.startswith("test_")]
    readers = [p for p in MODULES if p.name != "__init__.py"] + DEMOS + harness
    reached = {name for path in readers for name in read(path)}
    unreached = {name for path in MODULES for name in defined(path)
                 if not name.startswith("_") and name not in reached}
    assert unreached == set(UNREACHED_BY_THE_LAB)
