"""Guards on the public surface: the shipped configs, the demos and the
package's own module boundaries.

The configs and demos are not exercised end to end by the suite (they take
minutes), so these checks catch a renamed field or a deleted function that
would break them.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

from ntkdistill.cli import main
from ntkdistill.experiments import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "ntkdistill").glob("*.py"))
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def test_configs_and_demos_found():
    assert CONFIGS and DEMOS


def test_every_config_field_is_set_by_a_config():
    # a top-level field that neither a shipped config nor a golden smoke
    # config sets is an option nothing in the lab uses
    from test_pipeline import SMOKE_CASES, _tiny_fig2_config

    used = {key for path in CONFIGS for key in json.loads(path.read_text())}
    used |= {key for kind, extra in SMOKE_CASES.items()
             for key in _tiny_fig2_config(kind, **extra)}
    assert set(ExperimentConfig.__dataclass_fields__) - used == set()


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
