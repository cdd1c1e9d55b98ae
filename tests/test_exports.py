"""The public names: each module's __all__ exists, and the package re-exports only listed names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mtlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(mtlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(f"mtlab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_only_listed_names():
    tree = ast.parse(Path(mtlab.__file__).read_text(encoding="utf-8"))
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in importlib.import_module(f"mtlab.{node.module}").__all__
    ]
    assert unlisted == []


def test_every_traced_name_exists():
    # the benchmark's tracer rebinds these names by module; a missing one breaks traced runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    traced = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]
    )
    missing = [
        f"{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not hasattr(importlib.import_module(f"mtlab.{module}"), name)
    ]
    assert traced and missing == []
