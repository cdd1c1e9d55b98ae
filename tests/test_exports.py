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
