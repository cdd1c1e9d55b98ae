"""The public names: each module's __all__ exists, and the package re-exports only listed names."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import mtlab
from mtlab.cli import build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
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


def _load_workloads():
    # workloads.py imports nothing from mtlab, so it loads by path without the benchmark's sys.path
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["sweep", "certify"])
def test_benchmark_commands_parse(workload):
    # the benchmark passes --seed to every command and appends --out; a dropped flag exits 2 here
    parser = build_parser()
    for job in _load_workloads().cli_jobs(workload, 11):
        parser.parse_args(job["argv"] + ["--out", "F"])


def test_solve_worker_calls_exist():
    # every mtlab.NAME(...) the solve worker makes names a package attribute that takes the keywords it passes
    tree = ast.parse((PERFBENCH / "solve_worker.py").read_text(encoding="utf-8"))
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "mtlab"
    ]
    names = {call.func.attr for call in calls}
    assert names == {"MTParams", "MaximizeOptions", "maximize_d", "constraint_value", "mt_integral"}
    for call in calls:
        inspect.signature(getattr(mtlab, call.func.attr)).bind_partial(**{kw.arg: None for kw in call.keywords})
