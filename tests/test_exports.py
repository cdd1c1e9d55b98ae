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



SRC = Path(mtlab.__file__).resolve().parent
#: The commands, the acceptance criteria and the benchmark: every name in these files is reached, TRACED's strings
#: included.
ENTRY_FILES = (SRC / "cli.py", Path(__file__).with_name("test_acceptance.py"), *sorted(PERFBENCH.glob("*.py")))
#: Reached by no entry file: the equal-mass grid is the sort oracle of the rearrangement tests in test_radial.py
#: (on it the discrete rearrangement is exactly the descending sort); it goes once profiles are one
#: piecewise-linear function and the rearrangement no longer works on nodal masses.
UNREACHED_BY_DESIGN = {"equal_mass_grid"}


def _words(nodes) -> set[str]:
    """What the nodes use: "x" for a name or import x, "x" and ".x" for an attribute x or a dotted string's part x."""
    out = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Attribute):
            out.update((node.attr, "." + node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = [part for part in node.value.split(".") if part.isidentifier()]
            out.update(parts + ["." + part for part in parts])
    return out


def _definitions():
    """(key -> the words its definition uses, (public name, key) pairs); a method's key is ".name".

    A class's body but its non-dunder methods is the class's definition: dunders run whenever the class is used.
    `__all__` defines nothing: it lists names, it does not reach them.
    """
    uses, public = {}, []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.ClassDef):
                methods = [m for m in stmt.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
                body = [m for m in stmt.body if m not in methods] + stmt.bases + stmt.decorator_list
                defined = [(stmt.name, stmt.name, body)]
                defined += [(f"{stmt.name}.{m.name}", "." + m.name, [m]) for m in methods]
            elif isinstance(stmt, ast.FunctionDef):
                defined = [(stmt.name, stmt.name, [stmt])]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and n.id != "__all__"]
                defined = [(name, name, [stmt.value]) for name in names]
            else:
                continue
            for name, key, body in defined:
                uses.setdefault(key, set()).update(_words(body))
                if not any(part.startswith("_") for part in name.split(".")):
                    public.append((f"{path.stem}.{name}", key))
    return uses, public


def test_every_public_name_is_reached():
    # a public name, or a public method of a public class, that no command, acceptance criterion or benchmark file
    # reaches, directly or through other src code, is dead code
    uses, public = _definitions()
    reached = _words(ast.parse(path.read_text(encoding="utf-8")) for path in ENTRY_FILES) | UNREACHED_BY_DESIGN
    todo = list(reached)
    while todo:
        for word in uses.get(todo.pop(), ()):
            if word not in reached:
                reached.add(word)
                todo.append(word)
    assert [name for name, key in public if key not in reached] == []
