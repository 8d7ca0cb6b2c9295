"""Every public name resolves: each ``kinfp`` module's ``__all__``, each
span target of the benchmark's tracer (``perfbench/spans.py``), looked up
the way ``Tracer.install`` looks it up but without patching anything, and
every other ``kinfp`` name the benchmark reaches (found by reading the
source of ``perfbench/workloads.py`` and ``perfbench/spans.py``).  A
deletion or rename that would break ``from kinfp.x import *`` or the
benchmark run fails here.  And every defaulted parameter of ``kinfp`` is
set by some call in the repository: a value no caller changes is a
constant; one that only tests and criteria set is listed with the check
that needs it."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import kinfp
from kinfp import cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(kinfp.__path__))
ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SPANS = PERFBENCH / "spans.py"


def benchmark_names():
    """(module, name) of each ``kinfp`` name the benchmark's workloads and
    tracer use: the names they import from ``kinfp`` modules, and the
    attributes they read of ``kinfp`` modules bound to a name."""
    found = set()
    for path in (PERFBENCH / "workloads.py", SPANS):
        tree = ast.parse(path.read_text(), str(path))
        bound = {}  # local name -> kinfp module
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "kinfp"):
                for alias in node.names:
                    found.add((node.module, alias.name))
                    if node.module == "kinfp":
                        bound[alias.asname or alias.name] = (
                            f"kinfp.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in bound):
                found.add((bound[node.value.id], node.attr))
    return sorted(found)


def load_spans():
    spec = importlib.util.spec_from_file_location("kinfp_perfbench_spans",
                                                  SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"kinfp.{name}")
    missing = [a for a in getattr(mod, "__all__", ()) if not hasattr(mod, a)]
    assert not missing


def test_span_targets_resolve():
    spans = load_spans()
    assert set(spans._MODULES) <= set(MODULES)
    for target in spans.TARGETS:
        mod, attr = target.split(".", 1)
        home = importlib.import_module(f"kinfp.{mod}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            if meth == "*":
                assert any(callable(v) and not m.startswith("_")
                           for m, v in vars(cls).items()), target
            else:
                assert callable(vars(cls)[meth]), target
        else:
            assert callable(getattr(home, attr)), target


@pytest.mark.parametrize("module, name", benchmark_names())
def test_benchmark_names_resolve(module, name):
    home = importlib.import_module(module)
    if not hasattr(home, name):  # a submodule not imported by the package
        importlib.import_module(f"{module}.{name}")


def test_benchmark_names_found():
    found = set(benchmark_names())
    assert {("kinfp.fields", "Grid"),
            ("kinfp.harness", "ExperimentEnsemble"),
            ("kinfp.inkspots", "_default_radii")} <= found


def test_traced_cli_kinds_exist():
    assert set(load_spans().CLI_KINDS) <= set(cli.EXPERIMENT_KINDS)


def test_one_hypothesis_error():
    from kinfp.report import HypothesisError

    found = {obj for name in MODULES
             for obj in vars(importlib.import_module(f"kinfp.{name}")).values()
             if isinstance(obj, type)
             and obj.__name__.endswith("HypothesisError")}
    assert found == {HypothesisError}


# (module, callee, parameter) set only in ways a call-site scan cannot see
CENSUS_ALLOWED = {
    # the test of the shared domain gates calls it through a loop variable
    ("harness", "verify_harnack", "R0"),
}


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _is_dataclass(cls):
    return any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


def _init_default(stmt):
    """Whether a dataclass field has a default that ``__init__`` takes
    (a ``field(init=False)`` is no parameter)."""
    value = stmt.value
    return value is not None and not (
        isinstance(value, ast.Call) and _name(value.func) == "field"
        and any(kw.arg == "init" for kw in value.keywords))


def defaulted_parameters(tree):
    """(callee, position, name) of every parameter with a default in a
    module: callee is the function's name, a method's name or, for
    ``__init__`` and dataclass fields, the class's name; position is the
    index of a positional argument that sets it (``self`` not counted),
    None for a keyword-only one."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields_ = [s for s in child.body
                               if isinstance(s, ast.AnnAssign)
                               and isinstance(s.target, ast.Name)]
                    found.extend((child.name, i, s.target.id)
                                 for i, s in enumerate(fields_)
                                 if _init_default(s))
                visit(child, child)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                pos = args.posonlyargs + args.args
                skip = 1 if cls is not None and not any(
                    _name(d) == "staticmethod"
                    for d in child.decorator_list) else 0
                name = (cls.name if cls is not None and child.name == "__init__"
                        else child.name)
                first = len(pos) - len(args.defaults)
                found.extend((name, i - skip, pos[i].arg)
                             for i in range(first, len(pos)))
                found.extend((name, None, a.arg) for a, dflt
                             in zip(args.kwonlyargs, args.kw_defaults)
                             if dflt is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return found


def call_arguments(paths):
    """(callee, position) and (callee, keyword) of every argument passed
    by a call in the files, the callee being the called name or attribute.
    Positions stop at a ``*args``; a ``**kwargs`` sets nothing."""
    passed = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            callee = _name(node.func)
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                passed.add((callee, i))
            passed.update((callee, kw.arg) for kw in node.keywords if kw.arg)
    return passed


def unset_defaults(tops):
    """(module, callee, parameter) of each defaulted parameter of ``kinfp``
    that no call in the Python files under the top-level directories
    ``tops`` sets."""
    passed = call_arguments(path for top in tops
                            for path in sorted((ROOT / top).rglob("*.py")))
    return {(name, callee, param)
            for name in MODULES
            for callee, pos, param in defaulted_parameters(ast.parse(
                (ROOT / "src" / "kinfp" / f"{name}.py").read_text()))
            if (callee, pos) not in passed and (callee, param) not in passed}


def test_every_default_is_set_by_a_caller():
    assert unset_defaults(("src", "tests", "demos", "perfbench")) == (
        CENSUS_ALLOWED)


# (module, callee, parameter) that no call in the library or the benchmark
# sets, each with the test or criterion that needs it
SET_ONLY_BY_CHECKS = {
    ("cli", "ExperimentConfig", "out"):
        "the config file's [experiment] out, read through **values "
        "(test_cli TestConfigParsing::test_every_key_read_with_its_type)",
    ("cli", "main", "argv"): "test_cli TestMain",
    ("fpsolver", "SolverConfig", "transport_interp"):
        "pchip transport: criterion 04 and the golden trajectories",
    ("harness", "ExperimentEnsemble", "d"):
        "test_harness TestWeakHarnack::test_solver_rough_member_d2",
    ("harness", "normalize_by_infimum", "n"): "criterion 07",
    ("harness", "verify_expansion_of_positivity", "n_local"): "criterion 07",
    ("harness", "verify_harnack", "R0"):
        "test_harness test_harnack_and_weak_harnack_share_domain_gates",
    ("harness", "verify_harnack", "n_local"):
        "test_harness test_harnack_reuses_weak_harnack_exactly_d2",
    ("harness", "verify_weak_harnack", "R0"):
        "test_harness TestWeakHarnack::test_domain_gates",
    ("harness", "verify_weak_harnack", "frame"):
        "criterion 08 and test_harness test_weak_harnack_in_a_frame",
    ("harness", "verify_weak_harnack", "n_local"):
        "test_harness test_weak_harnack_in_a_frame",
    ("inkspots", "verify_inkspots", "radii"):
        "test_inkspots TestVerifyInkspots, at radii [0.2, 0.1]",
    ("kolmogorov", "localization_bound", "R"): "criterion 06b",
}


def test_every_default_only_checks_set_is_listed():
    assert unset_defaults(("src", "perfbench")) == set(SET_ONLY_BY_CHECKS)
