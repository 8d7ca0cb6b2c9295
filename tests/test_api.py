"""Every public name resolves: each ``kinfp`` module's ``__all__``, each
span target of the benchmark's tracer (``perfbench/spans.py``), looked up
the way ``Tracer.install`` looks it up but without patching anything, and
every other ``kinfp`` name the benchmark reaches (found by reading the
source of ``perfbench/workloads.py`` and ``perfbench/spans.py``).  A
deletion or rename that would break ``from kinfp.x import *`` or the
benchmark run fails here."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import kinfp
from kinfp import cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(kinfp.__path__))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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
