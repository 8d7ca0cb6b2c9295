"""Every public name resolves: each ``kinfp`` module's ``__all__``, and each
span target of the benchmark's tracer (``perfbench/spans.py``), looked up
the way ``Tracer.install`` looks it up but without patching anything.  A
deletion that would break ``from kinfp.x import *`` or the traced benchmark
run fails here."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import kinfp
from kinfp import cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(kinfp.__path__))
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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


def test_traced_cli_kinds_exist():
    assert set(load_spans().CLI_KINDS) <= set(cli.EXPERIMENT_KINDS)


def test_one_hypothesis_error():
    from kinfp.report import HypothesisError

    found = {obj for name in MODULES
             for obj in vars(importlib.import_module(f"kinfp.{name}")).values()
             if isinstance(obj, type)
             and obj.__name__.endswith("HypothesisError")}
    assert found == {HypothesisError}
