"""The names the benchmark binds must exist in gatecap.

perfbench/tracing.py wraps each (module, function) of its LAYERS and
gatecap.oracle.minimize, perfbench/run.py reads SearchConfig().tolerance,
the certify workload calls five package-level entry points and
perfbench/analyze_child.py calls gatecap.cli.main; a benchmark run fails if
one of them is renamed or deleted.  The tracer is only read here, never
installed.
"""

import importlib
import importlib.util
import os

import pytest

import gatecap

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _layers():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


@pytest.mark.parametrize("module, name", _layers() + (("oracle", "minimize"),))
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module("gatecap." + module), name))


def test_search_tolerance_resolves():
    # perfbench/run.py reads gatecap.SearchConfig().tolerance in every traced run.
    tolerance = gatecap.SearchConfig().tolerance
    assert isinstance(tolerance, float) and 0 < tolerance < float("inf")


@pytest.mark.parametrize("module, name", [
    # perfbench/workloads.py: the certify workload, outside the tracer.
    ("gatecap", "max_concurrence_product"),
    ("gatecap", "max_concurrence_unrestricted"),
    ("gatecap", "max_delta_concurrence"),
    ("gatecap", "verify_relation1"),
    ("gatecap", "verify_relation2"),
    # perfbench/analyze_child.py: the traced cli-analyze child.
    ("gatecap.cli", "main"),
])
def test_entry_point_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))
