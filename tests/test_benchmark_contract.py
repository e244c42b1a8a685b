"""The end-to-end benchmark's contract with the package.

``benchmarks/e2e/workloads.py`` imports public names from ``repro`` and
``benchmarks/e2e/tracer.py`` wraps the functions and methods its
``TARGETS`` table names.  A rename or deletion on the package side would
otherwise surface only when the benchmark runs; these tests fail it here.
They load the two files read-only: no bytecode is written next to them.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _load(name: str, monkeypatch: pytest.MonkeyPatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, E2E / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # workloads.py imports its sibling as the top-level module ``tracer``
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_workloads_import_resolves(monkeypatch):
    _load("tracer", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    assert set(workloads.WORKLOADS) >= {"d4_cold", "d3_loads", "sweep64", "faults128"}


def test_tracer_targets_resolve(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    for module_name, attr, _, _ in tracer.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(method)), attr
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)


def test_contenders_build_network_and_tables():
    from repro.experiments.future_simulation import CONTENDERS
    from repro.network.graph import Network
    from repro.routing.base import RoutingTable

    for name, build in CONTENDERS.items():
        net, tables = build()
        assert isinstance(net, Network) and isinstance(tables, RoutingTable), name
