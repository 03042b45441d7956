"""The benchmark's workloads run against this checkout: the toy
``family_class`` set-up, its independent expectation and one solve, in
this process, must attempt every operation and fail none."""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads(monkeypatch):
    """The module, registered under its own name while the test runs
    (its dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_toy_family_class_solves_correctly(monkeypatch):
    workloads = load_workloads(monkeypatch)
    name = "family_class"
    inputs = workloads.SETUP[name](workloads.SIZES["toy"][name], seed=0)
    workloads.EXPECT[name](inputs)
    tally = workloads.Tally()
    workloads.SOLVE[name](inputs, tally)
    assert tally.refused == []
    assert tally.wrong == []
    assert tally.failed == 0
    assert tally.attempted == 5
