"""The benchmark's workloads run against this checkout: the toy set-up of
each workload, its independent expectation where it has one, and one
solve, in this process, must attempt every operation and fail none."""

import importlib.util
import sys
from pathlib import Path

import pytest

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


def solve_toy(monkeypatch, name):
    """The tally of one toy solve of the named workload."""
    workloads = load_workloads(monkeypatch)
    inputs = workloads.SETUP[name](workloads.SIZES["toy"][name], seed=0)
    if name in workloads.EXPECT:
        workloads.EXPECT[name](inputs)
    tally = workloads.Tally()
    workloads.SOLVE[name](inputs, tally)
    return tally


def test_toy_family_class_solves_correctly(monkeypatch):
    tally = solve_toy(monkeypatch, "family_class")
    assert tally.refused == []
    assert tally.wrong == []
    assert tally.failed == 0
    assert tally.attempted == 5


@pytest.mark.parametrize("name, attempted",
                         [("index_flow", 6), ("twisted_loop", 4)])
def test_toy_curve_workloads_solve_correctly(monkeypatch, name, attempted):
    # both run OperatorCurve: spectral_flow and sf_pairs on index_flow,
    # the mapping torus and spectral_flow on twisted_loop
    tally = solve_toy(monkeypatch, name)
    assert tally.refused == []
    assert tally.wrong == []
    assert tally.failed == 0
    assert tally.attempted == attempted
