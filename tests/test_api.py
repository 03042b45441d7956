"""No operation takes a per-call threshold or guard switch: each reads its
thresholds from the ``Tolerances`` record it is given, and every guard
runs on every call."""

import dataclasses
import inspect

import specflow
from specflow.operators import (null_splits, numerical_rank,
                                small_singular_vectors, split_rank)

OVERRIDES = {"tol", "rtol", "check_stability", "refine_check", "lipschitz",
             "grid", "fiber_grid", "tail"}


def operations():
    """Every public function and method reachable from ``specflow.__all__``
    plus the rank primitives that the library modules call.  A dataclass
    constructor is left out: its fields record a value
    (``WindingData.grid`` is the grid a winding was computed on), they do
    not override one."""
    yield "null_splits", null_splits
    yield "numerical_rank", numerical_rank
    yield "split_rank", split_rank
    yield "small_singular_vectors", small_singular_vectors
    for name in specflow.__all__:
        obj = getattr(specflow, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            if not dataclasses.is_dataclass(obj):
                yield name, obj
            for attr, member in inspect.getmembers(obj, callable):
                if not attr.startswith("_"):
                    yield f"{name}.{attr}", member


def test_no_per_call_override():
    found = {}
    for name, fn in operations():
        try:
            params = set(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            continue
        if params & OVERRIDES:
            found[name] = sorted(params & OVERRIDES)
    assert found == {}


def test_operations_are_found():
    names = {name for name, _ in operations()}
    assert {"fredholm_index", "spectral_flow", "sf_pairs", "winding",
            "mapping_torus_index", "ProjectorFamily",
            "SymbolFunction.from_samples", "null_splits", "numerical_rank",
            "split_rank", "small_singular_vectors"} <= names
