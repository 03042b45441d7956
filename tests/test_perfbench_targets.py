"""The traced benchmark wraps specflow functions by name; every name it
looks up must exist, so that deleting or renaming one fails here rather
than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def layer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [pytest.param(module_name, attr, id=span)
            for module_name, attr, span in module.LAYER_TARGETS]


@pytest.mark.parametrize("module_name,attr", layer_targets())
def test_layer_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{module_name}.{attr} is not callable"
