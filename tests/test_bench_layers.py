"""The traced benchmark wraps melt attributes by name; each must still exist."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = [(owner, attr) for owner, attr, _name, _count in load_layers()]


@pytest.mark.parametrize("owner, attr", LAYERS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in LAYERS])
def test_traced_layer_is_defined_on_its_owner(owner, attr):
    assert attr in owner.__dict__
