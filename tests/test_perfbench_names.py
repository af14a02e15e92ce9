"""The names perfbench's traced run patches exist where it looks them up.

`perfbench/spans.py` wraps each layer by replacing `owner.__dict__[name]`, so
renaming or moving one of those functions in `src/` makes
`perfbench/run.py --trace 1` raise KeyError. This test fails first.
"""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()
PATCHES = [(owner, name) for owner, name, _ in spans.layer_patches(spans.Tracer())]


@pytest.mark.parametrize(
    "owner, name", PATCHES, ids=[f"{owner.__name__}.{name}" for owner, name in PATCHES]
)
def test_patched_name_is_defined_on_its_owner(owner, name):
    assert name in owner.__dict__, f"{owner.__name__} no longer defines {name!r}"
