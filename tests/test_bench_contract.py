"""The benchmark's tracer wraps effnum names by module and attribute.

A refactor that renames or deletes one of them should fail here rather
than crash the traced benchmark run.
"""

import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracing().TARGETS


@pytest.mark.parametrize("span", sorted(TARGETS))
def test_target_resolves(span):
    module, attrs = TARGETS[span]
    owner = importlib.import_module(f"effnum.{module}")
    for attr in (attrs,) if isinstance(attrs, str) else attrs:
        target = getattr(owner, attr)
        # capitalised targets are classes, wrapped at __init__; the rest are functions
        assert isinstance(target, type) == attr[0].isupper(), attr
        assert callable(target)
