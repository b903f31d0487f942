"""Every hook of the benchmark's tracer names a function or method that the
library still has, so a rename or a deletion cannot silently drop a layer
from a traced run (``perfbench/run.py --trace 1``)."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _hooks():
    """(module, class or None, attribute) of every tracer hook."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(mod, None, attr) for mod, attr, _ in tracer.FUNCTIONS] + [
        (mod, cls, attr) for mod, cls, attr, _, _ in tracer.METHODS
    ]


@pytest.mark.parametrize("module,cls,attr", _hooks())
def test_tracer_hook_resolves(module, cls, attr):
    owner = importlib.import_module(module)
    if cls is None:
        assert callable(getattr(owner, attr))
        return
    # the tracer replaces the entry in the class's own namespace
    raw = vars(getattr(owner, cls))[attr]
    if isinstance(raw, property):
        raw = raw.fget
    elif isinstance(raw, staticmethod):
        raw = raw.__func__
    assert callable(raw)
