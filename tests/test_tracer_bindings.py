"""Every layer boundary the benchmark's tracer wraps still exists.

``perfbench/tracer.py`` binds its spans by (owner, attribute) at install
time; a renamed function would fail only in a traced benchmark run. The
tracer module is loaded from its file and only read.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    tracer = _tracer_module()
    bindings = tracer.TIMED + tracer.COUNTED
    assert bindings
    for metric, owner, attr in bindings:
        assert callable(getattr(owner, attr, None)), f"{metric}: {owner.__name__}.{attr} is gone"
