"""The benchmark's outside-in tracer still finds every function it wraps,
so removing or renaming one of them fails here rather than in a traced
benchmark run."""

import importlib.util
from importlib import import_module
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_target_and_uninstalls_cleanly():
    tracer = _load_tracer()
    assert len(tracer.TARGETS) == 17
    traced = tracer.Tracer()
    try:
        traced.install()
        for module, attr, name, _ in tracer.TARGETS:
            owner_name, _, fn_name = attr.rpartition(".")
            owner = import_module(module)
            if owner_name:
                owner = getattr(owner, owner_name)
            assert tracer._is_traced(getattr(owner, fn_name)), name
    finally:
        assert traced.uninstall()
