"""The benchmark's tracer (perfbench/tracer.py) patches library names from
outside the package and must put every one back. If a cleanup drops a name
it patches, entering the tracer fails here, before a benchmark run does."""

import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_patches_and_restores_every_name():
    tracer = _load_tracer_module().Tracer()
    with tracer:
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert _current(owner, attr) is not original, attr
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, attr
