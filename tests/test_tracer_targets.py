"""The benchmark's tracer rebinds named functions of the package; a rename
or removal would break traced benchmark runs, so it fails here instead."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("layer, module, path", _targets())
def test_tracer_target_is_bound(layer, module, path):
    # looked up the way Tracer.install does, without rebinding anything
    owner = importlib.import_module(module)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    raw = vars(owner)[name]
    fn = raw.__func__ if isinstance(raw, classmethod) else raw
    assert callable(fn), f"{layer}: {module}.{path} is not callable"
