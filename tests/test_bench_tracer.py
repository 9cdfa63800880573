"""The traced benchmark wraps roelab functions by attribute path; a rename or
deletion in roelab would leave a metric silently at zero."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_path_resolves():
    tracer = _tracer()
    assert tracer.WRAPPED
    unresolved = []
    for module, name, path in tracer.WRAPPED:
        assert module in tracer.MODULES
        owner = importlib.import_module(f"roelab.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{module}.{name} -> roelab.{module}.{path}")
    assert unresolved == []
