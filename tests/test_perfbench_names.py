"""The benchmark's per-layer tracer looks functions up by name: a renamed
or deleted function would fail every traced benchmark step, so each name
it wraps must resolve here first."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = [f"{module}.{attribute}"
               for _, module, attribute, _, _ in traced
               if not callable(getattr(importlib.import_module(module),
                                       attribute, None))]
    assert missing == []
