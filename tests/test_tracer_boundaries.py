"""Every layer boundary the benchmark tracer wraps names a function in dualmoco.

The tracer skips a boundary whose function is gone and reports it as absent,
so a rename would otherwise drop a per-layer metric without failing anything.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_names_a_dualmoco_callable():
    tracer = load_tracer()
    entries = [entry[:2] for entry in (*tracer.BOUNDARIES, *tracer.COUNT_ONLY)]
    assert len(entries) >= 40
    absent = [
        f"dualmoco.{module_name}.{attr}"
        for module_name, attr in entries
        if not callable(getattr(importlib.import_module(f"dualmoco.{module_name}"), attr, None))
    ]
    assert absent == []
