"""Every function the benchmark tracer wraps by name exists.

``perfbench/tracer.py`` looks each ``chcon.<module>.<fn>`` of its ``TARGETS``
up with a bare ``getattr`` when a traced run starts, so a deleted or renamed
function breaks ``perfbench/run.py --trace 1``.  This checks the same lookup
without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_traced_name_resolves():
    missing = [
        f"chcon.{module}.{fn}"
        for module, funcs in _targets().items()
        for fn in funcs
        if not callable(getattr(importlib.import_module(f"chcon.{module}"), fn, None))
    ]
    assert not missing, f"perfbench/tracer.py wraps names chcon no longer defines: {missing}"
