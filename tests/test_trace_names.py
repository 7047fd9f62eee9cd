"""Every function the benchmark tracer wraps by name still exists.

`perfbench/tracer.py` rebinds padroot functions by (module, attribute path)
for `perfbench/run.py --trace 1`; a rename in padroot would break that run
without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for module, path, _ in traced:
        target = importlib.import_module(f"padroot.{module}")
        for part in path.split("."):
            assert hasattr(target, part), f"padroot.{module}.{path}"
            target = getattr(target, part)
        assert callable(target), f"padroot.{module}.{path}"
