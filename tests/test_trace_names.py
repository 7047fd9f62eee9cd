"""Every function the benchmark tracer wraps by name still exists, and a
traced run reports every metric.

`perfbench/tracer.py` rebinds padroot functions by (module, attribute path)
for `perfbench/run.py --trace 1`; a rename in padroot, or a change to what a
traced function returns, would break that run without failing any other
test.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
active = tracer.Tracer()
active.install()
from padroot.extremal import build_family
from padroot.rootcount import count_roots
from padroot.sparsepoly import parse_poly
from padroot.vandermonde import binomial_det_quotient, identity_grid_report
count_roots(parse_poly("5*x^200000 + 3*x^100 - " + str(10007**100)), 10007)
count_roots(parse_poly("81*x^3 - 279*x^2 + 112*x - 12"), 5)
build_family(2, 3)
identity_grid_report(1, 3)
binomial_det_quotient((1, 3))
print(json.dumps({"names": tracer.metric_names(), "summary": active.summary()}))
"""


def test_traced_run_reports_every_metric():
    # `--trace 1` installs the tracer in a fresh interpreter; do the same on
    # the valuation-shifted lacunary input, the double rational root 2/9, a
    # tower build and a small identity grid, so that a change to what a
    # traced function returns fails here, not in the run
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", TRACED_RUN, str(TRACER)],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    summary = result["summary"]
    missing = [name for name in result["names"]
               if name != "trace.overhead_s" and name not in summary]
    assert not missing
    assert summary["sparsepoly.scale_substitute.calls"] > 0
    # the lifts and the quotients run inside these entry points, so a
    # refactor that routes around them would read 0 in `--trace 1` without
    # failing anything else
    assert summary["padic.hensel_lift.calls"] > 0
    assert summary["padic.teichmuller.calls"] > 0
    assert summary["multipoly.MultiPoly.divide_exact.calls"] > 0
    assert summary["vandermonde.binomial_det_quotient.calls"] > 0
    # no benchmark input reaches the derivative search; the double root does
    assert summary["rootcount.rational_roots_with_multiplicity.calls"] > 0
    assert summary["sparsepoly.newton_polygon.calls"] > 0
    assert summary["sparsepoly.scale_substitute.max_coeff_bits"] < 10**4
