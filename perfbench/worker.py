"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py SPEC RESULTS {setup,pass,trace} [SPANS]

Imports padroot from the checkout's own `src/`, parses the inputs in SPEC,
appends {"ready": <time.monotonic()>} to RESULTS, and in `setup` mode stops
there.  Otherwise it runs every operation in order, timing each call alone,
checks the output outside the timed region, and appends one line per
operation.  A final line carries the peak RSS and, in `trace` mode, the
per-layer summary; trace mode also writes its spans to SPANS.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import padroot.cli  # noqa: E402,F401  (loads the whole package, as the CLI does)
from padroot import extremal, rootcount, sparsepoly, vandermonde  # noqa: E402

from checks import root_holds  # noqa: E402
from tracer import Tracer  # noqa: E402


def run(op, poly):
    # called through the module attributes, so a traced pass hits the wrappers
    kind = op["kind"]
    if kind == "count":
        return rootcount.count_roots(poly, op["p"])
    if kind == "tower":
        return extremal.build_family(op["t"], op["q"])
    if kind == "grid":
        return vandermonde.identity_grid_report(op["t_max"], op["alpha_max"])
    if kind == "binomial":
        return [(beta, vandermonde.binomial_det(beta), vandermonde.binomial_det_quotient(beta))
                for t in range(1, op["t_max"] + 1)
                for beta in combinations(range(1, op["beta_max"] + 1), t)]
    raise ValueError(f"unknown operation kind {kind}")


def _roots_hold(terms, p, entries) -> str | None:
    for e in entries:
        value = e.value
        if value.kind != "num" or value.val != e.valuation:
            return f"root {e.describe()} has no determined unit part"
        if not root_holds(terms, p, value.val, value.unit, value.prec, e.multiplicity):
            return f"root {e.describe()} fails modular evaluation to {value.prec} digits"
    return None


def check(op, poly, result) -> str | None:
    """None when the output is right, else why not."""
    kind = op["kind"]
    if kind == "count":
        want = op["expect"]
        got = (result.count_distinct, result.count_with_multiplicity,
               result.fully_certified)
        if got != (want["distinct"], want["with_mult"], want["certified"]):
            return f"counts {got} != expected {want['distinct'], want['with_mult'], want['certified']}"
        if want.get("classes") is not None:
            mod = op["p"] ** want["digits"]
            classes = sorted([e.valuation, e.value.unit % mod] for e in result.entries)
            if classes != sorted(want["classes"]):
                return "root classes differ from the expected answer"
        return _roots_hold(poly.terms, op["p"], result.entries)
    if kind == "tower":
        target = (2 * op["t"] - 1) * (op["q"] - 1)
        report = result.report
        if not report.fully_certified or report.count_with_multiplicity < target:
            return (f"member not certified to {target} roots: "
                    f"{report.count_with_multiplicity}, certified={report.fully_certified}")
        return _roots_hold(result.poly.terms, op["q"], report.entries)
    if kind == "grid":
        rows, summary = result
        if summary["failures"] or summary["rows"] != op["rows"]:
            return f"grid summary {summary}, expected {op['rows']} rows and no failures"
        return None
    if kind == "binomial":
        for beta, scaled, quotient in result:
            t = len(beta)
            if scaled.total_degree() != sum(beta):
                return f"binomial determinant at {beta} has the wrong degree"
            if quotient.total_degree() != sum(beta) - t * (t + 1) // 2:
                return f"binomial quotient at {beta} has the wrong degree"
        return None
    return f"unknown operation kind {kind}"


def main(argv) -> int:
    spec_path, results_path, mode = argv[1:4]
    if not Path(padroot.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"padroot imported from {padroot.cli.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    ops = json.loads(Path(spec_path).read_text())["ops"]
    polys = [sparsepoly.poly_from_obj({"terms": op["poly"]}) if op["kind"] == "count"
             else None for op in ops]
    with open(results_path, "a") as out:
        out.write(json.dumps({"ready": time.monotonic()}) + "\n")
        out.flush()
        if mode == "setup":
            return 0
        tracer = None
        if mode == "trace":
            tracer = Tracer()
            tracer.install()
        for i, (op, poly) in enumerate(zip(ops, polys)):
            start = time.perf_counter()
            try:
                result = run(op, poly)
            except Exception as exc:  # an operation that raises is a failed one
                seconds = time.perf_counter() - start
                why = f"raised {type(exc).__name__}: {exc}"
            else:
                seconds = time.perf_counter() - start
                try:
                    why = check(op, poly, result)
                except Exception as exc:
                    why = f"check raised {type(exc).__name__}: {exc}"
            out.write(json.dumps({"op": i, "s": seconds, "error": why}) + "\n")
            out.flush()
        final = {"done": True,
                 "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if tracer is not None:
            final["trace"] = tracer.summary()
            tracer.write_spans(argv[4])
        out.write(json.dumps(final) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
