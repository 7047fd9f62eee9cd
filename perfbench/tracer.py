"""Per-layer tracing from outside the library.

Wraps public padroot functions and methods, rebinding every module-level
name that refers to them (modules that did `from .x import name` hold their
own reference).  Each call is timed against a stack, so a call's self time
is its duration minus the time of the traced calls it made.  Spans
(id, name, start, end, parent id) stay in memory until `write_spans`.
Functions called tens of thousands of times per pass are aggregated only:
a span per call would cost more than the work it records.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

# (module, attribute path, keep a span per call)
TRACED = [
    ("rootcount", "count_roots", True),
    ("rootcount", "rational_roots_with_multiplicity", True),
    ("rootcount", "torsion_multiplicity", True),
    ("rootcount", "segment_root_count", True),
    ("padic", "hensel_lift", True),
    ("padic", "teichmuller", True),
    ("padic", "solve_power_congruences", True),
    ("sparsepoly", "scale_substitute", True),
    ("sparsepoly", "SparsePoly.eval_mod", False),
    ("sparsepoly", "newton_polygon", True),
    ("sparsepoly", "taylor_shift_truncate", True),
    ("multipoly", "MultiPoly.divide_exact", True),
    ("multipoly", "det", False),
    ("multipoly", "MultiPoly.__mul__", False),
    ("vandermonde", "binomial_det", True),
    ("vandermonde", "vandermonde_quotient", True),
    ("vandermonde", "binomial_det_quotient", True),
    ("vandermonde", "check_shift_expansion", True),
    ("vandermonde", "check_confluent_merge", True),
    ("extremal", "build_family", True),
    ("extremal", "dilate_normalize", True),
]

# imported before patching so that every `from .x import name` binding exists
LIBRARY_MODULES = ["padic", "sparsepoly", "rootcount", "multipoly",
                   "vandermonde", "extremal", "explore", "cli"]

COUNT_NAMES = [
    "rootcount.count_roots.unresolved",
    "rootcount.rational_roots_with_multiplicity.incomplete",
    "padic.hensel_lift.raised",
    "sparsepoly.scale_substitute.max_coeff_bits",
]

# tower members whose build time is reported on its own
MEMBERS = [(2, 5), (2, 7), (3, 3)]


def traced_names() -> list[str]:
    return [f"{module}.{path}" for module, path, _ in TRACED]


def metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = [f"{name}.{stat}" for name in traced_names()
             for stat in ("calls", "s", "self_s")]
    names += COUNT_NAMES
    names += [f"extremal.build_family.t{t}q{q}.s" for t, q in MEMBERS]
    names.append("extremal.verify_yield")
    return names


def unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name == "extremal.verify_yield":
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.stack: list[list] = []   # [span id, start, child seconds]
        self.active: Counter = Counter()
        self.stats = {name: [0, 0.0, 0.0] for name in traced_names()}
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.next_id = 0
        self.after_hooks = {
            "rootcount.count_roots": self._after_count_roots,
            "rootcount.rational_roots_with_multiplicity": self._after_rational_roots,
            "padic.hensel_lift": self._after_hensel_lift,
            "sparsepoly.scale_substitute": self._after_scale_substitute,
            "extremal.build_family": self._after_build_family,
        }

    def install(self) -> None:
        modules = [importlib.import_module(f"padroot.{m}") for m in LIBRARY_MODULES]
        for module_name, path, keep in TRACED:
            module = importlib.import_module(f"padroot.{module_name}")
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original, keep))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, keep)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name, fn, keep):
        stats = self.stats[name]
        stack, active, clock = self.stack, self.active, time.perf_counter
        after = self.after_hooks.get(name)

        def wrapper(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else None
            if name == "rootcount.count_roots" and active["extremal.build_family"]:
                self.counts["build_count_roots_calls"] += 1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            active[name] += 1
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                duration = end - frame[1]
                stats[0] += 1
                stats[2] += duration - frame[2]
                if not active[name]:
                    stats[1] += duration   # inclusive time, outermost call only
                if stack:
                    stack[-1][2] += duration
                if keep:
                    self.spans.append((span_id, name, frame[1], end, parent))
                if after is not None:
                    after(None if raised else result, duration)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- named counts, taken after the call's end time is recorded --------

    def _after_count_roots(self, report, duration):
        if report is not None and not self.active["rootcount.count_roots"]:
            self.counts["rootcount.count_roots.unresolved"] += len(report.unresolved)

    def _after_rational_roots(self, result, duration):
        if result is not None and not result[1]:
            self.counts["rootcount.rational_roots_with_multiplicity.incomplete"] += 1

    def _after_hensel_lift(self, result, duration):
        if result is None:
            self.counts["padic.hensel_lift.raised"] += 1

    def _after_scale_substitute(self, poly, duration):
        if poly is None:
            return
        bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                    for _, c in poly.terms), default=0)
        key = "sparsepoly.scale_substitute.max_coeff_bits"
        self.counts[key] = max(self.counts[key], bits)

    def _after_build_family(self, result, duration):
        if result is None:
            return
        self.counts[f"extremal.build_family.t{result.t}q{result.q}.s"] += duration
        self.counts["build_members_accepted"] += result.t

    def summary(self) -> dict:
        out = {}
        for name, (calls, inclusive, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = inclusive
            out[f"{name}.self_s"] = self_s
        for key in COUNT_NAMES:
            out[key] = self.counts[key]
        for t, q in MEMBERS:
            key = f"extremal.build_family.t{t}q{q}.s"
            out[key] = self.counts[key]
        calls = self.counts["build_count_roots_calls"]
        out["extremal.verify_yield"] = (
            self.counts["build_members_accepted"] / calls if calls else 0.0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
