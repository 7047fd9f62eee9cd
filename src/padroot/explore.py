"""Deterministic sweep harness probing root counts over polynomial families.

Enumerates sparse polynomial candidates (exhaustively over small coefficient
residues, or by seeded random draws), runs the certified counter on each,
and aggregates maxima of the distinct/with-multiplicity counts.  Work is
sharded statically by candidate index into `workers` shards, run on at most
one process per CPU, so the output is byte-identical for any worker count
and any fixed seed.  Shard results are checkpointed as they finish; an
interrupted sweep resumes from whatever the checkpoint holds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

from .bounds import FieldParams, sparse_upper_bound
from .errors import CapExceeded, InternalError, PreconditionFailed
from .padic import is_prime
from .rootcount import CountOptions, count_roots
from .sparsepoly import SparsePoly, format_poly

MAX_CANDIDATES = 200_000


@dataclass(frozen=True)
class SweepSpec:
    p: int
    t: int
    exponent_bound: int
    coeff_mode: str = "random"       # "random" | "exhaustive"
    coeff_bound: int = 8             # random mode: coefficients in [-bound, bound]
    coeff_modulus_exp: int = 1       # exhaustive mode: residues mod p^k
    candidates: int = 200            # random mode: number of draws
    seed: int = 0
    prec: int = 24
    depth: int = 6
    workers: int = 1

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(asdict(self), sort_keys=True).encode()
        ).hexdigest()[:16]


@dataclass
class SweepRow:
    index: int
    poly: str
    distinct: int
    with_mult: int
    unresolved: int


def _unrank_exponents(n: int, t: int, rank: int) -> tuple[int, ...]:
    """The rank-th (from 0) t-subset of 1..n in lexicographic order, by the
    combinatorial number system: C(n, t) - 1 - rank = sum_i C(n - e_i, t + 1 - i)."""
    left = math.comb(n, t) - 1 - rank
    top = n
    out = []
    for k in range(t, 0, -1):
        top = bisect_right(range(top), left, key=lambda d: math.comb(d, k)) - 1
        left -= math.comb(top, k)
        out.append(n - top)
    return tuple(out)


def _canonical_exhaustive(coeffs, exps, p, modulus):
    """Is this coefficient tuple the canonical orbit representative?

    The transformations c*f(u x) for units c, u preserve the root count in
    units; the representative is the lexicographically smallest transformed
    tuple of residues.
    """
    exps_full = (0,) + exps
    best = tuple(coeffs)
    for c in range(1, modulus):
        if c % p == 0:
            continue
        for u in range(1, modulus):
            if u % p == 0:
                continue
            transformed = tuple(
                c * a * pow(u, e, modulus) % modulus
                for a, e in zip(coeffs, exps_full)
            )
            if transformed < best:
                return False
    return True


def generate_candidates(spec: SweepSpec) -> list[SparsePoly]:
    """The full deterministic candidate list for a spec."""
    if spec.p < 3 or not is_prime(spec.p) or spec.t < 1:
        raise PreconditionFailed("need an odd prime and t >= 1")
    if spec.exponent_bound < spec.t:
        raise PreconditionFailed(f"{spec.t} distinct exponents need a bound >= {spec.t}, "
                                 f"got {spec.exponent_bound}")
    if spec.coeff_mode == "random":
        if spec.candidates < 1:
            raise PreconditionFailed(f"need at least 1 candidate, got {spec.candidates}")
        choices = [c for c in range(-spec.coeff_bound, spec.coeff_bound + 1) if c]
    elif spec.coeff_mode == "exhaustive":
        modulus = spec.p ** max(spec.coeff_modulus_exp, 0)
        choices = range(1, modulus)
    else:
        raise PreconditionFailed(f"unknown coefficient mode {spec.coeff_mode!r}")
    if not choices:
        raise PreconditionFailed("empty coefficient set: the bound or modulus exponent is below 1")
    out = []
    if spec.coeff_mode == "random":
        rng = random.Random(spec.seed)
        subsets = math.comb(spec.exponent_bound, spec.t)
        for _ in range(spec.candidates):
            exps = _unrank_exponents(spec.exponent_bound, spec.t, rng.randrange(subsets))
            terms = {0: Fraction(rng.choice(choices))}
            for e in exps:
                terms[e] = Fraction(rng.choice(choices))
            out.append(SparsePoly.from_dict(terms))
    else:
        for exps in combinations(range(1, spec.exponent_bound + 1), spec.t):
            for coeffs in product(choices, repeat=spec.t + 1):
                if not _canonical_exhaustive(coeffs, exps, spec.p, modulus):
                    continue
                terms = {0: Fraction(coeffs[0])}
                for e, c in zip(exps, coeffs[1:]):
                    terms[e] = Fraction(c)
                out.append(SparsePoly.from_dict(terms))
            if len(out) > MAX_CANDIDATES:
                raise CapExceeded("exhaustive sweep space exceeds the cap")
    if len(out) > MAX_CANDIDATES:
        raise CapExceeded("sweep space exceeds the cap")
    return out


def _run_shard(args) -> list[dict]:
    spec_dict, shard, workers = args
    spec = SweepSpec(**spec_dict)
    candidates = generate_candidates(spec)
    opts = CountOptions(prec=spec.prec, depth=spec.depth)
    bound = sparse_upper_bound(spec.t, FieldParams(spec.p))
    rows = []
    for index in range(shard, len(candidates), workers):
        poly = candidates[index]
        report = count_roots(poly, spec.p, opts)
        if bound is not None and report.count_with_multiplicity > bound:
            raise InternalError(
                "certified count exceeds the proved upper bound -- "
                f"falsification event or counter bug: {format_poly(poly)} "
                f"count={report.count_with_multiplicity} bound={bound} "
                f"entries={[e.describe() for e in report.entries]}"
            )
        rows.append(asdict(SweepRow(
            index=index,
            poly=format_poly(poly),
            distinct=report.count_distinct,
            with_mult=report.count_with_multiplicity,
            unresolved=len(report.unresolved),
        )))
    return rows


def run_sweep(spec: SweepSpec, out_path: str | None = None,
              checkpoint_path: str | None = None):
    """Execute the sweep; returns (rows, summary).

    Rows are ordered by candidate index regardless of worker scheduling.
    When `out_path` is given, a CSV of rows plus a JSON summary document
    (same path with .summary.json appended) are written; `checkpoint_path`
    collects per-shard results as they complete and lets a rerun against
    the same spec skip finished shards.
    """
    if spec.workers < 1:
        raise PreconditionFailed(f"need at least 1 shard, got {spec.workers} workers")
    spec_dict, workers = asdict(spec), spec.workers
    done: dict[int, list[dict]] = {}

    if checkpoint_path and Path(checkpoint_path).exists():
        with open(checkpoint_path) as fh:
            for line in fh:
                record = json.loads(line)
                if record.get("spec") == spec.digest():
                    done[record["shard"]] = record["rows"]

    pending = [s for s in range(workers) if s not in done]
    if pending:
        args = [(spec_dict, shard, workers) for shard in pending]
        # workers counts the shards; the pool forks all its processes at once
        processes = min(len(pending), os.cpu_count() or 1)
        if processes == 1:
            results = list(map(_run_shard, args))
        else:
            with ProcessPoolExecutor(max_workers=processes) as pool:
                results = list(pool.map(_run_shard, args))
        for shard, rows in zip(pending, results):
            done[shard] = rows
            if checkpoint_path:
                with open(checkpoint_path, "a") as fh:
                    fh.write(json.dumps(
                        {"spec": spec.digest(), "shard": shard, "rows": rows},
                        sort_keys=True) + "\n")

    rows = sorted((row for shard in done.values() for row in shard),
                  key=lambda r: r["index"])
    best = max((r["with_mult"] for r in rows), default=0)
    summary = {
        "spec": spec_dict,
        "spec_digest": spec.digest(),
        "candidates": len(rows),
        "max_distinct": max((r["distinct"] for r in rows), default=0),
        "max_with_mult": best,
        "with_unresolved": sum(1 for r in rows if r["unresolved"]),
        "argmax_with_mult": [r["poly"] for r in rows if r["with_mult"] == best][:8],
        "upper_bound": sparse_upper_bound(spec.t, FieldParams(spec.p)),
    }

    if out_path:
        lines = ["index,poly,distinct,with_mult,unresolved"]
        for r in rows:
            lines.append(
                f"{r['index']},\"{r['poly']}\",{r['distinct']},{r['with_mult']},{r['unresolved']}"
            )
        Path(out_path).write_text("\n".join(lines) + "\n")
        Path(str(out_path) + ".summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
    return rows, summary
