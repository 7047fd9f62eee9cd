"""Workload inputs and their expected answers, made from the seed.

Each workload is a list of operations; the worker process runs them in
order and checks each against the answer attached here.  No answer comes
from padroot's counter: lacunary answers come from `expected.json` or from
the residue scan in `checks.py`, corpus answers from the dense oracle in
the repository's `tests/oracle.py`.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from checks import NotDecidable, residue_scan

HERE = Path(__file__).resolve().parent

# seeded lacunary slots: (terms, base of the prime range).  Each prime is
# drawn from [base, base + 1000), so the residue-scan work of a pass hardly
# depends on the seed, and the slots keep clear of the fixed inputs' costs
# so that the per-operation percentiles do not jump between operations.
LACUNARY_SLOTS = [(3, 12_000), (3, 25_000), (4, 85_000), (4, 95_000)]
LACUNARY_MAX_EXP = 10**6
CORPUS_PRIMES = (3, 5, 7, 11)
CORPUS_PER_PRIME = 500
TOWER_MEMBERS = [(2, 5), (2, 7), (3, 3)]
GRID = (3, 7)
# identity_grid_report(3, 7): sum over t of C(7, t) * (2^t quotient rows +
# one merge row per part of each composition of t) = 21 + 147 + 560
GRID_ROWS = 728
BINOMIAL_T_MAX = 4     # the criterion-2 grid: t <= 4, beta_t <= 8
BINOMIAL_BETA_MAX = 8


def terms_obj(terms) -> list[list]:
    return [[e, f"{Fraction(c).numerator}/{Fraction(c).denominator}"] for e, c in terms]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def _count_op(label, p, terms, expect) -> dict:
    return {"kind": "count", "label": label, "p": p, "poly": terms_obj(terms),
            "expect": expect}


def _scan_expect(terms, p) -> dict:
    distinct, with_mult, certified, classes = residue_scan(terms, p)
    return {"distinct": distinct, "with_mult": with_mult, "certified": certified,
            "classes": [list(c) for c in classes], "digits": 1}


def lacunary_bigp(seed: int) -> list[dict]:
    fixed = json.loads((HERE / "expected.json").read_text())["lacunary-bigp"]
    ops = [_count_op(item["label"], item["p"],
                     [(e, Fraction(c)) for e, c in item["poly"]], item["expect"])
           for item in fixed]
    rng = random.Random(f"lacunary-{seed}")
    for slot, (nterms, base) in enumerate(LACUNARY_SLOTS):
        p = _next_prime(base + rng.randrange(1000))
        while True:
            exps = sorted(rng.sample(range(LACUNARY_MAX_EXP + 1), nterms))
            terms = [(e, Fraction(rng.choice([-1, 1]) * rng.randint(1, 20)))
                     for e in exps]
            try:
                expect = _scan_expect(terms, p)
            except NotDecidable:
                continue  # a multiple residue root: the scan cannot count it
            break
        ops.append(_count_op(f"random slot {slot}", p, terms, expect))
    return ops


def corpus_smallp(seed: int, root: Path) -> list[dict]:
    sys.path[:0] = [str(root / "src"), str(root / "tests")]  # the oracle imports padroot
    from oracle import oracle_root_classes, random_sparse_poly

    ops = []
    for p in CORPUS_PRIMES:
        rng = random.Random(f"corpus-{seed}-{p}")
        for i in range(CORPUS_PER_PRIME):
            f = random_sparse_poly(rng, max_terms=4, max_exp=50, coeff_bound=20)
            classes, total = oracle_root_classes(f, p, 6)
            expect = {"distinct": len(classes), "with_mult": total,
                      "certified": True, "classes": sorted(map(list, classes)),
                      "digits": 6}
            ops.append(_count_op(f"corpus p={p} #{i}", p, f.terms, expect))
    return ops


def tower_build(seed: int) -> list[dict]:
    return [{"kind": "tower", "label": f"tower t={t} q={q}", "t": t, "q": q}
            for t, q in TOWER_MEMBERS]


def identity_grid(seed: int) -> list[dict]:
    return [{"kind": "grid", "label": f"identity grid {GRID}", "t_max": GRID[0],
             "alpha_max": GRID[1], "rows": GRID_ROWS},
            {"kind": "binomial", "label": "criterion-2 binomial grid",
             "t_max": BINOMIAL_T_MAX, "beta_max": BINOMIAL_BETA_MAX}]


def build(name: str, seed: int, root: Path) -> list[dict]:
    if name == "corpus-smallp":
        return corpus_smallp(seed, root)
    return {"lacunary-bigp": lacunary_bigp, "tower-build": tower_build,
            "identity-grid": identity_grid}[name](seed)


WORKLOADS = ["lacunary-bigp", "corpus-smallp", "tower-build", "identity-grid"]
