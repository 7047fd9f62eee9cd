"""Byte identity of the `count-roots` reports.

`tests/data/golden_reports.json` holds, for a fixed set of inputs, the exit
code, the exact `--format structured` and `--format human` `count-roots`
outputs, and every field of every `RootEntry` and `UnresolvedCluster` the
counter returned (the structured document keeps only 12 unit digits per
root; the fields keep all of them, the precision, the `repr` the human
report prints and the Hensel witness).  The inputs are seeded criterion-6
polynomials at p = 3, 5, 7 and 11, the fixed lacunary-bigp polynomials of
the benchmark, rational-reconstruction edge cases, inputs whose exponents are
all divisible by p (ids "descent ...") and exact and simple roots away from
valuation 0.
A change that alters any of it must regenerate the file and say why in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

from padroot import cli
from padroot.rootcount import count_roots
from padroot.sparsepoly import SparsePoly, format_poly

from oracle import random_sparse_poly

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_reports.json"
PER_PRIME = 100

LACUNARY = [
    (10007, "x^1000 - 5*x^3 + 7"),
    (100003, "x^1000 - 5*x^3 + 7"),
    (1009, "x^2016 - 1"),
    (7, "x^705900 - 117650*x^6 + 117649"),  # sharp_trinomial(7)
    (10007, f"5*x^200000 + 3*x^100 - {10007**100}"),
    (101, "x^200 - 2*x^100 + 1"),  # 100 double torsion roots
]

EDGE = [
    # the label 7^50/5^60 needs about 178 digits, beyond prec 40
    (3, f"{5**60}*x^2 - {2 * 5**60 + 7**50}*x + {2 * 7**50}"),
    # (9x-2)^2 (x-3): a double root 2/9 of valuation -2 at p = 3; at p = 5
    # the simple root 3 shares a residue class with the double root 2/9
    (3, "81*x^3 - 279*x^2 + 112*x - 12"),
    (5, "81*x^3 - 279*x^2 + 112*x - 12"),
]

DESCENT = [
    # every exponent divisible by p: residue roots are zeros of order p*k,
    # counted by the same residue refinement as any other input
    (3, "x^27 - 8"),
    (5, "x^50 - 3*x^25 + 2"),
    (5, "x^10 - 8*x^5 + 7"),  # 7 is an irrational 5th power in Q_5
    (3, "x^9 - 10"),  # 10 has a cube root in Q_3, which has none
    (3, "x^12 - 2*x^6 + 1"),  # (x^6 - 1)^2: double torsion roots
    (3, "x^6 - 20*x^3 + 100"),  # (x^3 - 10)^2: an irrational double root
]

SHIFTED = [
    # exact points and Hensel roots away from valuation 0: each is counted
    # on the polynomial rescaled to its valuation
    (5, "x^8 - 1250*x^4 + 390625"),  # (x^4 - 625)^2: double torsion at valuation 1
    (5, "x^3 - 152*x^2 + 5925*x - 11250"),  # (x - 75)^2 (x - 2): double rational 75
    (5, "625*x^4 - 1"),  # four simple roots of valuation -1
    # the (2, 7) tower member: simple roots at valuations 0 and 1
    (7, "x^705900 + 1/117648*x^6 + 157774040966226142650024287/117648"),
]


def golden_inputs() -> list[tuple[str, int, str]]:
    cases = []
    for p in (3, 5, 7, 11):
        rng = random.Random(6100 + p)
        for i in range(PER_PRIME):
            f = random_sparse_poly(rng, max_terms=4, max_exp=50, coeff_bound=20)
            cases.append((f"corpus p={p} #{i}", p, format_poly(f)))
    cases += [(f"lacunary p={p} {text[:40]}", p, text) for p, text in LACUNARY]
    cases += [(f"edge p={p} {text[:40]}", p, text) for p, text in EDGE]
    cases += [(f"descent p={p} {text}", p, text) for p, text in DESCENT]
    cases += [(f"shifted p={p} {text[:40]}", p, text) for p, text in SHIFTED]
    return cases


def _padic(value) -> list:
    return [value.val, value.unit, value.prec]


def _entry_fields(e) -> dict:
    return {
        "value": _padic(e.value),
        "repr": repr(e.value),
        "valuation": e.valuation,
        "multiplicity": e.multiplicity,
        "certificate": e.certificate,
        "rational": None if e.rational is None else str(e.rational),
        "torsion": None if e.torsion is None else list(e.torsion),
        "val_fprime": e.val_fprime,
        "hensel": None if e.hensel is None else [
            _padic(e.hensel.r0), e.hensel.val_f_r0, e.hensel.val_fprime_r0],
    }


def _run(p: int, text: str, output: str):
    """Exit code, stdout and the counter's report of one CLI run."""
    reports = []
    count_roots = cli.count_roots

    def recording_count_roots(*args, **kwargs):
        reports.append(count_roots(*args, **kwargs))
        return reports[-1]

    out = io.StringIO()
    with mock.patch.object(cli, "count_roots", recording_count_roots), \
            contextlib.redirect_stdout(out):
        code = cli.dispatch(["--format", output, "count-roots",
                             "--p", str(p), "--poly", text])
    return code, out.getvalue(), reports[0] if reports else None


def golden_record(p: int, text: str) -> dict:
    code, document, report = _run(p, text, "structured")
    human_code, human, _ = _run(p, text, "human")
    return {
        "exit": code,
        "document": document,
        "human_exit": human_code,
        "human": human,
        "entries": None if report is None else [_entry_fields(e) for e in report.entries],
        "clusters": None if report is None else [vars(c) for c in report.unresolved],
    }


def test_structured_reports_byte_identical():
    golden = json.loads(GOLDEN.read_text())
    cases = golden_inputs()
    assert [case_id for case_id, _, _ in cases] == list(golden)
    for case_id, p, text in cases:
        assert golden_record(p, text) == golden[case_id], case_id


def _fields(report) -> tuple:
    return [_entry_fields(e) for e in report.entries], [vars(c) for c in report.unresolved]


def _times_linear(f, a: int, b: int):
    """f * (b x - a)."""
    out: dict[int, Fraction] = {}
    for e, c in f.terms:
        out[e + 1] = out.get(e + 1, 0) + b * c
        out[e] = out.get(e, 0) - a * c
    return SparsePoly.from_dict(out)


def test_reports_invariant_under_rational_and_monomial_factors():
    # c * x^k * f has the roots of f in Q_p^*, at the same multiplicities:
    # every field of the report is the same, whatever p-powers c carries;
    # half the inputs carry a planted double root a/b
    rng = random.Random(1601)
    seen = {"p | den c": 0, "rational": 0, "multiple": 0}
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11])
        f = random_sparse_poly(rng, max_terms=4, max_exp=40, coeff_bound=20)
        if rng.randint(0, 1):
            a, b = rng.randint(-9, 9) or 1, rng.randint(1, 9)
            f = _times_linear(_times_linear(f, a, b), a, b)
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12) * p ** rng.randint(0, 3),
                     rng.randint(1, 12) * p ** rng.randint(0, 3))
        k = rng.randint(0, 6)
        report = count_roots(f, p)
        scaled = SparsePoly((e + k, c * coeff) for e, coeff in f.terms)
        assert _fields(count_roots(scaled, p)) == _fields(report), (f.terms, p, c, k)
        seen["p | den c"] += c.denominator % p == 0
        seen["rational"] += any(e.rational is not None for e in report.entries)
        seen["multiple"] += any(e.multiplicity > 1 for e in report.entries)
    assert min(seen.values()) > 50, seen


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_reports.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = {case_id: golden_record(p, text)
              for case_id, p, text in golden_inputs()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
