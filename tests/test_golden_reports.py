"""Byte identity of the structured `count-roots` documents.

`tests/data/golden_reports.json` holds the exit code and the exact
`--format structured count-roots` output for a fixed set of inputs:
seeded criterion-6 polynomials at p = 3, 5, 7 and 11, the fixed
lacunary-bigp polynomials of the benchmark, and rational-reconstruction
edge cases.  A change that alters any document must regenerate the file
and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from padroot.cli import dispatch
from padroot.sparsepoly import format_poly

from oracle import random_sparse_poly

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_reports.json"
PER_PRIME = 100

LACUNARY = [
    (10007, "x^1000 - 5*x^3 + 7"),
    (100003, "x^1000 - 5*x^3 + 7"),
    (1009, "x^2016 - 1"),
    (7, "x^705900 - 117650*x^6 + 117649"),  # sharp_trinomial(7)
    (10007, f"5*x^200000 + 3*x^100 - {10007**100}"),
]

EDGE = [
    # the label 7^50/5^60 needs about 178 digits, beyond prec 40
    (3, f"{5**60}*x^2 - {2 * 5**60 + 7**50}*x + {2 * 7**50}"),
    # (9x-2)^2 (x-3): a double root 2/9 of valuation -2 at p = 3; at p = 5
    # the simple root 3 shares a residue class with the double root 2/9
    (3, "81*x^3 - 279*x^2 + 112*x - 12"),
    (5, "81*x^3 - 279*x^2 + 112*x - 12"),
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
    return cases


def structured_document(p: int, text: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(["--format", "structured", "count-roots",
                         "--p", str(p), "--poly", text])
    return {"exit": code, "document": out.getvalue()}


def test_structured_reports_byte_identical():
    golden = json.loads(GOLDEN.read_text())
    cases = golden_inputs()
    assert [case_id for case_id, _, _ in cases] == list(golden)
    for case_id, p, text in cases:
        assert structured_document(p, text) == golden[case_id], case_id


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_reports.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    golden = {case_id: structured_document(p, text)
              for case_id, p, text in golden_inputs()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
