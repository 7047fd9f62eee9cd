"""Byte identity of the identity grid and the binomial determinants.

`tests/data/golden_grid.json` holds SHA-256 digests of:

- `repr` of the rows and of the summary of `identity_grid_report(2, 6)`;
- the sorted terms of `binomial_det(beta)` and of
  `binomial_det_quotient(beta)` for every beta in {1..7} with |beta| <= 3;
- the integer weights det[C(alpha_i, beta_j)], as Fractions, for every
  pair of such index vectors of the same length.

A change that alters any of them must regenerate the file and say why in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden_grid.py --write
"""

import hashlib
import json
import math
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from padroot.multipoly import det
from padroot.vandermonde import binomial_det, binomial_det_quotient, identity_grid_report

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_grid.json"
GRID = (2, 6)
BETA_MAX = 7
T_MAX = 3


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def golden_digests() -> dict:
    rows, summary = identity_grid_report(*GRID)
    out = {"grid rows": _sha(rows), "grid summary": _sha(summary)}
    betas = [beta for t in range(1, T_MAX + 1)
             for beta in combinations(range(1, BETA_MAX + 1), t)]
    for beta in betas:
        out[f"binomial_det {beta}"] = _sha(sorted(binomial_det(beta).terms.items()))
        out[f"binomial_det_quotient {beta}"] = _sha(
            sorted(binomial_det_quotient(beta).terms.items()))
    out["binomial_det evaluated"] = _sha(
        [Fraction(det([[math.comb(a, b) for b in beta] for a in alpha]))
         for beta in betas for alpha in betas if len(alpha) == len(beta)])
    return out


def test_grid_and_binomial_determinants_byte_identical():
    assert golden_digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_grid.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_digests(), indent=1) + "\n")
