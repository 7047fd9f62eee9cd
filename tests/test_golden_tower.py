"""Byte identity of the tower builds.

`tests/data/golden_tower.json` holds, for `build_family` at (t, q) =
(2, 3), (2, 5), (2, 7) and (3, 3), the member's text, its construction log,
its strict-distribution flag and every field of every `RootEntry` and
`UnresolvedCluster` of its verifying count.  The (2, 5) member's degree,
5652504, is above the command line's exponent cap, so these builds are
pinned here rather than in `golden_reports.json`.  A change that alters
any of it must regenerate the file and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_tower.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from padroot.extremal import build_family
from padroot.sparsepoly import format_poly

from test_golden_reports import _entry_fields

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_tower.json"
MEMBERS = [(2, 3), (2, 5), (2, 7), (3, 3)]


def tower_record(t: int, q: int) -> dict:
    built = build_family(t, q)
    record = {
        "poly": format_poly(built.poly),
        "target_count": built.target_count,
        "strict_distribution": built.strict_distribution,
        "construction_log": built.construction_log,
        "entries": [_entry_fields(e) for e in built.report.entries],
        "clusters": [vars(c) for c in built.report.unresolved],
    }
    return json.loads(json.dumps(record))  # the form the file stores


@pytest.mark.parametrize("t, q", MEMBERS)
def test_tower_build_byte_identical(t, q):
    golden = json.loads(GOLDEN.read_text())
    assert tower_record(t, q) == golden[f"t={t} q={q}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_tower.py --write")
    golden = {f"t={t} q={q}": tower_record(t, q) for t, q in MEMBERS}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
