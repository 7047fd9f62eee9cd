import concurrent.futures
import os
import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from padroot.errors import PreconditionFailed
from padroot.explore import SweepSpec, generate_candidates, run_sweep
from padroot.sparsepoly import SparsePoly, format_poly


def test_binomial_sweep_reaches_p_minus_1(tmp_path):
    # exhaustive binomials over Q_5 with exponents <= 12: the best distinct
    # count is p - 1 = 4, reached at exponent 4
    spec = SweepSpec(p=5, t=1, exponent_bound=12, coeff_mode="exhaustive",
                     coeff_modulus_exp=1, prec=20, depth=5)
    rows, summary = run_sweep(spec)
    assert summary["max_distinct"] == 4
    assert summary["max_with_mult"] <= summary["upper_bound"]


def test_random_sweep_respects_bound():
    spec = SweepSpec(p=5, t=2, exponent_bound=15, coeff_mode="random",
                     candidates=60, seed=11, prec=24, depth=6)
    rows, summary = run_sweep(spec)
    assert len(rows) == 60
    assert summary["max_with_mult"] <= 12  # (t^2-t+1)(p-1)


def test_determinism_same_seed(tmp_path):
    spec = SweepSpec(p=3, t=2, exponent_bound=12, candidates=40, seed=7,
                     prec=20, depth=5)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(spec, out_path=str(out1))
    run_sweep(spec, out_path=str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.csv.summary.json").read_bytes() == \
        (tmp_path / "b.csv.summary.json").read_bytes()


def test_determinism_worker_count(tmp_path):
    base = dict(p=3, t=2, exponent_bound=12, candidates=30, seed=3,
                prec=20, depth=5)
    out1, out4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    run_sweep(SweepSpec(workers=1, **base), out_path=str(out1))
    run_sweep(SweepSpec(workers=4, **base), out_path=str(out4))
    assert out1.read_bytes() == out4.read_bytes()


class _InProcessPool:
    """A stand-in for ProcessPoolExecutor that records its size and forks nothing."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_pool_size_is_capped_by_the_cpu_count(tmp_path, monkeypatch):
    # 64 shards on 3 CPUs: the pool holds 3 processes, the output is unchanged
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    base = dict(p=3, t=2, exponent_bound=12, candidates=30, seed=3, prec=20, depth=5)
    out1, out64 = tmp_path / "w1.csv", tmp_path / "w64.csv"
    run_sweep(SweepSpec(workers=1, **base), out_path=str(out1))
    run_sweep(SweepSpec(workers=64, **base), out_path=str(out64))
    assert _InProcessPool.sizes == [3]
    assert out1.read_bytes() == out64.read_bytes()


def test_checkpoint_resume(tmp_path):
    spec = SweepSpec(p=3, t=1, exponent_bound=8, candidates=20, seed=5,
                     prec=20, depth=5, workers=2)
    ck = tmp_path / "ck.jsonl"
    rows1, _ = run_sweep(spec, checkpoint_path=str(ck))
    assert ck.exists() and len(ck.read_text().splitlines()) == 2
    # a rerun consumes the checkpoint rather than recomputing
    rows2, _ = run_sweep(spec, checkpoint_path=str(ck))
    assert rows1 == rows2
    assert len(ck.read_text().splitlines()) == 2


def test_canonicalization_shrinks_exhaustive_space():
    spec_full_units = (5 - 1) ** 2  # transformations (c, u)
    spec = SweepSpec(p=5, t=1, exponent_bound=4, coeff_mode="exhaustive")
    cands = generate_candidates(spec)
    # without the quotient there would be 4 * 16 = 64 binomial candidates
    assert 0 < len(cands) < 4 * 16


def test_rejects_bad_spec():
    with pytest.raises(PreconditionFailed):
        generate_candidates(SweepSpec(p=4, t=1, exponent_bound=5))
    with pytest.raises(PreconditionFailed):
        generate_candidates(SweepSpec(p=5, t=1, exponent_bound=5,
                                      coeff_mode="bogus"))


def _list_based_draw(spec):
    """Random-mode candidates drawn from a materialised list of t-subsets."""
    rng = random.Random(spec.seed)
    subsets = list(combinations(range(1, spec.exponent_bound + 1), spec.t))
    coeffs = [c for c in range(-spec.coeff_bound, spec.coeff_bound + 1) if c]
    out = []
    for _ in range(spec.candidates):
        exps = rng.choice(subsets)
        terms = {0: Fraction(rng.choice(coeffs))}
        for e in exps:
            terms[e] = Fraction(rng.choice(coeffs))
        out.append(format_poly(SparsePoly.from_dict(terms)))
    return out


@pytest.mark.parametrize("seed", [0, 17, 702])
def test_random_candidates_match_list_based_draw(seed):
    spec = SweepSpec(p=5, t=3, exponent_bound=14, candidates=50, seed=seed)
    got = [format_poly(f) for f in generate_candidates(spec)]
    assert got == _list_based_draw(spec)


def test_random_candidates_at_huge_exponent_bound():
    spec = SweepSpec(p=5, t=3, exponent_bound=10**6, candidates=5, seed=1)
    start = time.perf_counter()
    cands = generate_candidates(spec)
    assert time.perf_counter() - start < 1.0
    assert len(cands) == 5
    for f in cands:
        assert len(f.terms) == 4 and max(e for e, _ in f.terms) <= 10**6
