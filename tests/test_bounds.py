import bisect
import math
from fractions import Fraction
from itertools import combinations

import pytest

from padroot.errors import PreconditionFailed
from padroot.bounds import (
    FieldParams,
    LENSTRA_CONSTANT,
    descartes_bound,
    distinct_product_lcm,
    lenstra_bound,
    lenstra_threshold,
    sparse_lower_bound,
    sparse_upper_bound,
    vp_distinct_product_lcm,
)

PRIMES = [3, 5, 7, 11, 13, 17, 19, 23]


def test_descartes():
    assert descartes_bound(2) == 4
    assert descartes_bound(0) == 0
    assert descartes_bound(5) == 10


def test_lenstra_constant_pinned():
    assert abs(LENSTRA_CONSTANT - 1.58197671) < 5e-9


def test_lenstra_bound_regression():
    # frozen at first computation, 12 significant digits
    value = lenstra_bound(2, FieldParams(5))
    assert f"{value:.12g}" == "28.7285093273"
    value13 = lenstra_bound(1, FieldParams(3))
    assert f"{value13:.12g}" == "2.89309994859"


def test_lenstra_bound_formula_direct():
    t, p = 2, 5
    expect = (
        LENSTRA_CONSTANT * t * t * (p - 1)
        * (1 + math.log(t / math.log(p)) / math.log(p))
    )
    assert lenstra_bound(t, FieldParams(p)) == pytest.approx(expect, rel=1e-15)


def test_sparse_upper_bound():
    assert sparse_upper_bound(2, FieldParams(5)) == 12
    assert sparse_upper_bound(2, FieldParams(3)) is None  # p = e + t
    assert sparse_upper_bound(3, FieldParams(5)) == 28
    assert sparse_upper_bound(1, FieldParams(5)) == 4


def test_sparse_lower_bound():
    assert sparse_lower_bound(2, 5).improved == 12
    assert sparse_lower_bound(3, 5).improved == 20
    assert sparse_lower_bound(1, 7).improved == 6
    assert sparse_lower_bound(3, 5).regular == 12


def test_bounds_consistency():
    # lower <= upper whenever the upper bound applies (f = 1)
    for p in PRIMES:
        for t in range(1, 6):
            upper = sparse_upper_bound(t, FieldParams(p))
            if upper is not None:
                assert sparse_lower_bound(t, p).improved <= upper


def test_field_params():
    assert FieldParams(5, 1, 2).q == 25
    with pytest.raises(PreconditionFailed):
        FieldParams(5, 0, 1)


# -- d_t -----------------------------------------------------------------


def subset_product_lcm_oracle(t, m):
    out = 1
    for size in range(0, t + 1):
        for subset in combinations(range(1, m + 1), size):
            prod = 1
            for x in subset:
                prod *= x
            out = math.lcm(out, prod)
    return out


def test_d_t_factorials():
    for t in range(0, 7):
        assert distinct_product_lcm(t, t) == math.factorial(t)


def test_d_t_examples():
    assert distinct_product_lcm(2, 3) == 6
    assert distinct_product_lcm(2, 4) == 24


def test_d_t_against_enumeration_oracle():
    for t in range(0, 4):
        for m in range(0, 9):
            assert distinct_product_lcm(t, m) == subset_product_lcm_oracle(t, m)


def test_d_t_divisibility_grid():
    for t in range(1, 4):
        for m in range(1, 10):
            assert distinct_product_lcm(t, m + 1) % distinct_product_lcm(t, m) == 0
            assert distinct_product_lcm(t + 1, m) % distinct_product_lcm(t, m) == 0


def test_d_t_beyond_the_old_enumeration_caps():
    assert distinct_product_lcm(7, 10) == subset_product_lcm_oracle(7, 10)
    assert distinct_product_lcm(2, 100) == subset_product_lcm_oracle(2, 100)


def test_vp_shortcut_matches_enumeration():
    for p in (2, 3, 5):
        for t in range(0, 4):
            for m in range(0, 13):
                full = subset_product_lcm_oracle(t, m)
                v = 0
                while full % p == 0:
                    full //= p
                    v += 1
                assert vp_distinct_product_lcm(t, m, p) == v


def test_vp_monotone():
    for p in (3, 5):
        for t in range(1, 4):
            for m in range(1, 20):
                assert vp_distinct_product_lcm(t, m, p) >= vp_distinct_product_lcm(t, m - 1, p)


# -- the threshold ---------------------------------------------------------


def test_threshold_equals_t_when_p_large():
    for p in PRIMES:
        for t in range(1, 6):
            for e in range(1, 4):
                if p > t + e:
                    assert lenstra_threshold(p, t, Fraction(1, e)) == t


def test_threshold_examples():
    assert lenstra_threshold(5, 2, 1) == 2
    assert lenstra_threshold(7, 3, 1) == 3
    # at p = 3 the margin m - v_3(d_t(m)) climbs from m = t, then falls
    # back to the right-hand side at m = 45 and 54; a scan to m = 1500 agrees
    assert lenstra_threshold(3, 43, 1) == 45
    assert lenstra_threshold(3, 50, 1) == 54


def _v(n, p):
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


def test_threshold_matches_plain_scan():
    # the largest qualifying m found by scanning every m <= 300; the block
    # bound puts each of these thresholds far below 300
    for p in (3, 5, 7):
        for t in range(0, 7):
            for r in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 2), Fraction(2)):
                rhs = max(i * r - _v(math.factorial(i), p) for i in range(t + 1))
                scan = max(m for m in range(301)
                           if m * r - vp_distinct_product_lcm(t, m, p) <= rhs)
                assert lenstra_threshold(p, t, r) == scan < 200, (p, t, r)


def test_threshold_matches_sorted_valuation_scan():
    # v_p(d_t(m)) as the definition reads: sort v_p(1), ..., v_p(m) and add
    # the t largest; a plain scan of every m <= 300 with it finds each
    # threshold, and all of them lie far below 300
    for p in (3, 5, 7, 11):
        vals, top_sums = [], []
        for m in range(301):
            if m:
                bisect.insort(vals, -_v(m, p))
            top_sums.append([-sum(vals[:t]) for t in range(13)])
        for t in range(13):
            assert all(vp_distinct_product_lcm(t, m, p) == top_sums[m][t] for m in range(301))
            for e in range(1, 4):
                r = Fraction(1, e)
                rhs = max(i * r - _v(math.factorial(i), p) for i in range(t + 1))
                scan = max(m for m in range(301) if m * r - top_sums[m][t] <= rhs)
                assert lenstra_threshold(p, t, r) == scan < 150, (p, t, e)


def test_threshold_small_prime_recorded():
    # p = 3 <= t + e: the hypothesis of the equality fails; the definitional
    # scan still returns a definite value (recorded, not asserted equal to t)
    assert lenstra_threshold(3, 2, 1) == 3
