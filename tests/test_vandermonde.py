from fractions import Fraction
from itertools import combinations

import pytest

from padroot.errors import CapExceeded, InternalError, PreconditionFailed
from padroot.multipoly import MultiPoly
from padroot.vandermonde import (
    binomial_det,
    binomial_det_quotient,
    check_confluent_merge,
    check_shift_expansion,
    compositions,
    confluent_vandermonde_det,
    identity_grid_report,
    specialization_quotient,
    vandermonde_quotient,
)


def x(nvars, i):
    return MultiPoly.monomial(nvars, i)


def c(nvars, v):
    return MultiPoly.const(nvars, v)


def product_of_differences(nvars):
    out = c(nvars, 1)
    for i in range(nvars):
        for j in range(i + 1, nvars):
            out = out * (x(nvars, j) - x(nvars, i))
    return out


def test_standard_powers_product_formula():
    # powers (1, 2): the determinant is the plain Vandermonde product
    assert confluent_vandermonde_det((1, 2), (1, 1, 1)) == product_of_differences(3)
    assert confluent_vandermonde_det((1, 2, 3), (1, 1, 1, 1)) == product_of_differences(4)


def test_single_power():
    assert confluent_vandermonde_det((1,), (1, 1)) == x(2, 1) - x(2, 0)


def test_even_powers_factor():
    # rows in x_i^2, x_i^4: Vandermonde in the squares, so the extra factor
    # is the product of pairwise sums
    extra = (
        (x(3, 0) + x(3, 1))
        * (x(3, 0) + x(3, 2))
        * (x(3, 1) + x(3, 2))
    )
    assert confluent_vandermonde_det((2, 4), (1, 1, 1)) == product_of_differences(3) * extra


def test_confluent_standard_case_is_power_product():
    v = confluent_vandermonde_det((1, 2), (2, 1))
    assert v == (x(2, 1) - x(2, 0)) ** 2


def test_confluent_single_block_unit():
    assert confluent_vandermonde_det((1, 2), (3,)) == c(1, 1)


def test_confluent_one_three():
    # direct 3x3 determinant, reduced by hand:
    # (x1 - x0)^2 (2 x0 + x1)
    expect = (x(2, 1) - x(2, 0)) ** 2 * (x(2, 0).scale(2) + x(2, 1))
    assert confluent_vandermonde_det((1, 3), (2, 1)) == expect


def test_confluent_rejects_bad_block_sum():
    with pytest.raises(PreconditionFailed):
        confluent_vandermonde_det((1, 2), (1, 1))


def test_quotient_standard_is_one():
    for t in (1, 2, 3):
        for blocks in compositions(t + 1):
            q = vandermonde_quotient(tuple(range(1, t + 1)), blocks)
            assert q == c(len(blocks), 1)


def test_quotient_simple_points():
    # powers (1, 3): complete homogeneous polynomial of degree 1
    q = vandermonde_quotient((1, 3), (1, 1, 1))
    assert q == x(3, 0) + x(3, 1) + x(3, 2)


def test_quotient_specialized_two_points():
    q = vandermonde_quotient((1, 3), (2, 1))
    assert q == x(2, 0).scale(2) + x(2, 1)


@pytest.mark.parametrize("powers", [(1, 2), (1, 3), (2, 4), (1, 2, 5), (2, 3, 7)])
def test_specialization_identity(powers):
    t = len(powers)
    for blocks in compositions(t + 1):
        assert vandermonde_quotient(powers, blocks) == specialization_quotient(
            powers, blocks
        )


def test_merge_identity_examples():
    assert check_confluent_merge((1, 2), (1, 1), 0)
    assert check_confluent_merge((1, 2, 3), (2, 1), 0)
    assert check_confluent_merge((2, 4), (1, 1), 1)


def test_merge_identity_rejects_bad_index():
    with pytest.raises(PreconditionFailed):
        check_confluent_merge((1, 2), (1, 1), 2)


def test_binomial_det_standard_product():
    # cleared determinant at indices (1, 2): x1 x2 (x2 - x1)
    got = binomial_det((1, 2))
    assert got == x(2, 0) * x(2, 1) * (x(2, 1) - x(2, 0))


def test_binomial_det_evaluated():
    # [[C(2,1), C(2,2)], [C(4,1), C(4,2)]] = [[2, 1], [4, 6]]
    assert binomial_det((1, 2), eval_at=(2, 4)) == 8
    assert binomial_det((5, 6), eval_at=(2, 4)) == 0


def test_binomial_det_evaluated_integrality():
    for t in (1, 2, 3):
        for beta in combinations(range(1, 7), t):
            for alpha in combinations(range(0, 7), t):
                value = binomial_det(beta, eval_at=alpha)
                assert value.denominator == 1


def test_binomial_det_symbolic_matches_scaled_evaluation():
    import math

    for beta in [(1,), (2,), (1, 3), (2, 3), (1, 2, 4)]:
        t = len(beta)
        scale = 1
        for b in beta:
            scale *= math.factorial(b)
        sym = binomial_det(beta)
        for point in [(1, 5, 9), (0, 2, 4), (3, 4, 6)]:
            pt = point[:t]
            assert sym.evaluate(list(pt)) == scale * binomial_det(beta, eval_at=pt)


def test_binomial_quotient_standard_is_one():
    for t in (1, 2, 3, 4):
        assert binomial_det_quotient(tuple(range(1, t + 1))) == c(t, 1)


def test_binomial_quotient_degrees():
    # deg Q = |indices| - t(t+1)/2
    q13 = binomial_det_quotient((1, 3))
    assert q13.total_degree() == 1
    q23 = binomial_det_quotient((2, 3))
    assert q23.total_degree() == 2
    assert q23


def test_shift_expansion_examples():
    assert check_shift_expansion((1, 2), (1, 1, 1))
    assert check_shift_expansion((1, 2), (2, 1))
    assert check_shift_expansion((2, 4), (1, 1, 1))
    assert check_shift_expansion((1, 4), (2, 1))


def test_shift_expansion_cap():
    with pytest.raises(CapExceeded):
        check_shift_expansion((1, 30), (1, 1, 1), cap=10)


def test_degree_formulas_small_grid():
    for t in (1, 2):
        for powers in combinations(range(1, 6), t):
            size = sum(powers)
            for blocks in compositions(t + 1):
                v = confluent_vandermonde_det(powers, blocks)
                p = vandermonde_quotient(powers, blocks)
                assert v.is_homogeneous()
                assert v.total_degree() == size - sum(s * (s - 1) // 2 for s in blocks)
                assert p.is_homogeneous()
                assert p.total_degree() == size - t * (t + 1) // 2


def test_quotient_nonnegative_small_grid():
    for t in (1, 2):
        for powers in combinations(range(1, 6), t):
            for blocks in compositions(t + 1):
                assert vandermonde_quotient(powers, blocks).coefficients_nonnegative()


def test_identity_grid_report_smoke():
    rows, summary = identity_grid_report(2, 4)
    assert summary["failures"] == 0
    assert summary["rows"] == len(rows)
    assert summary["all_quotients_nonzero"]


def test_binomial_det_evaluated_rational_points():
    value = binomial_det((1, 2), eval_at=(Fraction(1, 2), Fraction(3, 2)))
    # C(x,1)=x, C(x,2)=x(x-1)/2 -> det [[1/2, -1/8], [3/2, 3/8]]
    assert value == Fraction(1, 2) * Fraction(3, 8) - Fraction(-1, 8) * Fraction(3, 2)


def test_shift_expansion_rejects_non_integral_weight(monkeypatch):
    import padroot.vandermonde as vandermonde

    monkeypatch.setattr(vandermonde, "binomial_det", lambda beta, eval_at=None: Fraction(1, 2))
    with pytest.raises(InternalError):
        check_shift_expansion((1, 2), (1, 1, 1))


def test_quotients_multiply_back_at_benchmark_sizes():
    # the identity-grid benchmark's sizes, beyond the golden file's: each
    # quotient of the (3, 7) grid and each t = 4 binomial quotient with
    # beta in {1..8}, times the standard determinant, gives the numerator
    for t in (1, 2, 3):
        for blocks in compositions(t + 1):
            m = len(blocks)
            standard = c(m, 1)
            for j in range(m):
                for i in range(j):
                    standard = standard * (x(m, j) - x(m, i)) ** (blocks[i] * blocks[j])
            for powers in combinations(range(1, 8), t):
                assert (vandermonde_quotient(powers, blocks) * standard
                        == confluent_vandermonde_det(powers, blocks))
    standard = x(4, 0) * x(4, 1) * x(4, 2) * x(4, 3) * product_of_differences(4)
    for beta in combinations(range(1, 9), 4):
        assert binomial_det_quotient(beta) * standard == binomial_det(beta)
