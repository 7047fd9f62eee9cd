import math
from itertools import combinations

import pytest

from padroot import vandermonde
from padroot.errors import PreconditionFailed
from padroot.multipoly import MultiPoly, det
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
    expect = (x(2, 1) - x(2, 0)) ** 2 * (x(2, 0) * c(2, 2) + x(2, 1))
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
    assert q == x(2, 0) * c(2, 2) + x(2, 1)


@pytest.mark.parametrize("powers", [(1, 2), (1, 3), (2, 4), (1, 2, 5), (2, 3, 7)])
def test_specialization_identity(powers):
    t = len(powers)
    for blocks in compositions(t + 1):
        assert vandermonde_quotient(powers, blocks) == specialization_quotient(
            powers, blocks
        )


def test_specialization_rejects_bad_blocks():
    # blocks must sum to t + 1: (2, 2) sums to 4 and (1, 1) to 2
    for blocks in ((2, 2), (1, 1)):
        with pytest.raises(PreconditionFailed):
            specialization_quotient((1, 2), blocks)


def test_merge_identity_examples():
    assert check_confluent_merge((1, 2), (1, 1), 0)
    assert check_confluent_merge((1, 2, 3), (2, 1), 0)
    assert check_confluent_merge((2, 4), (1, 1), 1)


def test_merge_identity_rejects_bad_index():
    with pytest.raises(PreconditionFailed):
        check_confluent_merge((1, 2), (1, 1), 2)


def test_merge_identity_fails_on_a_wrong_grown_determinant(monkeypatch):
    # one extra term in the grown determinant (3, 1) of blocks (2, 1) at k = 0
    real = vandermonde.confluent_vandermonde_det

    def grown_plus_one(powers, blocks):
        out = real(powers, blocks)
        return out + x(2, 0) ** 7 if blocks == (3, 1) else out

    assert check_confluent_merge((1, 2, 3), (2, 1), 0)
    monkeypatch.setattr(vandermonde, "confluent_vandermonde_det", grown_plus_one)
    assert not check_confluent_merge((1, 2, 3), (2, 1), 0)
    assert check_confluent_merge((1, 2, 3), (1, 2), 0)


def test_binomial_det_standard_product():
    # cleared determinant at indices (1, 2): x1 x2 (x2 - x1)
    got = binomial_det((1, 2))
    assert got == x(2, 0) * x(2, 1) * (x(2, 1) - x(2, 0))


def binomial_weight(beta, alpha):
    # the shift expansion's weight: det[C(a_i, b_j)], an integer
    return det([[math.comb(a, b) for b in beta] for a in alpha])


def test_binomial_det_evaluated():
    # [[C(2,1), C(2,2)], [C(4,1), C(4,2)]] = [[2, 1], [4, 6]]
    assert binomial_weight((1, 2), (2, 4)) == 8
    assert binomial_weight((5, 6), (2, 4)) == 0


def test_binomial_det_symbolic_matches_scaled_evaluation():
    for beta in [(1,), (2,), (1, 3), (2, 3), (1, 2, 4)]:
        t = len(beta)
        scale = math.prod(map(math.factorial, beta))
        sym = binomial_det(beta)
        for point in [(1, 5, 9), (0, 2, 4), (3, 4, 6)]:
            pt = point[:t]
            value = sum(coeff * math.prod(v ** e for v, e in zip(pt, mono))
                        for mono, coeff in sym.terms.items())
            assert value == scale * binomial_weight(beta, pt)


def falling_factorial_det(indices):
    # the cofactor construction: the matrix of falling factorials (x_i)_{k_j}
    t = len(indices)
    return det([[math.prod((x(t, i) - c(t, m) for m in range(k)), start=c(t, 1))
                 for k in indices] for i in range(t)])


def test_binomial_det_matches_falling_factorial_cofactors():
    # Cauchy-Binet against the cofactor expansion, index 0 included
    betas = [beta for t in range(1, 5) for beta in combinations(range(10), t)]
    assert len(betas) == 385
    for beta in betas:
        assert binomial_det(beta) == falling_factorial_det(beta), beta


def test_minors_match_every_column_set(monkeypatch):
    # the minors kept inside each row's span against every column set, on
    # each table of the criterion-2 grid (t <= 4, beta in {1..8}) and of the
    # (3, 7) identity grid's shift expansions
    tables = set()
    real = vandermonde._minors

    def recorded(table):
        tables.add(table)
        return real(table)

    monkeypatch.setattr(vandermonde, "_minors", recorded)
    for t in range(1, 5):
        for beta in combinations(range(1, 9), t):
            binomial_det_quotient(beta)
    for t in range(1, 4):
        for powers in combinations(range(1, 8), t):
            assert check_shift_expansion(powers, (t + 1,))
    assert len(tables) == 162 + 63
    for table in tables:
        brute = {cols: det([[row[col] for col in cols] for row in table])
                 for cols in combinations(range(len(table[0])), len(table))}
        assert real(table) == {cols: minor for cols, minor in brute.items() if minor}


def test_binomial_quotient_is_sum_of_schur_polynomials():
    # a_S over x0 x1 (x1 - x0) is a Schur polynomial: 1 at S = {1, 2},
    # x0 + x1 at {1, 3} and x0 x1 at {2, 3}
    assert vandermonde._schur((1, 2)) == c(2, 1)
    assert vandermonde._schur((1, 3)) == x(2, 0) + x(2, 1)
    assert vandermonde._schur((2, 3)) == x(2, 0) * x(2, 1)
    # (x)_1 = x and (x)_3 = x^3 - 3x^2 + 2x: minors -3 at {1, 2}, 1 at {1, 3}
    # and 0 at {2, 3}; with (x)_2 = x^2 - x in place of x they are 1, -1, 1
    assert binomial_det_quotient((1, 3)) == x(2, 0) + x(2, 1) - c(2, 3)
    assert binomial_det_quotient((2, 3)) == x(2, 0) * x(2, 1) - x(2, 0) - x(2, 1) + c(2, 1)


def test_binomial_det_rejects_empty_indices():
    with pytest.raises(PreconditionFailed):
        binomial_det(())


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


def test_each_determinant_built_once():
    # the degree check and both determinants of each merge row reuse the
    # quotient's numerator: one confluent determinant per quotient row
    vandermonde_quotient.cache_clear()
    confluent_vandermonde_det.cache_clear()
    rows, _ = identity_grid_report(2, 5)
    quotient_rows = [row for row in rows if row["kind"] == "quotient"]
    assert len(quotient_rows) == 50
    assert confluent_vandermonde_det.cache_info().misses == 50
    # over the criterion-2 grid (t <= 4, beta in {1..8}) each exponent set's
    # alternant is built once and divided once: both memos miss exactly once
    # per distinct set S with a nonzero minor, all 162 subsets of {1..8}
    for memo in (binomial_det, vandermonde._minors, vandermonde._alternant,
                 vandermonde._schur):
        memo.cache_clear()
    betas = [beta for t in range(1, 5) for beta in combinations(range(1, 9), t)]
    for beta in betas:
        binomial_det(beta)
        binomial_det_quotient(beta)
    assert vandermonde._alternant.cache_info().misses == len(betas) == 162
    assert vandermonde._schur.cache_info().misses == len(betas)
    binomial_det.cache_clear()
    beta = (1, 3, 4)
    binomial_det(beta)
    binomial_det_quotient(beta)
    assert binomial_det.cache_info().misses == 1
