import random
from fractions import Fraction

import pytest

from padroot.errors import InternalError
from padroot.multipoly import MultiPoly, det


def x(nvars, i):
    return MultiPoly.monomial(nvars, i)


def c(nvars, v):
    return MultiPoly.const(nvars, v)


def random_poly(rng, nvars, max_deg=3, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[mono] = rng.randint(-9, 9)
    return MultiPoly(nvars, {mono: coeff for mono, coeff in terms.items() if coeff})


def well_formed(poly, nvars):
    return all(len(mono) == nvars and min(mono, default=0) >= 0 and coeff
               for mono, coeff in poly.terms.items())


def test_add_mul_basics():
    p = x(2, 0) + x(2, 1)
    q = x(2, 0) - x(2, 1)
    assert p * q == x(2, 0) ** 2 - x(2, 1) ** 2
    assert not p - p


def test_pow_matches_repeated_product():
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(rng, 2)
        expect = c(2, 1)
        for _ in range(3):
            expect = expect * p
        assert p ** 3 == expect


def test_ring_axioms_randomized():
    rng = random.Random(42)
    for _ in range(50):
        a = random_poly(rng, 3)
        b = random_poly(rng, 3)
        d = random_poly(rng, 3)
        assert a * b == b * a
        assert a * (b + d) == a * b + a * d
        assert (a + b) + d == a + (b + d)
        assert not a - a and not a * b - b * a
        results = [a * b, a + b, a - b, b - b, a * (b + d), -d, a.scale(3), a.scale(0),
                   a ** 2, (a * (x(3, 2) - x(3, 0))).divide_exact([(2, 0)]),
                   a.shift_all_by_one(),
                   a.substitute(1, b), c(3, 0)]
        assert all(r.nvars == 3 and well_formed(r, 3) for r in results)
        assert well_formed(a.map_vars([0, 0, 1], 2), 2)


def linear_product(nvars, factors):
    # the product of x_j - x_i over the (j, i) pairs, x_j alone where i is None
    out = c(nvars, 1)
    for j, i in factors:
        out = out * (x(nvars, j) if i is None else x(nvars, j) - x(nvars, i))
    return out


def random_factors(rng, nvars, count):
    factors = []
    for _ in range(count):
        j, i = rng.sample(range(nvars), 2)
        factors.append((j, None if rng.random() < 0.25 else i))
    return factors


def test_divide_exact_roundtrip():
    rng = random.Random(11)
    for _ in range(40):
        a = random_poly(rng, 2)
        factors = random_factors(rng, 2, rng.randint(1, 4))
        assert (a * linear_product(2, factors)).divide_exact(factors) == a
    # every factor of a standard Vandermonde determinant, repeated
    a = random_poly(rng, 3)
    factors = [(1, 0), (1, 0), (2, 0), (2, 1), (2, 1), (2, 1), (0, None), (2, None)]
    assert (a * linear_product(3, factors)).divide_exact(factors) == a
    assert c(3, 0).divide_exact(factors) == c(3, 0)


def test_divide_exact_rejects_remainder():
    p = x(2, 0) ** 2 + c(2, 1)
    with pytest.raises(InternalError):
        p.divide_exact([(0, 1)])
    with pytest.raises(InternalError):
        p.divide_exact([(0, None)])


def test_divide_exact_roundtrip_large():
    # products of 200 terms or more in 2 to 5 variables, with repeated
    # factors and x_j factors
    rng = random.Random(2011)

    def draw(nvars, max_deg, terms):
        return MultiPoly(nvars, {
            tuple(rng.randint(0, max_deg) for _ in range(nvars)): rng.choice([-3, -1, 1, 2, 5])
            for _ in range(terms)
        })

    for nvars in range(2, 6):
        for _ in range(3):
            a = draw(nvars, 30 // nvars, 100)
            factors = random_factors(rng, nvars, 6)
            factors += factors[:2]
            product = a * linear_product(nvars, factors)
            assert len(product.terms) >= 200
            assert product.divide_exact(factors) == a
            assert product.divide_exact(factors[::-1]) == a


def test_divide_exact_rejects_remainder_below_the_top():
    # every row of x_j above the constant one divides; p_0 + x_i q_0 does not
    y, z = x(2, 0), x(2, 1)
    with pytest.raises(InternalError):
        ((y - z) ** 3 + z).divide_exact([(0, 1)])
    # an x_j factor applied to a term that lacks x_j
    with pytest.raises(InternalError):
        (y ** 2 * z + z).divide_exact([(0, None)])
    with pytest.raises(InternalError):
        (y * z ** 2 + y).divide_exact([(0, None), (1, None)])
    rng = random.Random(5)
    for nvars in range(2, 6):
        for _ in range(10):
            a = random_poly(rng, nvars)
            factors = random_factors(rng, nvars, rng.randint(1, 3))
            j = factors[0][0]
            # r lacks x_j, so x_j - x_i and x_j leave it as the remainder
            r = random_poly(rng, nvars).map_vars(
                [k if k != j else (j + 1) % nvars for k in range(nvars)], nvars)
            if not r:
                continue
            with pytest.raises(InternalError):
                (a * linear_product(nvars, factors) + r).divide_exact(factors[:1])


def test_substitute_and_shift():
    # (x0 + x1)^2 with x1 -> 1 + x1, against direct expansion
    p = (x(2, 0) + x(2, 1)) ** 2
    shifted = p.substitute(1, c(2, 1) + x(2, 1))
    expect = (x(2, 0) + x(2, 1) + c(2, 1)) ** 2
    assert shifted == expect

    q = (x(2, 0) - x(2, 1)) ** 3
    assert q.shift_all_by_one() == q  # shift-invariant difference


def test_map_vars_specialization():
    p = (x(3, 0) + x(3, 1) + x(3, 2)) ** 2
    merged = p.map_vars([0, 0, 1], 2)
    expect = (x(2, 0).scale(2) + x(2, 1)) ** 2
    assert merged == expect


def test_coefficient_of():
    p = (x(2, 0) + x(2, 1)) ** 3
    assert p.coefficient_of(1, 2) == x(1, 0).scale(3)
    assert p.coefficient_of(1, 3) == c(1, 1)


def test_evaluate():
    p = x(2, 0) ** 2 - x(2, 1)
    assert p.evaluate([3, 4]) == 5
    assert p.evaluate([Fraction(1, 2), Fraction(1, 4)]) == 0


def leibniz_det(matrix):
    # independent determinant oracle: full permutation expansion
    from itertools import permutations

    n = len(matrix)
    nvars = matrix[0][0].nvars
    total = MultiPoly.zero(nvars)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = MultiPoly.const(nvars, sign)
        for i in range(n):
            prod = prod * matrix[i][perm[i]]
        total = total + prod
    return total


def test_det_against_leibniz_oracle():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            matrix = [
                [random_poly(rng, 2, max_deg=2, max_terms=2) for _ in range(n)]
                for _ in range(n)
            ]
            assert det(matrix) == leibniz_det(matrix)


def test_det_rejects_nonsquare():
    with pytest.raises(InternalError):
        det([[c(1, 1), c(1, 2)]])
