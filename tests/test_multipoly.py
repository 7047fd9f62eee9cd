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
                   a ** 2, (a * b).divide_exact(b), a.shift_all_by_one(),
                   a.substitute(1, b), c(3, 0)]
        assert all(r.nvars == 3 and well_formed(r, 3) for r in results)
        assert well_formed(a.map_vars([0, 0, 1], 2), 2)


def test_divide_exact_roundtrip():
    rng = random.Random(11)
    for _ in range(40):
        a = random_poly(rng, 2)
        b = random_poly(rng, 2)
        if not b:
            continue
        assert (a * b).divide_exact(b) == a


def test_divide_exact_rejects_remainder():
    p = x(2, 0) ** 2 + c(2, 1)
    q = x(2, 0) + x(2, 1)
    with pytest.raises(InternalError):
        p.divide_exact(q)


def test_divide_exact_roundtrip_large():
    # products of a few hundred terms, so the remainder's leading term is
    # drawn from a large heap at every step
    rng = random.Random(2011)

    def draw(nvars, max_deg, terms):
        return MultiPoly(nvars, {
            tuple(rng.randint(0, max_deg) for _ in range(nvars)): rng.choice([-3, -1, 1, 2, 5])
            for _ in range(terms)
        })

    for nvars in range(2, 6):
        for _ in range(3):
            a = draw(nvars, 30 // nvars, 60)
            b = draw(nvars, 3, 12)
            product = a * b
            assert len(product.terms) >= 200
            assert product.divide_exact(b) == a


def test_divide_exact_monomial_reenters_remainder():
    # (x^2 + x + 1)(x^2 - x - 1) = x^4 - x^2 - 2x - 1.  The first step
    # cancels x^2 out of the remainder and the second brings it back, so the
    # heap holds a stale entry for x^2 next to the live one.
    q = x(1, 0) ** 2 + x(1, 0) + c(1, 1)
    d = x(1, 0) ** 2 - x(1, 0) - c(1, 1)
    assert (q * d).terms == {(4,): 1, (2,): -1, (1,): -2, (0,): -1}
    assert (q * d).divide_exact(d) == q
    # the same trace in two variables, with a lead coefficient of 2
    q2 = (q.map_vars([0], 2) + x(2, 1)).scale(3)
    d2 = d.map_vars([0], 2).scale(2)
    assert (q2 * d2).divide_exact(d2) == q2


def test_divide_exact_rejects_remainder_below_the_top():
    # the leading terms divide; the remainder shows up only further down
    y = x(2, 0)
    with pytest.raises(InternalError):
        (y * (c(2, 2) * y + c(2, 1)) + y).divide_exact(c(2, 2) * y + c(2, 1))
    with pytest.raises(InternalError):
        ((y + x(2, 1)) ** 3 + c(2, 1)).divide_exact(y + x(2, 1))
    # the exponents divide all the way down; a coefficient does not
    with pytest.raises(InternalError):
        (c(2, 2) * y ** 2 + c(2, 3) * y).divide_exact(c(2, 2) * y)
    rng = random.Random(5)
    for nvars in range(2, 5):
        for _ in range(10):
            a = random_poly(rng, nvars)
            b = random_poly(rng, nvars) + x(nvars, 0) ** 4
            r = random_poly(rng, nvars, max_deg=1)
            if not a or not r or r.total_degree() >= b.total_degree():
                continue
            # b divides neither r nor a*b + r, as deg r < deg b
            with pytest.raises(InternalError):
                (a * b + r).divide_exact(b)


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
