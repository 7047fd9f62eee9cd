import math
import random
from fractions import Fraction

import pytest

from padroot.errors import DuplicateExponent, ParseError, PreconditionFailed
from padroot.padic import fraction_valuation, teichmuller
from padroot.sparsepoly import (
    ModImage,
    SparsePoly,
    format_poly,
    newton_polygon,
    parse_poly,
    poly_from_obj,
    poly_to_obj,
    scale_substitute,
    taylor_shift_truncate,
)


def test_parse_trinomial():
    f = parse_poly("x^20 - 10*x^2 + 9")
    assert f.terms == ((0, Fraction(9)), (2, Fraction(-10)), (20, Fraction(1)))


def test_parse_binomial_and_bare_x():
    assert parse_poly("x^4 - 1").terms == ((0, Fraction(-1)), (4, Fraction(1)))
    assert parse_poly("2*x + 1").terms == ((0, Fraction(1)), (1, Fraction(2)))
    assert parse_poly("-x").terms == ((1, Fraction(-1)),)


def test_parse_rational_coefficients():
    f = parse_poly("1/2*x^3 - 3/4")
    assert f.terms == ((0, Fraction(-3, 4)), (3, Fraction(1, 2)))


def test_parse_duplicate_exponent():
    with pytest.raises(DuplicateExponent):
        parse_poly("3*x^2 + 3*x^2")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_poly("x^+")
    assert info.value.position is not None
    with pytest.raises(ParseError):
        parse_poly("")
    with pytest.raises(ParseError):
        parse_poly("3 +")
    with pytest.raises(ParseError):
        parse_poly("x^2 x")


def test_format_round_trip_examples():
    for text in ["x^20 - 10*x^2 + 9", "x^4 - 1", "1/2*x^3 - 3/4", "-x + 2"]:
        f = parse_poly(text)
        assert parse_poly(format_poly(f)).terms == f.terms


def test_format_round_trip_random():
    rng = random.Random(9)
    for _ in range(100):
        data = {}
        for _ in range(rng.randint(1, 5)):
            e = rng.randint(0, 40)
            c = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            if c:
                data[e] = c
        if not data:
            continue
        f = SparsePoly.from_dict(data)
        assert parse_poly(format_poly(f)).terms == f.terms


def test_structured_form_round_trip():
    f = parse_poly("x^20 - 10*x^2 + 9")
    assert poly_from_obj(poly_to_obj(f)).terms == f.terms


def test_newton_polygon_trinomial():
    f = parse_poly("x^20 - 10*x^2 + 9")
    np3 = newton_polygon(f, 3)
    assert [(s.slope, s.length) for s in np3.segments] == [
        (Fraction(-1), 2),
        (Fraction(0), 18),
    ]
    assert np3.integer_root_valuations() == [1, 0]


def test_newton_polygon_binomial():
    for p in (3, 5, 7):
        f = parse_poly(f"x^{p - 1} - 1")
        np_ = newton_polygon(f, p)
        assert [(s.slope, s.length) for s in np_.segments] == [(Fraction(0), p - 1)]


def test_newton_polygon_fractional_slope():
    f = parse_poly("9*x^3 + 3*x + 1")
    np3 = newton_polygon(f, 3)
    assert [(s.slope, s.length) for s in np3.segments] == [(Fraction(2, 3), 3)]
    assert np3.integer_root_valuations() == []


def brute_hull_checks(poly, p):
    np_ = newton_polygon(poly, p)
    support = np_.support
    # vertices are support points; slopes strictly increase
    assert all(v in support for v in np_.vertices)
    slopes = np_.slopes()
    assert all(a < b for a, b in zip(slopes, slopes[1:]))
    assert np_.vertices[0] == support[0] and np_.vertices[-1] == support[-1]
    # every support point lies on or above every segment's line
    for seg in np_.segments:
        (x1, y1), (x2, y2) = seg.start, seg.end
        for (x, y) in support:
            assert (y - y1) * (x2 - x1) >= (y2 - y1) * (x - x1) or x > x2 or x < x1
    # total length
    total = sum(seg.length for seg in np_.segments)
    assert total == support[-1][0] - support[0][0]


def test_newton_polygon_random_hull_properties():
    rng = random.Random(21)
    for _ in range(150):
        data = {0: Fraction(rng.randint(1, 500))}
        for _ in range(rng.randint(1, 4)):
            e = rng.randint(1, 60)
            c = Fraction(rng.randint(-600, 600))
            if c:
                data[e] = c
        f = SparsePoly.from_dict(data)
        brute_hull_checks(f, rng.choice([3, 5, 7]))


def test_scale_substitute_identity():
    f = parse_poly("x^2 - 1")
    assert scale_substitute(f, 5, 0).terms == f.terms


def test_scale_substitute_trinomial():
    f = parse_poly("x^20 - 10*x^2 + 9")
    g = scale_substitute(f, 3, 1)
    assert g.terms == (
        (0, Fraction(1)),
        (2, Fraction(-10)),
        (20, Fraction(3**18)),
    )


def test_scale_substitute_monomial_normalizes():
    f = parse_poly("x")
    assert scale_substitute(f, 7, 1).terms == ((1, Fraction(1)),)


def test_scale_substitute_slope_shift():
    # slopes of the polygon move by +m (root valuations drop by m)
    rng = random.Random(3)
    for _ in range(40):
        data = {0: Fraction(rng.randint(1, 100))}
        for _ in range(rng.randint(1, 3)):
            data[rng.randint(1, 30)] = Fraction(rng.randint(-100, 100) or 1)
        f = SparsePoly.from_dict(data)
        p, m = rng.choice([3, 5]), rng.randint(-2, 2)
        before = newton_polygon(f, p)
        after = newton_polygon(scale_substitute(f, p, m), p)
        assert [s.slope + m for s in before.segments] == after.slopes()
        assert [s.length for s in before.segments] == [
            s.length for s in after.segments
        ]


def _random_image_case(rng):
    """(f, p, m, k): p-powers in numerators and denominators, m in -2..2."""
    p = rng.choice([3, 5, 7])
    data = {}
    for _ in range(rng.randint(1, 5)):
        num = rng.choice([-1, 1]) * rng.randint(1, 30) * p ** rng.randint(0, 4)
        den = rng.randint(1, 12) * p ** rng.choice([0, 0, 1, 3])
        data[rng.randint(0, 40)] = Fraction(num, den)
    return SparsePoly.from_dict(data), p, rng.randint(-2, 2), rng.randint(1, 6)


def _cleared(f):
    """f times the lcm of its denominators: the integer input `ModImage` takes."""
    den = math.lcm(*(c.denominator for _, c in f.terms))
    return SparsePoly((e, c * den) for e, c in f.terms)


def test_mod_image_matches_scale_substitute():
    # residues, values, derivative chains and normalization of the image
    # equal those of the materialised rescaling, at every modulus; the
    # inputs are cleared of denominators, p-powers among them
    rng = random.Random(1101)
    seen = {"m < 0": 0, "p | den": 0, "shift >= k": 0}
    for _ in range(300):
        f, p, m, k = _random_image_case(rng)
        seen["p | den"] += any(c.denominator % p == 0 for _, c in f.terms)
        f = _cleared(f)
        image, g = ModImage.scaled(f, p, m), scale_substitute(f, p, m)
        assert (image.p, image.m) == (p, m)
        assert image.nu == min(fraction_valuation(c, p) + m * e for e, c in f.terms)
        seen["m < 0"] += m < 0
        while not g.is_zero():
            seen["shift >= k"] += any(s >= k for _, _, s in image.terms)
            assert image.exact().terms == g.terms
            assert image.residues(p, k) == g.residues(p, k)
            x = rng.randrange(p**k)
            assert image.eval_mod(x, p, k) == g.eval_mod(x, p, k)
            normalized = scale_substitute(g, p, 0)
            assert image.normalized().residues(p, k) == normalized.residues(p, k)
            assert image.normalized().exact().terms == normalized.terms
            image, g = image.derivative(), g.derivative()
        assert image.is_zero()
    assert min(seen.values()) > 20, seen


def test_mod_image_vanishing_is_exact():
    # rational points: screened mod 2^61 - 1, decided by exact evaluation;
    # q = 2^61 - 1 as the point's denominator skips the screen
    q = 2**61 - 1
    for text, x, vanishes in [
        ("9*x^2 - 4", Fraction(2, 3), True),
        ("9*x^2 - 4", Fraction(-2, 3), True),
        ("9*x^2 - 4", Fraction(4, 3), False),
        (f"{q}*x - 1", Fraction(1, q), True),
        (f"{q}*x - 1", Fraction(2, q), False),
        (f"x - 1/{q}", Fraction(1, q), True),
        (f"x - {q + 1}", Fraction(1), False),  # 0 mod q, not 0
    ]:
        f = parse_poly(text)
        for p in (3, 5):
            assert ModImage.scaled(_cleared(f), p, 0).vanishes_at(x) == vanishes, (text, x, p)


def test_mod_image_needs_integer_coefficients():
    for text in ("1/2*x - 1", "x^3 - 1/3"):
        with pytest.raises(PreconditionFailed):
            ModImage.scaled(parse_poly(text), 3, 0)


def test_residues_once_per_modulus():
    f = parse_poly("1/2*x^3 - 3")
    assert f.residues(5, 2) == [(0, 22), (3, 13)]
    with pytest.raises(PreconditionFailed):
        parse_poly("1/5*x - 1").residues(5, 1)


def test_taylor_shift_example():
    f = parse_poly("x^2 - 1")
    assert taylor_shift_truncate(f.residues(3, 5), 1, 3, 5) == [0, 6, 9]


def test_taylor_shift_linear_exact_root():
    f = parse_poly("x - 4")
    assert taylor_shift_truncate(f.residues(5, 3), 4, 5, 3) == [0, 5]


def test_taylor_shift_at_teichmuller_point():
    xi = teichmuller(5, 2, 6)
    f = parse_poly("x^4 - 1")
    h = taylor_shift_truncate(f.residues(5, 6), xi.residue(6), 5, 6)
    assert h[0] % 5**6 == 0


def test_taylor_shift_consistency_random():
    # sparse inputs through `residues`, dense ones through `enumerate`
    rng = random.Random(14)
    for case in range(120):
        p = rng.choice([3, 5, 7])
        n = rng.randint(3, 8)
        modulus = p**n
        if case % 2:
            dense = [rng.randrange(modulus) for _ in range(rng.randint(1, n + 3))]
            pairs = list(enumerate(dense))
        else:
            data = {0: Fraction(rng.randint(-20, 20) or 1)}
            for _ in range(rng.randint(1, 3)):
                data[rng.randint(1, 25)] = Fraction(rng.randint(-20, 20) or 3)
            pairs = SparsePoly.from_dict(data).residues(p, n)
        r = rng.randint(0, modulus - 1)
        h = taylor_shift_truncate(pairs, r, p, n)
        assert len(h) == min(pairs[-1][0], n - 1) + 1
        y0 = rng.randint(0, modulus - 1)
        x = (r + p * y0) % modulus
        direct = sum(c * pow(x, e, modulus) for e, c in pairs) % modulus
        via_shift = sum(h[k] * pow(y0, k, modulus) for k in range(len(h))) % modulus
        assert direct == via_shift


def test_derivative_examples():
    f = parse_poly("x^20 - 10*x^2 + 9")
    assert format_poly(f.derivative()) == "20*x^19 - 20*x"
    assert parse_poly("7").derivative().is_zero()
    assert format_poly(parse_poly("x^4 - 1").derivative()) == "4*x^3"
    # double root of the trinomial at 1: first derivative vanishes there
    assert f.derivative().eval_exact(1) == 0


def test_strip_lowest():
    f = parse_poly("x^5 + 2*x^3")
    g, shift = f.strip_lowest()
    assert shift == 3
    assert g.terms == ((0, Fraction(2)), (2, Fraction(1)))


def test_negative_exponent_rejected():
    with pytest.raises(PreconditionFailed):
        SparsePoly([(-1, Fraction(1))])
