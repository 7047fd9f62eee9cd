import functools
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from padroot import rootcount
from padroot.errors import PreconditionFailed
from padroot.padic import eval_with_derivative, is_prime, teichmuller
from padroot.rootcount import (
    EXACT_RATIONAL,
    EXACT_TORSION,
    HENSEL_SIMPLE,
    CountOptions,
    _heights,
    _reduce_mod_p,
    _unit_zeros,
    count_roots,
    rational_roots_with_multiplicity,
    segment_root_count,
    torsion_multiplicity,
    verify_upper_bounds,
)
from padroot.sparsepoly import ModImage, SparsePoly, newton_polygon, parse_poly, scale_substitute

from oracle import oracle_root_classes, report_classes

OPTS = CountOptions(prec=40, depth=8)


# -- segment counting -------------------------------------------------------


def test_segment_binomial_square():
    entries, clusters = segment_root_count(parse_poly("x^2 - 1"), 5, 0, OPTS)
    assert clusters == []
    residues = sorted(e.value.unit_mod(1) for e in entries)
    assert residues == [1, 4]
    assert all(e.certificate == HENSEL_SIMPLE and e.multiplicity == 1 for e in entries)


def test_segment_nonresidue():
    assert segment_root_count(parse_poly("x^2 - 2"), 5, 0, OPTS) == ([], [])


def test_segment_binomial_formula():
    # a segment joining adjacent support points, of width w prime to p,
    # reduces to c_s x^s + c_e x^e after rescaling: gcd(p-1, w) simple roots
    # when -c_s/c_e is a w-th power residue, none otherwise
    rng = random.Random(707)
    seen = {True: 0, False: 0}
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11, 13])
        exps = sorted(rng.sample(range(1, 60), rng.randint(1, 3)))
        f = SparsePoly.from_dict(
            {e: Fraction(rng.choice([-1, 1]) * rng.randint(1, 20) * p ** rng.randint(0, 3))
             for e in [0] + exps})
        f0 = scale_substitute(f, p, 0)
        support = f0.exponents()
        for seg in newton_polygon(f0, p).segments:
            m, (s, _), (e, _) = -seg.slope, seg.start, seg.end
            w = e - s
            if m.denominator != 1 or not w % p or support.index(e) != support.index(s) + 1:
                continue
            g = scale_substitute(f0, p, int(m))
            digit = -g.coefficient(s) / g.coefficient(e)
            digit = digit.numerator * pow(digit.denominator, -1, p) % p
            residues = [r for r in range(1, p) if pow(r, w, p) == digit]
            seen[bool(residues)] += 1
            assert len(residues) in (0, math.gcd(p - 1, w))
            entries, clusters = segment_root_count(f0, p, int(m), OPTS)
            assert clusters == []
            assert sorted(x.value.unit_mod(1) for x in entries) == residues
            assert all(x.certificate == HENSEL_SIMPLE and x.multiplicity == 1
                       and x.valuation == m for x in entries)
    assert seen[True] > 20 and seen[False] > 10


# -- exact certificates -----------------------------------------------------


def _labels(report):
    return {e.rational: e.multiplicity for e in report.entries if e.rational is not None}


def test_rational_roots_exact():
    # the class-local search: 1/2 = 3 mod 5 is a double root in the class 3
    f = parse_poly("4*x^2 - 4*x + 1")
    roots, complete = rational_roots_with_multiplicity(
        ModImage.scaled(f, 5, 0), 3, 2, [], _heights(f, 5, 0), OPTS)
    assert complete
    assert roots == [(Fraction(1, 2), 2)]
    assert _labels(count_roots(f, 5, OPTS)) == {Fraction(1, 2): 2}

    # simple roots in simple classes are labelled where they are lifted
    g = parse_poly("x^2 - 3*x + 2")
    assert _labels(count_roots(g, 5, OPTS)) == {Fraction(1): 1, Fraction(2): 1}


def test_torsion_multiplicity_trinomial():
    f = ModImage.scaled(parse_poly("x^20 - 10*x^2 + 9"), 3, 0)
    assert torsion_multiplicity(f, 1) == 2   # at 1
    assert torsion_multiplicity(f, 2) == 2   # at -1
    g = ModImage.scaled(parse_poly("x^2 - 2"), 3, 0)
    assert torsion_multiplicity(g, 1) == 0


def test_torsion_multiplicity_once_per_order(monkeypatch):
    # (x^100 - 1)^2 at p = 101: every unit residue is a double root, and
    # its multiplicity depends only on its order, one of the 9 divisors of 100
    calls = []

    def counted(g, d, *rest):
        calls.append(d)
        return torsion_multiplicity(g, d, *rest)

    monkeypatch.setattr(rootcount, "torsion_multiplicity", counted)
    report = count_roots(parse_poly("x^200 - 2*x^100 + 1"), 101, OPTS)
    assert (report.count_distinct, report.count_with_multiplicity) == (100, 200)
    assert report.fully_certified
    assert sorted(calls) == [1, 2, 4, 5, 10, 20, 25, 50, 100]
    # (x^2 - 2)^2 at p = 7: the double zeros 3 and 4 mod 7 have orders 6 and
    # 3, each the only zero among the phi(d) = 2 residues of its order, so
    # Phi_d divides g at neither and neither order is tested
    calls.clear()
    report = count_roots(parse_poly("x^4 - 4*x^2 + 4"), 7, OPTS)
    assert len(report.unresolved) == 2 and not report.entries
    assert calls == []


@pytest.mark.parametrize("text, p, calls", [
    ("x^200 - 2*x^100 + 1", 101, 0),  # 100 double torsion roots
    ("x^3 - x^2 - 6*x + 6", 5, 1),  # the simple exact root 1, beside a root of x^2 - 6
])
def test_exact_derivative_only_at_simple_points(monkeypatch, text, p, calls):
    # g' vanishes exactly at a multiple exact root, so it is evaluated
    # only at the simple ones
    counted = []

    def counting(*args):
        counted.append(args)
        return eval_with_derivative(*args)

    monkeypatch.setattr(rootcount, "eval_with_derivative", counting)
    report = count_roots(parse_poly(text), p, OPTS)
    assert report.fully_certified
    assert len(counted) == calls


@pytest.mark.parametrize("text, p, totals, certificate", [
    ("x^2016 - 1", 1009, (1008, 1008), HENSEL_SIMPLE),
    ("x^200 - 2*x^100 + 1", 101, (100, 200), EXACT_TORSION),
    # sharp_trinomial(7): a double torsion root in each unit class, beside 6
    # simple roots of valuation 1
    ("x^705900 - 117650*x^6 + 117649", 7, (12, 18), EXACT_TORSION),
])
def test_torsion_roots_are_powers_of_one_lift(monkeypatch, text, p, totals, certificate):
    # every torsion root's digits are a power of the one Teichmuller lift of
    # the generator; a simple one starts its Hensel lift there, 48 digits
    # deep, so its witness reads v(f(r0)) = 48 and it takes no Newton step.
    # The multiplicity test screens at the same lift, so p is lifted once
    calls = []

    def counted(*args):
        calls.append(args)
        return teichmuller(*args)

    rootcount._omega.cache_clear()
    monkeypatch.setattr(rootcount, "teichmuller", counted)
    report = count_roots(parse_poly(text), p, OPTS)
    assert (report.count_distinct, report.count_with_multiplicity) == totals
    units = [e for e in report.entries if e.valuation == 0]
    assert len(units) == p - 1
    for e in units:
        assert e.certificate == certificate
        assert e.value.unit == teichmuller(p, e.value.unit_mod(1), 40).unit
        if certificate == HENSEL_SIMPLE:
            assert (e.hensel.r0.prec, e.hensel.val_f_r0) == (48, 48)
    assert [args[0] for args in calls] == [p]


TOWER_2_7 = "x^705900 + 1/117648*x^6 + 157774040966226142650024287/117648"


@pytest.mark.parametrize("p, text, searched", [
    (101, "x^200 - 2*x^100 + 1", False),  # double torsion points fill their classes
    (5, "81*x^3 - 279*x^2 + 112*x - 12", True),  # the double rational root 2/9
    # (x-1)(x^2-6): the torsion point 1 is deflated and the class's
    # refinement lifts the root of x^2 - 6 beside it, leaving no cluster
    (5, "x^3 - x^2 - 6*x + 6", False),
    # (x^2-2)^2: the double irrational roots stay clusters, so each class is
    # searched and nothing is found
    (7, "x^4 - 4*x^2 + 4", True),
    (7, TOWER_2_7, False),  # the (2, 7) tower member: its refinements leave no cluster
])
def test_rational_search_only_where_torsion_leaves_room(monkeypatch, p, text, searched):
    calls = []

    def counted(*args):
        calls.append(args[1])
        return rational_roots_with_multiplicity(*args)

    monkeypatch.setattr(rootcount, "rational_roots_with_multiplicity", counted)
    report = count_roots(parse_poly(text), p, OPTS)
    assert report.fully_certified == (text != "x^4 - 4*x^2 + 4")
    assert bool(calls) == searched


N = 5**50


@pytest.mark.parametrize("text, p, refinements, entries, clusters", [
    # (x-1)(x^2-6): 1 and a root of x^2 - 6 share the class 1 mod 5
    ("x^3 - x^2 - 6*x + 6", 5, 1,
     [(EXACT_TORSION, 1, Fraction(1), 1, 1, None),
      (HENSEL_SIMPLE, 1, None, 35817391, 1, (38, 38)),
      (HENSEL_SIMPLE, 1, None, 208323234, 0, (48, 1))], []),
    # (x^2-2)^2: a double irrational root in each of the classes 3 and 4 mod 7
    ("x^4 - 4*x^2 + 4", 7, 4, [],
     [(0, 15491487, 10, 2, 8, "depth"), (0, 266983762, 10, 2, 8, "depth")]),
    # (x-2)(x-7)(x-3): 2 and 7 are simple rationals sharing the class 2 mod 5
    ("x^3 - 12*x^2 + 41*x - 42", 5, 1,
     [(EXACT_RATIONAL, 1, Fraction(2), 2, 1, None),
      (HENSEL_SIMPLE, 1, Fraction(3), 3, 0, (48, 48)),
      (EXACT_RATIONAL, 1, Fraction(7), 7, 1, None)], []),
    # (x-2)(x^2-29): 2 and a root of x^2 - 29 share the class 2 mod 25; 2 is
    # deflated before that root is refined again, so its witness starts from
    # the digits it has with 2 known first
    ("x^3 - 2*x^2 - 29*x + 58", 5, 2,
     [(EXACT_RATIONAL, 1, Fraction(2), 2, 2, None),
      (HENSEL_SIMPLE, 1, None, 53150148, 0, (48, 1)),
      (HENSEL_SIMPLE, 1, None, 190990477, 2, (38, 38))], []),
    # (x-1)(x^2 + (5^50-3)x + 2): a root of the quadratic agrees with the
    # torsion point 1 mod 5^50, past every lifted digit, and is not 1
    (f"x^3 + {N - 4}*x^2 - {N - 5}*x - 2", 5, 3,
     [(EXACT_TORSION, 1, Fraction(1), 1, None, None),
      (HENSEL_SIMPLE, 1, None, 1, 50, (158, 158)),
      (HENSEL_SIMPLE, 1, None, 2, 0, (48, 48))], []),
])
def test_multiple_class_refined_once(monkeypatch, text, p, refinements, entries, clusters):
    # the class is refined once on g, which labels its simple roots; the
    # derivative passes on g' ... g^(k-1) run only when that refinement
    # leaves a cluster, and the refinement on g is run again only when it
    # finds a simple rational next to other roots
    calls = []

    def counted(*args):
        calls.append(args[1])
        return refine_class(*args)

    refine_class = rootcount._refine_class
    monkeypatch.setattr(rootcount, "_refine_class", counted)
    report = count_roots(parse_poly(text), p, OPTS)
    assert len(calls) == refinements
    assert [(e.certificate, e.multiplicity, e.rational, e.value.unit_mod(12), e.val_fprime,
             e.hensel and (e.hensel.r0.prec, e.hensel.val_f_r0)) for e in report.entries] == entries
    assert [(c.valuation, c.center, c.level, c.upper_bound, c.depth_reached, c.reason)
            for c in report.unresolved] == clusters
    labels = [e.rational for e in report.entries if e.rational is not None]
    assert len(labels) == len(set(labels))


def test_roots_sharing_their_reported_digits_list_exact_points_by_value():
    # (x-2)(x+390623)(x-3) at p = 5 with 6 digits: 2 and 2 - 5^8 agree in
    # every reported digit, so they are listed by value
    report = count_roots(parse_poly("x^3 + 390618*x^2 - 1953109*x + 2343738"), 5,
                         CountOptions(prec=6))
    assert report.fully_certified
    assert [e.rational for e in report.entries] == [Fraction(-390623), Fraction(2),
                                                     Fraction(3)]
    assert [e.value.unit_mod(6) for e in report.entries[:2]] == [2, 2]


def test_torsion_multiplicity_q5_example():
    # x^2504 - 626*x^4 + 625 and its derivative vanish on the 4th roots of
    # unity; the second derivative is 2504*2500 there
    f = ModImage.scaled(parse_poly("x^2504 - 626*x^4 + 625"), 5, 0)
    assert [torsion_multiplicity(f, d) for d in (1, 2, 4)] == [2, 2, 2]


def test_torsion_multiplicity_of_the_torsion_polynomial():
    for p in (3, 5, 7, 11):
        f = ModImage.scaled(parse_poly(f"x^{p - 1} - 1"), p, 0)
        for d in range(1, p):
            if (p - 1) % d == 0:
                assert torsion_multiplicity(f, d) == 1, (p, d)


def test_torsion_multiplicity_agrees_with_teichmuller_evaluation():
    # g(zeta) is an algebraic integer of norm below p^30 unless it is 0, so
    # vanishing mod p^30 at the order-d Teichmuller points decides the root
    rng = random.Random(77)
    seen = set()
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        data = {}
        for _ in range(rng.randint(1, 4)):
            data[rng.randint(0, 200)] = Fraction(rng.randint(-9, 9) or 1)
        if rng.random() < 0.5:
            # times x^e - 1: vanish on the e-th roots of unity
            e = rng.choice([1, 2, 3, 6])
            product = {k: -c for k, c in data.items()}
            for k, c in data.items():
                product[k + e] = product.get(k + e, 0) + c
            data = {k: c for k, c in product.items() if c}
        f = SparsePoly.from_dict(data)
        for a in range(1, p):
            d = _brute_order(a, p)
            xi = teichmuller(p, a, 30).residue(30)
            vanishes = f.eval_mod(xi, p, 30) == 0
            image = ModImage.scaled(f, p, 0)
            assert (torsion_multiplicity(image, d) > 0) == vanishes, (f.terms, p, d)
            seen.add(vanishes)
    assert seen == {True, False}


def _divmod_monic(num, den):
    """Quotient and remainder of dense integer polynomials, den monic."""
    num, n = list(num), len(den) - 1
    quot = [0] * max(len(num) - n, 0)
    for i in reversed(range(len(quot))):
        q = quot[i] = num[i + n]
        if q:
            for j, c in enumerate(den):
                num[i + j] -= q * c
    return quot, num[:n]


@functools.cache
def _dense_cyclotomic(d):
    """Dense Phi_d by Phi_nq(x) = Phi_n(x^q), divided by Phi_n(x) unless q | n,
    q the largest prime of d: dividing x^d - 1 by every Phi_e, e a proper
    divisor, is quadratic in d and too slow at d = 30030."""
    if d == 1:
        return (-1, 1)
    q = next(q for q in range(d, 1, -1) if d % q == 0 and is_prime(q))
    base = _dense_cyclotomic(d // q)
    poly = [0] * ((len(base) - 1) * q + 1)
    poly[::q] = base
    if (d // q) % q:
        poly, rem = _divmod_monic(poly, base)
        assert not any(rem)
    return tuple(poly)


def _dense_divisible(g, d):
    folded = [0] * d
    for e, c in g.terms:
        folded[e % d] += c.numerator
    return not any(_divmod_monic(folded, _dense_cyclotomic(d))[1])


def _shifted(dense, d, rng):
    """The polynomial with these coefficients, each exponent moved up by a
    random multiple of d, which folding mod d undoes."""
    data = {}
    for k, c in enumerate(dense):
        e = k + d * rng.randrange(4)
        data[e] = data.get(e, 0) + c
    return SparsePoly.from_dict({e: Fraction(c) for e, c in data.items() if c})


def _cyclotomic_multiple(d, rng):
    """Dense coefficients of Phi_d times a random integer cofactor."""
    cofactor = [rng.randint(-5, 5) for _ in range(rng.randint(1, 8))]
    cofactor[-1] = cofactor[-1] or 1
    phi_d = _dense_cyclotomic(d)
    product = [0] * (len(phi_d) - 1 + len(cofactor))
    for i, a in enumerate(phi_d):
        for j, b in enumerate(cofactor):
            product[i + j] += a * b
    return product


def test_cyclotomic_divisibility_matches_dense_division():
    # random, forced-divisible and nearly divisible inputs at every order up
    # to 199 and at orders with three to six distinct primes; at 30030 the
    # random exponents stay low, as the dense division is quadratic.  At
    # d = 1 the fold is one coefficient, shorter than x - 1, and at 30030 a
    # fold of degree below phi(d) is its own remainder
    primes = [q for q in range(2, 200) if is_prime(q)]
    rng = random.Random(26)
    fixed = {1: ["2*x", "3", "x - 1", "x^5 - x^2", "x^3 + x - 2"],
             30030: ["x^30031 + 5", "x^60060 - 1"]}
    results = []
    for d in [*range(1, 200), 210, 1001, 2310, 30030]:
        phi = len(_dense_cyclotomic(d)) - 1
        width = d if d <= 2310 else phi + 16
        cases = [parse_poly(text) for text in fixed.get(d, [])]
        for _ in range(4):
            cases.append(SparsePoly.from_dict({
                rng.randrange(width) + d * rng.randrange(4): Fraction(rng.randint(-9, 9) or 1)
                for _ in range(rng.randint(1, 5))}))
        for _ in range(2):
            product = _cyclotomic_multiple(d, rng)
            cases.append(_shifted(product, d, rng))
            product[rng.randrange(len(product))] += rng.choice([-1, 1])
            cases.append(_shifted(product, d, rng))
        for g in cases:
            expected = _dense_divisible(g, d)
            assert rootcount._divisible_by_cyclotomic(g, d, primes) == expected, (g.terms, d)
            results.append(expected)
    assert results.count(True) > 400 and results.count(False) > 400


def test_cyclotomic_factor_puts_its_whole_orbit_among_the_residue_zeros():
    # the counter tests order d for torsion roots only when the residue scan
    # found all phi(d) residues of order d: an order found fewer times is
    # skipped, which is exact only if Phi_d | g puts every residue of order
    # d among the zeros of g mod p, p = 1 mod d.  30030 is left out: its
    # least such prime and phi(30030) terms would make the scan slow
    rng = random.Random(27)
    checked = 0
    for d in [*range(1, 61), 210, 1001, 2310]:
        phi = len(_dense_cyclotomic(d)) - 1
        primes = [p for p in range(d + 1, 60 * d + 3, d) if p > 2 and is_prime(p)][:2]
        for _ in range(2):
            g = _shifted(_cyclotomic_multiple(d, rng), d, rng)
            for p in primes:
                zeros = _unit_zeros(_reduce_mod_p(ModImage.scaled(g, p, 0), p), p)
                of_order_d = [r for r, i in zeros if math.gcd(i, p - 1) == (p - 1) // d]
                assert len(of_order_d) == phi, (g.terms, d, p)
                checked += 1
    assert checked == 4 * 63


def test_torsion_multiplicity_at_large_orders():
    # p = 100043 = 2 * 50021 + 1: the roots of x^50021 + 1 have orders 2 and
    # 100042, so its square has double roots there and none of order 50021
    g = ModImage.scaled(parse_poly("x^100042 + 2*x^50021 + 1"), 100043, 0)
    start = time.perf_counter()
    assert [torsion_multiplicity(g, d) for d in (100042, 2, 50021)] == [2, 2, 0]
    assert time.perf_counter() - start < 1.0
    # p = 2039 = 2 * 1019 + 1: 1019 double roots in all, every one exact
    report = count_roots(parse_poly("x^2038 + 2*x^1019 + 1"), 2039, OPTS)
    assert report.fully_certified
    assert report.count_with_multiplicity == 2038


# -- full counting ----------------------------------------------------------


def test_count_binomial_q5():
    report = count_roots(parse_poly("x^4 - 1"), 5, OPTS)
    assert report.fully_certified
    assert report.count_distinct == 4
    assert report.count_with_multiplicity == 4
    assert {e.value.unit_mod(1) for e in report.entries} == {1, 2, 3, 4}


def test_count_no_roots():
    report = count_roots(parse_poly("x^2 - 2"), 5, OPTS)
    assert report.fully_certified and report.count_distinct == 0


def test_count_trinomial_q3():
    # true inventory: double roots at +-1, two extra simple units (square
    # roots of the simple zero of sum((9-k) u^k) near u=4 mod 9), and two
    # valuation-1 roots; 6 distinct, 8 with multiplicity
    report = count_roots(parse_poly("x^20 - 10*x^2 + 9"), 3, OPTS)
    assert report.fully_certified
    assert report.count_distinct == 6
    assert report.count_with_multiplicity == 8
    torsion = [e for e in report.entries if e.certificate == EXACT_TORSION]
    assert sorted(e.rational for e in torsion) == [Fraction(-1), Fraction(1)]
    assert all(e.multiplicity == 2 and e.valuation == 0 for e in torsion)
    lifted_v1 = [e for e in report.entries
                 if e.certificate == HENSEL_SIMPLE and e.valuation == 1]
    assert len(lifted_v1) == 2
    extra_units = [e for e in report.entries
                   if e.certificate == HENSEL_SIMPLE and e.valuation == 0]
    assert sorted(e.value.unit_mod(4) for e in extra_units) == [7, 74]
    # certified roots actually vanish to full reported precision
    for e in report.entries:
        if e.multiplicity == 1:
            r = e.value.unit_mod(30) * 3**e.valuation
            assert parse_poly("x^20 - 10*x^2 + 9").eval_mod(r, 3, 30) == 0


def test_count_pth_power_descent():
    # x^18 - 1 = g(x^9): the residues +-1 are zeros of order 9 mod 3, and the
    # refinement certifies the square roots of unity
    report = count_roots(parse_poly("x^18 - 1"), 3, OPTS)
    assert report.fully_certified
    assert report.count_distinct == 2
    assert {e.value.unit_mod(1) for e in report.entries} == {1, 2}


@pytest.mark.parametrize("text, valuation", [
    ("x^12 - 20*x^6 + 100", 0),
    ("x^12 - 14580*x^6 + 53144100", 1),  # 3^12 * ((x/3)^12 - 20*(x/3)^6 + 100)
])
def test_descended_clusters_are_in_x_coordinates(text, valuation):
    # (x^6 - 10)^2 at 3: the irrational double roots +-10^(1/6) stay depth
    # clusters at level 10, in x coordinates: subclasses of 1928 and 17755
    # mod 3^9, on which x^6 = 10 mod 3^11 (x^6 mod 3^11 depends on x mod 3^10)
    report = count_roots(parse_poly(text), 3, OPTS)
    assert report.entries == []
    assert [(c.valuation, c.center, c.level, c.upper_bound, c.reason)
            for c in report.unresolved] == [(valuation, 21611, 10, 2, "depth"),
                                             (valuation, 37438, 10, 2, "depth")]
    assert [c.center % 3**9 for c in report.unresolved] == [1928, 17755]
    assert all(pow(c.center, 6, 3**11) == 10 for c in report.unresolved)


def test_descent_drops_clusters_holding_no_pth_power():
    # (x^6 - 7)^2 at 3: unit cubes are +-1 mod 9 and 7 is not, so x^6 = 7 has
    # no solution in Q_3 and the refinement leaves no cluster
    report = count_roots(parse_poly("x^12 - 14*x^6 + 49"), 3, OPTS)
    assert report.entries == [] and report.unresolved == []


def test_descended_clusters_hold_exactly_the_oracle_roots():
    # f(x) = h(x^p), h = (y^2 - a*p^(2ps))^2 * (y + b): the irrational double
    # roots of f, of valuation s, stay clusters; each reported cluster must
    # hold a root of f, and together with the entries they hold all
    rng = random.Random(8080)
    valuations = set()
    for _ in range(60):
        p, s = rng.choice([3, 5]), rng.choice([0, 0, 1])
        a, b = rng.choice([-1, 1]) * rng.randint(2, 60), rng.randint(-20, 20) or 1
        c = -a * p ** (2 * p * s)
        h = {0: c * c * b, 1: c * c, 2: 2 * c * b, 3: 2 * c, 4: b, 5: 1}
        f = SparsePoly.from_dict({e * p: Fraction(v) for e, v in h.items() if v})
        report = count_roots(f, p, OPTS)
        rest = oracle_root_classes(f, p, 6)[0] - report_classes(report, 6)
        for cluster in report.unresolved:
            inside = {(m, u) for m, u in rest if m == cluster.valuation
                      and (u - cluster.center) % p ** min(cluster.level, 6) == 0}
            assert 0 < len(inside) <= cluster.upper_bound, (f.terms, p, cluster)
            rest -= inside
            valuations.add(cluster.valuation)
        assert not rest, (f.terms, p, rest)
    assert valuations == {0, 1}


def _pth_power_cases(seed, count):
    """(f, p, planted): f = h(x^p), h a random sparse polynomial times
    (b^p y - a^p), sometimes squared, so that a/b is a root of f."""
    from oracle import random_sparse_poly

    rng = random.Random(seed)
    for case in range(count):
        p = (3, 5, 7)[case % 3]
        b = rng.choice([1, 2, p])
        a = rng.choice([k for k in range(-9, 10) if k and (b != p or k % p)])
        planted = Fraction(a, b)
        h = _times(random_sparse_poly(rng, max_terms=3, max_exp=5, coeff_bound=9),
                   _poly([(1, b**p), (0, -(a**p))]))
        if rng.random() < 0.3:
            h = _times(h, h)
        yield SparsePoly.from_dict({e * p: c for e, c in h.terms}), p, planted


def test_pth_power_inputs_match_oracle():
    # inputs whose exponents are all divisible by p: a certified report is the
    # oracle's inventory, and every root it leaves out lies in one of its
    # clusters, whose bound covers the roots there
    certified = clustered = 0
    for f, p, planted in _pth_power_cases(9300, 300):
        report = count_roots(f, p, OPTS)
        expected, total_mult = oracle_root_classes(f, p, 6)
        got = report_classes(report, 6)
        assert got <= expected, (f.terms, p)
        if report.fully_certified:
            certified += 1
            assert got == expected and report.count_with_multiplicity == total_mult, (f.terms, p)
            assert planted in {e.rational for e in report.entries}, (f.terms, p, planted)
        rest = expected - got
        for cluster in report.unresolved:
            inside = {(m, u) for m, u in rest if m == cluster.valuation
                      and (u - cluster.center) % p ** min(cluster.level, 6) == 0}
            assert len(inside) <= cluster.upper_bound, (f.terms, p, cluster)
            rest -= inside
            clustered += 1
        assert not rest, (f.terms, p, rest)
    assert certified >= 290 and clustered


@pytest.mark.parametrize("text, p, counts", [
    (f"x^{3**20} - 10", 3, (0, 0)),
    (f"x^{4 * 5**12} - 1", 5, (4, 4)),
    (f"x^{2 * 3**15} - 2*x^{3**15} + 1", 3, (1, 2)),
], ids=["x^(3^20)-10", "x^(4*5^12)-1", "(x^(3^15)-1)^2"])
def test_pth_power_inputs_with_huge_exponents(text, p, counts):
    start = time.perf_counter()
    report = count_roots(parse_poly(text), p, OPTS)
    assert time.perf_counter() - start < 1.0
    assert report.fully_certified
    assert (report.count_distinct, report.count_with_multiplicity) == counts


def test_count_rational_double_root():
    report = count_roots(parse_poly("4*x^2 - 4*x + 1"), 5, OPTS)
    assert report.fully_certified
    assert report.count_distinct == 1
    entry = report.entries[0]
    assert entry.certificate == EXACT_RATIONAL
    assert entry.rational == Fraction(1, 2)
    assert entry.multiplicity == 2


def test_count_integer_double_root_with_neighbor():
    # (x-2)^2 (x-7) has a double rational root sharing no class with 7 at p=5
    # expanded: x^3 - 11 x^2 + 32 x - 28
    report = count_roots(parse_poly("x^3 - 11*x^2 + 32*x - 28"), 5, OPTS)
    assert report.fully_certified
    mults = sorted((e.rational, e.multiplicity) for e in report.entries)
    assert mults == [(Fraction(2), 2), (Fraction(7), 1)]


def test_count_cohabiting_roots_same_class():
    # roots 1 (exact, simple) and 1+p in the same residue class at p=5
    # (x-1)(x-6)(x-2) = x^3 - 9x^2 + 20x - 12
    report = count_roots(parse_poly("x^3 - 9*x^2 + 20*x - 12"), 5, OPTS)
    assert report.fully_certified
    assert report.count_distinct == 3
    assert sorted(e.rational for e in report.entries if e.rational is not None) == [
        Fraction(1), Fraction(2), Fraction(6),
    ]


def test_count_negative_valuation_root():
    report = count_roots(parse_poly("5*x - 1"), 5, OPTS)
    assert report.fully_certified
    assert report.count_distinct == 1
    assert report.entries[0].valuation == -1


def test_count_irrational_multiple_root_stays_unresolved():
    # (x^2-2)^2 over Q_7: double roots at +-sqrt(2), not exactly representable
    report = count_roots(parse_poly("x^4 - 4*x^2 + 4"), 7, OPTS)
    assert report.count_with_multiplicity == 0
    assert not report.fully_certified
    assert sum(c.upper_bound for c in report.unresolved) == 4
    assert report.upper_bound_with_multiplicity == 4


def test_count_respects_depth_zero():
    opts = CountOptions(prec=40, depth=0)
    report = count_roots(parse_poly("x^20 - 10*x^2 + 9"), 3, opts)
    # torsion double roots are exact, no recursion needed for them; the
    # conjugate cluster around them cannot be chased at depth 0
    torsion = [e for e in report.entries if e.certificate == EXACT_TORSION]
    assert len(torsion) == 2


def test_count_rejects_bad_prime():
    with pytest.raises(PreconditionFailed):
        count_roots(parse_poly("x^2 - 1"), 4, OPTS)
    with pytest.raises(PreconditionFailed):
        count_roots(parse_poly("x^2 - 1"), 2, OPTS)


def test_monomial_has_no_roots():
    report = count_roots(parse_poly("7*x^3"), 5, OPTS)
    assert report.count_distinct == 0 and report.fully_certified


@pytest.mark.parametrize("poly, exact_root", [
    ({3: 1, 0: -2**1101}, 2**367),
    ({6: 1, 3: -2 * 5**120, 0: 5**240}, 5**40),
    ({6: 1, 3: -2 * 2**1200, 0: 2**2400}, 2**400),
], ids=["x^3-2^1101", "(x^3-5^120)^2", "(x^3-2^1200)^2"])
def test_count_cube_roots_beyond_float_range(poly, exact_root):
    # x^3 - 2^1101, (x^3 - 5^120)^2, (x^3 - 2^1200)^2: the rational root is
    # too large for a float and is reconstructed exactly from its digits
    report = count_roots(_poly(poly.items()), 3, OPTS)
    assert report.fully_certified
    assert (report.count_distinct, report.count_with_multiplicity) == (1, len(poly) - 1)
    entry = report.entries[0]
    assert entry.certificate == EXACT_RATIONAL and entry.rational == exact_root


def test_count_w1_at_a_million():
    report = count_roots(parse_poly("x^1000 - 5*x^3 + 7"), 10**6 + 3, OPTS)
    assert report.fully_certified
    assert (report.count_distinct, report.count_with_multiplicity) == (2, 2)


def test_count_when_folded_terms_all_cancel():
    # x^(2(p-1)) + x^(p-1) - 2 vanishes on every unit residue: the p-1
    # torsion points are simple roots, and x^(p-1) = -2 has no unit solution
    p = 101
    report = count_roots(parse_poly(f"x^{2 * (p - 1)} + x^{p - 1} - 2"), p, OPTS)
    assert report.fully_certified
    assert (report.count_distinct, report.count_with_multiplicity) == (p - 1, p - 1)
    assert sorted(e.value.unit_mod(1) for e in report.entries) == list(range(1, p))


# -- the unit-residue scan --------------------------------------------------


def _poly(terms):
    return SparsePoly.from_dict({e: Fraction(c) for e, c in terms})


def _brute_zeros(terms, p):
    return {r for r in range(1, p) if sum(c * pow(r, e, p) for e, c in terms) % p == 0}


def _brute_order(r, p):
    order, x = 1, r
    while x != 1:
        x, order = x * r % p, order + 1
    return order


def _check_scan(terms, p):
    zeros = _unit_zeros(_reduce_mod_p(_poly(terms), p), p)
    assert [r for r, _ in zeros] == sorted(_brute_zeros(terms, p)), (terms, p)
    for r, i in zeros[:3]:
        assert (p - 1) // math.gcd(i, p - 1) == _brute_order(r, p), (terms, p, r)
    return zeros


def test_unit_zeros_match_brute_force():
    rng = random.Random(2013)
    primes = [3, 5, 7, 11, 13] + [q for q in range(17, 20_000) if is_prime(q)]
    for case in range(40):
        p = primes[case] if case < 5 else rng.choice(primes)
        nterms = rng.randint(2, 4)
        if case % 3 == 0:
            # exponents that are multiples of p
            exps = [p * k for k in rng.sample(range(10**6 // p + 1), nterms)]
        else:
            exps = rng.sample(range(10**6 + 1), nterms)
        coeffs = [rng.choice([-1, 1]) * rng.randint(1, 20) for _ in exps]
        if all(c % p == 0 for c in coeffs):
            coeffs[0] = 1
        terms = list(zip(exps, coeffs))
        if case % 2 and 0 not in exps:
            # force a zero at a random unit through the constant term
            r0 = rng.randrange(1, p)
            terms.append((0, -sum(c * pow(r0, e, p) for e, c in terms) % p or p))
        _check_scan(terms, p)


# 7681 - 1 is 15 walk blocks of 512, 19997 - 1 is 39 blocks and 28 more
@pytest.mark.parametrize("p", [3, 5, 101, 7_681, 19_997])
def test_unit_zeros_when_folded_terms_all_cancel(p):
    for terms in ([(p - 1, 1), (0, -1)], [(2 * (p - 1), 1), (0, -1)],
                  [(5 * p * (p - 1), 3), (p - 1, -1), (0, -2)]):
        zeros = _unit_zeros(_reduce_mod_p(_poly(terms), p), p)
        assert [r for r, _ in zeros] == list(range(1, p))


def test_unit_zeros_across_walk_blocks():
    # the walk takes WALK_BLOCK exponents at a time: p - 1 below the block,
    # a multiple of it and not one, with zeros planted at logs k*block - 1
    # and k*block, on both sides of each block boundary
    block = rootcount.WALK_BLOCK
    rng = random.Random(20261020)
    below = next(q for q in range(block, 2, -1) if is_prime(q))
    exact = next(q for q in itertools.count(block + 1, block) if is_prime(q))
    ragged = next(q for q in itertools.count(3 * block + 2) if is_prime(q) and (q - 1) % block)
    for p in (below, exact, ragged):
        gamma, _ = rootcount._unit_group(p)
        for k in range(1, 5):
            logs = (k * block - 1) % (p - 1), k * block % (p - 1)
            r1, r2 = (pow(gamma, i, p) for i in logs)
            s, q = r1 + r2, r1 * r2
            e, c = rng.randrange(3, 10**6), rng.randrange(1, p)
            # (x - r1)(x - r2)(x^e + c)
            terms = [(e + 2, 1), (e + 1, -s), (e, q), (2, c), (1, -c * s), (0, c * q)]
            zeros = _check_scan(terms, p)
            assert (r1, logs[0]) in zeros and (r2, logs[1]) in zeros, (p, k)
        for _ in range(5):
            exps = rng.sample(range(10**6 + 1), rng.randint(2, 5))
            _check_scan([(e, rng.randint(-20, 20) or 1) for e in exps], p)


def test_unit_zeros_of_the_quadratic_character():
    # x^((p-1)/2) - 1 vanishes on the (p-1)/2 squares: a zero in every other step
    p = 20_011
    terms = [((p - 1) // 2, 1), (0, -1)]
    zeros = _check_scan(terms, p)
    assert [i for _, i in zeros if i % 2] == [] and len(zeros) == (p - 1) // 2


def test_unit_zeros_hold_no_table_of_size_p():
    # at p = 10^6 + 3 a list of p residues alone would take over 8 MB; the
    # walk's tables stay at WALK_BLOCK entries a term
    p = 1_000_003
    support = _reduce_mod_p(_poly([(1000, 1), (0, -7)]), p)
    tracemalloc.start()
    try:
        _unit_zeros(support, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def _brute_digit_zeros(h, p):
    """(digit, order) of every zero of h mod p, by synthetic division."""
    hbar = [c % p for c in h]
    while hbar and hbar[-1] == 0:
        hbar.pop()
    zeros = []
    for digit in range(p):
        order, rest = 0, hbar
        while len(rest) > 1:
            quot, acc = [], 0
            for c in reversed(rest):
                acc = (acc * digit + c) % p
                quot.append(acc)
            if quot.pop():
                break
            order, rest = order + 1, quot[::-1]
        if order:
            zeros.append((digit, order))
    return zeros


def _dense_product(factors):
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_digit_zeros_match_synthetic_division(p):
    rng = random.Random(4100 + p)
    kinds = set()
    for case in range(60):
        factors = [[rng.randint(-50, 50) for _ in range(rng.randint(1, 8))] or [1]]
        for _ in range(rng.randint(0, 4)):
            # a repeated digit, the digit 0 among them
            digit = rng.choice([0, rng.randrange(p)])
            factors += [[-digit + p * rng.randint(-3, 3), 1]] * rng.randint(1, 4)
        if case % 5 == 0:
            factors.append([-1] + [0] * (p - 2) + [1])  # every unit is a zero
        h = _dense_product(factors)[:41]
        if all(c % p == 0 for c in h):
            continue
        want = _brute_digit_zeros(h, p)
        assert rootcount._digit_zeros(h, p) == want, (h, p)
        kinds.update(("repeated" if k > 1 else "simple", d == 0) for d, k in want)
        kinds.add(("all units", len([d for d, _ in want if d]) == p - 1))
    assert {("repeated", True), ("repeated", False), ("all units", True)} <= kinds


@pytest.mark.parametrize("p", [3, 5, 7])
def test_residue_order_of_frobenius_powers_matches_synthetic_division(p):
    # h(x^(p^s)) = h(x)^(p^s) over F_p: the order of a zero scales by p^s
    rng = random.Random(4300 + p)
    scaled = 0
    for case in range(40):
        s = case % 5
        if p**s * 2 > 300:
            continue
        factors = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] or [1]]
        factors += [[-rng.randrange(1, p), 1]] * rng.randint(0, 3)
        h = [c % p for c in _dense_product(factors)]
        while h and not h[-1]:
            h.pop()
        h = [c for k, c in enumerate(h) if k * p**s <= 300]
        if sum(1 for c in h if c) < 2:
            continue
        spread = [0] * ((len(h) - 1) * p**s + 1)
        for k, c in enumerate(h):
            spread[k * p**s] = c
        support = {e: c for e, c in enumerate(spread) if c}
        want = dict(_brute_digit_zeros(spread, p))
        for r in range(1, p):
            assert rootcount._residue_order(support, p, r) == want.get(r, 0), (h, p, s, r)
            scaled += s > 0 and r in want
    assert scaled


# -- oracle equivalence (mini corpus; the full run is in acceptance) ---------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_oracle_equivalence_mini(p):
    from oracle import random_sparse_poly

    rng = random.Random(4200 + p)
    for _ in range(60):
        f = random_sparse_poly(rng, max_exp=30)
        report = count_roots(f, p, CountOptions(prec=40, depth=8))
        got = report_classes(report, 6)
        expected, total_mult = oracle_root_classes(f, p, 6)
        assert report.fully_certified, (f.terms, report.unresolved)
        assert got == expected, f.terms
        assert report.count_with_multiplicity == total_mult, f.terms


def test_slope_partition_property():
    from oracle import random_sparse_poly

    rng = random.Random(99)
    for _ in range(40):
        f = random_sparse_poly(rng, max_exp=25)
        p = rng.choice([3, 5, 7])
        report = count_roots(f, p, OPTS)
        stripped, _ = f.strip_lowest()
        if stripped.num_terms() <= 1:
            continue
        np_ = newton_polygon(scale_substitute(stripped, p, 0), p)
        allowed = set(np_.integer_root_valuations())
        for e in report.entries:
            assert e.valuation in allowed


def test_report_never_exceeds_own_upper_bound():
    from oracle import random_sparse_poly

    rng = random.Random(123)
    for _ in range(30):
        f = random_sparse_poly(rng, max_exp=20)
        report = count_roots(f, 3, OPTS)
        assert report.count_with_multiplicity <= report.upper_bound_with_multiplicity


# -- bound verdicts ---------------------------------------------------------


def test_verify_upper_bounds_trinomial_q3():
    report = count_roots(parse_poly("x^20 - 10*x^2 + 9"), 3, OPTS)
    checks = verify_upper_bounds(report, 2, 3)
    main = checks[0]
    assert main.value == 6 and not main.applicable and main.satisfied is None
    assert main.observed == 8  # p = 3 = t+1: the bound does not constrain this


def test_verify_upper_bounds_binomial_q5():
    report = count_roots(parse_poly("x^4 - 1"), 5, OPTS)
    checks = verify_upper_bounds(report, 1, 5)
    main = checks[0]
    assert main.value == 4 and main.applicable and main.satisfied


def test_torsion_closure_property():
    # exponents all divisible by p-1: root set closed under torsion scaling
    report = count_roots(parse_poly("x^8 - 6*x^4 + 8"), 5, OPTS)
    # x^4 = 2 or 4: 2 is not a 4th power residue... count what is certified
    classes = {e.value.unit_mod(1) for e in report.entries}
    f = parse_poly("x^8 - 6*x^4 + 8")
    from padroot.padic import teichmuller

    for e in report.entries:
        for a in range(1, 5):
            xi = teichmuller(5, a, 12).residue(12)
            scaled = xi * e.value.unit_mod(12) % 5**12
            assert f.eval_mod(scaled * pow(5, max(e.valuation, 0), 5**12), 5, 10) == 0


def _times(f, g):
    out = {}
    for e, c in f.terms:
        for k, d in g.terms:
            out[e + k] = out.get(e + k, 0) + c * d
    return SparsePoly.from_dict(out)


def _planted_cases(seed, count):
    """(f, p, m, mu, kind, planted): (x^d - p^(m d))^mu, which vanishes at
    every p^m * zeta with zeta^d = 1, or (b x - a p^m)^mu, times a random
    cofactor, for m in -2..2 and mu in 1..3."""
    from oracle import random_sparse_poly

    rng = random.Random(seed)
    for case in range(count):
        p = rng.choice([3, 5, 7])
        m, mu = case % 5 - 2, case // 5 % 3 + 1
        if case // 15 % 2:
            d = rng.choice([d for d in range(1, p) if (p - 1) % d == 0])
            factor, kind, planted = _poly([(d, 1), (0, -Fraction(p) ** (m * d))]), "torsion", d
        else:
            a, b = (rng.choice([k for k in range(1, 12) if k % p]) for _ in range(2))
            planted = rng.choice([-1, 1]) * Fraction(a, b) * Fraction(p) ** m
            factor, kind = _poly([(1, planted.denominator), (0, -planted.numerator)]), "rational"
        f = random_sparse_poly(rng, max_terms=3, max_exp=4, coeff_bound=9)
        for _ in range(mu):
            f = _times(f, factor)
        yield f, p, m, mu, kind, planted


def test_planted_exact_roots_match_oracle():
    # torsion points and rationals of valuation -2..2 at multiplicity 1..3:
    # every modular screen in front of an exact test keeps the true root
    for f, p, m, mu, kind, planted in _planted_cases(1102, 90):
        report = count_roots(f, p, OPTS)
        expected, total_mult = oracle_root_classes(f, p, 6)
        assert report_classes(report, 6) <= expected, f.terms
        if report.fully_certified:
            assert report_classes(report, 6) == expected, f.terms
            assert report.count_with_multiplicity == total_mult, f.terms
        if kind == "rational":
            assert any(e.rational == planted and e.multiplicity >= mu
                       for e in report.entries), (f.terms, p, planted)
        elif mu > 1:
            for a in range(1, p):
                if pow(a, planted, p) == 1:
                    assert any(e.torsion is not None and e.valuation == m
                               and e.value.unit_mod(1) == a and e.multiplicity >= mu
                               for e in report.entries), (f.terms, p, a)


def test_multiple_rational_beside_close_simple_roots_matches_oracle():
    # (b x - a)^k times (x - c)^2 - p^(2j) d, c = a/b mod p and d a square
    # mod p: the planted rational shares its class with two simple roots of
    # Q_p agreeing mod p^j, rational when d is a square and irrational
    # otherwise.  The multiple root always leaves a cluster in the class's
    # first refinement, so the derivative search must find a/b there.  The
    # oracle refines digit by digit, in time growing like p^j for such a
    # pair, so it is asked only up to p^j = 3^9; the pair is a cluster past
    # the depth budget, and the report still accounts for all k + 2 roots
    rng = random.Random(20261019)
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        planted = Fraction(1)
        while planted.denominator == 1:  # an integer could be one of the pair
            a, b = rng.sample([n for n in range(1, 12) if n % p], 2)
            planted = rng.choice([-1, 1]) * Fraction(a, b)
        k, j = rng.choice([2, 3]), rng.randint(1, 30)
        c = planted.numerator * pow(planted.denominator, -1, p) % p + p * rng.randint(0, 9)
        d = rng.choice([n for n in range(1, 4 * p) if n % p and pow(n, (p - 1) // 2, p) == 1])
        f = _poly([(2, 1), (1, -2 * c), (0, c * c - p ** (2 * j) * d)])
        for _ in range(k):
            f = _times(f, _poly([(1, planted.denominator), (0, -planted.numerator)]))
        report = count_roots(f, p, OPTS)
        assert [(e.multiplicity, e.certificate) for e in report.entries
                if e.rational == planted] == [(k, EXACT_RATIONAL)], (f.terms, p)
        assert report.upper_bound_with_multiplicity == k + 2, (f.terms, p)
        if p**j <= 3**9:
            assert report_classes(report, 6) <= oracle_root_classes(f, p, 6)[0], (f.terms, p)


# -- rational labels: oracle, metamorphic relations, reconstruction edges -----


def _divisors(n):
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


def _oracle_rationals(f):
    """{rational root: multiplicity} of f in Q^* by divisor pairs, exactly."""
    stripped, _ = f.strip_lowest()
    den = math.lcm(*(c.denominator for _, c in stripped.terms))
    const, lead = (int(stripped.terms[i][1] * den) for i in (0, -1))
    out = {}
    for a in _divisors(const):
        for b in _divisors(lead):
            for x in {Fraction(a, b), Fraction(-a, b)}:
                deriv, mult = stripped, 0
                while deriv.eval_exact(x) == 0:
                    deriv, mult = deriv.derivative(), mult + 1
                if mult:
                    out[x] = mult
    return out


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_rational_labels_match_divisor_oracle(p):
    from oracle import random_sparse_poly

    rng = random.Random(8100 + p)
    certified = 0
    for _ in range(80):
        f = random_sparse_poly(rng, max_terms=4, max_exp=50, coeff_bound=20)
        report = count_roots(f, p, OPTS)
        if report.fully_certified:
            certified += 1
            assert _labels(report) == _oracle_rationals(f), f.terms
    assert certified >= 70


def _entry_key(e):
    return (e.valuation, e.value.unit_mod(min(e.value.prec, 12)), e.multiplicity,
            e.certificate, e.rational, e.torsion, e.val_fprime,
            None if e.hensel is None else (e.hensel.val_f_r0, e.hensel.val_fprime_r0))


def _transform(f, scale=1, reverse=False, dilate=1):
    """c * f, x^deg f(1/x) and f(dilate * x) as sparse polynomials."""
    deg = f.degree()
    return SparsePoly.from_dict({
        (deg - e if reverse else e): c * scale * Fraction(dilate) ** e for e, c in f.terms})


def _metamorphic_cases(seed, count=50):
    from oracle import random_sparse_poly

    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice([3, 5, 7, 11])
        yield p, random_sparse_poly(rng, max_terms=4, max_exp=40, coeff_bound=20), rng


def test_scaled_polynomial_has_identical_report():
    for p, f, rng in _metamorphic_cases(9001):
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12) * p ** rng.randint(0, 3),
                     rng.choice([1, 2, p]))
        ref, got = count_roots(f, p, OPTS), count_roots(_transform(f, scale=c), p, OPTS)
        assert [_entry_key(e) for e in got.entries] == [_entry_key(e) for e in ref.entries]
        assert [vars(u) for u in got.unresolved] == [vars(u) for u in ref.unresolved]


def test_val_fprime_ignores_p_content_on_the_descent_path():
    # x^3 - 8 at p = 3, every exponent divisible by p, and the same with a
    # p-content of 9: v(f'(2)) = v(12) = 1 either way
    for text in ("x^3 - 8", "9*x^3 - 72"):
        (entry,) = count_roots(parse_poly(text), 3, OPTS).entries
        assert (entry.rational, entry.val_fprime) == (Fraction(2), 1), text


def test_reciprocal_negates_valuations_and_inverts_labels():
    for p, f, _ in _metamorphic_cases(9002):
        ref, got = count_roots(f, p, OPTS), count_roots(_transform(f, reverse=True), p, OPTS)
        if not (ref.fully_certified and got.fully_certified):
            continue
        assert sorted((-e.valuation, e.multiplicity) for e in ref.entries) == \
            sorted((e.valuation, e.multiplicity) for e in got.entries), f.terms
        assert {1 / x: mu for x, mu in _labels(ref).items()} == _labels(got), f.terms


def test_dilation_shifts_valuations_and_scales_labels():
    for p, f, rng in _metamorphic_cases(9003):
        j = rng.randint(-2, 2)
        ref = count_roots(f, p, OPTS)
        got = count_roots(_transform(f, dilate=Fraction(p) ** j), p, OPTS)
        if not (ref.fully_certified and got.fully_certified):
            continue
        assert sorted((e.valuation - j, e.multiplicity) for e in ref.entries) == \
            sorted((e.valuation, e.multiplicity) for e in got.entries), f.terms
        assert {x / Fraction(p) ** j: mu for x, mu in _labels(ref).items()} == \
            _labels(got), f.terms


def test_label_needs_more_digits_than_prec():
    # (5^60 x - 7^50)(x - 2) at p = 3: 7^50/5^60 is fixed only by ~178 digits
    f = _poly([(2, 5**60), (1, -(2 * 5**60 + 7**50)), (0, 2 * 7**50)])
    report = count_roots(f, 3, OPTS)
    assert report.fully_certified
    assert _labels(report) == {Fraction(7**50, 5**60): 1, Fraction(2): 1}
    assert all(e.certificate == HENSEL_SIMPLE for e in report.entries)


@pytest.mark.parametrize("p, certificates", [
    (3, {Fraction(2, 9): EXACT_RATIONAL, Fraction(3): HENSEL_SIMPLE}),
    (5, {Fraction(2, 9): EXACT_RATIONAL, Fraction(3): EXACT_RATIONAL}),
])
def test_double_rational_root(p, certificates):
    # (9x - 2)^2 (x - 3): 2/9 has valuation -2 at p = 3; at p = 5 the simple
    # root 3 shares a residue class with the double root 2/9
    report = count_roots(parse_poly("81*x^3 - 279*x^2 + 112*x - 12"), p, OPTS)
    assert report.fully_certified
    assert _labels(report) == {Fraction(2, 9): 2, Fraction(3): 1}
    assert {e.rational: e.certificate for e in report.entries} == certificates
    if p == 3:
        assert {e.rational: e.valuation for e in report.entries} == {
            Fraction(2, 9): -2, Fraction(3): 1}
