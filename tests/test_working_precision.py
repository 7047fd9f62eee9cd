"""The working precision is found on demand, apart from `--prec`.

`--prec` sets the digits each reported root carries.  The counter doubles
its working digits while a refinement runs out of them, up to
`MAX_WORKING_PREC`, so the certified totals and root classes do not depend
on `--prec`, and an exact point is never listed twice.
"""

import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padroot.rootcount import CountOptions, count_roots
from padroot.sparsepoly import SparsePoly, parse_poly

from test_golden_reports import golden_inputs


def _from_roots(roots) -> SparsePoly:
    """The monic polynomial with the given roots, repeated ones repeated."""
    coeffs = [Fraction(1)]
    for root in roots:
        shifted = [Fraction(0)] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= root * c
        coeffs = shifted
    return SparsePoly.from_dict({e: c for e, c in enumerate(coeffs) if c})


def _summary(report):
    """Totals and root classes mod p: what `--prec` must not change."""
    return (report.count_distinct, report.count_with_multiplicity,
            report.upper_bound_with_multiplicity,
            sorted((e.valuation, e.value.unit_mod(1), e.multiplicity)
                   for e in report.entries),
            sorted((c.valuation, c.center % report.p, c.upper_bound)
                   for c in report.unresolved))


def _exact_points(report) -> list[Fraction]:
    return [e.rational for e in report.entries if e.rational is not None]


def test_golden_corpus_counts_do_not_depend_on_prec():
    corpus = [(p, parse_poly(text)) for name, p, text in golden_inputs()
              if name.startswith("corpus")]
    assert len(corpus) == 400
    for p, f in corpus:
        default = _summary(count_roots(f, p))
        for prec in (1, 2, 4, 8):
            assert _summary(count_roots(f, p, CountOptions(prec=prec))) == default, \
                (p, f.terms, prec)


@pytest.mark.parametrize("prec, p, text, labels", [
    # (x-1)(x-6)(x-2): 6 shares the class of the torsion point 1
    (8, 5, "x^3-9*x^2+20*x-12", {1: 1, 2: 1, 6: 1}),
    # (9x-2)^2 (x-3): the simple root 3 shares the class of the double root 2/9
    (9, 5, "81*x^3-279*x^2+112*x-12", {Fraction(2, 9): 2, 3: 1}),
    # (x-1)(x-1-5^19)(x-3): 1 + 5^19 is 19 digits from the torsion point 1
    (40, 5, "x^3-19073486328130*x^2+76293945312507*x-57220458984378",
     {1: 1, 1 + 5**19: 1, 3: 1}),
])
def test_low_precision_certifies_the_exact_roots(prec, p, text, labels):
    report = count_roots(parse_poly(text), p, CountOptions(prec=prec))
    assert report.fully_certified
    assert {e.rational: e.multiplicity for e in report.entries} == labels
    assert all(e.value.prec == prec for e in report.entries)


def _near_torsion_quartic(p: int) -> SparsePoly:
    """(x-1)^2 (x^2 - (2+p^41) x + 1): the quadratic's discriminant
    p^41 (4 + p^41) has odd valuation, so the double 1 is the only root."""
    s = 2 + p**41
    return parse_poly(f"x^4 - {s + 2}*x^3 + {2 * s + 2}*x^2 - {s + 2}*x + 1")


@pytest.mark.parametrize("p, f, prec, expected", [
    # a root of f' within p^-40 of 1 must not relabel 1 a second time
    *[(p, _near_torsion_quartic(p), 40, {1: 2}) for p in (3, 5, 7)],
    (3, _near_torsion_quartic(3), 1, {1: 2}),
    # 4 shares the class of the triple torsion point 1
    (3, _from_roots([1, 1, 1, 4]), 1, {1: 3, 4: 1}),
])
def test_a_torsion_point_is_listed_once(p, f, prec, expected):
    report = count_roots(f, p, CountOptions(prec=prec))
    points = _exact_points(report)
    assert len(points) == len(set(points))
    assert {e.rational: e.multiplicity for e in report.entries} == expected


C600 = 1 + 5**600


@pytest.mark.parametrize("f, upper", [
    (_from_roots([1, C600, 3]), 3),
    (parse_poly(f"x^1001 - {C600}*x^1000 - x + {C600}"), 5),  # (x^1000 - 1)(x - C600)
])
def test_a_shortfall_at_the_cap_stays_a_precision_cluster(f, upper):
    start = time.perf_counter()
    report = count_roots(f, 5)
    assert time.perf_counter() - start < 5
    assert [cl.reason for cl in report.unresolved] == ["precision"]
    assert report.upper_bound_with_multiplicity == upper


@settings(max_examples=80)
@given(p=st.sampled_from([3, 5, 7]),
       a=st.integers(-30, 30).filter(bool), b=st.integers(1, 30),
       c=st.integers(-30, 30).filter(bool), k=st.integers(1, 30),
       squared=st.booleans(), prec=st.integers(1, 8))
def test_near_roots_at_low_prec_match_the_default(p, a, b, c, k, squared, prec):
    near = Fraction(a, b)
    roots = [near, near + Fraction(p**k * c, b), Fraction(c)] + [near] * squared
    truth = Counter(root for root in roots if root)
    f = _from_roots(roots)
    default = count_roots(f, p)
    low = count_roots(f, p, CountOptions(prec=prec))
    assert _summary(low) == _summary(default)
    for report in (default, low):
        points = _exact_points(report)
        assert len(points) == len(set(points))
        assert all(truth[e.rational] == e.multiplicity
                   for e in report.entries if e.rational is not None)
        if report.fully_certified:
            assert report.count_with_multiplicity == sum(truth.values())
