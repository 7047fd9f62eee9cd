from fractions import Fraction

import pytest

from padroot.bounds import sparse_lower_bound
from padroot.errors import CapExceeded, PreconditionFailed
from padroot.extremal import (
    BuildOptions,
    binomial_base,
    build_family,
    dilate_normalize,
    sharp_trinomial,
)
from padroot.padic import fraction_valuation
from padroot.rootcount import count_roots
from padroot.sparsepoly import format_poly, newton_polygon, parse_poly


def test_sharp_trinomial_q3():
    assert format_poly(sharp_trinomial(3)) == "x^20 - 10*x^2 + 9"


def test_sharp_trinomial_q5():
    assert format_poly(sharp_trinomial(5)) == "x^2504 - 626*x^4 + 625"


def test_sharp_trinomial_cap():
    # 6*(1+7^6) = 705900 stays under the default cap; q = 11 blows past it
    f7 = sharp_trinomial(7)
    assert f7.degree() == 705900
    with pytest.raises(CapExceeded):
        sharp_trinomial(11)
    with pytest.raises(PreconditionFailed):
        sharp_trinomial(4)


def test_dilate_normalize_examples():
    # (x^4 - 1, p=5) -> (x^4 - 625)/(-624)
    out = dilate_normalize(parse_poly("x^4 - 1"), 5)
    assert out.terms == (
        (0, Fraction(-625, -624)),
        (4, Fraction(1, -624)),
    )
    out3 = dilate_normalize(parse_poly("x^2 - 1"), 3)
    assert out3.terms == ((0, Fraction(9, 8)), (2, Fraction(-1, 8)))
    out5 = dilate_normalize(parse_poly("x^2 - 1"), 5)
    assert out5.terms == ((0, Fraction(25, 24)), (2, Fraction(-1, 24)))


def test_dilate_normalize_integrality():
    for q in (3, 5, 7):
        out = dilate_normalize(binomial_base(q), q)
        assert all(fraction_valuation(c, q) >= 0 for _, c in out.terms)
        assert out.eval_exact(1) == 1


def test_verify_sharp_trinomial_q3():
    # a double root at each torsion point, q - 1 simple roots of valuation 1,
    # and at least the improved lower bound for t = 2
    q = 3
    report = count_roots(sharp_trinomial(q), q)
    torsion = [e for e in report.entries
               if e.certificate == "ExactTorsion" and e.valuation == 0]
    assert len(torsion) == q - 1 and all(e.multiplicity == 2 for e in torsion)
    lifted = [e for e in report.entries if e.valuation == 1 and e.multiplicity == 1]
    assert len(lifted) == q - 1
    assert report.count_with_multiplicity >= sparse_lower_bound(2, q).improved == 6


def test_verify_sharp_trinomial_hensel_witness():
    # v(f(q)) = 2(q-1) and v(f'(q)) = q-2 at q = 3: 4 > 2*1
    f = sharp_trinomial(3)
    assert fraction_valuation(f.eval_exact(3), 3) == 4
    assert fraction_valuation(f.derivative().eval_exact(3), 3) == 1


def test_build_family_base():
    out = build_family(1, 5)
    assert out.poly.terms == parse_poly("x^4 - 1").terms
    assert out.report.count_distinct == 4
    assert out.target_count == 4
    assert out.strict_distribution


def test_build_family_t2_q3():
    out = build_family(2, 3)
    assert out.strict_distribution
    assert out.report.count_with_multiplicity >= 6
    assert all(e.multiplicity == 1 for e in out.report.entries)
    # conditions on the shape
    assert out.poly.num_terms() == 3
    assert out.poly.leading_coefficient() == 1
    assert out.poly.constant_term() != 0
    assert all(e % 2 == 0 for e in out.poly.exponents())
    slopes = newton_polygon(out.poly, 3).slopes()
    assert slopes == [Fraction(-1), Fraction(0)]
    # construction log carries the threshold decisions
    kinds = {k for row in out.construction_log for k in row}
    assert {"gamma", "gamma_prime", "alpha_minimum", "eps_valuation"} <= kinds


def test_dilated_t2_q3_member_is_x_to_the_degree_mod_deep_power():
    # why (3, 3) cannot reach [2, 2, 1]: the dilated (2, 3) member is
    # x^deg mod 3^gap with gap >= deg - 2, and x -> x^m is injective on
    # 1+3Z_3, so two new roots in one disk force 3^gap | alpha_3 - alpha_2
    hhat = dilate_normalize(build_family(2, 3).poly, 3)
    deg = hhat.degree()
    lower = [fraction_valuation(c, 3) for e, c in hhat.terms if e != deg]
    assert lower and all(v >= deg - 2 for v in lower)
    # value 1 at x = 1, so the leading coefficient is 1 to the same depth
    assert fraction_valuation(hhat.leading_coefficient() - 1, 3) >= deg - 2


def test_build_family_rejects_bad_args():
    with pytest.raises(PreconditionFailed):
        build_family(2, 4)
    with pytest.raises(PreconditionFailed):
        build_family(0, 3)


def test_build_family_t3_q3_falls_back_to_total_form():
    out = build_family(3, 3)
    assert out.report.count_with_multiplicity >= 10
    assert all(e.multiplicity == 1 for e in out.report.entries)
    assert not out.strict_distribution  # the per-disk [2,2,1] form is out of reach
    slopes = newton_polygon(out.poly, 3).slopes()
    assert slopes == [Fraction(-2), Fraction(-1), Fraction(0)]
    # the digit-1 disk total still reaches 2t-1 = 5
    tower = [e for e in out.report.entries
             if 0 <= e.valuation < 3 and e.value.unit_mod(1) == 1]
    assert len(tower) >= 5
