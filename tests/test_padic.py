import math
import random
from fractions import Fraction

import pytest

from padroot.errors import PrecisionExhausted, PreconditionFailed
from padroot.padic import (
    PadicNum,
    fraction_valuation,
    hensel_lift,
    pth_roots_of_unity,
    solve_power_congruences,
    teichmuller,
)
from padroot.sparsepoly import parse_poly


def test_from_rational_basics():
    a = PadicNum.from_rational(9, 1, 3, 4)
    assert a.val == 2 and a.unit == 1

    b = PadicNum.from_rational(1, 625, 5, 3)
    assert b.val == -4 and b.unit == 1

    # -624/625 = (-625+1)/625: unit congruent to 1 mod 25
    c = PadicNum.from_rational(-624, 625, 5, 2)
    assert c.val == -4 and c.unit == 1
    # cross-check by modular inverse: unit = -624 * inv(1) mod 25
    assert (-624) % 25 == 1


def test_exact_zero():
    z = PadicNum.from_rational(0, 7, 5, 3)
    assert z.is_exact_zero()
    assert z.valuation() == math.inf


def random_fraction(rng, p):
    num = rng.randint(-500, 500)
    while num == 0:
        num = rng.randint(-500, 500)
    den = rng.randint(1, 500)
    return Fraction(num, den)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_valuation_arithmetic_properties(p):
    rng = random.Random(1000 + p)
    for _ in range(200):
        qx = random_fraction(rng, p)
        qy = random_fraction(rng, p)
        x = PadicNum.from_fraction(qx, p, 30)
        y = PadicNum.from_fraction(qy, p, 30)
        assert (x * y).valuation() == x.valuation() + y.valuation()
        s = x + y
        vx, vy = fraction_valuation(qx, p), fraction_valuation(qy, p)
        exact_sum = qx + qy
        if exact_sum == 0:
            assert s.is_bottom() or s.is_exact_zero()
            continue
        v_true = fraction_valuation(exact_sum, p)
        if s.is_bottom():
            assert v_true >= s.floor
        else:
            assert s.valuation() == v_true
        assert v_true >= min(vx, vy)
        if vx != vy:
            assert v_true == min(vx, vy)


def test_add_cancellation_gives_bottom():
    p = 5
    x = PadicNum.from_rational(1, 1, p, 4)
    y = PadicNum.from_rational(-1, 1, p, 4)
    assert (x + y).is_bottom()
    assert (x + y).floor == 4


def test_division_by_bottom_is_hard_error():
    p = 5
    x = PadicNum.from_rational(2, 1, p, 4)
    bottom = PadicNum.bottom(p, 4)
    with pytest.raises(PrecisionExhausted):
        x / bottom
    with pytest.raises(ZeroDivisionError):
        x / PadicNum.zero(p)


def test_precision_min_rule():
    p = 7
    x = PadicNum.from_rational(3, 1, p, 10)
    y = PadicNum.from_rational(5, 1, p, 4)
    assert (x * y).prec == 4
    assert (x + y).abs_prec() == 4


def test_residue_and_precision_errors():
    x = PadicNum.from_rational(10, 1, 5, 3)  # 2*5, known mod 5^4
    assert x.residue(4) == 10
    with pytest.raises(PrecisionExhausted):
        x.residue(5)


# -- Hensel lifting ------------------------------------------------------


def brute_root_mod(f, p, k, residue_of):
    """Exhaustive oracle: the unique root of f mod p^k over a residue class."""
    modulus = p**k
    hits = [r for r in range(modulus)
            if f.eval_mod(r, p, k) == 0 and r % p == residue_of]
    assert len(hits) == 1
    return hits[0]


def start(residue, p, known=8):
    """A Hensel start: the integer residue, known to `known` digits."""
    return PadicNum(p, "num", 0, residue, known)


def test_hensel_sqrt2_mod7():
    f = parse_poly("x^2 - 2")
    expected = brute_root_mod(f, 7, 3, 3)
    assert expected == 108
    root, cert = hensel_lift(f, start(3, 7), prec=3)
    assert root.residue(3) == 108
    assert cert.val_f_r0 == 1 and cert.val_fprime_r0 == 0


def test_hensel_precondition_violation():
    f = parse_poly("x^2 - 2")
    with pytest.raises(PreconditionFailed):
        hensel_lift(f, start(1, 5), prec=3)


def test_hensel_derivative_valuation_stable():
    # v(f'(r)) = v(f'(r0)) after lifting
    f = parse_poly("x^3 - 10*x + 12")  # root near 2 mod 7: 8-20+12=0 exactly
    root, cert = hensel_lift(f, start(2, 7), prec=12)
    fp = f.derivative()
    v_at_root = fp.eval_mod(root.residue(12), 7, 12)
    from padroot.padic import int_valuation

    assert int_valuation(v_at_root, 7) == cert.val_fprime_r0


def test_hensel_derivative_valuation_one():
    # (x-1)(x-6) at p = 5: each root has v(f') = 1, so r0 needs 3 digits
    f = parse_poly("x^2 - 7*x + 6")
    root, cert = hensel_lift(f, start(1, 5, known=3), prec=10)
    assert root.residue(10) == 1
    assert (cert.val_f_r0, cert.val_fprime_r0) == (3, 1)
    with pytest.raises(PrecisionExhausted):
        hensel_lift(f, start(1, 5, known=2), prec=10)


def test_hensel_high_precision_root_squares_back():
    f = parse_poly("x^2 - 2")
    root, _ = hensel_lift(f, start(3, 7), prec=30)
    r = root.residue(30)
    assert pow(r, 2, 7**30) == 2


# -- Teichmuller ---------------------------------------------------------


def test_teichmuller_trivial():
    assert teichmuller(5, 1, 8).residue(8) == 1


def test_teichmuller_brute_force_examples():
    # p=5, residue 2, two digits: scan {2, 7, 12, 17, 22} for x^4 = 1 mod 25
    hits = [x for x in range(2, 25, 5) if pow(x, 4, 25) == 1]
    assert hits == [7]
    assert teichmuller(5, 2, 2).residue(2) == 7

    # p=3, residue 2: the lift is -1
    assert teichmuller(3, 2, 4).residue(4) == 80


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_teichmuller_grid(p):
    for n in (2, 5, 9):
        points = [teichmuller(p, a, n) for a in range(1, p)]
        for pt in points:
            assert pow(pt.residue(n), p - 1, p**n) == 1
        assert len({pt.residue(1) for pt in points}) == p - 1


# -- p-th roots of unity ---------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pth_roots_of_unity(p):
    roots = pth_roots_of_unity(p, 6)
    assert len(roots) == 1
    assert next(iter(roots)).residue(6) == 1


def test_pth_roots_exhaustive_check_p7():
    # residues solving r^7 = 1 mod 7 are only r = 1 (Fermat) ...
    assert [r for r in range(1, 7) if pow(r, 7, 7) == 1] == [1]
    # ... and every near-solution mod 7^6 already collapses onto the exact
    # root 1: no second root can hide in another disk
    survivors = [r for r in range(1, 7**6) if pow(r, 7, 7**6) == 1]
    assert all(r % 7**5 == 1 for r in survivors)


# -- exponent chains -------------------------------------------------------


def test_power_congruence_trivial_target():
    assert solve_power_congruences(6, 1, 5, 1, divisor=4, minimum=0) == [0]
    assert solve_power_congruences(6, 1, 5, 1, divisor=4, minimum=8) == [8]


def test_power_congruence_depth_two():
    alphas = solve_power_congruences(6, 11, 5, 2)
    a2 = alphas[1]
    assert a2 % 20 == 12  # brute scan: 6^12 = 11 mod 25
    assert pow(6, a2, 25) == 11
    brute = [a for a in range(20) if pow(6, a, 25) == 11 % 25 and a % 4 == 0]
    assert brute == [12]


def test_power_congruence_rejects_bad_base():
    with pytest.raises(PreconditionFailed):
        solve_power_congruences(1 + 25, 6, 5, 3)  # 26 = 1 mod 25
    with pytest.raises(PreconditionFailed):
        solve_power_congruences(7, 6, 5, 3)  # 7 != 1 mod 5


def test_power_congruence_chain_properties():
    p = 5
    alphas = solve_power_congruences(6, 11, p, 6, divisor=4, minimum=30)
    for i, a in enumerate(alphas, start=1):
        assert pow(6, a, p**i) == 11 % p**i
        assert a % 4 == 0 and a >= 30
    for i in range(1, len(alphas)):
        phi = (p - 1) * p ** (i - 1)
        assert (alphas[i] - alphas[i - 1]) % phi == 0


def test_power_congruence_general_divisor():
    # divisor p^2 - 1 exercises the CRT adjustment path (residue degree 2)
    p = 5
    alphas = solve_power_congruences(6, 11, p, 4, divisor=24, minimum=0)
    for i, a in enumerate(alphas, start=1):
        assert pow(6, a, p**i) == 11 % p**i
        assert a % 24 == 0
