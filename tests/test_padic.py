import random
from fractions import Fraction

import pytest

from padroot.errors import InternalError, PrecisionExhausted, PreconditionFailed
from padroot.padic import (
    PadicNum,
    fraction_valuation,
    hensel_lift,
    newton_lift,
    solve_power_congruences,
    teichmuller,
)
from padroot.sparsepoly import SparsePoly, parse_poly


def test_from_rational_basics():
    a = PadicNum.from_fraction(9, 3, 4)
    assert a.val == 2 and a.unit == 1

    b = PadicNum.from_fraction(Fraction(1, 625), 5, 3)
    assert b.val == -4 and b.unit == 1

    # -624/625 = (-625+1)/625: unit congruent to 1 mod 25
    c = PadicNum.from_fraction(Fraction(-624, 625), 5, 2)
    assert c.val == -4 and c.unit == 1
    # cross-check by modular inverse: unit = -624 * inv(1) mod 25
    assert (-624) % 25 == 1


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
        vx, vy = fraction_valuation(qx, p), fraction_valuation(qy, p)
        assert (x.val, y.val) == (vx, vy)
        # valuations add, and shifting by p^m changes only the valuation
        xy = PadicNum.from_fraction(qx * qy, p, 30)
        assert xy.val == x.shift(vy).val == vx + vy
        assert xy.unit == x.unit * y.unit % p**30
        assert x.shift(vy).unit == x.unit
        exact_sum = qx + qy
        if exact_sum == 0:
            continue
        v_true = fraction_valuation(exact_sum, p)
        assert v_true >= min(vx, vy)
        if vx != vy:
            assert v_true == min(vx, vy)


def test_shift_keeps_precision():
    x = PadicNum.from_fraction(3, 7, 10)
    assert (x.val, x.prec) == (0, 10)
    moved = x.shift(-3)
    assert (moved.val, moved.unit, moved.prec) == (-3, 3, 10)
    assert x.shift(2).residue(12) == 3 * 49
    with pytest.raises(PrecisionExhausted):
        x.shift(2).residue(13)
    assert repr(moved) == "(3,0,0,0,0,0,0,0,...)_7*7^-3"


def test_residue_and_precision_errors():
    x = PadicNum.from_fraction(10, 5, 3)  # 2*5, known mod 5^4
    assert x.residue(4) == 10
    with pytest.raises(PrecisionExhausted):
        x.residue(5)
    with pytest.raises(PrecisionExhausted):
        x.unit_mod(4)
    with pytest.raises(PreconditionFailed):
        x.shift(-2).residue(1)


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
    return PadicNum(p, 0, residue, known)


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


def test_hensel_start_must_be_a_unit():
    # 5 = p^1 * 1 is a simple root of x^2 - 5x, but only unit starts are accepted
    f = parse_poly("x^2 - 5*x")
    with pytest.raises(PreconditionFailed):
        hensel_lift(f, PadicNum(5, 1, 1, 8), prec=3)


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


@pytest.mark.parametrize("j", [1, 2])
def test_hensel_lift_with_a_non_unit_derivative_from_a_non_root(j):
    # (x - 1)^2 = 7^(2j) * 2 has the roots 1 +- 7^j y, y^2 = 2 in Z_7, where
    # f' = 2 (x - 1) has valuation j.  The start 1 + 7^j * 3 is no root:
    # f(r0) = 7^(2j) (9 - 2) has valuation 2j + 1 > 2j
    p, prec = 7, 7
    f = SparsePoly([(0, 1 - 2 * p ** (2 * j)), (1, -2), (2, 1)])
    r0 = 1 + p**j * 3
    root, cert = hensel_lift(f, start(r0, p), prec=prec)
    assert (cert.val_f_r0, cert.val_fprime_r0) == (2 * j + 1, j)
    # the root's digits past the 1 are the square root of 2 that starts at 3,
    # known mod 7^(prec - j); scan that class for y^2 = 2
    digits = prec - j
    ys = [y for y in range(3, p**digits, p) if (y * y - 2) % p**digits == 0]
    assert len(ys) == 1
    assert root.residue(prec) == (1 + p**j * ys[0]) % p**prec


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_hensel_lift_digits_match_brute_force(p):
    rng = random.Random(4100 + p)
    k = {3: 5, 5: 4, 7: 3, 11: 3}[p]
    lifted = 0
    while lifted < 6:
        coeffs = [rng.randint(-20, 20) for _ in range(rng.randint(2, 5))]
        f = SparsePoly(enumerate(coeffs))
        if f.is_zero():
            continue
        fp = f.derivative()
        for r in range(1, p):
            if f.eval_mod(r, p, 1) == 0 and fp.eval_mod(r, p, 1) != 0:
                root, _ = hensel_lift(f, start(r, p, known=1), prec=k)
                assert root.residue(k) == brute_root_mod(f, p, k, r), (coeffs, r)
                lifted += 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_newton_lift_dense_start_at_digit_zero(p):
    # y^2 + y + 3p on a dense coefficient list: h(0) = 0 mod p, h'(0) = 1,
    # so the root near 0 is simple and the start digit is 0, not a unit
    h = [3 * p, 1, 1]
    k = 5
    y = newton_lift(lambda _: enumerate(h), p, 0, 0, 1, k)
    brute = [x for x in range(0, p**k, p) if (x * x + x + 3 * p) % p**k == 0]
    assert brute == [y]


def test_newton_lift_refuses_a_start_no_closer_than_the_derivative():
    # x^2 - 2x + 1 - 2*7^2 at 1 + 7*3: v(f') = 1 = known gives no progress
    pairs = ((0, 1 - 2 * 49), (1, -2), (2, 1))
    with pytest.raises(InternalError):
        newton_lift(lambda _: pairs, 7, 22, 1, 1, 6)
    # claiming v(f') = 0 where it is 1 is caught at the first step
    with pytest.raises(InternalError):
        newton_lift(lambda _: pairs, 7, 22, 0, 3, 6)


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


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_teichmuller_is_the_limit_of_p_powers(p):
    # x^(p^(N-1)) mod p^N is the Teichmuller point of x, for every residue
    for n in (1, 2, 3, 8, 13):
        for a in range(1, p):
            assert teichmuller(p, a, n).residue(n) == pow(a, p ** (n - 1), p**n), (a, n)


# -- p-th roots of unity ---------------------------------------------------


def test_pth_roots_exhaustive_check_p7():
    # residues solving r^7 = 1 mod 7 are only r = 1 (Fermat) ...
    assert [r for r in range(1, 7) if pow(r, 7, 7) == 1] == [1]
    # ... and every near-solution mod 7^6 already collapses onto the exact
    # root 1: no second root can hide in another disk
    survivors = [r for r in range(1, 7**6) if pow(r, 7, 7**6) == 1]
    assert all(r % 7**5 == 1 for r in survivors)


# -- exponent chains -------------------------------------------------------


def test_power_congruence_trivial_target():
    assert solve_power_congruences(6, 1, 5, 1, minimum=0) == [0]
    assert solve_power_congruences(6, 1, 5, 1, minimum=8) == [8]


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
    alphas = solve_power_congruences(6, 11, p, 6, minimum=30)
    for i, a in enumerate(alphas, start=1):
        assert pow(6, a, p**i) == 11 % p**i
        assert a % 4 == 0 and a >= 30
    for i in range(1, len(alphas)):
        phi = (p - 1) * p ** (i - 1)
        assert (alphas[i] - alphas[i - 1]) % phi == 0

