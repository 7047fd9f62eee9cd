"""p-adic helpers of the root counter: valuations, primality, roots' digits.

A counted root is reported as p^val * unit with the unit known modulo
p^prec (`PadicNum`); it comes from a Newton (Hensel) lift whose witness
v(f(r0)) > 2 v(f'(r0)) is checked before any iteration (`hensel_lift`), or
from an exact point -- a Teichmuller representative (`teichmuller`) or a
rational.  `hensel_lift`, `teichmuller` and the counter's dense local lift
all run `newton_lift`, which doubles the digits known per step and evaluates
f and f' together, one `pow` per term.  Valuations of exactly known
rationals are exact, which is what the Newton-polygon machinery relies on.
`solve_power_congruences` finds the exponent chains the tower builder needs.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalError, PrecisionExhausted, PreconditionFailed

DEFAULT_PRECISION = 40


def int_valuation(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer.

    Exponential stride so huge powers (p^30000-scale coefficients show up in
    rescaled lacunary polynomials) cost O(log v) big divisions, not O(v).
    """
    if n == 0:
        raise InternalError("valuation of zero requested")
    if n % p:
        return 0
    power, exp = p, 1
    while n % (power * power) == 0:
        power *= power
        exp *= 2
    return exp + int_valuation(n // power, p)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2..37: a proof of primality below 3.18e23.

    Above that, the least strong pseudoprime to all twelve bases,
    318665857834031151167461 = 399165290221 * 798330580441, the test proves
    nothing, so such n is refused rather than guessed about.
    """
    if n >= 318_665_857_834_031_151_167_461:
        raise PreconditionFailed(f"cannot prove {n} prime: the primality test "
                                 "is exact only below 318665857834031151167461")
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
        if q * q > n:
            break
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def fraction_valuation(q: Fraction | int, p: int) -> int:
    q = Fraction(q)
    if q == 0:
        raise InternalError("valuation of zero requested")
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


class PadicNum:
    """The certified digits of a root: p^val * unit, the unit known mod p^prec.

    A record, not a field element: the counter reports every root in this
    form and never adds, divides or raises one.
    """

    __slots__ = ("p", "val", "unit", "prec")
    kind = "num"  # the only state; perfbench/worker.py still checks it

    def __init__(self, p: int, val: int, unit: int, prec: int):
        if prec < 1:
            raise InternalError("relative precision must be at least 1")
        if unit % p == 0:
            raise InternalError("unit part divisible by p")
        self.p = p
        self.val = val
        self.unit = unit
        self.prec = prec

    @classmethod
    def from_fraction(cls, q: Fraction | int, p: int,
                      prec: int = DEFAULT_PRECISION) -> "PadicNum":
        """A nonzero rational with `prec` digits of its unit part; the
        denominator may be divisible by p."""
        q = Fraction(q)
        a = int_valuation(q.numerator, p)
        b = int_valuation(q.denominator, p)
        modulus = p**prec
        u = (q.numerator // p**a) * pow(q.denominator // p**b, -1, modulus) % modulus
        return cls(p, a - b, u, prec)

    def shift(self, m: int) -> "PadicNum":
        """p^m times this number: the same digits at valuation val + m."""
        return PadicNum(self.p, self.val + m, self.unit, self.prec)

    def unit_mod(self, k: int) -> int:
        if k > self.prec:
            raise PrecisionExhausted(f"unit requested mod p^{k}, known mod p^{self.prec}")
        return self.unit % self.p**k

    def residue(self, k: int) -> int:
        """Integer representative modulo p^k; requires valuation >= 0."""
        if self.val < 0:
            raise PreconditionFailed("negative valuation has no integer residue")
        if self.val >= k:
            return 0
        if self.val + self.prec < k:
            raise PrecisionExhausted(
                f"residue mod p^{k} requested, known mod p^{self.val + self.prec}"
            )
        return self.p**self.val * self.unit % self.p**k

    def __repr__(self):
        digits = []
        u = self.unit
        for _ in range(min(self.prec, 8)):
            u, d = divmod(u, self.p)
            digits.append(str(d))
        body = ",".join(digits)
        return f"({body},...)_{self.p}*{self.p}^{self.val}"


def eval_with_derivative(pairs, x: int, modulus: int) -> tuple[int, int]:
    """f(x) and f'(x) mod `modulus` from f's (exponent, coefficient) pairs, one
    `pow` per term: x^(e-1) gives both c*x^e and e*c*x^(e-1)."""
    value = slope = 0
    for e, c in pairs:
        if e:
            power = pow(x, e - 1, modulus)
            value += c * power * x
            slope += e * c * power
        else:
            value += c
    return value % modulus, slope % modulus


def newton_lift(pairs, p: int, r: int, v: int, known: int, target: int) -> int:
    """The simple root of f that r is within p^-known of, modulo p^target.

    `pairs(k)` gives f's (exponent, coefficient mod p^k) pairs; v(f'(r)) = v < known.
    A step r -> r - f(r)/f'(r) raises known to 2 known - v and needs f and f'
    only mod p^(known + v) for the new known: the modulus grows with the digits.
    """
    if known <= v:
        raise InternalError("Newton start not closer to the root than p^-v(f')")
    shift = p**v
    while known < target:
        # f(r) / p^v = 0 mod p^known: f'(r) / p^v is needed mod p^(known - v) only
        half, known = p ** (known - v), min(2 * known - v, target)
        fv, dv = eval_with_derivative(pairs(known + v), r, p ** (known + v))
        if dv % shift or dv // shift % p == 0:
            raise InternalError("derivative valuation drifted during lifting")
        r = (r - fv // shift * pow(dv // shift, -1, half)) % p**known
    return r % p**target


def teichmuller(p: int, residue: int, prec: int = DEFAULT_PRECISION) -> PadicNum:
    """The unique (p-1)-th root of unity congruent to `residue` mod p.

    The Newton lift of x^(p-1) - 1 from the residue: its roots are simple,
    as p does not divide p - 1.
    """
    if not 1 <= residue <= p - 1:
        raise PreconditionFailed(f"residue {residue} not in [1, p-1]")
    x = newton_lift(lambda _: ((0, -1), (p - 1, 1)), p, residue, 0, 1, prec)
    if pow(x, p - 1, p**prec) != 1:
        raise InternalError("Teichmuller iteration failed to converge")
    return PadicNum(p, 0, x, prec)


def hensel_lift(f, r0: PadicNum, prec: int = DEFAULT_PRECISION):
    """Newton-lift an approximate root to a certified simple root.

    `f` must behave like a polynomial with p-integral coefficients: it
    needs `residues(p, k)`, its (exponent, coefficient mod p^k) pairs.  The
    start r0 must be a p-adic unit (val 0), known to r0.prec digits; the
    root it reaches is a unit too, as it agrees with r0 mod p.  The
    precondition v(f(r0)) > 2 v(f'(r0)) is verified before any iteration,
    on f and f' at r0 modulo p^r0.prec: every digit the start carries, so
    a start known to more digits can certify a root of larger v(f'(r0)).
    The returned root r satisfies f(r) = 0 mod p^prec and inherits
    v(f'(r)) = v(f'(r0)), so it is a simple root.

    Returns (root, certificate) where the certificate records r0 and the
    two valuations.
    """
    p = r0.p
    if r0.val != 0:
        raise PreconditionFailed("Hensel start must be a p-adic unit")
    probe = r0.prec
    x = r0.unit_mod(probe)
    fv, dv = eval_with_derivative(f.residues(p, probe), x, p**probe)
    if dv == 0:
        raise PrecisionExhausted("cannot see v(f'(r0)) at this precision")
    val_fp = int_valuation(dv, p)
    if fv == 0:
        # only a floor is visible; enough iff it already clears the bar
        val_f = probe
        if not val_f > 2 * val_fp:
            raise PrecisionExhausted(
                f"operand precision {probe} cannot verify the dominance inequality"
            )
    else:
        val_f = int_valuation(fv, p)
    if not val_f > 2 * val_fp:
        raise PreconditionFailed(
            f"Hensel precondition fails: v(f(r0))={val_f} <= 2*v(f'(r0))={2 * val_fp}"
        )
    # r0 is within p^-(v(f(r0)) - v(f'(r0))) of the root
    root = newton_lift(lambda k: f.residues(p, k), p, x, val_fp, val_f - val_fp, prec)
    return PadicNum(p, 0, root, prec), ApproxRootCertificate(r0, val_f, val_fp)


class ApproxRootCertificate:
    """Witness that r0 satisfied the Newton-method dominance inequality."""

    __slots__ = ("r0", "val_f_r0", "val_fprime_r0")

    def __init__(self, r0: PadicNum, val_f_r0, val_fprime_r0: int):
        if not (val_f_r0 > 2 * val_fprime_r0):
            raise InternalError("certificate built from failing inequality")
        self.r0 = r0
        self.val_f_r0 = val_f_r0
        self.val_fprime_r0 = val_fprime_r0

    def __repr__(self):
        return (f"ApproxRootCertificate(v(f)={self.val_f_r0}, "
                f"v(f')={self.val_fprime_r0})")


def solve_power_congruences(r, y, p: int, depth: int, minimum: int = 0) -> list[int]:
    """Exponents a_1..a_depth with r^{a_i} = y mod p^i, all divisible by p - 1.

    Requires r = 1 mod p but r != 1 mod p^2, and y = 1 mod p.  Each a_i is
    congruent to a_{i-1} modulo (p-1)p^{i-2}, divisible by p - 1, and is the
    smallest admissible value >= `minimum` in its class modulo (p-1)p^{i-1}.
    The digit at each level is found by an exhaustive scan of p candidates.
    """
    r_res = _to_residue(r, p, depth + 1)
    y_res = _to_residue(y, p, depth + 1)
    if r_res % p != 1:
        raise PreconditionFailed("base must be congruent to 1 mod p")
    if r_res % p**2 == 1:
        raise PreconditionFailed("base must not be congruent to 1 mod p^2")
    if y_res % p != 1:
        raise PreconditionFailed("target must be congruent to 1 mod p")

    out = []
    beta = 0
    for i in range(1, depth + 1):
        if i > 1:
            step = (p - 1) * p ** (i - 2)  # phi(p^(i-1))
            for k in range(p):
                cand = beta + k * step
                if pow(r_res, cand, p**i) == y_res % p**i:
                    beta = cand
                    break
            else:
                raise InternalError("digit scan failed; preconditions violated?")
        phi = (p - 1) * p ** (i - 1)
        alpha = beta
        if alpha < minimum:
            alpha += -(-(minimum - alpha) // phi) * phi
        out.append(alpha)

    for i, alpha in enumerate(out, start=1):
        if pow(r_res, alpha, p**i) != y_res % p**i or alpha % (p - 1):
            raise InternalError("exponent chain verification failed")
    return out


def _to_residue(value, p: int, k: int) -> int:
    value = Fraction(value)
    if int_valuation(value.denominator, p):
        raise PreconditionFailed("value not p-integral")
    return value.numerator * pow(value.denominator, -1, p**k) % p**k
