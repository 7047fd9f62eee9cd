"""Exact capped-precision arithmetic in the field of p-adic numbers.

A number is stored as p^val * unit with the unit known modulo p^prec
(relative precision).  Two special states exist: the exact zero, and
"bottom" -- a value indistinguishable from zero at the available precision,
carrying the absolute floor N with the meaning "lies in p^N Z_p".
Arithmetic follows the min-rule for precision and never silently gains
digits.  Valuations of exactly known rationals are exact, which is what the
Newton-polygon machinery relies on.
"""

from __future__ import annotations

import math
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
    """A p-adic number of the form p^val * unit, unit known mod p^prec."""

    __slots__ = ("p", "kind", "val", "unit", "prec", "floor")

    def __init__(self, p: int, kind: str, val: int = 0, unit: int = 0,
                 prec: int = 0, floor: int = 0):
        self.p = p
        self.kind = kind  # "num" | "zero" | "bottom"
        self.val = val
        self.unit = unit
        self.prec = prec
        self.floor = floor
        if kind == "num":
            if prec < 1:
                raise InternalError("relative precision must be at least 1")
            if unit % p == 0:
                raise InternalError("unit part divisible by p")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "PadicNum":
        return cls(p, "zero")

    @classmethod
    def bottom(cls, p: int, floor: int) -> "PadicNum":
        return cls(p, "bottom", floor=floor)

    @classmethod
    def from_rational(cls, num: int, den: int, p: int,
                      prec: int = DEFAULT_PRECISION) -> "PadicNum":
        """Exact rational -> p-adic with the stated relative precision.

        The denominator may be divisible by p (negative valuations are
        fine); num == 0 gives the exact-zero element.
        """
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if num == 0:
            return cls.zero(p)
        a = int_valuation(num, p)
        b = int_valuation(den, p)
        modulus = p ** prec
        u = (num // p**a) * pow(den // p**b, -1, modulus) % modulus
        return cls(p, "num", val=a - b, unit=u, prec=prec)

    @classmethod
    def from_fraction(cls, q: Fraction | int, p: int,
                      prec: int = DEFAULT_PRECISION) -> "PadicNum":
        q = Fraction(q)
        return cls.from_rational(q.numerator, q.denominator, p, prec)

    # -- queries ----------------------------------------------------------

    def is_exact_zero(self) -> bool:
        return self.kind == "zero"

    def is_bottom(self) -> bool:
        return self.kind == "bottom"

    def valuation(self):
        """Exact valuation; math.inf for the exact zero.

        For bottom values only a lower bound is known, so asking for the
        valuation is an error -- use `val_floor`.
        """
        if self.kind == "zero":
            return math.inf
        if self.kind == "bottom":
            raise PrecisionExhausted(
                f"valuation known only to be >= {self.floor} at this precision"
            )
        return self.val

    def val_floor(self) -> int | float:
        if self.kind == "zero":
            return math.inf
        if self.kind == "bottom":
            return self.floor
        return self.val

    def abs_prec(self) -> int | float:
        """Absolute precision: the value is known modulo p^abs_prec."""
        if self.kind == "zero":
            return math.inf
        if self.kind == "bottom":
            return self.floor
        return self.val + self.prec

    def unit_mod(self, k: int) -> int:
        if self.kind != "num":
            raise PrecisionExhausted("no unit part available")
        if k > self.prec:
            raise PrecisionExhausted(f"unit requested mod p^{k}, known mod p^{self.prec}")
        return self.unit % self.p**k

    def residue(self, k: int) -> int:
        """Integer representative modulo p^k; requires valuation >= 0."""
        if self.kind == "zero":
            return 0
        if self.kind == "bottom":
            if self.floor >= k:
                return 0
            raise PrecisionExhausted(f"value known only in p^{self.floor} Z_p")
        if self.val < 0:
            raise PreconditionFailed("negative valuation has no integer residue")
        if self.val >= k:
            return 0
        if self.abs_prec() < k:
            raise PrecisionExhausted(
                f"residue mod p^{k} requested, absolute precision {self.abs_prec()}"
            )
        return self.p**self.val * self.unit % self.p**k

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicNum):
            if other.p != self.p:
                raise InternalError("mixed primes in p-adic arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            prec = self.prec if self.kind == "num" else DEFAULT_PRECISION
            return PadicNum.from_fraction(other, self.p, prec)
        return NotImplemented

    def __neg__(self) -> "PadicNum":
        if self.kind != "num":
            return self
        return PadicNum(self.p, "num", self.val,
                        (-self.unit) % self.p**self.prec, self.prec)

    def __add__(self, other) -> "PadicNum":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.kind == "zero":
            return other
        if other.kind == "zero":
            return self
        if self.kind == "bottom" or other.kind == "bottom":
            floor = int(min(self.abs_prec(), other.abs_prec()))
            num = self if self.kind == "num" else other
            if num.kind == "num" and num.val < floor:
                # the determined part sticks out below the uncertainty
                return PadicNum(self.p, "num", num.val,
                                num.unit % self.p ** (floor - num.val),
                                floor - num.val)
            return PadicNum.bottom(self.p, floor)
        # both plain numbers
        absprec = min(self.val + self.prec, other.val + other.prec)
        low = min(self.val, other.val)
        k = absprec - low
        if k <= 0:
            return PadicNum.bottom(self.p, absprec)
        modulus = self.p**k
        total = (self.unit * self.p**(self.val - low)
                 + other.unit * self.p**(other.val - low)) % modulus
        if total == 0:
            return PadicNum.bottom(self.p, absprec)
        v = int_valuation(total, self.p)
        if v + low >= absprec:
            return PadicNum.bottom(self.p, absprec)
        return PadicNum(self.p, "num", low + v, total // self.p**v % self.p**(k - v), k - v)

    __radd__ = __add__

    def __sub__(self, other) -> "PadicNum":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "PadicNum":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.kind == "zero" or other.kind == "zero":
            return PadicNum.zero(self.p)
        if self.kind == "bottom" or other.kind == "bottom":
            floor = self.val_floor() + other.val_floor()
            return PadicNum.bottom(self.p, int(floor))
        prec = min(self.prec, other.prec)
        unit = self.unit * other.unit % self.p**prec
        return PadicNum(self.p, "num", self.val + other.val, unit, prec)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PadicNum":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.kind == "zero":
            raise ZeroDivisionError("division by exact p-adic zero")
        if other.kind == "bottom":
            raise PrecisionExhausted(
                "division by a value indistinguishable from zero"
            )
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> "PadicNum":
        if self.kind == "zero":
            raise ZeroDivisionError("inverse of exact zero")
        if self.kind == "bottom":
            raise PrecisionExhausted("inverse of a value indistinguishable from zero")
        unit = pow(self.unit, -1, self.p**self.prec)
        return PadicNum(self.p, "num", -self.val, unit, self.prec)

    def __pow__(self, n: int) -> "PadicNum":
        if self.kind == "zero":
            if n <= 0:
                raise ZeroDivisionError("zero to a nonpositive power")
            return self
        if self.kind == "bottom":
            if n <= 0:
                raise PrecisionExhausted("power of a value indistinguishable from zero")
            return PadicNum.bottom(self.p, self.floor * n)
        base = self if n >= 0 else self.inverse()
        e = abs(n)
        unit = pow(base.unit, e, self.p**base.prec)
        return PadicNum(self.p, "num", base.val * e, unit, base.prec)

    def __repr__(self):
        if self.kind == "zero":
            return f"O(p=∞)_{self.p}"
        if self.kind == "bottom":
            return f"O({self.p}^{self.floor})"
        digits = []
        u = self.unit
        for _ in range(min(self.prec, 8)):
            u, d = divmod(u, self.p)
            digits.append(str(d))
        body = ",".join(digits)
        return f"({body},...)_{self.p}*{self.p}^{self.val}"


def teichmuller(p: int, residue: int, prec: int = DEFAULT_PRECISION) -> PadicNum:
    """The unique (p-1)-th root of unity congruent to `residue` mod p.

    Computed by iterating x -> x^p, which contracts one digit per step.
    """
    if not 1 <= residue <= p - 1:
        raise PreconditionFailed(f"residue {residue} not in [1, p-1]")
    modulus = p**prec
    x = residue % p
    for _ in range(prec):
        x = pow(x, p, modulus)
    if pow(x, p - 1, modulus) != 1:
        raise InternalError("Teichmuller iteration failed to converge")
    return PadicNum(p, "num", 0, x, prec)


def hensel_lift(f, r0: PadicNum, prec: int = DEFAULT_PRECISION):
    """Newton-lift an approximate root to a certified simple root.

    `f` must behave like a polynomial with p-integral coefficients: it
    needs `eval_mod(x, p, k)` and `derivative()`.  The start r0 is a
    p-adic integer known to r0.abs_prec() digits.  The precondition
    v(f(r0)) > 2 v(f'(r0)) is verified before any iteration; the returned
    root r satisfies f(r) = 0 mod p^prec and inherits v(f'(r)) = v(f'(r0)),
    so it is a simple root.

    Returns (root, certificate) where the certificate records r0 and the
    two valuations.
    """
    p = r0.p
    if r0.is_exact_zero() or r0.is_bottom():
        raise PreconditionFailed("approximate root must be a determined unit form")
    if r0.val < 0:
        raise PreconditionFailed("approximate root must lie in Z_p")
    fprime = f.derivative()
    probe = min(int(r0.abs_prec()), prec + 8)
    fv = f.eval_mod(r0.residue(probe), p, probe)
    dv = fprime.eval_mod(r0.residue(probe), p, probe)
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

    # Any lift of r0 into Z/p^work lies in the same Newton basin (the root is
    # closer to r0 than p^val_fp), so the iteration below recovers the full
    # target precision from f itself regardless of r0's own precision.
    work = prec + 2 * val_fp + 4
    modulus = p**work
    r = r0.residue(min(int(r0.abs_prec()), work)) % modulus

    for _ in range(2 * work.bit_length() + 8):
        fv = f.eval_mod(r, p, work)
        if fv == 0 or int_valuation(fv, p) >= prec + val_fp:
            break
        dv = fprime.eval_mod(r, p, work)
        v_d = int_valuation(dv, p)
        if v_d != val_fp:
            raise InternalError("derivative valuation drifted during lifting")
        shift = p**v_d
        step_mod = p ** (work - v_d)
        t = (fv // shift) * pow(dv // shift, -1, step_mod) % step_mod
        r = (r - t) % modulus
    else:
        raise InternalError("Newton iteration failed to converge")

    cert = ApproxRootCertificate(r0, val_f, val_fp)
    root_val = int_valuation(r, p) if r else 0
    if r == 0:
        root = PadicNum.zero(p)
    else:
        rel = min(prec, work - val_fp - root_val)
        root = PadicNum(p, "num", root_val,
                        (r // p**root_val) % p**rel, rel)
    return root, cert


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


def pth_roots_of_unity(p: int, prec: int = DEFAULT_PRECISION) -> set[PadicNum]:
    """All p-th roots of unity in Q_p for odd p: exactly {1}.

    Verified rather than assumed: no residue other than 1 satisfies
    x^p = 1 mod p (Fermat), and around 1 the shifted polynomial
    ((1+py)^p - 1)/p^2 has y as its only Z_p-root, checked through its
    exact integer coefficients.
    """
    if p == 2 or p < 2:
        raise PreconditionFailed("odd prime required")
    for r in range(2, p):
        if pow(r, p, p) == 1 % p:
            raise InternalError("unexpected extra residue root of x^p - 1")
    # h(y) = (1+py)^p - 1 = sum_k C(p,k) p^k y^k; minimum valuation is at k=1
    coeffs = [math.comb(p, k) * p**k for k in range(1, p + 1)]
    vals = [int_valuation(c, p) for c in coeffs]
    if vals[0] != 2 or any(v < 3 for v in vals[1:]):
        raise InternalError("unit-ball analysis of x^p - 1 failed")
    # after dividing by p^2 the reduction is a nonzero multiple of y alone,
    # so y = 0 (an exact root) is the unique root with v(y) >= 0
    return {PadicNum(p, "num", 0, 1, prec)}


def solve_power_congruences(r, y, p: int, depth: int,
                            divisor: int | None = None, minimum: int = 0) -> list[int]:
    """Exponents a_1..a_depth with r^{a_i} = y mod p^i, all divisible by `divisor`.

    Requires r = 1 mod p but r != 1 mod p^2, and y = 1 mod p.  Each a_i is
    congruent to a_{i-1} modulo (p-1)p^{i-2}, divisible by `divisor`
    (which must be p^f - 1 for some f), and is the smallest admissible
    value >= `minimum` in its congruence class.  The digit at each level is
    found by an exhaustive scan of p candidates.
    """
    if divisor is None:
        divisor = p - 1
    f_deg, q = 1, p
    while q - 1 < divisor:
        f_deg += 1
        q *= p
    if q - 1 != divisor:
        raise PreconditionFailed(f"divisor {divisor} is not p^f - 1 for p={p}")
    cofactor = divisor // (p - 1)  # 1 + p + ... + p^(f-1)

    top = p ** (depth + 1)
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
        if cofactor == 1:
            k0, stride = 0, 1
        else:
            b = beta // (p - 1)
            k0 = (-b) * pow(p ** (i - 1), -1, cofactor) % cofactor
            stride = cofactor
        alpha = beta + k0 * phi
        step_full = stride * phi
        if alpha < minimum:
            alpha += -(-(minimum - alpha) // step_full) * step_full
        out.append(alpha)

    for i, alpha in enumerate(out, start=1):
        if pow(r_res, alpha, p**i) != y_res % p**i or alpha % divisor:
            raise InternalError("exponent chain verification failed")
    return out


def _to_residue(value, p: int, k: int) -> int:
    if isinstance(value, PadicNum):
        return value.residue(k)
    value = Fraction(value)
    if int_valuation(value.denominator, p):
        raise PreconditionFailed("value not p-integral")
    return value.numerator * pow(value.denominator, -1, p**k) % p**k
