"""Sparse polynomials over exact rationals, and their Newton polygons.

A polynomial is a tuple of (exponent, coefficient) pairs with strictly
increasing nonnegative integer exponents and nonzero Fraction coefficients.
Exponents are arbitrary-precision (the interesting inputs are lacunary:
degree in the thousands, a handful of terms), so nothing here ever builds a
dense coefficient list except the explicitly truncated Taylor shift.
Coefficients are exact rationals here, at the boundary (parsing, printing,
`extremal`); the counter clears them once to integers, and
`ModImage`, its modular view, takes only integer coefficients.
Coefficient valuations, and hence Newton polygons, are exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import DuplicateExponent, InternalError, ParseError, PreconditionFailed
from .padic import fraction_valuation, int_valuation


class SparsePoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("terms", "_residues")

    def __init__(self, terms):
        cleaned = []
        prev = -1
        for exp, coeff in terms:
            coeff = Fraction(coeff)
            if exp < 0:
                raise PreconditionFailed(f"negative exponent {exp}")
            if exp <= prev:
                raise InternalError("exponents must be strictly increasing")
            prev = exp
            if coeff:
                cleaned.append((exp, coeff))
        self.terms = tuple(cleaned)
        self._residues = {}  # modulus -> `residues` at that modulus

    @classmethod
    def from_dict(cls, data: dict[int, Fraction]) -> "SparsePoly":
        return cls(sorted(data.items()))

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return -1
        return self.terms[-1][0]

    def num_terms(self) -> int:
        return len(self.terms)

    def sparsity(self) -> int:
        """t such that the polynomial has at most t+1 terms."""
        return max(len(self.terms) - 1, 0)

    def exponents(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.terms)

    def coefficient(self, exp: int) -> Fraction:
        for e, c in self.terms:
            if e == exp:
                return c
        return Fraction(0)

    def constant_term(self) -> Fraction:
        return self.coefficient(0)

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            raise InternalError("zero polynomial")
        return self.terms[-1][1]

    # -- evaluation ---------------------------------------------------

    def eval_exact(self, x) -> Fraction:
        x = Fraction(x)
        total = Fraction(0)
        for e, c in self.terms:
            total += c * x**e
        return total

    def residues(self, p: int, k: int) -> list[tuple[int, int]]:
        """(exponent, coefficient mod p^k) pairs; coefficients must be p-integral.

        Reduced once per modulus: Newton lifts from equal starts share moduli.
        """
        modulus = p**k
        if modulus not in self._residues:
            if any(c.denominator % p == 0 for _, c in self.terms):
                raise PreconditionFailed("coefficient with negative valuation")
            self._residues[modulus] = [
                (e, c.numerator * pow(c.denominator, -1, modulus) % modulus)
                for e, c in self.terms]
        return self._residues[modulus]

    def eval_mod(self, x: int, p: int, k: int) -> int:
        """Value at the integer x modulo p^k; coefficients must be p-integral."""
        modulus = p**k
        total = 0
        for e, cm in self.residues(p, k):
            total = (total + cm * pow(x, e, modulus)) % modulus
        return total

    # -- rewriting ----------------------------------------------------

    def derivative(self) -> "SparsePoly":
        return SparsePoly((e - 1, c * e) for e, c in self.terms if e > 0)

    def add_constant(self, value) -> "SparsePoly":
        value = Fraction(value)
        data = dict(self.terms)
        data[0] = data.get(0, Fraction(0)) + value
        return SparsePoly.from_dict(data)

    def strip_lowest(self) -> tuple["SparsePoly", int]:
        """Divide out x^(lowest exponent); returns (quotient, shift)."""
        if not self.terms:
            return self, 0
        low = self.terms[0][0]
        if low == 0:
            return self, 0
        return SparsePoly((e - low, c) for e, c in self.terms), low


def scale_substitute(f: SparsePoly, p: int, m: int) -> SparsePoly:
    """Substitute x -> p^m x, then normalize to minimum coefficient valuation 0.

    Roots map by r -> r / p^m with multiplicities preserved; a root of
    valuation m of f becomes a unit root of the result.  The coefficients
    are materialised exactly: on lacunary inputs p^(m e) has millions of
    bits, so the counter works on a `ModImage` and calls this only where an
    exact statement needs the polynomial itself.
    """
    if f.is_zero():
        return f
    # v(c p^(m e)) = v(c) + m e: the huge powers are never scanned for factors
    low = min(fraction_valuation(c, p) + m * e for e, c in f.terms)
    return SparsePoly((e, c * Fraction(p) ** (m * e - low)) for e, c in f.terms)


SCREEN_PRIME = 2**61 - 1


class ModImage:
    """An integer polynomial held as (exponent, unit part, shift) per term.

    The coefficient of x^e is unit * p^shift with the unit an integer prime
    to p, so a residue mod p^k costs O(log k) however large the shift, needs
    no inverse, and a term whose shift reaches k is 0 mod p^k.  f must have
    integer coefficients; `scaled(f, p, m)` is the image of
    scale_substitute(f, p, m) = f(p^m x) / p^nu with no p^(m e) ever built;
    the polynomial itself, `exact()`, is built through `scale_substitute`
    on first use.  Derived images keep p, m and nu, their source's scale.
    """

    __slots__ = ("p", "m", "nu", "terms", "_build", "_exact", "_residues")
    is_zero, sparsity = SparsePoly.is_zero, SparsePoly.sparsity  # they read only `terms`

    def __init__(self, p: int, m: int, nu: int, terms, build):
        self.p, self.m, self.nu, self.terms = p, m, nu, tuple(terms)
        self._build, self._exact, self._residues = build, None, {}

    @classmethod
    def scaled(cls, f: SparsePoly, p: int, m: int) -> "ModImage":
        if any(c.denominator != 1 for _, c in f.terms):
            raise PreconditionFailed("a modular image needs integer coefficients")
        split = [(e, c.numerator, int_valuation(c.numerator, p)) for e, c in f.terms]
        nu = min(v + m * e for e, _, v in split)
        return cls(p, m, nu, [(e, c // p**v, v + m * e - nu) for e, c, v in split],
                   lambda: scale_substitute(f, p, m))

    def exact(self) -> SparsePoly:
        if self._exact is None:
            self._exact = self._build()
        return self._exact

    def residues(self, p: int, k: int) -> list[tuple[int, int]]:
        """(exponent, coefficient mod p^k) pairs, reduced once per modulus."""
        modulus = p**k
        if modulus not in self._residues:
            self._residues[modulus] = [
                (e, u * p**s % modulus if s < k else 0)
                for e, u, s in self.terms]
        return self._residues[modulus]

    def eval_mod(self, x: int, p: int, k: int) -> int:
        """`SparsePoly.eval_mod`, looked up at each call, so that a wrapper
        on it (perfbench's tracer) sees these evaluations too."""
        return SparsePoly.eval_mod(self, x, p, k)

    def derivative(self) -> "ModImage":
        """e * unit * p^shift = (e / p^v(e)) * unit * p^(shift + v(e))."""
        terms = []
        for e, u, s in self.terms:
            if e:
                v = int_valuation(e, self.p)
                terms.append((e - 1, u * (e // self.p**v), s + v))
        return ModImage(self.p, self.m, self.nu, terms, lambda: self.exact().derivative())

    def normalized(self) -> "ModImage":
        """The minimum shift divided out, as scale_substitute(exact, p, 0) does."""
        low = min(s for _, _, s in self.terms)
        return ModImage(self.p, self.m, self.nu, [(e, u, s - low) for e, u, s in self.terms],
                        lambda: scale_substitute(self.exact(), self.p, 0))

    def vanishes_at(self, x: Fraction) -> bool:
        """Whether the polynomial vanishes at the rational x, exactly.

        The coefficients are integers, so a root stays a root mod any prime q
        not dividing x's denominator: a nonzero value mod q = SCREEN_PRIME
        rejects x in O(terms * log degree), and the exact value is computed
        only when that one is 0 or q divides the denominator.
        """
        q = SCREEN_PRIME
        if x.denominator % q:
            xq = x.numerator * pow(x.denominator, -1, q) % q
            if sum(u * pow(self.p, s, q) * pow(xq, e, q) for e, u, s in self.terms) % q:
                return False
        return self.exact().eval_exact(x) == 0


def taylor_shift_truncate(pairs, r: int, p: int, n: int) -> list[int]:
    """Dense coefficients of h(r + p*y) modulo p^n, truncated where forced zero.

    h is given by (exponent, integer coefficient) pairs in increasing
    exponent order -- the `residues` of a SparsePoly or a ModImage, or
    `enumerate` of a dense list.
    Coefficient k carries a factor p^k, so only k < n can contribute a unit;
    the list has min(deg h, n-1) + 1 entries.  Binomials are exact integers;
    the powers r^(e-k) are built from the top down, one `pow` per term.
    """
    pairs = list(pairs)
    modulus = p**n
    top = min(pairs[-1][0], n - 1) if pairs else -1
    out = [0] * (top + 1)
    for e, c in pairs:
        if not c:
            continue
        power = pow(r, e - min(e, top), modulus)
        for k in range(min(e, top), -1, -1):
            out[k] = (out[k] + c * math.comb(e, k) % modulus * power) % modulus
            power = power * r % modulus
    for k in range(1, top + 1):
        out[k] = out[k] * pow(p, k, modulus) % modulus
    return out


# -- Newton polygons ----------------------------------------------------


class Segment:
    """One maximal segment of a Newton polygon."""

    __slots__ = ("length", "start", "end")

    def __init__(self, start, end):
        self.start = start
        self.end = end
        self.length = end[0] - start[0]

    @property
    def slope(self) -> Fraction:
        """Minus the valuation of the roots this segment accounts for."""
        return Fraction(self.end[1] - self.start[1], self.length)

    def __repr__(self):
        return f"Segment(slope={self.slope}, length={self.length})"


class NewtonPolygon:
    """Lower convex hull of the support points (exponent, coefficient valuation)."""

    __slots__ = ("support", "vertices", "segments")

    def __init__(self, support):
        self.support = list(support)
        hull: list[tuple[int, int]] = []
        for pt in self.support:
            while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
                hull.pop()
            hull.append(pt)
        self.vertices = hull
        self.segments = [Segment(a, b) for a, b in zip(hull, hull[1:])]

    def slopes(self) -> list[Fraction]:
        return [s.slope for s in self.segments]

    def integer_root_valuations(self) -> list[int]:
        """Valuations in Z that roots in Q_p can have, left to right."""
        out = []
        for seg in self.segments:
            m, rem = divmod(seg.start[1] - seg.end[1], seg.length)
            if not rem:
                out.append(m)
        return out

    def __repr__(self):
        return f"NewtonPolygon({self.segments})"


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def newton_polygon(f: SparsePoly, p: int) -> NewtonPolygon:
    """Newton polygon of f at p; requires a nonzero constant term.

    The valuations of roots of f in Q_p^* all occur among the negated
    segment slopes, so there are at most (number of terms - 1) of them.
    """
    if f.is_zero():
        raise PreconditionFailed("Newton polygon of the zero polynomial")
    if f.terms[0][0] != 0:
        raise PreconditionFailed("strip x^(lowest exponent) before the polygon")
    support = [(e, fraction_valuation(c, p)) for e, c in f.terms]
    return NewtonPolygon(support)


# -- text form -----------------------------------------------------------

_NUMBER = re.compile(r"\d+(?:/\d+)?")


def parse_poly(text: str) -> SparsePoly:
    """Parse `c`, `x^e`, `c*x^e`, `c/d*x^e` terms joined by + or -.

    A bare `x` means `x^1`.  Raises ParseError with the offending position;
    two terms sharing an exponent raise DuplicateExponent rather than
    merging silently.
    """
    terms: dict[int, Fraction] = {}
    n = len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    def parse_mono(i: int) -> tuple[int, int]:
        # consumes 'x' with an optional '^<digits>'
        i += 1  # the 'x'
        j = skip_ws(i)
        if j < n and text[j] == "^":
            j = skip_ws(j + 1)
            m = re.match(r"\d+", text[j:])
            if not m:
                raise ParseError("expected a nonnegative integer exponent", j)
            return j + m.end(), int(m.group(0))
        return i, 1

    pos = skip_ws(0)
    if pos >= n:
        raise ParseError("empty polynomial", 0)
    first = True
    while True:
        pos = skip_ws(pos)
        if pos >= n:
            if first:
                raise ParseError("empty polynomial", 0)
            break
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos = skip_ws(pos + 1)
        elif not first:
            raise ParseError(f"expected '+' or '-', got {text[pos]!r}", pos)
        if pos >= n:
            raise ParseError("dangling sign", n - 1)

        term_at = pos
        m = _NUMBER.match(text, pos)
        if m:
            token = m.group(0)
            if "/" in token:
                num, den = token.split("/")
                if int(den) == 0:
                    raise ParseError("zero denominator", pos)
                coeff = Fraction(int(num), int(den))
            else:
                coeff = Fraction(int(token))
            pos = skip_ws(m.end())
            if pos < n and text[pos] == "*":
                pos = skip_ws(pos + 1)
                if pos >= n or text[pos] != "x":
                    raise ParseError("expected 'x' after '*'", pos)
                pos, exponent = parse_mono(pos)
            else:
                exponent = 0
        elif text[pos] == "x":
            coeff = Fraction(1)
            pos, exponent = parse_mono(pos)
        else:
            raise ParseError(f"expected a term, got {text[pos]!r}", pos)

        if exponent in terms:
            raise DuplicateExponent(f"duplicate exponent {exponent}", term_at)
        terms[exponent] = sign * coeff
        first = False
    return SparsePoly.from_dict(terms)


def format_poly(f: SparsePoly) -> str:
    """Canonical text form; round-trips through parse_poly."""
    if f.is_zero():
        return "0"
    parts = []
    for e, c in reversed(f.terms):
        mono = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        parts.append(("- " if c < 0 else "+ ") + body)
    first = parts[0]
    head = first[2:] if first.startswith("+ ") else "-" + first[2:]
    return " ".join([head] + parts[1:])


def poly_to_obj(f: SparsePoly) -> dict:
    """Structured form: {"terms": [[exponent, "num/den"], ...]}."""
    return {"terms": [[e, f"{c.numerator}/{c.denominator}"] for e, c in f.terms]}


def poly_from_obj(data: dict) -> SparsePoly:
    """The inverse of `poly_to_obj`: integer exponents, integer or string coefficients."""
    try:
        terms = {}
        for e, c in data["terms"]:
            if type(e) is not int or type(c) not in (int, str):
                raise TypeError(f"term {[e, c]}: the exponent must be an integer "
                                "and the coefficient an integer or a string")
            if e in terms:
                raise DuplicateExponent(f"duplicate exponent {e}")
            terms[e] = Fraction(c)
        return SparsePoly.from_dict(terms)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed structured polynomial: {exc}") from exc
