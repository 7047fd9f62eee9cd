"""Certified counting of roots in Q_p^*, with multiplicities.

The counter walks the Newton polygon segment by segment, and counts every
segment of integral slope the same way, by residue refinement: reduce the
rescaled polynomial mod p, Hensel-lift simple residue roots, and recurse
into residue classes holding multiple ones.  Before recursing, the class is
cleared of exactly-known roots -- torsion points, certified by cyclotomic
divisibility of the exponent-folded polynomial, and rational points,
certified by exact evaluation -- whose multiplicities are therefore exact;
the recursion continues on the deflated local polynomial so roots sharing
the class are still found.  A segment joining adjacent support points needs
no path of its own: its reduction is a binomial, so the refinement finds
the gcd(p-1, width) solutions of one power congruence, or none, all simple
when p does not divide the width.  Rational points are never searched for
by factoring: a rational root's digits are the digits of a p-adic root the
counter certifies anyway, and p-adic rational reconstruction turns enough
of them back into the fraction.  Whatever survives the depth budget is
reported as an unresolved cluster with an algebraic-closure disk bound,
never as a guessed count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .bounds import FieldParams, sparse_upper_bound, sparse_upper_bound_value
from .errors import InternalError, PrecisionExhausted, PreconditionFailed
from .padic import (
    ApproxRootCertificate,
    PadicNum,
    eval_with_derivative,
    hensel_lift,
    int_valuation,
    is_prime,
    newton_lift,
    teichmuller,
)
from .sparsepoly import (
    ModImage,
    SparsePoly,
    newton_polygon,
    scale_substitute,
    taylor_shift_truncate,
)

HENSEL_SIMPLE = "HenselSimple"
EXACT_TORSION = "ExactTorsion"
EXACT_RATIONAL = "ExactRational"

# A local polynomial left with fewer than MIN_WORKING_PREC digits has run out;
# the working digits then double from --prec, up to MAX_WORKING_PREC, before
# "precision" is reported (`_on_demand`).  The cap bounds the time it takes.
MIN_WORKING_PREC = 6
MAX_WORKING_PREC = 320


@dataclass
class CountOptions:
    prec: int = 40  # digits of each reported root, not the working precision
    depth: int = 8


@dataclass
class RootEntry:
    """One certified distinct root of f in Q_p^*."""

    value: PadicNum
    valuation: int
    multiplicity: int
    certificate: str
    rational: Fraction | None = None        # exact value when known rational
    torsion: tuple[int, int] | None = None  # (order d, first digit) at p^valuation * xi
    # v(f~'(root)), f~ being f with its monomial factor and its p-content
    # divided out; None if not visible at the working precision
    val_fprime: int | None = None
    hensel: ApproxRootCertificate | None = None

    def sort_key(self):
        digits = self.value.unit_mod(min(self.value.prec, 12))
        return (self.valuation, digits)

    def describe(self) -> str:
        if self.rational is not None:
            core = f"{self.rational}"
        elif self.torsion is not None:
            d, digit = self.torsion
            core = f"p^{self.valuation}*zeta(order {d}, digit {digit})"
        else:
            core = repr(self.value)
        return f"{core} [mult {self.multiplicity}, {self.certificate}]"


@dataclass
class UnresolvedCluster:
    """A residue class that may hold roots the counter could not certify."""

    valuation: int
    center: int      # class representative of the unit part
    level: int       # the class is center + p^level Z_p, in unit coordinates
    upper_bound: int
    depth_reached: int
    reason: str

    def describe(self) -> str:
        return (
            f"class p^{self.valuation}*({self.center} + p^{self.level}*Z_p): "
            f"<= {self.upper_bound} roots ({self.reason})"
        )


@dataclass
class RootReport:
    poly: SparsePoly
    p: int
    prec: int
    depth: int
    entries: list[RootEntry] = field(default_factory=list)
    unresolved: list[UnresolvedCluster] = field(default_factory=list)

    @property
    def count_distinct(self) -> int:
        return len(self.entries)

    @property
    def count_with_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries)

    @property
    def upper_bound_with_multiplicity(self) -> int:
        return self.count_with_multiplicity + sum(c.upper_bound for c in self.unresolved)

    @property
    def fully_certified(self) -> bool:
        return not self.unresolved


@dataclass
class BoundCheck:
    name: str
    value: int
    applicable: bool
    satisfied: bool | None
    observed: int


# ---------------------------------------------------------------------------
# small integer helpers


def _comb_mod_p(n: int, k: int, p: int) -> int:
    """Binomial coefficient mod p by Lucas' theorem; n may be huge."""
    result = 1
    while n or k:
        ni, n = n % p, n // p
        ki, k = k % p, k // p
        if ki > ni:
            return 0
        result = result * (math.comb(ni, ki) % p) % p
    return result


def _primitive_root(p: int) -> int:
    """Least generator of F_p^*; p-1 is factored by trial division, O(sqrt(p))."""
    primes, n, q = [], p - 1, 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)
    gamma = 2
    while any(pow(gamma, (p - 1) // q, p) == 1 for q in primes):
        gamma += 1
    return gamma


# ---------------------------------------------------------------------------
# exact certificates: rational roots and torsion points


class _Heights(NamedTuple):
    a_max: int
    b_max: int
    digits: int


def _heights(f: SparsePoly, p: int, m: int) -> _Heights | None:
    """Bounds on the unit parts of the rational roots of valuation m.

    With f cleared to a primitive integer polynomial F, a rational root a/b
    in lowest terms has a | F(0) and b | lead(F).  Its unit part
    a'/b' = (a/b)/p^m then has a' | a_max = F(0)/p^max(m, 0) and
    b' | b_max = lead(F)/p^max(-m, 0), and two such fractions congruent
    mod p^digits, p^digits > 2 a_max b_max, are equal.  None when no
    rational root can have valuation m.
    """
    den = math.lcm(*(c.denominator for _, c in f.terms))
    ints = [int(c * den) for _, c in f.terms]
    content = math.gcd(*ints)
    a_max, a_rem = divmod(abs(ints[0]) // content, p ** max(m, 0))
    b_max, b_rem = divmod(abs(ints[-1]) // content, p ** max(-m, 0))
    if a_rem or b_rem:
        return None
    digits, power = 1, p
    while power <= 2 * a_max * b_max:
        digits, power = digits + 1, power * p
    return _Heights(a_max, b_max, digits)


def _rational_label(g: ModImage, heights: _Heights, unit: int,
                    known: int) -> Fraction | None:
    """The rational root u of g (unit coordinates) with u = unit mod p^known.

    Requires known >= heights.digits.  The half-extended Euclidean algorithm
    on (p^digits, unit) stops at the first remainder <= a_max; by the
    uniqueness of rational reconstruction (Wang, Guy, Davenport 1982) that
    row gives the only candidate fraction.  It is accepted only when it
    matches all known digits, its numerator and denominator divide a_max
    and b_max, and it makes g vanish exactly.
    """
    p = g.p
    a_max, b_max, digits = heights
    r0, r1, t0, t1 = p**digits, unit % p**digits, 0, 1
    while r1 > a_max:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not r1 or abs(t1) > b_max or math.gcd(r1, t1) != 1:
        return None
    u = Fraction(r1 if t1 > 0 else -r1, abs(t1))
    if a_max % u.numerator or b_max % u.denominator:
        return None
    if (u.numerator - unit * u.denominator) % p**known:
        return None
    return u if g.vanishes_at(u) else None


def _chain_multiplicity(g: ModImage, vanishes) -> int:
    """How many of g, g', g'', ... vanish at an exact point: its multiplicity.

    Bounded by the term count, as any nonzero root of a (t+1)-nomial has
    multiplicity <= t.
    """
    mult, current = 0, g
    while mult <= g.sparsity():
        if current.is_zero() or not vanishes(current):
            return mult
        mult, current = mult + 1, current.derivative()
    raise InternalError("multiplicity exceeded the term-count bound")


def rational_roots_with_multiplicity(g: ModImage, r: int, order: int,
                                     torsion, heights: _Heights,
                                     opts: CountOptions):
    """The rational roots of g in the unit residue class r, with multiplicities.

    g is in unit coordinates and ḡ has a zero of order >= 2 at r.  A root
    of multiplicity mu is a simple root of g^(mu-1), and mu <= min(order, t)
    for a (t+1)-nomial.  So for j = min(order, t) - 1 down to 0 the simple
    roots of g^(j) in the class are found by the counter's own residue
    refinement, with the exact points already known (`torsion`, as
    (point, multiplicity, order) triples, and the rational roots found at
    larger j) deflated at their multiplicities in g^(j).  Each simple root
    is lifted to heights.digits and reconstructed (`_rational_label`); a
    label equal to a known torsion point is that point, found again.
    Returns ([(u, multiplicity)] ascending, complete); complete is False
    when a refinement left a cluster, which may hide a rational root.
    """
    found: dict[Fraction, int] = {}
    complete = True
    lift_to = max(opts.prec, heights.digits)
    torsion_points = {_torsion_rational(d, g.p, 0) for _, _, d in torsion}
    for j in reversed(range(min(order, g.sparsity()))):
        gj = g
        for _ in range(j):
            gj = gj.derivative()
        gj = gj.normalized()
        known = [(point, mu - j, d) for point, mu, d in torsion if mu > j]
        known += [(u, mu - j, None) for u, mu in found.items() if mu > j]
        entries, clusters = _on_demand(functools.partial(
            _refine_class, gj, r, known, 0, CountOptions(lift_to, opts.depth)), opts.prec)
        complete = complete and not clusters
        for entry in entries:
            u = _rational_label(g, heights, entry.value.unit_mod(lift_to), lift_to)
            if u is not None and u not in found and u not in torsion_points:
                found[u] = _chain_multiplicity(g, lambda h: h.vanishes_at(u))
    return sorted(found.items()), complete


def _divmod_monic(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
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
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Dense integer coefficients of the d-th cyclotomic polynomial."""
    poly = [-1] + [0] * (d - 1) + [1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            poly, rem = _divmod_monic(poly, _cyclotomic(e))
            if any(rem):
                raise InternalError("nonzero remainder in a cyclotomic division")
    return tuple(poly)  # cached: shared by every caller


def _divisible_by_cyclotomic(g: SparsePoly, d: int) -> bool:
    """Does the d-th cyclotomic polynomial divide g over Q?

    A primitive d-th root of unity z has z^d = 1, so g(z) is the value at z
    of g with its denominators cleared and its exponents folded mod d: a
    dense integer polynomial of degree < d, whose remainder by Phi_d is zero
    exactly when g(z) is.
    """
    den = math.lcm(*(c.denominator for _, c in g.terms))
    folded = [0] * d
    for e, c in g.terms:
        folded[e % d] += c.numerator * (den // c.denominator)
    return not any(_divmod_monic(folded, _cyclotomic(d))[1])


def torsion_multiplicity(g: ModImage, d: int) -> int:
    """Exact multiplicity of the order-d Teichmuller points as roots of g.

    A torsion point of exact order d is a root of g over Q_p iff its minimal
    polynomial, the d-th cyclotomic polynomial, divides g over Q; the
    multiplicity is read off the derivative chain.  Each derivative is first
    evaluated at one order-d Teichmuller point mod p^N, where a root's value
    is 0, and is tested for divisibility only when that value is 0.
    """
    p = g.p
    zeta = teichmuller(p, pow(_primitive_root(p), (p - 1) // d, p))
    return _chain_multiplicity(g, lambda h: h.eval_mod(zeta.unit, p, zeta.prec) == 0
                               and _divisible_by_cyclotomic(h.exact(), d))


# ---------------------------------------------------------------------------
# dense local arithmetic (everything degree < prec, coefficients mod p^M)


def _dense_normalize(h: list[int], p: int, m_exp: int):
    """Divide out the least coefficient valuation, v(gcd); None if all vanish."""
    content = math.gcd(*h)
    if not content:
        return None, None
    nu = int_valuation(content, p)
    new_m = m_exp - nu
    mod = p**new_m
    return [c // p**nu % mod for c in h], new_m


def _deflate(h: list[int], ystar: int, mult: int, p: int, m_exp: int) -> list[int]:
    """Exact synthetic division of h by (y - ystar)^mult in Z/p^m_exp."""
    mod = p**m_exp
    for _ in range(mult):
        if len(h) < 2:
            raise PrecisionExhausted("local polynomial truncated below the deflation degree")
        quot, acc = [0] * (len(h) - 1), 0
        for i in range(len(h) - 1, 0, -1):
            acc = (acc * ystar + h[i]) % mod
            quot[i - 1] = acc
        if (acc * ystar + h[0]) % mod:
            raise InternalError("deflation by a certified exact root left a remainder")
        h = quot
    return h


def _point_mod(point, p: int, k: int) -> int:
    """An exact unit point -- a Teichmuller PadicNum or a Fraction -- mod p^k."""
    if isinstance(point, PadicNum):
        if point.prec < k:
            point = teichmuller(p, point.unit_mod(1), k)
        return point.residue(k)
    return point.numerator * pow(point.denominator, -1, p**k) % p**k


def _torsion_rational(order: int, p: int, m: int) -> Fraction | None:
    """p^m * xi for the rational torsion points xi = 1 and -1 (orders 1, 2)."""
    if order > 2:
        return None
    return Fraction(1 if order == 1 else -1) * Fraction(p) ** m


# ---------------------------------------------------------------------------
# the counter


def _hensel_entry(g: ModImage, start: int, known: int, prec: int,
                  heights: _Heights | None = None) -> RootEntry:
    """The entry of the simple root p^g.m * u, u the root of g that
    `hensel_lift` reaches from `start`, a unit residue known to `known` digits.

    Evaluation stays modular, so lacunary exponents in the millions never
    appear in exact powers.  With heights, u is labelled when rational: a
    simple residue class holds exactly one root, so a rational one is this
    one.  The label may need more digits than the report keeps; the lift to
    them, cut back to prec digits, is the root lifted to prec.
    """
    p, m = g.p, g.m
    lift_to = max(prec, heights.digits) if heights else prec
    root, cert = hensel_lift(g, PadicNum(p, 0, start, known), prec=lift_to)
    entry = RootEntry(
        value=PadicNum(p, m, root.unit_mod(prec), prec),
        valuation=m,
        multiplicity=1,
        certificate=HENSEL_SIMPLE,
        val_fprime=g.nu - m + cert.val_fprime_r0,
        hensel=cert,
    )
    if heights:
        unit = _rational_label(g, heights, root.unit_mod(lift_to), lift_to)
        if unit is not None:
            entry.rational = unit * Fraction(p) ** m
    return entry


def count_roots(f: SparsePoly, p: int, opts: CountOptions | None = None) -> RootReport:
    """Certified inventory of the roots of f in Q_p^*, with multiplicities.

    Strategy: strip the monomial factor and the p-content, then walk the
    Newton polygon grouping roots by valuation and refining by residue
    digits.  An input f(x) = g(x^p) needs no path of its own: its residue
    roots are zeros of order p*k (`_residue_order`).  Multiplicities above
    one are only ever asserted at exactly representable points; anything
    else is returned as an unresolved cluster with an upper bound.
    """
    opts = opts or CountOptions()
    if p == 2 or not is_prime(p):
        raise PreconditionFailed(f"p must be an odd prime, got {p}")
    if f.is_zero():
        raise PreconditionFailed("cannot count roots of the zero polynomial")

    report = RootReport(poly=f, p=p, prec=opts.prec, depth=opts.depth)
    stripped, _ = f.strip_lowest()
    if stripped.num_terms() <= 1:
        return report
    normalized = scale_substitute(stripped, p, 0)
    for m in newton_polygon(normalized, p).integer_root_valuations():
        entries, clusters = segment_root_count(normalized, p, m, opts)
        report.entries.extend(entries)
        report.unresolved.extend(clusters)

    report.entries.sort(key=RootEntry.sort_key)
    report.unresolved.sort(key=lambda c: (c.valuation, c.center))
    return report


def _reduce_mod_p(g: SparsePoly, p: int) -> dict[int, int]:
    """The reduction of g mod p as {exponent: coefficient}, monomial factor stripped."""
    support = {e: c for e, c in g.residues(p, 1) if c}
    if not support:
        raise InternalError("residue polynomial vanished; normalize first")
    low = min(support)
    return {e - low: c for e, c in support.items()}


def _unit_zeros(support: dict[int, int], p: int) -> list[tuple[int, int]]:
    """The zeros r = gamma^i in F_p^* of a support {exponent: coefficient mod p},
    as (r, i) ascending in r: the one F_p zero finder of both refinement levels.

    gamma is a primitive root.  On units x^(p-1) = 1, so the exponents are
    folded mod p-1 first.  Dividing by the first folded term c0*x^e0 leaves
    -c0 = sum of c*x^(e-e0) over the others, and the walk over
    i = 0..p-2 keeps each of their values c*gamma^(i*(e-e0)) current with
    one multiplication per step.  When the folded terms all cancel, every
    unit residue is a zero.
    """
    folded: dict[int, int] = {}
    for e, c in support.items():
        k = e % (p - 1)
        folded[k] = (folded.get(k, 0) + c) % p
    (e0, c0), *rest = [(e, c) for e, c in folded.items() if c] or [(0, 0)]
    gamma = _primitive_root(p)
    target = -c0 % p
    values = [c for _, c in rest]
    steps = [pow(gamma, (e - e0) % (p - 1), p) for e, _ in rest]
    zero_logs = []
    for i in range(p - 1):
        if sum(values) % p == target:
            zero_logs.append(i)
        values = [v * s % p for v, s in zip(values, steps)]
    return sorted((pow(gamma, i, p), i) for i in zero_logs)


def _residue_order(support: dict[int, int], p: int, r: int) -> int:
    """Multiplicity of the unit residue r as a root of a support mod p.

    The support, sparse (`_reduce_mod_p`) or dense (`_local_count`), is
    folded through h(x^(p^s)) = h(x)^(p^s) (Frobenius): the order at r is
    p^s times h's, so every input whose exponents are all divisible by p
    is counted here, and huge p-power exponent gcds never force a long
    derivative scan.  What remains is checked with divided (Hasse)
    derivatives, Lucas for the binomials, Fermat for the powers.
    """
    if len(support) == 1:
        return 0  # a monomial has no unit roots
    scale = p ** int_valuation(math.gcd(*support.keys()), p)
    if scale > 1:
        # h(x^(p^s)) = h(x)^(p^s) over F_p; Frobenius fixes the coefficients
        support = {e // scale: c for e, c in support.items()}

    k = 0
    while True:
        total = 0
        for e, c in support.items():
            if e < k:
                continue
            total = (total + c * _comb_mod_p(e, k, p) * pow(r, (e - k) % (p - 1), p)) % p
        if total:
            return scale * k
        k += 1
        if k > max(support):
            raise InternalError("residue order exceeded the degree")


def segment_root_count(f0: SparsePoly, p: int, m: int, opts: CountOptions):
    """Roots of f0 with valuation m, found by residue refinement at that scale.

    f0 has a nonzero constant term and minimum coefficient valuation 0, and
    m is the integral root valuation of one of its Newton-polygon segments.
    The zeros of the reduction of g, the rescaled polynomial's `ModImage`,
    are the first digits of the roots: simple ones are Hensel-lifted, multiple
    ones are cleared of their exact points and refined.  Returns (entries, clusters).
    """
    g = ModImage.scaled(f0, p, m)
    support = _reduce_mod_p(g, p)
    zeros = _unit_zeros(support, p)
    if not zeros:
        return [], []  # no root has valuation m: skip the set-up below
    heights = _heights(f0, p, m)
    n = opts.prec
    entries: list[RootEntry] = []
    clusters: list[UnresolvedCluster] = []
    # the torsion multiplicity depends only on the order d, shared by
    # every residue of that order
    tor_mults: dict[int, int] = {}

    for r, i in zeros:
        ord0 = _residue_order(support, p, r)
        if ord0 == 1:
            entries.append(_hensel_entry(g, r, n + 8, n, heights))
            continue

        # exactly representable roots of this residue class, as
        # (point, multiplicity, torsion order or None for a rational)
        exact_points = []
        d = (p - 1) // math.gcd(i, p - 1)  # the order of r = gamma^i
        if d not in tor_mults:
            tor_mults[d] = torsion_multiplicity(g, d)
        if tor_mults[d] > 0:
            exact_points.append((teichmuller(p, r, n), tor_mults[d], d))
        if heights and tor_mults[d] < ord0:  # else the torsion point fills the class
            rationals, _ = rational_roots_with_multiplicity(
                g, r, ord0, exact_points, heights, opts)
            exact_points += [(u, mu, None) for u, mu in rationals]

        for point, mu, order in exact_points:
            entries.append(_exact_entry(g, point, mu, order, r, n))

        # the class holds exactly ord0 roots over C_p; when the exact points
        # do not account for all of them, deflate those and keep looking
        remaining = ord0 - sum(mu for _, mu, _ in exact_points)
        if remaining < 0:
            raise InternalError("exact multiplicities exceed the residue order")
        if remaining:
            sub_entries, sub_clusters = _on_demand(functools.partial(
                _refine_class, g, r, exact_points, remaining, opts), n)
            entries.extend(sub_entries)
            clusters.extend(sub_clusters)
    return entries, clusters


def _on_demand(attempt, n: int):
    """attempt(n) -> (entries, clusters) at n working digits, run again at
    twice the digits, up to MAX_WORKING_PREC, while a cluster has reason
    "precision": the one rule that sets the working precision."""
    while True:
        entries, clusters = attempt(n)
        if n >= MAX_WORKING_PREC or all(c.reason != "precision" for c in clusters):
            return entries, clusters
        n = min(2 * n, MAX_WORKING_PREC)


def _refine_class(g: ModImage, r: int, exact_points, bound: int,
                  opts: CountOptions, n: int):
    """The at most `bound` roots of g in the unit class r + pZ_p other than
    `exact_points`, at n working digits; entries carry opts.prec digits.

    g on the class is a dense polynomial in y, x = r + p*y, truncated mod
    p^(n-1), with each (point, multiplicity, order) of `exact_points`
    divided out; `_local_count` refines it.
    """
    p, m_exp = g.p, n - 1
    mod = p**m_exp
    h = [c % mod for c in taylor_shift_truncate(g.residues(p, n), r, p, n)]
    try:
        for point, mu, _ in exact_points:
            h = _deflate(h, ((_point_mod(point, p, n) - r) // p) % mod, mu, p, m_exp)
    except PrecisionExhausted:
        return [], [UnresolvedCluster(g.m, r, 1, bound, 0, "precision")]
    return _local_count(h, m_exp, opts.depth, r, 1, g, opts, inherited_bound=bound)


def _exact_entry(g: ModImage, point, mu, order, r, n) -> RootEntry:
    """The entry of the exact point p^g.m * point: torsion of the given order
    with first digit r, or a rational when order is None."""
    p, m = g.p, g.m
    dv = eval_with_derivative(g.residues(p, n), _point_mod(point, p, n), p**n)[1]
    val_fprime = g.nu - m + int_valuation(dv, p) if dv else None
    if order is None:
        rational = point * Fraction(p) ** m
        return RootEntry(PadicNum.from_fraction(rational, p, n), m, mu, EXACT_RATIONAL,
                         rational=rational, val_fprime=val_fprime)
    return RootEntry(point.shift(m), m, mu, EXACT_TORSION,
                     rational=_torsion_rational(order, p, m), torsion=(order, r),
                     val_fprime=val_fprime)


def _digit_zeros(h: list[int], p: int) -> list[tuple[int, int]]:
    """The zeros of the dense h mod p, as (digit, order) ascending in digit."""
    support = {k: c % p for k, c in enumerate(h) if c % p}
    if not support:
        raise InternalError("normalized local polynomial vanished mod p")
    low = min(support)  # the order of the digit 0
    zeros = [(0, low)] if low else []
    return zeros + [(r, _residue_order(support, p, r)) for r, _ in _unit_zeros(support, p)]


def _local_count(h, m_exp, depth, center, level, g: ModImage, opts, inherited_bound):
    """Count Z_p-roots of the dense local polynomial h (truncated mod p^m_exp).

    `center`/`level` track the unit-coordinate class center + p^level Z_p
    this polynomial describes; certified roots are polished against the
    sparse g before being reported.
    """
    p, m = g.p, g.m
    entries: list[RootEntry] = []
    clusters: list[UnresolvedCluster] = []
    normalized, new_m = _dense_normalize(h, p, m_exp)
    if normalized is None or new_m < MIN_WORKING_PREC:
        return entries, [UnresolvedCluster(m, center, level, inherited_bound,
                                           opts.depth - depth, "precision")]

    for digit, k in _digit_zeros(normalized, p):
        new_center = center + digit * p**level
        if k == 1:
            y = newton_lift(lambda _: enumerate(normalized), p, digit, 0, 1, new_m)
            x_res = (center + p**level * y) % p ** (level + new_m)
            try:
                entries.append(_hensel_entry(g, x_res, level + new_m, opts.prec))
            except (PreconditionFailed, PrecisionExhausted):
                clusters.append(UnresolvedCluster(m, new_center, level + 1, 1,
                                                  opts.depth - depth, "precision"))
            continue
        if depth <= 0:
            clusters.append(UnresolvedCluster(m, new_center, level + 1, k,
                                              opts.depth, "depth"))
            continue
        shifted = taylor_shift_truncate(enumerate(normalized), digit, p, new_m)
        sub_e, sub_c = _local_count(shifted, new_m, depth - 1, new_center,
                                    level + 1, g, opts, inherited_bound=k)
        entries.extend(sub_e)
        clusters.extend(sub_c)
    return entries, clusters


# ---------------------------------------------------------------------------
# bound verdicts


def verify_upper_bounds(report: RootReport, t: int, p: int) -> list[BoundCheck]:
    """Check the certified counts against the closed-form upper bounds.

    The (t^2-t+1)(p-1) bound requires p > t+1 (the unramified case); outside
    that range it is reported as not applicable with the observed count
    recorded.  A rational-roots-only comparison against the ordered-field
    bound 2t is included as a diagnostic.
    """
    observed = report.count_with_multiplicity
    bound = sparse_upper_bound(t, FieldParams(p))
    main = BoundCheck(
        name="sparse-upper-bound",
        value=sparse_upper_bound_value(t, p),
        applicable=bound is not None,
        satisfied=observed <= bound if bound is not None else None,
        observed=observed,
    )
    rational_mult = sum(
        e.multiplicity for e in report.entries if e.rational is not None
    )
    descartes = BoundCheck(
        name="descartes-rational-diagnostic",
        value=2 * t,
        applicable=True,
        satisfied=rational_mult <= 2 * t,
        observed=rational_mult,
    )
    return [main, descartes]
