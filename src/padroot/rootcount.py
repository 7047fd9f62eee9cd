"""Certified counting of roots in Q_p^*, with multiplicities.

The counter walks the Newton polygon segment by segment, and counts every
segment of integral slope the same way, by residue refinement: reduce the
rescaled polynomial mod p, Hensel-lift simple residue roots, and recurse
into residue classes holding multiple ones.  Before recursing, the class is
cleared of exactly-known roots -- torsion points of order d, certified by
dividing the exponent-folded polynomial by Phi_d as a product of binomials
x^e - 1, the primes of d read from the one factorisation of p-1, and
rational points, certified by exact evaluation -- whose multiplicities are
therefore exact; the recursion continues on the deflated local polynomial
so roots sharing the class are still found; a multiple root left
undeflated ends in a cluster, so only a class whose refinement leaves one
is searched for multiple rationals.  Every torsion point is a power of
Omega, the Teichmuller point of the generator, lifted once per prime; an
order d is tested only when the residue scan found all phi(d) residues of
that order, and a simple torsion root starts its Hensel lift at its own
digits.  Rational points are never searched for by factoring: a rational
root's digits are the digits of a p-adic root the counter certifies
anyway, and p-adic rational reconstruction turns enough of them back into
the fraction.  Whatever survives the depth budget is reported as an
unresolved cluster with an algebraic-closure disk bound, never as a
guessed count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import add, mod, mul
from typing import NamedTuple

from .bounds import FieldParams, descartes_bound, sparse_upper_bound, sparse_upper_bound_value
from .errors import InternalError, PrecisionExhausted, PreconditionFailed
from .padic import (
    DEFAULT_PRECISION,
    ApproxRootCertificate,
    PadicNum,
    eval_with_derivative,
    hensel_lift,
    int_valuation,
    is_prime,
    newton_lift,
    teichmuller,
)
from .sparsepoly import ModImage, SparsePoly, newton_polygon, taylor_shift_truncate

HENSEL_SIMPLE = "HenselSimple"
EXACT_TORSION = "ExactTorsion"
EXACT_RATIONAL = "ExactRational"

# A local polynomial left with fewer than MIN_WORKING_PREC digits has run out;
# the working digits then double from --prec, up to MAX_WORKING_PREC, before
# "precision" is reported (`_on_demand`).  The cap bounds the time it takes.
MIN_WORKING_PREC = 6
MAX_WORKING_PREC = 320

# The residue scan (`_unit_zeros`) walks F_p^* this many exponents at a time:
# long enough that its arithmetic runs in `map`, short enough that its
# tables stay small whatever p is.
WALK_BLOCK = 512


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
        return (self.valuation, self.value.unit_mod(min(self.value.prec, 12)))

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
        return (f"class p^{self.valuation}*({self.center} + p^{self.level}*Z_p): "
                f"<= {self.upper_bound} roots ({self.reason})")


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


@functools.cache
def _unit_group(p: int) -> tuple[int, tuple[int, ...]]:
    """The least generator of F_p^* and the primes of p-1: the one
    factorisation of p-1, by trial division, O(sqrt(p)), which also gives
    the torsion test the primes of each order d | p-1."""
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
    return gamma, tuple(primes)


@functools.cache
def _omega(p: int, prec: int) -> int:
    """Omega, the Teichmuller point of the generator gamma, mod p^prec: Omega^i
    is that of gamma^i, and Omega^((p-1)/d) a primitive d-th root of unity."""
    return teichmuller(p, _unit_group(p)[0], prec).unit


@functools.cache
def _phi(p: int, d: int) -> int:
    """Euler's phi of an order d | p-1, from the primes of p-1."""
    qs = [q for q in _unit_group(p)[1] if d % q == 0]
    return d // math.prod(qs) * math.prod(q - 1 for q in qs)


# ---------------------------------------------------------------------------
# exact certificates: rational roots and torsion points


class _Heights(NamedTuple):
    a_max: int
    b_max: int
    digits: int


def _heights(f: SparsePoly, p: int, m: int) -> _Heights | None:
    """Bounds on the unit parts of the rational roots of valuation m.

    f is the primitive integer polynomial `count_roots` clears its input to,
    so a rational root a/b in lowest terms has a | f(0) and b | lead(f).
    Its unit part a'/b' = (a/b)/p^m then has a' | a_max = f(0)/p^max(m, 0)
    and b' | b_max = lead(f)/p^max(-m, 0), and two such fractions congruent
    mod p^digits, p^digits > 2 a_max b_max, are equal.  None when no
    rational root can have valuation m.
    """
    a_max, a_rem = divmod(abs(f.terms[0][1].numerator), p ** max(m, 0))
    b_max, b_rem = divmod(abs(f.terms[-1][1].numerator), p ** max(-m, 0))
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
    """The multiple rational roots of g in the unit residue class r, with
    multiplicities (and any simple one that is a root of some g^(j) too).

    g is in unit coordinates and ḡ has a zero of order >= 2 at r.  A root
    of multiplicity mu >= 2 is a simple root of g^(mu-1), mu <= min(order, t)
    for a (t+1)-nomial; simple roots are labelled where the class's
    refinement on g lifts them, and `_refine_rest` calls this search only
    when that refinement leaves a cluster.  So for j = min(order, t) - 1
    down to 1 the simple roots of g^(j) in the class are found by the
    counter's own residue refinement, with the exact points already known
    (`torsion`, as (point, multiplicity, order) triples, and the rational
    roots found at larger j) deflated at their multiplicities in g^(j).
    Each is lifted to heights.digits and reconstructed (`_rational_label`);
    a label equal to a known torsion point is that point, found again.
    Returns ([(u, multiplicity)] ascending, complete); complete is False
    when a refinement left a cluster, which may hide a multiple root.
    """
    found: dict[Fraction, int] = {}
    complete = True
    lift_to = max(opts.prec, heights.digits)
    torsion_points = {_torsion_rational(d, g.p, 0) for _, _, d in torsion}
    for j in reversed(range(1, min(order, g.sparsity()))):
        gj = g
        for _ in range(j):
            gj = gj.derivative()
        gj = gj.normalized()
        known = [(point, mu - j, d) for point, mu, d in torsion if mu > j]
        known += [(u, mu - j, None) for u, mu in found.items() if mu > j]
        entries, clusters = _on_demand(functools.partial(
            _refine_class, gj, r, known, 0, None, CountOptions(lift_to, opts.depth)), opts.prec)
        complete = complete and not clusters
        for entry in entries:
            u = _rational_label(g, heights, entry.value.unit_mod(lift_to), lift_to)
            if u is not None and u not in found and u not in torsion_points:
                found[u] = _chain_multiplicity(g, lambda h: h.vanishes_at(u))
    return sorted(found.items()), complete


def _divisible_by_cyclotomic(g: SparsePoly, d: int, primes) -> bool:
    """Does the d-th cyclotomic polynomial divide the integer polynomial g?

    A primitive d-th root of unity z has z^d = 1, so g(z) = G(z), G being g
    with its exponents folded mod d.  Phi_d is the product of
    (x^(d/k) - 1)^mu(k) over the squarefree k | d, whose primes are those
    of `primes` dividing d, so it divides G exactly when the binomials with
    mu(k) = +1 divide G times those with mu(k) = -1: 2^omega(d) linear
    passes, with no Phi_d built (Arnold and Monagan, Math. Comp. 2011).
    """
    folded = [0] * d
    for e, c in g.terms:
        folded[e % d] += c.numerator
    squarefree = [(1, 1)]  # (k, mu(k))
    for q in primes:
        if d % q == 0:
            squarefree += [(k * q, -mu) for k, mu in squarefree]
    for k, mu in squarefree:
        if mu < 0:
            m = d // k  # times x^m - 1
            folded = [a - b for a, b in zip([0] * m + folded, folded + [0] * m)]
    for k, mu in squarefree:
        if mu > 0:
            m = d // k  # by x^m - 1: x^m = 1 carries each coefficient m places down
            for j in reversed(range(m, len(folded))):
                folded[j - m] += folded[j]
            if any(folded[:m]):  # the remainder
                return False
            folded = folded[m:]
    return True


def torsion_multiplicity(g: ModImage, d: int) -> int:
    """Exact multiplicity of the order-d Teichmuller points as roots of g.

    A torsion point of exact order d is a root of g over Q_p iff its minimal
    polynomial, the d-th cyclotomic polynomial, divides g over Q; the
    multiplicity is read off the derivative chain.  Each derivative is first
    evaluated at the order-d Teichmuller point Omega^((p-1)/d) mod p^N, where
    a root's value is 0, and is tested for divisibility only where it is 0.
    """
    p, n = g.p, DEFAULT_PRECISION
    zeta = pow(_omega(p, n), (p - 1) // d, p**n)
    return _chain_multiplicity(g, lambda h: h.eval_mod(zeta, p, n) == 0
                               and _divisible_by_cyclotomic(h.exact(), d, _unit_group(p)[1]))


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
    """An exact unit point -- a Teichmuller PadicNum or a Fraction -- mod p^k;
    w^p = w, so x = w mod p^j gives x^(p^s) = w mod p^(j+s), with no new lift."""
    if isinstance(point, PadicNum):
        return pow(point.unit, p ** max(k - point.prec, 0), p**k)
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
    appear in exact powers.  With heights, u is labelled by the rational
    root of g it agrees with in every lifted digit, if any: in a simple
    residue class that is u itself (`_refine_rest` vets the others).  The
    label may need more digits than the report keeps; the lift to them,
    cut back to prec digits, is the root lifted to prec.
    """
    p, m = g.p, g.m
    lift_to = max(prec, heights.digits) if heights else prec
    root, cert = hensel_lift(g, PadicNum(p, 0, start, known), prec=lift_to)
    entry = RootEntry(PadicNum(p, m, root.unit_mod(prec), prec), m, 1, HENSEL_SIMPLE,
                      val_fprime=g.nu - m + cert.val_fprime_r0, hensel=cert)
    if heights:
        unit = _rational_label(g, heights, root.unit_mod(lift_to), lift_to)
        if unit is not None:
            entry.rational = unit * Fraction(p) ** m
    return entry


def count_roots(f: SparsePoly, p: int, opts: CountOptions | None = None) -> RootReport:
    """Certified inventory of the roots of f in Q_p^*, with multiplicities.

    Strategy: clear f once to the primitive integer polynomial F with its
    monomial factor stripped, which has the same roots in Q_p^* at the same
    multiplicities, then walk F's Newton polygon grouping roots by valuation
    and refining by residue digits.  An input f(x) = g(x^p) needs no path of
    its own: its residue roots are zeros of order p*k (`_residue_order`).
    Multiplicities above one are only ever asserted at exactly representable
    points; anything else is an unresolved cluster with an upper bound.
    """
    opts = opts or CountOptions()
    if p == 2 or not is_prime(p):
        raise PreconditionFailed(f"p must be an odd prime, got {p}")
    if f.is_zero():
        raise PreconditionFailed("cannot count roots of the zero polynomial")

    report = RootReport(poly=f, p=p, prec=opts.prec, depth=opts.depth)
    if f.num_terms() <= 1:
        return report
    low, den = f.terms[0][0], math.lcm(*(c.denominator for _, c in f.terms))
    ints = [(e - low, c.numerator * (den // c.denominator)) for e, c in f.terms]
    content = math.gcd(*(c for _, c in ints))
    primitive = SparsePoly((e, c // content) for e, c in ints)
    for m in newton_polygon(primitive, p).integer_root_valuations():
        entries, clusters = segment_root_count(primitive, p, m, opts)
        report.entries.extend(entries)
        report.unresolved.extend(clusters)

    report.entries.sort(key=RootEntry.sort_key)
    report.unresolved.sort(key=lambda c: (c.valuation, c.center))
    return report


def _reduce_mod_p(g: ModImage, p: int) -> dict[int, int]:
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
    -c0 = sum of c*x^(e-e0) over the others.  The walk over i = 0..p-2 takes
    WALK_BLOCK exponents at a time: each other term's values on a block are
    its table of step powers s^b, s = gamma^(e-e0), times its value at the
    block's start, which then advances by the stride s^WALK_BLOCK, so the
    arithmetic runs in `map` and nothing grows with p.  When the folded terms
    all cancel, every unit residue is a zero.
    """
    folded: dict[int, int] = {}
    for e, c in support.items():
        k = e % (p - 1)
        folded[k] = (folded.get(k, 0) + c) % p
    (e0, c0), *rest = [(e, c) for e, c in folded.items() if c] or [(0, 0)]
    gamma, _ = _unit_group(p)
    if not rest:
        # a lone folded term has no unit zero; no term at all vanishes everywhere
        return [] if c0 else sorted((pow(gamma, i, p), i) for i in range(p - 1))
    target = -c0 % p
    block = min(WALK_BLOCK, p - 1)
    tables, strides, starts = [], [], []
    for e, c in rest:
        step = pow(gamma, (e - e0) % (p - 1), p)
        table = [1]
        for _ in range(block - 1):
            table.append(table[-1] * step % p)
        tables.append(table)
        strides.append(table[-1] * step % p)
        starts.append(c)
    zero_logs = []
    for base in range(0, p - 1, block):
        total = map(mul, tables[0], repeat(starts[0]))
        for table, start in zip(tables[1:], starts[1:]):
            total = map(add, total, map(mul, table, repeat(start)))
        residues = list(map(mod, total, repeat(p)))
        del residues[p - 1 - base:]  # the last block may be short
        i = -1
        for _ in range(residues.count(target)):
            i = residues.index(target, i + 1)
            zero_logs.append(base + i)
        starts = [v * s % p for v, s in zip(starts, strides)]
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

    f0 is a primitive integer polynomial with a nonzero constant term, and
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
    n, big = opts.prec, opts.prec + 8
    entries, clusters = [], []
    orders = [(p - 1) // math.gcd(i, p - 1) for _, i in zeros]  # of each r = gamma^i
    found = dict.fromkeys(orders, 0)
    for d in orders:
        found[d] += 1
    # Phi_d | g puts all phi(d) residues of order d among the zeros of g mod p
    # (p = 1 mod d): if fewer are found, none is a root
    full = {d for d, k in found.items() if k == _phi(p, d)}
    tested = {}  # per (order, simple?): whether g = 0 mod p^big there, or the multiplicity
    power, last = 1, 0  # Omega^last mod p^big, the logs i taken in ascending order
    for (r, i), d in sorted(zip(zeros, orders), key=lambda z: z[0][1]):
        ord0 = _residue_order(support, p, r)
        key = (d, ord0 == 1)
        if d in full and key not in tested:
            tested[key] = torsion_multiplicity(g, d) if ord0 > 1 else d > 1 and g.eval_mod(
                pow(_omega(p, big), (p - 1) // d, p**big), p, big) == 0
        torsion = tested.get(key)
        if torsion:  # Omega^i, one small power away from the last one
            last, power = i, power * pow(_omega(p, big), i - last, p**big) % p**big
        if ord0 == 1:
            # any lift of a simple zero is a valid Hensel start, as v(g') = 0 there;
            # a torsion root started at Omega^i (r itself at d = 1) takes no step
            entries.append(_hensel_entry(g, power if torsion else r, big, n, heights))
            continue
        # its torsion point as (point, multiplicity, order); `_refine_rest` finds rationals
        exact_points = [(PadicNum(p, 0, power % p**n, n), torsion, d)] if torsion else []
        sub_entries, sub_clusters = _refine_rest(g, r, ord0, exact_points, heights, opts)
        entries += sub_entries
        clusters += sub_clusters
    return entries, clusters


def _refine_rest(g: ModImage, r: int, order: int, exact_points, heights, opts):
    """The entries and clusters of the unit class r, which holds `order`
    roots of g over C_p, given its (point, multiplicity, order) `exact_points`.

    The exact points are deflated and the rest is refined on g, labelled by
    heights.  A multiple root left in the rest ends in a cluster, so only a
    cluster, with no rational point known yet, calls for the derivative
    search; the rationals it finds are deflated and the class refined again.
    A label among the exact points is an irrational root agreeing with one
    in every lifted digit.  Any other is a simple rational root, an exact
    point too: it is deflated and the rest refined again unlabelled, so no
    Hensel witness depends on where it was met.
    """
    remaining = order - sum(mu for _, mu, _ in exact_points)
    if remaining < 0:
        raise InternalError("exact multiplicities exceed the residue order")
    entries, clusters = [], []
    if remaining:
        entries, clusters = _on_demand(functools.partial(
            _refine_class, g, r, exact_points, remaining, heights, opts), opts.prec)
    if heights and clusters and all(d is not None for _, _, d in exact_points):
        rationals, _ = rational_roots_with_multiplicity(g, r, order, exact_points, heights, opts)
        if rationals:
            exact_points = exact_points + [(u, mu, None) for u, mu in rationals]
            return _refine_rest(g, r, order, exact_points, heights, opts)
    known = {point if d is None else _torsion_rational(d, g.p, 0) for point, _, d in exact_points}
    simple = {e.rational / Fraction(g.p) ** g.m for e in entries if e.rational is not None} - known
    if simple:
        torsion = [pt for pt in exact_points if pt[2] is not None]
        rationals = [pt for pt in exact_points if pt[2] is None] + [(u, 1, None) for u in simple]
        return _refine_rest(g, r, order, torsion + sorted(rationals), None, opts)
    for entry in entries:
        entry.rational = None
    return [_exact_entry(g, *point, r, opts.prec) for point in exact_points] + entries, clusters


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
                  heights: _Heights | None, opts: CountOptions, n: int):
    """The at most `bound` roots of g in the unit class r + pZ_p other than
    `exact_points`, at n working digits; entries carry opts.prec digits.

    g on the class is a dense polynomial in y, x = r + p*y, truncated mod
    p^(n-1), with each (point, multiplicity, order) of `exact_points`
    divided out; `_local_count` refines it, labelling roots by `heights`.
    """
    p, m_exp = g.p, n - 1
    mod = p**m_exp
    h = [c % mod for c in taylor_shift_truncate(g.residues(p, n), r, p, n)]
    try:
        for point, mu, _ in exact_points:
            h = _deflate(h, ((_point_mod(point, p, n) - r) // p) % mod, mu, p, m_exp)
    except PrecisionExhausted:
        return [], [UnresolvedCluster(g.m, r, 1, bound, 0, "precision")]
    return _local_count(h, m_exp, r, 1, g, heights, opts, inherited_bound=bound)


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


def _local_count(h, m_exp, center, level, g: ModImage, heights, opts, inherited_bound):
    """Count Z_p-roots of the dense local polynomial h (truncated mod p^m_exp).

    `center`/`level` track the unit-coordinate class center + p^level Z_p
    this polynomial describes; certified roots are polished against the
    sparse g before being reported, and labelled when rational by `heights`.
    """
    p, m = g.p, g.m
    entries, clusters = [], []
    normalized, new_m = _dense_normalize(h, p, m_exp)
    if normalized is None or new_m < MIN_WORKING_PREC:
        return entries, [UnresolvedCluster(m, center, level, inherited_bound,
                                           level - 1, "precision")]

    for digit, k in _digit_zeros(normalized, p):
        new_center = center + digit * p**level
        if k == 1:
            y = newton_lift(lambda _: enumerate(normalized), p, digit, 0, 1, new_m)
            x_res = (center + p**level * y) % p ** (level + new_m)
            try:
                entries.append(_hensel_entry(g, x_res, level + new_m, opts.prec, heights))
            except (PreconditionFailed, PrecisionExhausted):
                clusters.append(UnresolvedCluster(m, new_center, level + 1, 1,
                                                  level - 1, "precision"))
            continue
        if level > opts.depth:
            clusters.append(UnresolvedCluster(m, new_center, level + 1, k,
                                              level - 1, "depth"))
            continue
        shifted = taylor_shift_truncate(enumerate(normalized), digit, p, new_m)
        sub_e, sub_c = _local_count(shifted, new_m, new_center, level + 1, g, heights, opts,
                                    inherited_bound=k)
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
    rational_mult = sum(e.multiplicity for e in report.entries if e.rational is not None)
    return [
        BoundCheck(name="sparse-upper-bound", value=sparse_upper_bound_value(t, p),
                   applicable=bound is not None, observed=observed,
                   satisfied=observed <= bound if bound is not None else None),
        BoundCheck(name="descartes-rational-diagnostic", value=descartes_bound(t),
                   applicable=True, observed=rational_mult,
                   satisfied=rational_mult <= descartes_bound(t)),
    ]
