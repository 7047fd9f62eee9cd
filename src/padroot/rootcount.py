"""Certified counting of roots in Q_p^*, with multiplicities.

The counter walks the Newton polygon segment by segment.  A segment whose
endpoints are consecutive support points and whose width is prime to p is
counted through the associated binomial (all such roots are simple and
Hensel-certified).  Every other segment goes through residue refinement:
reduce the rescaled polynomial mod p, Hensel-lift simple residue roots, and
recurse into residue classes holding multiple ones.  Before recursing, the
class is cleared of exactly-known roots -- torsion points, certified by
cyclotomic divisibility of the exponent-folded polynomial, and rational
points, certified by exact evaluation -- whose multiplicities are therefore
exact; the recursion continues on the deflated local polynomial so roots
sharing the class are still found.  Whatever survives the depth budget is
reported as an unresolved cluster with an algebraic-closure disk bound,
never as a guessed count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InternalError, PrecisionExhausted, PreconditionFailed
from .padic import (
    ApproxRootCertificate,
    PadicNum,
    fraction_valuation,
    hensel_lift,
    int_valuation,
    teichmuller,
)
from .sparsepoly import (
    SparsePoly,
    Segment,
    newton_polygon,
    reduce_exponents_mod_torsion,
    scale_substitute,
    taylor_shift_truncate,
)

HENSEL_SIMPLE = "HenselSimple"
EXACT_TORSION = "ExactTorsion"
EXACT_RATIONAL = "ExactRational"

MIN_WORKING_PREC = 6


class _NotApplicable:
    def __repr__(self):
        return "NotApplicable"

    def __bool__(self):
        return False


NOT_APPLICABLE = _NotApplicable()


@dataclass
class CountOptions:
    prec: int = 40
    depth: int = 8
    trial_division_bound: int = 100_000
    max_rational_candidates: int = 20_000


@dataclass
class RootEntry:
    """One certified distinct root of f in Q_p^*."""

    value: PadicNum
    valuation: int
    multiplicity: int
    certificate: str
    rational: Fraction | None = None        # exact value when known rational
    torsion: tuple[int, int] | None = None  # (order d, first digit) at p^valuation * xi
    val_fprime: int | None = None           # v(f'(root)); None if not visible
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

    def entries_at(self, valuation: int) -> list[RootEntry]:
        return [e for e in self.entries if e.valuation == valuation]


@dataclass
class BoundCheck:
    name: str
    value: int
    applicable: bool
    satisfied: bool | None
    observed: int


# ---------------------------------------------------------------------------
# small integer helpers


def _is_prime(n: int) -> bool:
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


from functools import lru_cache


@lru_cache(maxsize=4096)
def _factorize(n: int, trial_bound: int) -> dict[int, int] | None:
    """Prime factorization; None when it cannot be completed at desk scale."""
    if n == 0:
        return None
    n = abs(n)
    out: dict[int, int] = {}
    for q in range(2, trial_bound):
        if q * q > n:
            break
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    if n == 1:
        return out
    if _is_prime(n):
        out[n] = out.get(n, 0) + 1
        return out
    stack = [n]
    for _ in range(64):
        if not stack:
            return out
        m = stack.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        if d is None:
            return None
        stack.extend([d, m // d])
    return None


def _pollard_rho(n: int, budget: int = 1 << 16) -> int | None:
    # bounded-effort factor extraction; None means "too hard at desk scale",
    # which degrades the rational-root scan to incomplete, never to wrong
    if n % 2 == 0:
        return 2
    for c in range(1, 8):
        x = y = 2
        d = 1
        for _ in range(budget):
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
            if d != 1:
                break
        if d not in (1, n):
            return d
    return None


def _divisors(factors: dict[int, int], cap: int) -> list[int] | None:
    out = [1]
    for q, e in factors.items():
        powers = [q**i for i in range(e + 1)]
        out = [d * w for d in out for w in powers]
        if len(out) > cap:
            return None
    return sorted(out)


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
    gamma = 2
    while any(pow(gamma, (p - 1) // q, p) == 1 for q in _factorize(p - 1, p)):
        gamma += 1
    return gamma


# ---------------------------------------------------------------------------
# exact certificates: rational roots and torsion points


def rational_roots_with_multiplicity(f: SparsePoly, opts: CountOptions) -> tuple[list[tuple[Fraction, int]], bool]:
    """All rational roots of f with exact multiplicities, plus a completeness flag.

    Classical rational-root candidates from divisors of the cleared constant
    and leading coefficients, prescreened modulo two large primes before any
    exact evaluation.  When a coefficient cannot be factored at desk scale,
    the scan is marked incomplete -- missed simple roots are still found by
    Hensel lifting, and missed multiple roots degrade to unresolved clusters,
    never to wrong counts.
    """
    if f.is_zero() or f.terms[0][0] != 0:
        raise PreconditionFailed("rational root scan expects a nonzero constant term")
    den_lcm = math.lcm(*(c.denominator for _, c in f.terms))
    const = f.terms[0][1] * den_lcm
    lead = f.terms[-1][1] * den_lcm
    complete = True
    f_const = _factorize(int(const), opts.trial_division_bound)
    f_lead = _factorize(int(lead), opts.trial_division_bound)
    if f_const is None or f_lead is None:
        return [], False
    nums = _divisors(f_const, opts.max_rational_candidates)
    dens = _divisors(f_lead, opts.max_rational_candidates)
    if nums is None or dens is None:
        return [], False

    screens = [(1_000_003, {}), (999_999_937, {})]
    candidates = set()
    for num in nums:
        for den in dens:
            if math.gcd(num, den) == 1:
                candidates.add(Fraction(num, den))
                candidates.add(Fraction(-num, den))
    if len(candidates) > opts.max_rational_candidates:
        return [], False

    roots = []
    for cand in sorted(candidates):
        ok = True
        for q, cache in screens:
            if cand.denominator % q == 0:
                continue
            key = cand
            if key not in cache:
                x = cand.numerator * pow(cand.denominator, -1, q) % q
                total = 0
                for e, cf in f.terms:
                    if cf.denominator % q == 0:
                        break
                    cm = cf.numerator * pow(cf.denominator, -1, q) % q
                    total = (total + cm * pow(x, e, q)) % q
                else:
                    cache[key] = total
            if cache.get(key, 0) != 0:
                ok = False
                break
        if not ok:
            continue
        if f.eval_exact(cand) != 0:
            continue
        mult = 1
        deriv = f.derivative()
        while mult <= f.sparsity() and deriv.eval_exact(cand) == 0:
            mult += 1
            deriv = deriv.derivative()
        if mult > f.sparsity():
            raise InternalError("multiplicity exceeded the term-count bound")
        roots.append((cand, mult))
    return roots, complete


def _cyclotomic(d: int, _cache={}) -> list[int]:
    """Dense integer coefficients of the d-th cyclotomic polynomial."""
    if d in _cache:
        return _cache[d]
    poly = [-1] + [0] * (d - 1) + [1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            poly = _dense_int_divide_exact(poly, _cyclotomic(e))
    _cache[d] = poly
    return poly


def _dense_int_divide_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        q, r = divmod(num[i + len(den) - 1], den[-1])
        if r:
            raise InternalError("inexact dense division")
        out[i] = q
        for j, c in enumerate(den):
            num[i + j] -= q * c
    if any(num[: len(den) - 1]):
        raise InternalError("nonzero remainder in dense division")
    return out


def _divisible_by_cyclotomic(g: SparsePoly, p: int, d: int) -> bool:
    """Does the d-th cyclotomic polynomial divide g over Q?

    Only called with d | p-1, so exponents may be folded modulo the torsion
    first; the remainder is then an exact division of a degree < p dense
    polynomial.
    """
    folded = reduce_exponents_mod_torsion(g, p)
    if folded.is_zero():
        return True
    phi = _cyclotomic(d)
    dense = [Fraction(0)] * (folded.degree() + 1)
    for e, c in folded.terms:
        dense[e] = c
    # remainder modulo the monic phi
    for i in range(len(dense) - 1, len(phi) - 2, -1):
        q = dense[i]
        if not q:
            continue
        for j, cf in enumerate(phi):
            dense[i - (len(phi) - 1) + j] -= q * cf
    return not any(dense[: len(phi) - 1])


def torsion_multiplicity(g: SparsePoly, p: int, d: int) -> int:
    """Exact multiplicity of the order-d Teichmuller points as roots of g.

    A torsion point of exact order d is a root of g over Q_p iff its minimal
    polynomial, the d-th cyclotomic polynomial, divides g over Q; the
    multiplicity is read off the derivative chain.  Bounded by the term
    count, as any nonzero root of a (t+1)-nomial has multiplicity <= t.
    """
    mult = 0
    current = g
    while mult <= g.sparsity():
        if current.is_zero() or not _divisible_by_cyclotomic(current, p, d):
            return mult
        mult += 1
        current = current.derivative()
    raise InternalError("torsion multiplicity exceeded the term-count bound")


# ---------------------------------------------------------------------------
# dense local arithmetic (everything degree < prec, coefficients mod p^M)


def _dense_eval(h: list[int], y: int, p: int, mod: int) -> int:
    total = 0
    for c in reversed(h):
        total = (total * y + c) % mod
    return total


def _dense_normalize(h: list[int], p: int, m_exp: int):
    """Divide out the minimum coefficient valuation; None if all vanish."""
    vals = [int_valuation(c, p) for c in h if c]
    if not vals:
        return None, None
    nu = min(vals)
    new_m = m_exp - nu
    mod = p**new_m
    return [c // p**nu % mod for c in h], new_m


def _fp_reduce(h: list[int], p: int) -> list[int]:
    out = [c % p for c in h]
    while out and out[-1] == 0:
        out.pop()
    return out


def _fp_order(hbar: list[int], c: int, p: int) -> int:
    """Largest k with (y - c)^k dividing hbar over F_p."""
    order = 0
    current = list(hbar)
    while current:
        # synthetic division by (y - c)
        quot = [0] * (len(current) - 1)
        acc = 0
        for i in range(len(current) - 1, 0, -1):
            acc = (acc * c + current[i]) % p
            quot[i - 1] = acc
        rem = (acc * c + current[0]) % p
        if rem != 0:
            return order
        order += 1
        current = quot
    return order


def _dense_shift(h: list[int], c: int, p: int, m_exp: int) -> list[int]:
    """Coefficients of h(c + p*z) modulo p^m_exp."""
    mod = p**m_exp
    out = [0] * len(h)
    for k, coeff in enumerate(h):
        if not coeff:
            continue
        power = 1  # c^(k-j) built from the top down
        for j in range(k, -1, -1):
            out[j] = (out[j] + coeff * math.comb(k, j) % mod * power) % mod
            power = power * c % mod
    for j in range(len(out)):
        out[j] = out[j] * pow(p, j, mod) % mod
    return out


def _dense_newton(h: list[int], c: int, p: int, m_exp: int) -> int:
    """Lift a simple residue root of h to a root modulo p^m_exp."""
    mod = p**m_exp
    hp = [k * coeff % mod for k, coeff in enumerate(h)][1:]
    y = c % p
    for _ in range(2 * m_exp.bit_length() + 6):
        fy = _dense_eval(h, y, p, mod)
        if fy == 0:
            break
        dy = _dense_eval(hp, y, p, mod)
        if dy % p == 0:
            raise InternalError("simple residue root lost its simplicity")
        y = (y - fy * pow(dy, -1, mod)) % mod
    return y


def _deflate(h: list[int], ystar: int, mult: int, p: int, m_exp: int) -> list[int]:
    """Exact synthetic division of h by (y - ystar)^mult in Z/p^m_exp."""
    mod = p**m_exp
    current = list(h)
    for _ in range(mult):
        quot = [0] * (len(current) - 1)
        acc = 0
        for i in range(len(current) - 1, 0, -1):
            acc = (acc + current[i]) % mod
            quot[i - 1] = acc
            acc = acc * ystar % mod
        rem = (acc + current[0]) % mod
        if rem != 0:
            raise InternalError("deflation by a certified exact root left a remainder")
        current = quot
    return current


# ---------------------------------------------------------------------------
# the counter


def segment_root_count(f: SparsePoly, p: int, seg: Segment, prec: int = 40,
                       rationals=()):
    """Count roots of f on one binomial-dominated Newton-polygon segment.

    Requires the segment to join consecutive support points of f.  Returns
    NOT_APPLICABLE when p divides the segment width (the binomial
    correspondence breaks); otherwise returns (count, entries) where every
    root is simple and carries a Hensel certificate.  The count is
    gcd(p-1, width) when the slope is integral and the relevant first digit
    is a width-th power in F_p^*, and zero otherwise; it never exceeds p-1.
    """
    np_ = newton_polygon(f, p)
    if not np_.segment_endpoints_adjacent_in_support(seg):
        raise PreconditionFailed("segment does not join consecutive support points")
    width = seg.length
    if width % p == 0:
        return NOT_APPLICABLE
    mval = seg.root_valuation()
    if mval.denominator != 1:
        return 0, []
    m = int(mval)
    g = scale_substitute(f, p, m)
    lo, hi = seg.start[0], seg.end[0]
    a_lo, a_hi = g.coefficient(lo), g.coefficient(hi)
    ratio = -a_lo / a_hi
    digit = ratio.numerator * pow(ratio.denominator, -1, p) % p
    if digit == 0:
        raise InternalError("segment endpoint coefficient not a unit")
    gcd = math.gcd(p - 1, width)
    if pow(digit, (p - 1) // gcd, p) != 1:
        return 0, []
    residues = [r for r in range(1, p) if pow(r, width, p) == digit]
    if len(residues) != gcd:
        raise InternalError("unit residue count disagrees with gcd formula")
    nu = _scale_valuation_shift(f, p, m)
    entries = []
    for r in residues:
        entries.append(_lift_unit_root(g, p, r, m, nu, prec, rationals))
    return gcd, entries


def _scale_valuation_shift(f: SparsePoly, p: int, m: int) -> int:
    return min(fraction_valuation(c, p) + m * e for e, c in f.terms)


def _lift_unit_root(g: SparsePoly, p: int, r0: int, m: int, nu: int, prec: int,
                    rationals=()) -> RootEntry:
    # start from the residue as a capped element: evaluation stays modular,
    # so lacunary exponents in the millions never appear in exact powers
    start = PadicNum(p, "num", 0, r0, prec + 8)
    root, cert = hensel_lift(g, start, p, prec=prec)
    value = root * Fraction(p) ** m if m else root
    rational = None
    for cand, mult in rationals:
        if fraction_valuation(cand, p) != m:
            continue
        unit = cand / Fraction(p) ** m
        if unit.numerator * pow(unit.denominator, -1, p) % p == r0:
            # a simple residue class holds exactly one root; it is this one
            rational = cand
            break
    return RootEntry(
        value=value,
        valuation=m,
        multiplicity=1,
        certificate=HENSEL_SIMPLE,
        rational=rational,
        val_fprime=nu - m + cert.val_fprime_r0,
        hensel=cert,
    )


def count_roots(f: SparsePoly, p: int, opts: CountOptions | None = None) -> RootReport:
    """Certified inventory of the roots of f in Q_p^*, with multiplicities.

    Strategy: strip the monomial factor, descend through x -> x^p layers
    (each root of the inner polynomial has at most one p-th root), then walk
    the Newton polygon grouping roots by valuation and refining by residue
    digits.  Multiplicities above one are only ever asserted at exactly
    representable points; anything else is returned as an unresolved cluster
    with an upper bound.
    """
    opts = opts or CountOptions()
    if not _is_prime(p) or p == 2:
        raise PreconditionFailed(f"p must be an odd prime, got {p}")
    if f.is_zero():
        raise PreconditionFailed("cannot count roots of the zero polynomial")

    report = RootReport(poly=f, p=p, prec=opts.prec, depth=opts.depth)
    stripped, _ = f.strip_lowest()
    if stripped.num_terms() <= 1:
        return report

    if all(e % p == 0 for e in stripped.exponents()):
        inner = count_roots(stripped.descend_exponents(p), p, opts)
        return _map_pth_roots(report, inner, stripped, p, opts)

    normalized = scale_substitute(stripped, p, 0)
    np_ = newton_polygon(normalized, p)
    rationals, _complete = rational_roots_with_multiplicity(normalized, opts)

    for seg in np_.segments:
        mval = seg.root_valuation()
        if mval.denominator != 1:
            continue
        m = int(mval)
        if np_.segment_endpoints_adjacent_in_support(seg):
            res = segment_root_count(normalized, p, seg, prec=opts.prec,
                                     rationals=rationals)
            if res is not NOT_APPLICABLE:
                _, seg_entries = res
                report.entries.extend(seg_entries)
                continue
        entries, clusters = _unit_roots_general(normalized, p, m, rationals, opts)
        report.entries.extend(entries)
        report.unresolved.extend(clusters)

    report.entries.sort(key=RootEntry.sort_key)
    report.unresolved.sort(key=lambda c: (c.valuation, c.center))
    return report


def _reduce_mod_p(g: SparsePoly, p: int) -> dict[int, int]:
    """The reduction of g mod p as {exponent: coefficient}, monomial factor stripped."""
    support: dict[int, int] = {}
    for e, c in g.terms:
        if c.denominator % p == 0:
            raise PreconditionFailed("coefficient with negative valuation")
        cm = c.numerator * pow(c.denominator, -1, p) % p
        if cm:
            support[e] = cm
    if not support:
        raise InternalError("residue polynomial vanished; normalize first")
    low = min(support)
    return {e - low: c for e, c in support.items()}


def _unit_zeros(support: dict[int, int], p: int) -> list[tuple[int, int]]:
    """The zeros r = gamma^i in F_p^* of a reduced support, as (r, i) ascending in r.

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
    """Multiplicity of the unit residue r as a root of the reduced support.

    The support (see `_reduce_mod_p`) is descended through
    h(x^(p^s)) = h(x)^(p^s) (Frobenius), so huge p-power exponent gcds
    never force a long derivative scan; what remains is checked with
    divided (Hasse) derivatives, Lucas for the binomials, Fermat for the
    powers.
    """
    if len(support) == 1:
        return 0  # a monomial has no unit roots
    gcd_exp = math.gcd(*support.keys())
    scale = 1
    while gcd_exp % p == 0:
        gcd_exp //= p
        scale *= p
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


def _unit_roots_general(f0: SparsePoly, p: int, m: int,
                        rationals: list[tuple[Fraction, int]], opts: CountOptions):
    """Roots of f0 with valuation m, found by residue refinement at that scale."""
    g = scale_substitute(f0, p, m)
    nu = _scale_valuation_shift(f0, p, m)
    n = opts.prec
    entries: list[RootEntry] = []
    clusters: list[UnresolvedCluster] = []
    support = _reduce_mod_p(g, p)

    for r, i in _unit_zeros(support, p):
        ord0 = _residue_order(support, p, r)
        if ord0 == 1:
            entries.append(_lift_unit_root(g, p, r, m, nu, n, rationals))
            continue

        # exactly representable roots of this residue class
        exact_points = []
        d = (p - 1) // math.gcd(i, p - 1)  # the order of r = gamma^i
        tor_mult = torsion_multiplicity(g, p, d)
        if tor_mult > 0:
            xi = teichmuller(p, r, n)
            exact_points.append(("torsion", xi, tor_mult, d))
        torsion_rational = Fraction(1) if d == 1 else (Fraction(-1) if d == 2 else None)
        for root, mu in rationals:
            if fraction_valuation(root, p) != m:
                continue
            unit = root / Fraction(p) ** m
            if unit.numerator * pow(unit.denominator, -1, p) % p != r:
                continue
            if tor_mult > 0 and unit == torsion_rational:
                continue  # the torsion entry already covers +-1
            exact_points.append(("rational", unit, mu, None))

        for kind, point, mu, order in exact_points:
            entries.append(_exact_entry(g, p, kind, point, mu, order, r, m, nu, opts))

        # deflate the exact roots out of the local picture and keep looking
        h = taylor_shift_truncate(g, r, p, n)
        m_exp = n - 1
        mod = p**m_exp
        h = [c % mod for c in h]
        try:
            for kind, point, mu, _ in exact_points:
                if kind == "torsion":
                    x_res = point.residue(m_exp + 1)
                else:
                    x_res = point.numerator * pow(point.denominator, -1, p ** (m_exp + 1)) % p ** (m_exp + 1)
                ystar = ((x_res - r) // p) % mod
                h = _deflate(h, ystar, mu, p, m_exp)
            sub_entries, sub_clusters = _local_count(
                h, p, m_exp, opts.depth, r, 1, g, m, nu, opts,
                inherited_bound=max(ord0 - sum(e[2] for e in exact_points), 0),
            )
        except PrecisionExhausted:
            remaining = max(ord0 - sum(e[2] for e in exact_points), 0)
            sub_entries, sub_clusters = [], []
            if remaining:
                sub_clusters = [UnresolvedCluster(m, r, 1, remaining, 0, "precision")]
        entries.extend(sub_entries)
        clusters.extend(sub_clusters)
    return entries, clusters


def _exact_entry(g, p, kind, point, mu, order, r, m, nu, opts) -> RootEntry:
    n = opts.prec
    if kind == "torsion":
        value = point * Fraction(p) ** m if m else point
        rational = Fraction(1) if order == 1 else (Fraction(-1) if order == 2 else None)
        if rational is not None:
            rational *= Fraction(p) ** m
        torsion = (order, r)
        certificate = EXACT_TORSION
        x_res = point.residue(n)
    else:
        root_f = point * Fraction(p) ** m
        value = PadicNum.from_fraction(root_f, p, n)
        rational = root_f
        torsion = None
        certificate = EXACT_RATIONAL
        x_res = point.numerator * pow(point.denominator, -1, p**n) % p**n
    val_fprime = None
    if mu == 1:
        dv = g.derivative().eval_mod(x_res, p, n)
        if dv:
            val_fprime = nu - m + int_valuation(dv, p)
    return RootEntry(
        value=value,
        valuation=m,
        multiplicity=mu,
        certificate=certificate,
        rational=rational,
        torsion=torsion,
        val_fprime=val_fprime,
    )


def _local_count(h, p, m_exp, depth, center, level, g, m, nu, opts, inherited_bound):
    """Count Z_p-roots of the dense local polynomial h (truncated mod p^m_exp).

    `center`/`level` track the unit-coordinate class center + p^level Z_p
    this polynomial describes; certified roots are polished against the
    sparse g before being reported.
    """
    entries: list[RootEntry] = []
    clusters: list[UnresolvedCluster] = []
    normalized, new_m = _dense_normalize(h, p, m_exp)
    if normalized is None or new_m < MIN_WORKING_PREC:
        return entries, [UnresolvedCluster(m, center, level, inherited_bound,
                                           opts.depth - depth, "precision")]
    hbar = _fp_reduce(normalized, p)
    if not hbar:
        raise InternalError("normalized local polynomial vanished mod p")

    for digit in range(p):
        k = _fp_order(hbar, digit, p)
        if k == 0:
            continue
        new_center = center + digit * p**level
        if k == 1:
            y = _dense_newton(normalized, digit, p, new_m)
            x_res = (center + p**level * y) % p ** (level + new_m)
            entry = _polish_against_sparse(g, p, x_res, level + new_m, m, nu, opts)
            if entry is not None:
                entries.append(entry)
            else:
                clusters.append(UnresolvedCluster(m, new_center, level + 1, 1,
                                                  opts.depth - depth, "precision"))
            continue
        if depth <= 0:
            clusters.append(UnresolvedCluster(m, new_center, level + 1, k,
                                              opts.depth, "depth"))
            continue
        shifted = _dense_shift(normalized, digit, p, new_m)
        sub_e, sub_c = _local_count(shifted, p, new_m, depth - 1, new_center,
                                    level + 1, g, m, nu, opts, inherited_bound=k)
        entries.extend(sub_e)
        clusters.extend(sub_c)
    return entries, clusters


def _polish_against_sparse(g, p, x_res, known, m, nu, opts) -> RootEntry | None:
    """Final certificate: Hensel-verify the refined unit root against g itself."""
    if x_res % p == 0:
        raise InternalError("unit-coordinate root candidate is not a unit")
    approx = PadicNum(p, "num", 0, x_res, known)
    try:
        root, cert = hensel_lift(g, approx, p, prec=opts.prec)
    except (PreconditionFailed, PrecisionExhausted):
        return None
    value = root * Fraction(p) ** m if m else root
    return RootEntry(
        value=value,
        valuation=m,
        multiplicity=1,
        certificate=HENSEL_SIMPLE,
        val_fprime=nu - m + cert.val_fprime_r0,
        hensel=cert,
    )


# ---------------------------------------------------------------------------
# descent through f(x) = g(x^p)


def _map_pth_roots(report, inner, f_desc, p, opts):
    """Roots of f(x) = g(x^p) from the roots of g: at most one p-th root each."""
    n = opts.prec
    for entry in inner.entries:
        if entry.valuation % p:
            continue
        x_val = entry.valuation // p
        if entry.torsion is not None:
            # the p-th root of a torsion point is torsion of the same order
            d, digit = entry.torsion
            a = pow(p, -1, d) if d > 1 else 1
            new_digit = pow(digit, a, p)
            xi = teichmuller(p, new_digit, n)
            value = xi * Fraction(p) ** x_val if x_val else xi
            rational = Fraction(1) if d == 1 else (Fraction(-1) if d == 2 else None)
            if rational is not None:
                rational *= Fraction(p) ** x_val
            report.entries.append(RootEntry(
                value=value, valuation=x_val, multiplicity=entry.multiplicity,
                certificate=EXACT_TORSION, rational=rational, torsion=(d, new_digit),
                val_fprime=_val_fprime_at(f_desc, p, xi.residue(n), x_val, n)
                if entry.multiplicity == 1 else None,
            ))
            continue
        if entry.rational is not None:
            exact = _rational_pth_root(entry.rational, p)
            if exact is not None:
                unit = exact / Fraction(p) ** x_val
                res_int = unit.numerator * pow(unit.denominator, -1, p**n) % p**n
                report.entries.append(RootEntry(
                    value=PadicNum.from_fraction(exact, p, n), valuation=x_val,
                    multiplicity=entry.multiplicity, certificate=EXACT_RATIONAL,
                    rational=exact,
                    val_fprime=_val_fprime_at(f_desc, p, res_int, x_val, n)
                    if entry.multiplicity == 1 else None,
                ))
                continue
        # generic: search for a p-adic p-th root of the unit part
        avail = min(int(entry.value.prec), n)
        unit_res = entry.value.unit_mod(avail)
        root_res = _padic_pth_root(unit_res, p, avail)
        if root_res is None:
            continue
        if entry.multiplicity > 1:
            # a multiple root at a point with no exact description: refuse to
            # certify, report the class instead
            report.unresolved.append(UnresolvedCluster(
                x_val, root_res % p**2, 2, entry.multiplicity, 0,
                "pth-root of a multiple root"))
            continue
        g_scaled = scale_substitute(f_desc, p, x_val)
        nu = _scale_valuation_shift(f_desc, p, x_val)
        entryf = _polish_against_sparse(g_scaled, p, root_res % p**(avail - 2),
                                        avail - 2, x_val, nu, opts)
        if entryf is not None:
            report.entries.append(entryf)
        else:
            report.unresolved.append(UnresolvedCluster(
                x_val, root_res % p**2, 2, 1, 0, "precision"))
    for cluster in inner.unresolved:
        report.unresolved.append(UnresolvedCluster(
            cluster.valuation, cluster.center, cluster.level,
            cluster.upper_bound, cluster.depth_reached,
            f"descended: {cluster.reason}"))
    report.entries.sort(key=RootEntry.sort_key)
    return report


def _val_fprime_at(f_desc, p, unit_res: int, x_val: int, n: int) -> int | None:
    """v(f'(root)) for a root p^x_val * unit, through the rescaled polynomial."""
    g = scale_substitute(f_desc, p, x_val)
    nu = _scale_valuation_shift(f_desc, p, x_val)
    dv = g.derivative().eval_mod(unit_res % p**n, p, n)
    if dv == 0:
        return None
    return nu - x_val + int_valuation(dv, p)


def _rational_pth_root(q: Fraction, p: int) -> Fraction | None:
    num = _integer_pth_root(q.numerator, p)
    den = _integer_pth_root(q.denominator, p)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _integer_pth_root(n: int, p: int) -> int | None:
    if n == 0:
        return 0
    sign = 1 if n > 0 else -1  # p odd: sign passes through
    n = abs(n)
    # integer Newton from 2^ceil(bits/p) >= n^(1/p): decreases to floor(n^(1/p))
    x = 1 << -(-n.bit_length() // p)
    while True:
        y = ((p - 1) * x + n // x ** (p - 1)) // p
        if y >= x:
            break
        x = y
    return sign * x if x**p == n else None


def _padic_pth_root(u: int, p: int, known: int) -> int | None:
    """A representative of the p-th root of the unit u, or None if no root.

    Maintains the sets C_k = {x mod p^(k-1) : x^p = u mod p^k}, which any
    true root must pass through; the first digit is forced by Fermat and the
    survivor sets stay small because solutions mod p^k form a single class
    mod p^(k-1).  A nonempty survivor set at full depth Hensel-certifies.
    """
    if known < 4:
        raise PrecisionExhausted("need at least 4 digits to extract p-th roots")
    if pow(u % p, p, p * p) != u % (p * p):
        return None
    cands = [u % p]
    for k in range(3, known + 1):
        mod = p**k
        target = u % mod
        new = set()
        for x in cands:
            for j in range(p):
                y = x + j * p ** (k - 2)
                if pow(y, p, mod) == target:
                    new.add(y)
        if not new:
            return None
        if len(new) > p * p:
            raise InternalError("p-th root candidate set grew unexpectedly")
        cands = sorted(new)
    return cands[0]


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
    main = BoundCheck(
        name="sparse-upper-bound",
        value=(t * t - t + 1) * (p - 1),
        applicable=p > t + 1,
        satisfied=(observed <= (t * t - t + 1) * (p - 1)) if p > t + 1 else None,
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
