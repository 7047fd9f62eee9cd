"""Closed-form and combinatorial bounds on sparse-polynomial root counts.

Pure integer/rational computations: the ordered-field bound 2t, the
logarithmic bound of Lenstra with c = e/(e-1) built from Euler's number
(the constant 1.58197671; not the ramification index, despite the clashing
letter), the (t^2-t+1)(q-1) upper bound with its p > e+t applicability
window, the (2t-1)(q-1) lower bound, and the lcm-of-products function
d_t(m) with its derived threshold C(p,t,r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CapExceeded, PreconditionFailed, ScanWindowExceeded
from .padic import int_valuation, is_prime

D_T_MAX_M = 40
D_T_MAX_T = 6


@dataclass(frozen=True)
class FieldParams:
    """Local-field invariants: prime, ramification index, residue degree."""

    p: int
    e: int = 1
    f: int = 1

    def __post_init__(self):
        if not is_prime(self.p) or self.e < 1 or self.f < 1:
            raise PreconditionFailed(f"bad field parameters {self}")

    @property
    def q(self) -> int:
        return self.p**self.f


def descartes_bound(t: int) -> int:
    """Roots over any ordered field: at most 2t, with or without multiplicity."""
    if t < 0:
        raise PreconditionFailed("t must be nonnegative")
    return 2 * t


LENSTRA_CONSTANT = math.e / (math.e - 1)  # 1.58197670686...


def lenstra_bound(t: int, params: FieldParams) -> float:
    """Logarithmic upper bound c t^2 (q-1) (1 + e log(e t / log p) / log p)."""
    if t < 1:
        raise PreconditionFailed("t must be positive")
    p, e = params.p, params.e
    return (
        LENSTRA_CONSTANT
        * t * t
        * (params.q - 1)
        * (1 + e * math.log(e * t / math.log(p)) / math.log(p))
    )


def sparse_upper_bound_value(t: int, q: int) -> int:
    """(t^2-t+1)(q-1), whether or not the bound applies."""
    return (t * t - t + 1) * (q - 1)


def sparse_upper_bound(t: int, params: FieldParams) -> int | None:
    """(t^2-t+1)(q-1) when p > e + t; None when the bound does not apply."""
    if params.p <= params.e + t:
        return None
    return sparse_upper_bound_value(t, params.q)


@dataclass(frozen=True)
class LowerBounds:
    improved: int  # (2t-1)(q-1)
    regular: int   # t(q-1), from regular polynomials


def sparse_lower_bound(t: int, q: int) -> LowerBounds:
    """Constructive lower bounds for (t+1)-nomials over a field with q-element residues."""
    if t < 1:
        raise PreconditionFailed("t must be positive")
    return LowerBounds(improved=(2 * t - 1) * (q - 1), regular=t * (q - 1))


def distinct_product_lcm(t: int, m: int, cap_m: int = D_T_MAX_M, cap_t: int = D_T_MAX_T) -> int:
    """lcm of all products of at most t pairwise distinct integers in [1, m].

    The empty product contributes 1.  Enumerated by subset recursion with
    the lcm accumulated early; the desk-scale caps keep the combinatorial
    blow-up irrelevant.
    """
    if t < 0 or m < 0:
        raise PreconditionFailed("t and m must be nonnegative")
    if m > cap_m or t > cap_t:
        raise CapExceeded(f"d_t enumeration capped at m<={cap_m}, t<={cap_t}")
    return _distinct_product_lcm_cached(t, m)


@lru_cache(maxsize=None)
def _distinct_product_lcm_cached(t: int, m: int) -> int:
    result = 1

    def walk(start: int, remaining: int, product: int):
        nonlocal result
        result = math.lcm(result, product)
        if remaining == 0:
            return
        for i in range(start, m + 1):
            walk(i + 1, remaining - 1, product * i)

    walk(1, t, 1)
    return result


def _vp_factorial(i: int, p: int) -> int:
    # Legendre
    total, q = 0, p
    while q <= i:
        total += i // q
        q *= p
    return total


def vp_distinct_product_lcm(t: int, m: int, p: int) -> int:
    """v_p of d_t(m) without enumerating subsets.

    The p-exponent of the lcm is the best achievable sum of v_p over at most
    t pairwise distinct integers <= m: the t largest valuations.  Tests pin
    this against the subset enumeration.
    """
    vals = sorted((int_valuation(i, p) for i in range(1, m + 1)), reverse=True)
    return sum(vals[:t])


def lenstra_threshold(p: int, t: int, r: Fraction | int, runout: int = 20,
                      scan_cap: int = 400) -> int:
    """The largest m with m r - v_p(d_t(m)) <= max_i (i r - v_p(i!)), i <= t.

    No a-priori scan bound exists, so the scan commits only after the margin
    has stayed above the threshold and strictly increased for `runout`
    consecutive values of m; ScanWindowExceeded if that never stabilizes
    within the cap.
    """
    r = Fraction(r)
    if r <= 0:
        raise PreconditionFailed("r must be positive")
    rhs = max(i * r - _vp_factorial(i, p) for i in range(t + 1))

    best = None
    streak = 0
    prev_margin = None
    m = 0
    while m <= scan_cap:
        margin = m * r - vp_distinct_product_lcm(t, m, p)
        if margin <= rhs:
            best = m
            streak = 0
            prev_margin = None
        else:
            if prev_margin is None or margin > prev_margin:
                streak += 1
            else:
                streak = 0
            prev_margin = margin
            if best is not None and streak >= runout:
                return best
        m += 1
    raise ScanWindowExceeded(
        f"threshold scan did not stabilize within m <= {scan_cap}"
    )
