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

from .errors import PreconditionFailed
from .padic import is_prime


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


def distinct_product_lcm(t: int, m: int) -> int:
    """lcm of all products of at most t pairwise distinct integers in [1, m].

    The empty product contributes 1.  The exponent of each prime q <= m is
    `vp_distinct_product_lcm(t, m, q)`, so no subset is enumerated and any
    t and m are fine.
    """
    if t < 0 or m < 0:
        raise PreconditionFailed("t and m must be nonnegative")
    return math.prod(q ** vp_distinct_product_lcm(t, m, q)
                     for q in range(2, m + 1) if is_prime(q))


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
    t pairwise distinct integers <= m: the t largest valuations.  Of those,
    min(t, m // p^k) reach k, so the sum takes O(log_p m) steps and the
    threshold scan below is linear in its length.  Tests pin this against
    the subset enumeration.
    """
    total, q = 0, p
    while q <= m:
        total += min(t, m // q)
        q *= p
    return total


def lenstra_threshold(p: int, t: int, r: Fraction | int) -> int:
    """The largest m with m r - v_p(d_t(m)) <= max_i (i r - v_p(i!)), i <= t.

    No integer below p^(L+1) has v_p above L, so v_p(d_t(m)) <= t L there,
    and the block [p^L, p^(L+1)) can hold such an m only up to
    (rhs + t L)/r.  The block's lower bound p^L r - t L on the margin grows
    with L from the first L with p^L (p-1) r >= t on, so the scan stops at
    the first such L where that bound exceeds the right-hand side.
    """
    r = Fraction(r)
    if r <= 0:
        raise PreconditionFailed("r must be positive")
    rhs = max(i * r - _vp_factorial(i, p) for i in range(t + 1))
    best, level = 0, 0  # m = 0 always qualifies: rhs >= 0
    while p**level * r - t * level <= rhs or p**level * (p - 1) * r < t:
        top = min(p ** (level + 1) - 1, math.floor((rhs + t * level) / r))
        for m in range(p**level, top + 1):
            if m * r - vp_distinct_product_lcm(t, m, p) <= rhs:
                best = m
        level += 1
    return best
