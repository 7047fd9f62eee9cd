"""Correctness checks that share no code with padroot.

Polynomials arrive as lists of (exponent, Fraction) pairs and roots as
(valuation, unit digits, relative precision, multiplicity); everything
here is plain integer arithmetic, so a defect in the library's p-adic or
Newton-polygon code cannot also hide in the check.
"""

from __future__ import annotations

import math
from fractions import Fraction


class NotDecidable(Exception):
    """The residue scan cannot give an exact count for this input."""


def valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def integer_terms(terms) -> list[tuple[int, int]]:
    """The same roots with integer coefficients: clear every denominator."""
    lcm = math.lcm(*(Fraction(c).denominator for _, c in terms))
    return [(e, int(Fraction(c) * lcm)) for e, c in terms]


def root_holds(terms, p: int, val: int, unit: int, prec: int, mult: int) -> bool:
    """Does x = p^val * unit, unit known mod p^prec, solve f to the claimed digits?

    With x = p^val * y and f(p^val * y) = p^nu * G(y), G integral with a
    unit coefficient, every Hasse derivative of G is integral at y, so a
    root of multiplicity mult forces v(G(y0)) >= mult * prec for any y0
    agreeing with y in prec digits.  Roots of negative valuation are
    checked as roots 1/x of the reversed polynomial.
    """
    coeffs = integer_terms(terms)
    if val < 0:
        top = max(e for e, _ in coeffs)
        coeffs = [(top - e, c) for e, c in coeffs]
        val = -val
        unit = pow(unit, -1, p**prec)
    nu = min(valuation(c, p) + val * e for e, c in coeffs)
    modulus = p ** (nu + mult * prec)
    total = 0
    for e, c in coeffs:
        total += c * pow(p, val * e, modulus) * pow(unit, e, modulus)
    return total % modulus == 0


def residue_scan(terms, p: int) -> tuple[int, int, bool, list[tuple[int, int]]]:
    """Exact root inventory of f over Q_p^* when every residue root is simple.

    For each valuation m at which two or more terms tie for the minimum of
    v(c_e) + m*e (a Newton-polygon edge), the tying terms' unit parts give a
    polynomial over F_p; each simple nonzero root of it lifts to exactly one
    root of f (Hensel), and every root of f of valuation m reduces to one.
    Returns (distinct, with multiplicity, fully certified, sorted classes
    (m, unit residue mod p)).  Raises NotDecidable on a multiple residue
    root, where the scan alone cannot count.
    """
    coeffs = integer_terms(terms)
    vals = [(e, valuation(c, p), c) for e, c in coeffs]
    slopes = set()
    for i, (ei, vi, _) in enumerate(vals):
        for ej, vj, _ in vals[i + 1:]:
            if (vi - vj) % (ej - ei) == 0:
                slopes.add((vi - vj) // (ej - ei))
    classes = []
    for m in sorted(slopes):
        nu = min(v + m * e for e, v, _ in vals)
        edge = [(e, c // p**v % p) for e, v, c in vals if v + m * e == nu]
        if len(edge) < 2:
            continue
        low = edge[0][0]
        edge = [(e - low, u) for e, u in edge]
        for r in range(1, p):
            if sum(u * pow(r, e % (p - 1), p) for e, u in edge) % p:
                continue
            if sum(e * u * pow(r, (e - 1) % (p - 1), p) for e, u in edge if e) % p == 0:
                raise NotDecidable(f"multiple residue root {r} at valuation {m}")
            classes.append((m, r))
    return len(classes), len(classes), True, classes
