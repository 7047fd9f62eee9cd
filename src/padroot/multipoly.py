"""Exact multivariate polynomials with arbitrary-precision integer coefficients.

A polynomial is a map from exponent tuples (one slot per variable) to nonzero
integer coefficients.  Everything is exact; there is no floating point
anywhere.  Cofactor expansion serves the confluent Vandermonde determinants
(five or six variables, degrees in the tens) and the small integer minors of
Cauchy-Binet.  The only divisors are products of linear factors x_j - x_i
and x_j, the factors of every standard Vandermonde determinant, so exact
division is synthetic division in x_j and an exponent shift.
"""

from __future__ import annotations

import math
from operator import add

from .errors import InternalError

Monomial = tuple[int, ...]


def _grlex_key(mono: Monomial) -> tuple[int, Monomial]:
    return (sum(mono), mono)


class MultiPoly:
    """Immutable sparse multivariate polynomial over the integers."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Monomial, int] | None = None):
        # stored, not copied or checked: every caller builds a fresh dict of
        # nvars-long monomials with nonnegative exponents and nonzero coefficients
        self.nvars = nvars
        self.terms = {} if terms is None else terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, value: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value} if value else {})

    @classmethod
    def monomial(cls, nvars: int, var: int, power: int = 1, coeff: int = 1) -> "MultiPoly":
        mono = [0] * nvars
        mono[var] = power
        return cls(nvars, {tuple(mono): coeff})

    # -- basic queries ------------------------------------------------

    def __bool__(self) -> bool:
        """False exactly for the zero polynomial."""
        return bool(self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(m) for m in self.terms}
        return len(degrees) <= 1

    def coefficients_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.terms.values())

    # -- arithmetic ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_arity(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = out.get(mono, 0) + coeff
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
        return MultiPoly(self.nvars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_arity(other)
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(map(add, m1, m2))
                new = out.get(mono, 0) + c1 * c2
                if new:
                    out[mono] = new
                else:
                    out.pop(mono, None)
        return MultiPoly(self.nvars, out)

    @classmethod
    def combination(cls, nvars: int, pairs) -> "MultiPoly":
        """The sum of k * poly over the (k, poly) pairs, built in one dict."""
        out: dict[Monomial, int] = {}
        for k, poly in pairs:
            for mono, coeff in poly.terms.items():
                out[mono] = out.get(mono, 0) + k * coeff
        return cls(nvars, {mono: coeff for mono, coeff in out.items() if coeff})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise InternalError("negative power of a polynomial")
        result = MultiPoly.const(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def _check_arity(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise InternalError(f"arity mismatch: {self.nvars} vs {other.nvars}")

    # -- division -----------------------------------------------------

    def divide_exact(self, factors: list[tuple[int, int | None]]) -> "MultiPoly":
        """Exact quotient by the product of x_j - x_i over the (j, i) pairs,
        x_j alone where i is None; raises InternalError on any remainder.

        With self = sum_k p_k x_j^k, dividing by x_j - x_i takes
        q_{k-1} = p_k + x_i q_k from the top down, and p_0 + x_i q_0 must
        vanish.  A failure means the caller's divisibility guarantee is
        broken, not an input state.
        """
        terms = self.terms
        for j, i in factors:
            if i is None:
                if any(mono[j] == 0 for mono in terms):
                    raise InternalError("inexact multivariate division (nonzero remainder)")
                terms = {mono[:j] + (mono[j] - 1,) + mono[j + 1:]: coeff
                         for mono, coeff in terms.items()}
                continue
            rows: dict[int, dict[Monomial, int]] = {}
            for mono, coeff in terms.items():
                rows.setdefault(mono[j], {})[mono[:j] + (0,) + mono[j + 1:]] = coeff
            terms = {}
            carry: dict[Monomial, int] = {}  # x_i q_k, with x_j's slot zeroed
            for k in range(max(rows, default=0), -1, -1):
                row = carry  # p_k + x_i q_k: q_{k-1}, or the remainder at k = 0
                for rest, coeff in rows.get(k, {}).items():
                    new = row.get(rest, 0) + coeff
                    if new:
                        row[rest] = new
                    else:
                        del row[rest]
                if k == 0:
                    if row:
                        raise InternalError("inexact multivariate division (nonzero remainder)")
                    break
                carry = {}
                for rest, coeff in row.items():
                    terms[rest[:j] + (k - 1,) + rest[j + 1:]] = coeff
                    carry[rest[:i] + (rest[i] + 1,) + rest[i + 1:]] = coeff
        return MultiPoly(self.nvars, terms)

    # -- change of variables ------------------------------------------

    def map_vars(self, mapping: list[int], new_nvars: int) -> "MultiPoly":
        """Substitute x_i -> x_{mapping[i]}; slots may repeat or collapse."""
        out: dict[Monomial, int] = {}
        for mono, coeff in self.terms.items():
            new = [0] * new_nvars
            for var, e in enumerate(mono):
                new[mapping[var]] += e
            key = tuple(new)
            val = out.get(key, 0) + coeff
            if val:
                out[key] = val
            else:
                out.pop(key, None)
        return MultiPoly(new_nvars, out)

    def shift_all_by_one(self) -> "MultiPoly":
        """Substitute x_i -> 1 + x_i for every variable."""
        out = self
        for var in range(self.nvars):
            shifted: dict[Monomial, int] = {}
            for mono, coeff in out.terms.items():
                e = mono[var]
                base = list(mono)
                for k in range(e + 1):
                    base[var] = k
                    key = tuple(base)
                    val = shifted.get(key, 0) + coeff * math.comb(e, k)
                    if val:
                        shifted[key] = val
                    else:
                        shifted.pop(key, None)
            out = MultiPoly(self.nvars, shifted)
        return out

    # -- display ------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=_grlex_key, reverse=True):
            coeff = self.terms[mono]
            factors = [
                f"x{i}^{e}" if e > 1 else f"x{i}"
                for i, e in enumerate(mono)
                if e
            ]
            body = "*".join(factors)
            if not body:
                parts.append(f"{coeff}")
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def det(matrix):
    """Determinant by cofactor expansion along the sparsest column; the
    entries are MultiPolys or numbers, tested and summed as they come."""
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise InternalError("determinant of an empty or non-square matrix")
    return _expand(matrix)


def _expand(matrix):
    if len(matrix) == 1:
        return matrix[0][0]
    if len(matrix) == 2:
        (a, b), (c, d) = matrix
        return a * d - b * c
    counts = [sum(map(bool, column)) for column in zip(*matrix)]
    col = counts.index(min(counts))
    total = None
    for i, row in enumerate(matrix):
        if not row[col]:
            continue
        cofactor = _expand([r[:col] + r[col + 1:] for k, r in enumerate(matrix) if k != i])
        term = row[col] * (-cofactor if (i + col) % 2 else cofactor)
        total = term if total is None else total + term
    # a column of zeros holds a zero of the entries' own type
    return matrix[0][col] if total is None else total
