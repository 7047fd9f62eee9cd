"""Exact multivariate polynomials with arbitrary-precision integer coefficients.

A polynomial is a map from exponent tuples (one slot per variable) to nonzero
integer coefficients.  Everything is exact; there is no floating point
anywhere.  Determinants go by cofactor expansion (at most five or six
variables, degrees in the tens); exact division by leading-term reduction
under graded-lexicographic order, each leading term popped off a heap of
the remainder's monomials (Monagan and Pearce, JSC 2011).
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, neg, sub

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

    def leading(self) -> tuple[Monomial, int]:
        """Leading (monomial, coefficient) under graded-lex order."""
        if not self.terms:
            raise InternalError("zero polynomial has no leading term")
        mono = max(self.terms, key=_grlex_key)
        return mono, self.terms[mono]

    def coefficients_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.terms.values())

    # -- arithmetic ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

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

    def scale(self, k: int) -> "MultiPoly":
        if k == 0:
            return MultiPoly.zero(self.nvars)
        return MultiPoly(self.nvars, {m: k * c for m, c in self.terms.items()})

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

    def divide_exact(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact quotient self/divisor; raises InternalError on any remainder.

        Leading-term reduction under graded lex, the leading monomial popped
        off a heap on the negated grlex key: a monomial is pushed when it
        (re)enters the remainder and skipped if popped after cancelling.
        Every coefficient division must be exact: a failure means the
        caller's divisibility guarantee is broken, not an input state.
        """
        self._check_arity(divisor)
        if not divisor:
            raise InternalError("division by the zero polynomial")
        quotient: dict[Monomial, int] = {}
        rem = dict(self.terms)
        heap = [(-sum(m), tuple(map(neg, m)), m) for m in rem]
        heapify(heap)
        div_mono, div_coeff = divisor.leading()
        while rem:
            mono = heappop(heap)[2]
            coeff = rem.get(mono)
            if coeff is None:
                continue
            q_mono = tuple(map(sub, mono, div_mono))
            if (q_mono and min(q_mono) < 0) or coeff % div_coeff:
                raise InternalError("inexact multivariate division (nonzero remainder)")
            q_coeff = coeff // div_coeff
            quotient[q_mono] = q_coeff
            for m, c in divisor.terms.items():
                tm = tuple(map(add, q_mono, m))
                new = rem.get(tm, 0) - q_coeff * c
                if tm not in rem:
                    heappush(heap, (-sum(tm), tuple(map(neg, tm)), tm))
                if new:
                    rem[tm] = new
                else:
                    del rem[tm]
        return MultiPoly(self.nvars, quotient)

    # -- substitution -------------------------------------------------

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

    def substitute(self, var: int, replacement: "MultiPoly") -> "MultiPoly":
        """Substitute `replacement` (same arity) for variable `var`."""
        self._check_arity(replacement)
        powers: dict[int, MultiPoly] = {0: MultiPoly.const(self.nvars, 1)}

        def power(e: int) -> MultiPoly:
            if e not in powers:
                powers[e] = power(e - 1) * replacement
            return powers[e]

        out = MultiPoly.zero(self.nvars)
        for mono, coeff in self.terms.items():
            rest = list(mono)
            e = rest[var]
            rest[var] = 0
            out = out + power(e) * MultiPoly(self.nvars, {tuple(rest): coeff})
        return out

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

    def coefficient_of(self, var: int, power: int) -> "MultiPoly":
        """Extract the coefficient of var**power, dropping that variable slot."""
        out: dict[Monomial, int] = {}
        for mono, coeff in self.terms.items():
            if mono[var] == power:
                key = mono[:var] + mono[var + 1 :]
                out[key] = coeff
        return MultiPoly(self.nvars - 1, out)

    def evaluate(self, values: list[Fraction | int]) -> Fraction:
        if len(values) != self.nvars:
            raise InternalError("wrong number of values for evaluation")
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = Fraction(coeff)
            for v, e in zip(values, mono):
                if e:
                    term *= Fraction(v) ** e
            total += term
        return total

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
