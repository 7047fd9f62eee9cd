"""Generalized and confluent Vandermonde determinants, exactly.

The objects here are classical: the determinant of the matrix with rows
(1, x_i^{a_1}, ..., x_i^{a_t}) for a strictly increasing power vector, its
confluent variant where a repeated interpolation point contributes rows of
scaled derivatives, the quotient of either by the corresponding standard
(powers 1..t) determinant, and determinants of binomial-coefficient
matrices: symbolic ones in C(x_i, k_j), cleared of factorials, by
Cauchy-Binet as integer minors times alternants (their quotients: times
Schur polynomials), and the integer minors det[C(a_i, b_j)] that weigh
the shift expansion.  All arithmetic is exact, on `MultiPoly`; every
quotient is certified by exact division (any remainder is a bug, not an
input condition).  Determinants, minors and Schur polynomials are memoized
on their tuple arguments, so a grid builds each one once.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from itertools import combinations

from .errors import PreconditionFailed
from .multipoly import MultiPoly, det


def _validate_powers(powers: tuple[int, ...]):
    if not powers:
        raise PreconditionFailed("empty power vector")
    prev = 0
    for a in powers:
        if a <= prev:
            raise PreconditionFailed(f"powers must be strictly increasing and positive: {powers}")
        prev = a


def _validate_blocks(blocks: tuple[int, ...], total: int):
    if not blocks or any(s < 1 for s in blocks):
        raise PreconditionFailed(f"block sizes must be positive integers: {blocks}")
    if sum(blocks) != total:
        raise PreconditionFailed(
            f"block sizes {blocks} sum to {sum(blocks)}, expected {total}"
        )


@lru_cache(maxsize=4096)
def confluent_vandermonde_det(powers: tuple[int, ...], blocks: tuple[int, ...]) -> MultiPoly:
    """Confluent Vandermonde determinant for a power vector and block sizes.

    With all block sizes 1 this is the plain generalized Vandermonde
    determinant; a block of size s contributes rows for derivative orders
    0..s-1 at its point, each order-k row divided by k!: entries
    C(a_j, k) x^{a_j - k}, with the constant-1 column surviving only at k=0.
    """
    _validate_powers(powers)
    _validate_blocks(blocks, len(powers) + 1)
    nvars = len(blocks)
    return det([[MultiPoly.const(nvars, int(k == 0))]
                + [MultiPoly.monomial(nvars, var, a - k, math.comb(a, k)) if k <= a
                   else MultiPoly.zero(nvars) for a in powers]
                for var, size in enumerate(blocks) for k in range(size)])


@lru_cache(maxsize=4096)
def vandermonde_quotient(powers: tuple[int, ...], blocks: tuple[int, ...]) -> MultiPoly:
    """Quotient of the confluent determinant by its standard-powers counterpart.

    The standard case equals prod_{i<j} (x_j - x_i)^{s_i s_j}; the quotient
    has integer coefficients, and a nonzero remainder raises InternalError.
    """
    numerator = confluent_vandermonde_det(powers, blocks)
    return numerator.divide_exact([(j, i) for j in range(len(blocks)) for i in range(j)
                                   for _ in range(blocks[i] * blocks[j])])


def check_confluent_merge(powers, blocks, k: int) -> bool:
    """Verify the merge identity relating block sizes s and s with s_k grown by one.

    `blocks` must sum to t (one short of square); the identity states that the
    determinant for the grown blocks equals the coefficient of delta^{s_k} in
    the determinant where an extra simple point y = x_k + delta is inserted
    right after block k.  That coefficient is a Taylor coefficient: each term
    c x_k^a y^e of the inserted determinant gives C(e, s_k) c x_k^(a+e-s_k),
    with y's slot dropped.
    """
    powers = tuple(powers)
    blocks = tuple(blocks)
    _validate_powers(powers)
    _validate_blocks(blocks, len(powers))
    if not 0 <= k < len(blocks):
        raise PreconditionFailed(f"block index {k} out of range for {blocks}")

    s = blocks[k]
    grown = blocks[: k] + (s + 1,) + blocks[k + 1 :]
    inserted = blocks[: k + 1] + (1,) + blocks[k + 1 :]
    lhs = confluent_vandermonde_det(powers, grown)
    taylor: dict[tuple[int, ...], int] = {}
    for mono, coeff in confluent_vandermonde_det(powers, inserted).terms.items():
        if (e := mono[k + 1]) >= s:
            key = mono[:k] + (mono[k] + e - s,) + mono[k + 2 :]
            taylor[key] = taylor.get(key, 0) + math.comb(e, s) * coeff
    return {mono: c for mono, c in taylor.items() if c} == lhs.terms


def specialization_quotient(powers, blocks) -> MultiPoly:
    """The all-simple-points quotient with variable i repeated s_i times.

    Independent route to the confluent quotient: specializing the plain
    quotient must reproduce it exactly.
    """
    powers = tuple(powers)
    blocks = tuple(blocks)
    _validate_blocks(blocks, len(powers) + 1)
    plain = vandermonde_quotient(powers, (1,) * (len(powers) + 1))
    mapping = []
    for var, size in enumerate(blocks):
        mapping.extend([var] * size)
    return plain.map_vars(mapping, len(blocks))


@cache
def _minors(table: tuple[tuple[int, ...], ...]) -> dict[tuple[int, ...], int]:
    """The nonzero maximal minors of an integer table, {columns: minor}:
    the weights of Cauchy-Binet, so memoized on the table.

    Row i is nonzero only in its span of columns [lo_i, hi_i], and both
    ends must never decrease down the rows.  Then a column set S, ascending,
    with s_i > hi_i puts rows 0..i on the i columns before s_i, and one with
    s_i < lo_i puts rows i.. on the columns after it: either minor is 0, so
    only sets with every s_i inside its row's span are expanded.
    """
    spans = [(min(nz), max(nz)) for nz in ([j for j, v in enumerate(row) if v] for row in table)]
    return {cols: minor for cols in combinations(range(len(table[0])), len(table))
            if all(lo <= col <= hi for col, (lo, hi) in zip(cols, spans))
            and (minor := det([[row[col] for col in cols] for row in table]))}


@cache
def _alternant(exponents: tuple[int, ...]) -> MultiPoly:
    """det[x_i^{s_j}] for distinct exponents s: t! signed monomials."""
    t = len(exponents)
    return det([[MultiPoly.monomial(t, i, s) for s in exponents] for i in range(t)])


@cache
def _schur(exponents: tuple[int, ...]) -> MultiPoly:
    """The alternant over x_1...x_t prod_{i<j}(x_j - x_i), a Schur polynomial."""
    return _alternant(exponents).divide_exact([(j, i) for j in range(len(exponents))
                                               for i in [None, *range(j)]])


def _cauchy_binet(indices: tuple[int, ...], basis) -> MultiPoly:
    """The sum over exponent sets S of basis(S) times the minor at S of the
    table whose row j holds the coefficients of the falling factorial
    (x)_{k_j}, signed Stirling numbers of the first kind."""
    if not indices or indices[0] < 0 or any(b >= c for b, c in zip(indices, indices[1:])):
        raise PreconditionFailed(f"binomial indices must increase strictly from 0 up: {indices}")
    table, row = [], [1] + [0] * indices[-1]
    for k in range(indices[-1] + 1):
        if k in indices:
            table.append(tuple(row))
        row = [a - k * b for a, b in zip([0, *row[:-1]], row)]  # times x - k
    return MultiPoly.combination(len(indices), (
        (minor, basis(s)) for s, minor in _minors(tuple(table)).items()))


@cache
def binomial_det(indices: tuple[int, ...]) -> MultiPoly:
    """k_1! ... k_t! times the determinant of the matrix with entries C(x_i, k_j).

    Column j times k_j! holds the falling factorials (x_i)_{k_j}, so by
    Cauchy-Binet the result has integer coefficients: a sum of alternants
    det[x_i^{s_j}] weighed by integer minors of the Stirling numbers.
    """
    return _cauchy_binet(indices, _alternant)


def binomial_det_quotient(indices: tuple[int, ...]) -> MultiPoly:
    """Quotient of the cleared binomial determinant by the standard-index one.

    The standard case (indices 1..t) equals x_1...x_t prod_{i<j}(x_j - x_i),
    so the quotient is `binomial_det`'s sum with each alternant replaced by
    its exact quotient, a Schur polynomial.
    """
    if not indices or indices[0] < 1:
        raise PreconditionFailed(f"indices must start at 1 or above: {indices}")
    return _cauchy_binet(indices, _schur)


def check_shift_expansion(powers, blocks) -> bool:
    """Verify the binomial expansion of the shifted quotient.

    The quotient evaluated at (1+x_0, ..., 1+x_m) must equal the sum over
    index vectors 1 <= b_1 < ... < b_t <= a_t of the integer det[C(a_i, b_j)],
    a minor of the table C(a_i, m), times the quotient for b.  Index vectors
    with b_t > a_t give a zero column, so the sum is finite.
    """
    powers = tuple(powers)
    blocks = tuple(blocks)
    _validate_powers(powers)
    _validate_blocks(blocks, len(powers) + 1)
    lhs = vandermonde_quotient(powers, blocks).shift_all_by_one()
    table = tuple(tuple(math.comb(a, b) for b in range(powers[-1] + 1)) for a in powers)
    return lhs == MultiPoly.combination(len(blocks), (
        (weight, vandermonde_quotient(beta, blocks))
        for beta, weight in _minors(table).items() if beta[0]))


def compositions(total: int) -> list[tuple[int, ...]]:
    """All compositions (ordered tuples of positive parts) of `total`."""
    if total == 0:
        return [()]
    out = []
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            out.append((first,) + rest)
    return out


def identity_grid_report(t_max: int, alpha_max: int):
    """Run the full identity grid; one result row per (powers, blocks) pair.

    Checks, per pair: integrality and nonnegativity of the quotient, the
    homogeneity degree formulas, the specialization identity, and the shift
    expansion; merge-identity rows are emitted separately for block vectors
    one short of square.  Returns a list of dict rows plus a summary dict.
    """
    if not 1 <= t_max <= alpha_max:
        raise PreconditionFailed(f"need 1 <= t <= alpha_max, got t={t_max}, alpha_max={alpha_max}")
    rows = []
    for t in range(1, t_max + 1):
        for powers in combinations(range(1, alpha_max + 1), t):
            size = sum(powers)
            for blocks in compositions(t + 1):
                quotient = vandermonde_quotient(powers, blocks)
                determinant = confluent_vandermonde_det(powers, blocks)
                deg_v_expect = size - sum(s * (s - 1) // 2 for s in blocks)
                deg_p_expect = size - t * (t + 1) // 2
                checks = {
                    "nonnegative": quotient.coefficients_nonnegative(),
                    "degree_det": determinant.is_homogeneous()
                    and determinant.total_degree() == deg_v_expect,
                    "degree_quotient": quotient.is_homogeneous()
                    and (not quotient or quotient.total_degree() == deg_p_expect),
                    "specialization": quotient == specialization_quotient(powers, blocks),
                    "shift_expansion": check_shift_expansion(powers, blocks),
                    "quotient_nonzero": bool(quotient),
                }
                rows.append({"powers": powers, "blocks": blocks, "kind": "quotient", **checks})
            for blocks in compositions(t):
                for k in range(len(blocks)):
                    ok = check_confluent_merge(powers, blocks, k)
                    rows.append(
                        {
                            "powers": powers,
                            "blocks": blocks,
                            "kind": "merge",
                            "index": k,
                            "merge": ok,
                        }
                    )
    flat_checks = [
        v
        for row in rows
        for key, v in row.items()
        if key not in ("powers", "blocks", "kind", "index", "quotient_nonzero")
        and isinstance(v, bool)
    ]
    summary = {
        "rows": len(rows),
        "checks": len(flat_checks),
        "failures": flat_checks.count(False),
        "all_quotients_nonzero": all(
            row["quotient_nonzero"] for row in rows if row["kind"] == "quotient"
        ),
    }
    return rows, summary
