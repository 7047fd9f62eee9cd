"""Generalized and confluent Vandermonde determinants, exactly.

The objects here are classical: the determinant of the matrix with rows
(1, x_i^{a_1}, ..., x_i^{a_t}) for a strictly increasing power vector, its
confluent variant where a repeated interpolation point contributes rows of
scaled derivatives, the quotient of either by the corresponding standard
(powers 1..t) determinant, and determinants of binomial-coefficient
matrices.  All computations are exact integer arithmetic on `MultiPoly`;
the quotients are certified by exact division (any remainder is a bug, not
an input condition).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import CapExceeded, InternalError, PreconditionFailed
from .multipoly import MultiPoly, det

DEFAULT_EXPANSION_CAP = 16


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


def _derivative_row(nvars: int, var: int, powers: tuple[int, ...], k: int) -> list[MultiPoly]:
    # Row k of a confluent block: k-th derivative divided by k!, i.e. entries
    # C(a_j, k) x^{a_j - k}; the constant-1 first column only survives at k=0.
    row = [MultiPoly.const(nvars, 1 if k == 0 else 0)]
    for a in powers:
        if k > a:
            row.append(MultiPoly.zero(nvars))
        else:
            row.append(MultiPoly.monomial(nvars, var, a - k, math.comb(a, k)))
    return row


def confluent_vandermonde_matrix(
    powers: tuple[int, ...], blocks: tuple[int, ...]
) -> list[list[MultiPoly]]:
    """The block matrix whose i-th block holds scaled-derivative rows at x_i."""
    nvars = len(blocks)
    matrix = []
    for var, size in enumerate(blocks):
        for k in range(size):
            matrix.append(_derivative_row(nvars, var, powers, k))
    return matrix


def confluent_vandermonde_det(powers, blocks) -> MultiPoly:
    """Confluent Vandermonde determinant for a power vector and block sizes.

    With all block sizes 1 this is the plain generalized Vandermonde
    determinant; a block of size s contributes rows for derivative orders
    0..s-1, each order-k row divided by k!.
    """
    powers = tuple(powers)
    blocks = tuple(blocks)
    _validate_powers(powers)
    _validate_blocks(blocks, len(powers) + 1)
    return det(confluent_vandermonde_matrix(powers, blocks))


@lru_cache(maxsize=4096)
def vandermonde_quotient(powers: tuple[int, ...], blocks: tuple[int, ...]) -> MultiPoly:
    """Quotient of the confluent determinant by its standard-powers counterpart.

    The standard case equals prod_{i<j} (x_j - x_i)^{s_i s_j}; the quotient
    has integer coefficients, and a nonzero remainder raises InternalError.
    """
    blocks = tuple(blocks)
    numerator = confluent_vandermonde_det(powers, blocks)
    return numerator.divide_exact([(j, i) for j in range(len(blocks)) for i in range(j)
                                   for _ in range(blocks[i] * blocks[j])])


def check_confluent_merge(powers, blocks, k: int) -> bool:
    """Verify the merge identity relating block sizes s and s with s_k grown by one.

    `blocks` must sum to t (one short of square); the identity states that the
    determinant for the grown blocks equals the coefficient of delta^{s_k} in
    the determinant where an extra simple point x_k + delta is inserted right
    after block k.  Computed fully symbolically.
    """
    powers = tuple(powers)
    blocks = tuple(blocks)
    _validate_powers(powers)
    _validate_blocks(blocks, len(powers))
    if not 0 <= k < len(blocks):
        raise PreconditionFailed(f"block index {k} out of range for {blocks}")

    grown = blocks[: k] + (blocks[k] + 1,) + blocks[k + 1 :]
    inserted = blocks[: k + 1] + (1,) + blocks[k + 1 :]
    m1 = len(blocks)          # variables of the grown determinant
    lhs = confluent_vandermonde_det(powers, grown)

    # Determinant with the inserted point, in m1+1 variables, then one extra
    # slot for delta; substitute the inserted variable by x_k + delta.
    wide = confluent_vandermonde_det(powers, inserted)
    wide = wide.map_vars(list(range(m1 + 1)), m1 + 2)
    delta = m1 + 1
    replacement = MultiPoly.monomial(m1 + 2, k) + MultiPoly.monomial(m1 + 2, delta)
    wide = wide.substitute(k + 1, replacement)

    extracted = wide.coefficient_of(delta, blocks[k])      # drop delta slot
    extracted = extracted.coefficient_of(k + 1, 0)         # drop the dead slot
    return extracted == lhs


def specialization_quotient(powers, blocks) -> MultiPoly:
    """The all-simple-points quotient with variable i repeated s_i times.

    Independent route to the confluent quotient: specializing the plain
    quotient must reproduce it exactly.
    """
    powers = tuple(powers)
    blocks = tuple(blocks)
    plain = vandermonde_quotient(powers, (1,) * (len(powers) + 1))
    mapping = []
    for var, size in enumerate(blocks):
        mapping.extend([var] * size)
    return plain.map_vars(mapping, len(blocks))


def binomial_det(indices, eval_at=None):
    """Determinant of the matrix with entries C(x_i, k_j), cleared of factorials.

    Symbolic mode returns k_1! ... k_t! times the determinant, which has
    integer coefficients (multiply column j by k_j! to get falling
    factorials).  Evaluated mode returns the exact unscaled determinant at
    the given points as a Fraction; it is an integer whenever all points are
    nonnegative integers.
    """
    indices = tuple(indices)
    if any(b < 0 for b in indices):
        raise PreconditionFailed(f"binomial indices must be nonnegative: {indices}")
    if any(b >= c for b, c in zip(indices, indices[1:])):
        raise PreconditionFailed(f"binomial indices must be strictly increasing: {indices}")
    t = len(indices)

    if eval_at is not None:
        if len(eval_at) != t:
            raise PreconditionFailed("evaluation point arity mismatch")
        # Column j holds (a)_{k_j} = k_j! C(a, k_j): ints at integer points,
        # Fractions at rational ones, so one determinant serves either.
        matrix = [[math.prod(a - c for c in range(k)) for k in indices] for a in eval_at]
        return Fraction(det(matrix), math.prod(map(math.factorial, indices)))

    rows = [[math.prod((MultiPoly.monomial(t, i) - MultiPoly.const(t, c) for c in range(k)),
                       start=MultiPoly.const(t, 1)) for k in indices] for i in range(t)]
    return det(rows)


@lru_cache(maxsize=1024)
def binomial_det_quotient(indices: tuple[int, ...]) -> MultiPoly:
    """Quotient of the cleared binomial determinant by the standard-index one.

    The standard case (indices 1..t) equals x_1...x_t prod_{i<j}(x_j - x_i);
    the quotient has integer coefficients and the division is exact.
    """
    indices = tuple(indices)
    if not indices or indices[0] < 1:
        raise PreconditionFailed(f"indices must start at 1 or above: {indices}")
    return binomial_det(indices).divide_exact([(j, i) for j in range(len(indices))
                                               for i in [None, *range(j)]])


def check_shift_expansion(powers, blocks, cap: int = DEFAULT_EXPANSION_CAP) -> bool:
    """Verify the binomial expansion of the shifted quotient.

    The quotient evaluated at (1+x_0, ..., 1+x_m) must equal the sum over
    strictly increasing index vectors b with b_t <= a_t of the binomial
    determinant at the powers times the quotient for b.  Index vectors with
    b_t > a_t contribute a zero column, so the sum is finite; `cap` bounds
    a_t to keep the enumeration at desk scale.
    """
    powers = tuple(powers)
    blocks = tuple(blocks)
    _validate_powers(powers)
    _validate_blocks(blocks, len(powers) + 1)
    t = len(powers)
    top = powers[-1]
    if top > cap:
        raise CapExceeded(f"top power {top} exceeds expansion cap {cap}")

    lhs = vandermonde_quotient(powers, blocks).shift_all_by_one()
    nvars = len(blocks)
    rhs = MultiPoly.zero(nvars)
    for beta in combinations(range(1, top + 1), t):
        weight = binomial_det(beta, eval_at=powers)
        if weight.denominator != 1:
            raise InternalError(f"binomial determinant at integers not integral: {beta}")
        w = int(weight)
        if w == 0:
            continue
        rhs = rhs + vandermonde_quotient(beta, blocks).scale(w)
    return lhs == rhs


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
    expansion_cap = max(DEFAULT_EXPANSION_CAP, alpha_max)
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
                    "shift_expansion": check_shift_expansion(powers, blocks, expansion_cap),
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
