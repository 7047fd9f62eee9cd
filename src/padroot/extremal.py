"""Constructive families realizing the lower bounds on root counts.

Two builders: the sharp trinomial x^((q-1)(1+q^(q-1))) - (1+q^(q-1))x^(q-1)
+ q^(q-1), which carries a double root at every (q-1)-torsion point and a
simple root above each, and the recursive tower f_1 = x^(q-1)-1,
f_{t+1} = x^alpha - f_t(x/p)/f_t(1/p) + epsilon, with at least (2t-1)(q-1)
simple roots.  Stacking two simple roots in each disk p^i(1+pZ_p) and one
on top is the strict form; it is reached only where the exponent search
finds it within BuildOptions.exponent_cap, and otherwise a stage falls
back to the same total with an uneven distribution (reported in
ExtremalBuildReport.strict_distribution and in the construction log).
For (t, q) = (3, 3) the dilated (2, 3) member is x^deg modulo 3^180, so
the strict form needs 3^180 | alpha_3 - alpha_2, far past the cap.  The
tower step searches for the exponent alpha along power-congruence chains
(the existence argument in the source material is non-constructive, so a
bounded search that can honestly fail is the right shape) and verifies
every stage with the certified root counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .bounds import sparse_lower_bound
from .errors import (
    CapExceeded,
    InternalError,
    PrecisionExhausted,
    PreconditionFailed,
    SearchExhausted,
)
from .padic import fraction_valuation, int_valuation, solve_power_congruences
from .rootcount import CountOptions, RootReport, count_roots
from .sparsepoly import SparsePoly, newton_polygon

MAX_EXPONENT_DEFAULT = 10**6
CHAIN_DEPTH = 16  # power-congruence levels per starting point


@dataclass
class BuildOptions:
    alpha_window: int = 64     # exponent candidates tried per starting point
    eps_window: int = 32       # scan width for the final perturbation
    prec: int = 40
    depth: int = 8
    # towers legitimately need exponents near phi(p^level) once the
    # logarithmic-derivative degeneracy runs deep (q = 5 needs ~4*5^10),
    # so the builder's cap sits above the package-wide parsing default
    exponent_cap: int = 10**8

    def count_options(self) -> CountOptions:
        return CountOptions(prec=self.prec, depth=self.depth)


@dataclass
class ExtremalBuildReport:
    poly: SparsePoly
    t: int
    q: int
    target_count: int
    report: RootReport
    construction_log: list[dict] = field(default_factory=list)
    # True when every stage realized the strict per-disk root distribution
    # [2, ..., 2, 1]; False when a stage fell back to an uneven distribution
    # with the same total (the root-count target only needs the total)
    strict_distribution: bool = True


def sharp_trinomial(q: int, cap: int = MAX_EXPONENT_DEFAULT) -> SparsePoly:
    """The trinomial with at least 3(q-1) roots counted with multiplicity."""
    if q < 3 or q % 2 == 0:
        raise PreconditionFailed("q must be an odd prime")
    high = (q - 1) * (1 + q ** (q - 1))
    if high > cap:
        raise CapExceeded(f"exponent {high} exceeds the cap {cap}")
    return SparsePoly([
        (0, Fraction(q ** (q - 1))),
        (q - 1, Fraction(-(1 + q ** (q - 1)))),
        (high, Fraction(1)),
    ])


def verify_sharp_trinomial(q: int, opts: BuildOptions | None = None) -> RootReport:
    """Count the sharp trinomial's roots and check the constructive skeleton.

    Asserted: a double root at every torsion point (value and first two
    derivatives checked through exact certificates), exactly q-1 simple
    valuation-1 roots, and the Newton-method witness at x = q, namely
    v(f(q)) = 2(q-1) > 2 v(f'(q)) = 2(q-2).
    """
    opts = opts or BuildOptions()
    f = sharp_trinomial(q, opts.exponent_cap)
    fq = f.eval_exact(q)
    dfq = f.derivative().eval_exact(q)
    if fraction_valuation(fq, q) != 2 * (q - 1) or fraction_valuation(dfq, q) != q - 2:
        raise InternalError("approximate-root witness at x=q is off")

    report = count_roots(f, q, opts.count_options())
    torsion = [e for e in report.entries
               if e.certificate == "ExactTorsion" and e.valuation == 0]
    if len(torsion) != q - 1 or any(e.multiplicity != 2 for e in torsion):
        raise InternalError("expected a double root at every torsion point")
    lifted = [e for e in report.entries
              if e.valuation == 1 and e.multiplicity == 1]
    if len(lifted) != q - 1:
        raise InternalError("expected q-1 simple roots of valuation 1")
    if report.count_with_multiplicity < sparse_lower_bound(2, q).improved:
        raise InternalError("trinomial fell short of its target count")
    return report


def binomial_base(q: int) -> SparsePoly:
    """The t = 1 member of the tower: x^(q-1) - 1."""
    return SparsePoly([(0, Fraction(-1)), (q - 1, Fraction(1))])


def dilate_normalize(f: SparsePoly, p: int) -> SparsePoly:
    """f(x/p) / f(1/p): roots scaled up by p, value 1 at x = 1.

    Requires f monic with a nonzero constant term; all coefficients of the
    result are p-integral and the result is congruent to x^deg modulo p^2
    when every exponent is divisible by q-1 >= 2.
    """
    if f.is_zero() or f.leading_coefficient() != 1 or f.constant_term() == 0:
        raise PreconditionFailed("tower polynomials are monic with nonzero constant")
    unit = f.eval_exact(Fraction(1, p))
    if unit == 0:
        raise InternalError("f(1/p) vanished; roots escaped Z_p")
    out = SparsePoly(
        (e, c * Fraction(p) ** (-e) / unit) for e, c in f.terms
    )
    if any(fraction_valuation(c, p) < 0 for _, c in out.terms):
        raise InternalError("dilation left a non-integral coefficient")
    return out


def _pair_separation_valuations(report: RootReport, p: int) -> list[int]:
    """v(r - r') over distinct certified root pairs."""
    out = []
    entries = report.entries
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            a, b = entries[i], entries[j]
            if a.valuation != b.valuation:
                out.append(min(a.valuation, b.valuation))
                continue
            k = min(a.value.prec, b.value.prec)
            diff = (a.value.unit_mod(k) - b.value.unit_mod(k)) % p**k
            if diff == 0:
                raise PrecisionExhausted("two certified roots agree to working precision")
            out.append(a.valuation + int_valuation(diff, p))
    return out


def _tower_profile(report: RootReport, t: int, p: int) -> list[int]:
    """Certified-simple-root counts in p^i(1+pZ_p) for i = 0..t-1."""
    counts = [0] * t
    for e in report.entries:
        if e.multiplicity != 1:
            continue
        if 0 <= e.valuation < t and e.value.unit_mod(1) == 1:
            counts[e.valuation] += 1
    return counts


def build_family(t: int, q: int, opts: BuildOptions | None = None) -> ExtremalBuildReport:
    """Build the degree-t tower member with at least (2t-1)(q-1) simple roots.

    Recursive over t; each step extends the previous member by a searched
    exponent and perturbation.  Raises SearchExhausted (with the search
    trace attached) when a bounded window runs out -- a reportable outcome,
    not a bug, since only an infinite search is guaranteed to succeed.
    """
    opts = opts or BuildOptions()
    if q < 3 or q % 2 == 0:
        raise PreconditionFailed("q must be an odd prime")
    if t < 1:
        raise PreconditionFailed("t must be positive")
    if opts.alpha_window < 1 or opts.eps_window < 1:
        raise PreconditionFailed("alpha_window and eps_window must be positive")

    log: list[dict] = []
    current = binomial_base(q)
    report = count_roots(current, q, opts.count_options())
    log.append({"stage": 1, "poly": "base binomial", "roots": report.count_distinct})
    strict = True
    for stage in range(2, t + 1):
        current, report, records, stage_strict = _tower_step(
            current, report, stage, q, opts)
        strict = strict and stage_strict
        log.extend(records)

    target = sparse_lower_bound(t, q).improved
    if report.count_with_multiplicity < target:
        raise InternalError("verified tower member fell short of its target")
    return ExtremalBuildReport(
        poly=current, t=t, q=q, target_count=target,
        report=report, construction_log=log, strict_distribution=strict,
    )


def _profile_acceptable(profile: list[int], stage: int, strict: bool) -> bool:
    """Strict: at least [2, ..., 2, 1] per disk.  Relaxed: the top disk is
    inhabited and the total reaches 2*stage - 1 (the torsion-closure count
    only depends on the total)."""
    if strict:
        expected = [2] * (stage - 1) + [1]
        return all(got >= want for got, want in zip(profile, expected))
    return profile[stage - 1] >= 1 and sum(profile) >= 2 * stage - 1


def _tower_step(f_prev, rep_prev, stage, q, opts):
    """One induction step: from f_{stage-1} (verified) to f_stage (verified).

    Two passes: the strict pass looks for the per-disk distribution
    [2, ..., 2, 1] among locally-dominant exponent candidates; when the
    window exhausts (the dilated member is x^deg modulo p^gap, so two new
    roots in one disk need exponents differing by a multiple of p^gap,
    far beyond any cap for deep gaps), a relaxed pass accepts any verified
    member whose disk total reaches 2 stage - 1, which yields the same
    final root count after torsion closure.
    """
    p = q
    records = []
    if not rep_prev.fully_certified:
        raise SearchExhausted(
            "previous tower member has unresolved clusters; thresholds unbounded",
            trace=[c.describe() for c in rep_prev.unresolved],
        )
    if any(e.multiplicity != 1 or e.val_fprime is None for e in rep_prev.entries):
        raise InternalError("tower member root data incomplete")

    gamma = max(e.val_fprime for e in rep_prev.entries)
    gamma_prime = 1 + max(_pair_separation_valuations(rep_prev, p))
    alpha_top = f_prev.degree()
    thresholds = {
        "2(gamma+alpha_t)": 2 * (gamma + alpha_top),
        "2*gamma_prime": 2 * gamma_prime,
        "2(alpha_t+gamma+gamma_prime)": 2 * (alpha_top + gamma + gamma_prime),
    }
    minimum = max(thresholds.values()) + 1
    binding = max(thresholds, key=thresholds.get)
    records.append({
        "stage": stage, "gamma": gamma, "gamma_prime": gamma_prime,
        "alpha_top": alpha_top, "alpha_minimum": minimum, "binding": binding,
    })

    hhat = dilate_normalize(f_prev, p)
    for strict in (True, False):
        trace: list[dict] = []
        for g_alpha, alpha, r0, dominant in _alpha_candidates(
                hhat, alpha_top, minimum, q, opts, trace):
            if strict and not dominant:
                continue
            rep_g = count_roots(g_alpha, p, opts.count_options())
            profile = _tower_profile(rep_g, stage, p)
            if not _profile_acceptable(profile, stage, strict):
                trace.append({"r0": r0, "alpha": alpha, "strict": strict,
                              "why": f"tower profile {profile} insufficient"})
                continue
            records.append({"stage": stage, "alpha": alpha, "r0": r0,
                            "strict_distribution": strict,
                            "profile": profile, "alpha_trace": list(trace)})
            result = _perturb_and_verify(g_alpha, rep_g, stage, q, opts,
                                         records, strict)
            if result is not None:
                candidate, rep_new, records = result
                return candidate, rep_new, records, strict
        if strict:
            records.append({
                "stage": stage,
                "note": "strict per-disk distribution unreachable in the "
                        "window; falling back to the total-count form",
            })
    raise SearchExhausted(
        f"alpha window exhausted for stage {stage}", trace=trace,
    )


def _perturb_and_verify(g_alpha, rep_g, stage, q, opts, records, strict):
    """Scan perturbations until the counter verifies the new tower member."""
    p = q
    tower_entries = [
        e for e in rep_g.entries
        if e.multiplicity == 1 and 0 <= e.valuation < stage and e.value.unit_mod(1) == 1
    ]
    if any(e.val_fprime is None for e in tower_entries):
        raise PrecisionExhausted("derivative valuation invisible at a tower root")
    ceiling = 2 * max([stage] + [e.val_fprime for e in tower_entries])
    v_g0 = fraction_valuation(g_alpha.constant_term(), p)
    v_eps = max(ceiling, v_g0) + 1
    records.append({"stage": stage, "eps_valuation": v_eps,
                    "g_constant_valuation": v_g0})

    eps_trace = []
    for u in range(1, opts.eps_window + 1):
        candidate = g_alpha.add_constant(Fraction(u * p**v_eps))
        rep_new = count_roots(candidate, p, opts.count_options())
        verdict = _accept_tower_member(candidate, rep_new, stage, q, strict)
        eps_trace.append({"u": u, "verdict": verdict})
        if verdict == "ok":
            records.append({"stage": stage, "eps": f"{u}*p^{v_eps}",
                            "eps_trace": eps_trace})
            return candidate, rep_new, records
    records.append({"stage": stage, "eps_trace": eps_trace,
                    "why": "perturbation window exhausted"})
    return None


def _modular_valuation(poly: SparsePoly, x: int, p: int, cap: int):
    """v(poly(x)) when below cap, else None (meaning >= cap); always exact."""
    residue = poly.eval_mod(x % p**cap, p, cap)
    return int_valuation(residue, p) if residue else None


def _alpha_candidates(hhat, alpha_prev_top, minimum, q, opts, trace):
    """Ranked candidates (g, alpha, r0) passing the local dominance test.

    Ranking is by power-congruence chain depth first (shallow chains give
    small exponents, which the next recursion stage depends on), then the
    starting point r0 = 1 + ap, then step multiples.  The dominance test
    v(g(r0)) > 2 v(g'(r0)) is evaluated through modular residues with an
    explicit cap, so exponents in the tens of millions stay cheap.
    """
    p = q
    starts = []
    for a in range(1, p):
        r0 = 1 + a * p  # automatically not 1 mod p^2
        y = hhat.eval_exact(r0)
        if fraction_valuation(y - 1, p) < 1:
            raise InternalError("dilated tower member is not 1 mod p at 1+pZ_p")
        starts.append((r0, y))
    budgets = {r0: opts.alpha_window for r0, _ in starts}

    for level in range(2, CHAIN_DEPTH + 2):
        for r0, y in starts:
            if budgets[r0] <= 0:
                continue
            chain = solve_power_congruences(r0, y, p, level, minimum=minimum)
            base = chain[-1]
            step = (p - 1) * p ** (level - 1)
            if base % p != alpha_prev_top % p:
                raise InternalError("exponent chain broke the mod-p congruence")
            if base > opts.exponent_cap:
                # admissible minima only grow with the level: close this start
                trace.append({"r0": r0, "alpha": base, "why": "exponent cap"})
                budgets[r0] = 0
                continue
            for j in range(min(budgets[r0], 4)):
                alpha = base + j * step
                if alpha > opts.exponent_cap:
                    break
                budgets[r0] -= 1
                g = _assemble_tower_poly(hhat, alpha)
                probe = max(2 * level + 8, 24)
                v_gp = _modular_valuation(g.derivative(), r0, p, probe)
                if v_gp is None:
                    dominant = False
                else:
                    v_g = _modular_valuation(g, r0, p, 2 * v_gp + 2)
                    dominant = v_g is None or v_g > 2 * v_gp
                    trace.append({"r0": r0, "level": level, "alpha": alpha,
                                  "v_g": v_g if v_g is not None else f">={2 * v_gp + 2}",
                                  "v_gprime": v_gp, "dominant": dominant})
                yield g, alpha, r0, dominant


def _assemble_tower_poly(hhat: SparsePoly, alpha: int) -> SparsePoly:
    if alpha <= hhat.degree():
        raise InternalError("tower exponent below the previous degree")
    terms = {e: -c for e, c in hhat.terms}
    terms[alpha] = Fraction(1)
    return SparsePoly.from_dict(terms)


def _accept_tower_member(candidate, report, stage, q, strict=True) -> str:
    if not report.fully_certified:
        return "unresolved clusters"
    if any(e.multiplicity != 1 for e in report.entries):
        return "multiple root"
    profile = _tower_profile(report, stage, q)
    if not _profile_acceptable(profile, stage, strict):
        return "tower profile mismatch"
    if report.count_with_multiplicity < sparse_lower_bound(stage, q).improved:
        return "below target"
    if candidate.num_terms() != stage + 1:
        return "term count broken"
    if candidate.leading_coefficient() != 1 or candidate.constant_term() == 0:
        return "shape broken"
    if any(fraction_valuation(c, q) < 0 for _, c in candidate.terms):
        return "coefficient left Z_p"
    if any(e % (q - 1) for e in candidate.exponents() if e):
        return "exponent divisibility broken"
    slopes = newton_polygon(candidate, q).slopes()
    if slopes != [Fraction(-i) for i in range(stage - 1, -1, -1)]:
        return f"polygon slopes {slopes}"
    return "ok"
