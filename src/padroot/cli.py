"""Command-line entry point wiring all the modules together.

Subcommands: count-roots, newton-polygon, vandermonde-check, bounds,
build-extremal, search.  Flags override the optional JSON config file named
by PADROOT_CONFIG, which overrides the built-in defaults; the effective
configuration is echoed in every report header so a report alone suffices
to reproduce its run.  Exit codes: 0 full success / fully certified,
2 partial result (unresolved clusters or an exhausted search), 1 usage or
input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bounds import (
    FieldParams,
    descartes_bound,
    distinct_product_lcm,
    lenstra_bound,
    lenstra_threshold,
    sparse_lower_bound,
    sparse_upper_bound,
)
from .errors import PadrootError, ParseError, PreconditionFailed, SearchExhausted
from .explore import SweepSpec, run_sweep
from .extremal import BuildOptions, build_family
from .padic import is_prime
from .rootcount import CountOptions, count_roots, verify_upper_bounds
from .sparsepoly import (
    format_poly,
    newton_polygon,
    parse_poly,
    poly_from_obj,
    poly_to_obj,
)
from .vandermonde import identity_grid_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2


@dataclass
class GlobalConfig:
    prec: int = 40
    depth: int = 8
    exponent_cap: int = 10**6
    output: str = "human"  # "human" | "structured"

    @classmethod
    def load(cls, args) -> "GlobalConfig":
        config = cls()
        path = os.environ.get("PADROOT_CONFIG")
        if path:
            data = _read_file(Path(path), "PADROOT_CONFIG")
            if not isinstance(data, dict):
                raise ParseError(f"PADROOT_CONFIG {path}: not a JSON object")
            for key in ("prec", "depth", "exponent_cap", "output"):
                if key in data:
                    setattr(config, key, data[key])
        for key in ("prec", "depth", "output"):
            value = getattr(args, key, None)
            if value is not None:
                setattr(config, key, value)
        for key, least in (("prec", 1), ("depth", 0), ("exponent_cap", 0)):
            value = getattr(config, key)
            if type(value) is not int or value < least:
                raise ParseError(f"{key} must be an integer >= {least}, got {value!r}")
        if config.output not in ("human", "structured"):
            raise ParseError(f"output must be 'human' or 'structured', got {config.output!r}")
        return config

    def header(self) -> dict:
        return {
            "tool": "padroot",
            "version": __version__,
            "prec": self.prec,
            "depth": self.depth,
            "exponent_cap": self.exponent_cap,
        }


def _read_file(path: Path, what: str):
    """A file's text, or the JSON object it holds if it starts with '{'."""
    try:
        text = path.read_text().strip()
        return json.loads(text) if text.startswith("{") else text
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise ParseError(f"{what} {path}: {exc}") from exc


def _read_poly(text_or_file: str):
    candidate = Path(text_or_file)
    try:
        is_file = candidate.is_file()
    except OSError:  # e.g. an inline polynomial longer than a file name may be
        is_file = False
    if not is_file:
        return parse_poly(text_or_file)
    data = _read_file(candidate, "--poly")
    return poly_from_obj(data) if isinstance(data, dict) else parse_poly(data)


def _emit(config: GlobalConfig, human_lines: list[str], document: dict) -> None:
    document = {"config": config.header(), **document}
    if config.output == "structured":
        print(json.dumps(document, indent=2, sort_keys=True, default=str))
    else:
        for key, value in config.header().items():
            print(f"# {key}: {value}")
        for line in human_lines:
            print(line)


def _cmd_count_roots(args, config: GlobalConfig) -> int:
    f = _read_poly(args.poly)
    if f.degree() > config.exponent_cap:
        raise ParseError(f"degree exceeds the exponent cap {config.exponent_cap}")
    opts = CountOptions(prec=config.prec, depth=config.depth)
    report = count_roots(f, args.p, opts)
    checks = verify_upper_bounds(report, f.sparsity(), args.p)

    lines = [f"polynomial: {format_poly(f)}", f"p: {args.p}", "roots:"]
    for entry in report.entries:
        lines.append(f"  {entry.describe()}")
    for cluster in report.unresolved:
        lines.append(f"  unresolved {cluster.describe()}")
    lines.append(
        f"totals: distinct={report.count_distinct} "
        f"with_multiplicity={report.count_with_multiplicity} "
        f"upper_bound={report.upper_bound_with_multiplicity}"
    )
    for check in checks:
        state = ("n/a" if not check.applicable
                 else "ok" if check.satisfied else "VIOLATED")
        lines.append(f"bound {check.name} = {check.value}: {state} "
                     f"(observed {check.observed})")

    document = {
        "poly": poly_to_obj(f),
        "p": args.p,
        "entries": [
            {
                "valuation": e.valuation,
                "multiplicity": e.multiplicity,
                "certificate": e.certificate,
                "unit_digits": e.value.unit_mod(min(e.value.prec, 12)),
                "rational": str(e.rational) if e.rational is not None else None,
                "torsion_order": e.torsion[0] if e.torsion else None,
            }
            for e in report.entries
        ],
        "unresolved": [
            {
                "valuation": c.valuation, "center": c.center, "level": c.level,
                "upper_bound": c.upper_bound, "reason": c.reason,
            }
            for c in report.unresolved
        ],
        "totals": {
            "distinct": report.count_distinct,
            "with_multiplicity": report.count_with_multiplicity,
            "upper_bound_with_multiplicity": report.upper_bound_with_multiplicity,
        },
        "bounds": [vars(c) for c in checks],
    }
    _emit(config, lines, document)
    return EXIT_OK if report.fully_certified else EXIT_PARTIAL


def _cmd_newton_polygon(args, config: GlobalConfig) -> int:
    if not is_prime(args.p):
        raise PreconditionFailed(f"p must be a prime, got {args.p}")
    f = _read_poly(args.poly)
    stripped, shift = f.strip_lowest()
    np_ = newton_polygon(stripped, args.p)
    lines = [f"polynomial: {format_poly(f)}", f"p: {args.p}"]
    if shift:
        lines.append(f"monomial factor: x^{shift}")
    for seg in np_.segments:
        lines.append(
            f"segment slope={seg.slope} length={seg.length} "
            f"from {seg.start} to {seg.end}"
        )
    document = {
        "poly": poly_to_obj(f),
        "p": args.p,
        "monomial_shift": shift,
        "segments": [
            {"slope": str(seg.slope), "length": seg.length,
             "start": [str(v) for v in seg.start],
             "end": [str(v) for v in seg.end]}
            for seg in np_.segments
        ],
    }
    _emit(config, lines, document)
    return EXIT_OK


def _cmd_vandermonde_check(args, config: GlobalConfig) -> int:
    rows, summary = identity_grid_report(args.t, args.alpha_max)
    lines = []
    for row in rows:
        checks = {k: v for k, v in row.items() if isinstance(v, bool)}
        status = "pass" if all(checks.values()) else "FAIL"
        lines.append(
            f"powers={row['powers']} blocks={row['blocks']} kind={row['kind']}: {status}"
        )
    lines.append(f"summary: {summary}")
    _emit(config, lines, {"rows": rows, "summary": summary})
    return EXIT_OK if summary["failures"] == 0 else EXIT_PARTIAL


def _cmd_bounds(args, config: GlobalConfig) -> int:
    params = FieldParams(p=args.p, e=args.e, f=args.f)
    upper = sparse_upper_bound(args.t, params)
    lower = sparse_lower_bound(args.t, params.q)
    lenstra = lenstra_bound(args.t, params)
    threshold = lenstra_threshold(args.p, args.t, Fraction(1, args.e))
    rows = [
        ("descartes (ordered fields)", descartes_bound(args.t), True),
        ("upper (t^2-t+1)(q-1)", upper if upper is not None else "n/a",
         upper is not None),
        ("lower (2t-1)(q-1)", lower.improved, True),
        ("lower regular t(q-1)", lower.regular, True),
        ("lenstra logarithmic", f"{lenstra:.6f}", True),
        ("lenstra threshold C(p,t,1/e)", threshold, True),
    ]
    lines = [f"t={args.t} p={args.p} e={args.e} f={args.f} (q={params.q})"]
    for name, value, applicable in rows:
        suffix = "" if applicable else "   [not applicable: p <= e+t]"
        lines.append(f"  {name}: {value}{suffix}")
    document = {
        "t": args.t, "p": args.p, "e": args.e, "f": args.f, "q": params.q,
        "bounds": {
            "descartes": descartes_bound(args.t),
            "upper": upper,
            "upper_applicable": upper is not None,
            "lower": lower.improved,
            "lower_regular": lower.regular,
            "lenstra": lenstra,
            "lenstra_threshold": threshold,
            "d_t_table": {
                m: distinct_product_lcm(args.t, m)
                for m in range(0, min(args.t + 4, 12))
            },
        },
    }
    _emit(config, lines, document)
    return EXIT_OK


def _cmd_build_extremal(args, config: GlobalConfig) -> int:
    opts = BuildOptions(prec=config.prec, depth=config.depth,
                        alpha_window=args.alpha_window,
                        eps_window=args.eps_window)
    config = replace(config, exponent_cap=opts.exponent_cap)  # the cap searched under
    try:
        out = build_family(args.t, args.q, opts)
    except SearchExhausted as exc:
        _emit(config, [f"search exhausted: {exc}"],
              {"error": str(exc), "trace": exc.trace})
        return EXIT_PARTIAL
    lines = [
        f"f_{args.t} over Q_{args.q}: {format_poly(out.poly)[:200]}",
        f"degree: {out.poly.degree()}",
        f"certified roots: {out.report.count_distinct} distinct, "
        f"{out.report.count_with_multiplicity} with multiplicity "
        f"(target {out.target_count})",
        f"strict per-disk distribution: {out.strict_distribution}",
    ]
    for row in out.construction_log:
        lines.append(f"  log: {row}")
    document = {
        "t": args.t, "q": args.q,
        "poly": poly_to_obj(out.poly),
        "poly_text": format_poly(out.poly),
        "target": out.target_count,
        "distinct": out.report.count_distinct,
        "with_multiplicity": out.report.count_with_multiplicity,
        "strict_distribution": out.strict_distribution,
        "construction_log": out.construction_log,
    }
    _emit(config, lines, document)
    return EXIT_OK


def _cmd_search(args, config: GlobalConfig) -> int:
    spec = SweepSpec(
        p=args.p, t=args.t, exponent_bound=args.max_exp,
        coeff_mode=args.mode, coeff_bound=args.coeff_bound,
        coeff_modulus_exp=args.coeff_modulus_exp,
        candidates=args.candidates, seed=args.seed,
        prec=config.prec, depth=config.depth, workers=args.workers,
    )
    rows, summary = run_sweep(spec, out_path=args.out,
                              checkpoint_path=args.checkpoint)
    lines = [
        f"sweep over {summary['candidates']} candidates",
        f"max distinct: {summary['max_distinct']}",
        f"max with multiplicity: {summary['max_with_mult']}"
        + (f" (upper bound {summary['upper_bound']})"
           if summary["upper_bound"] is not None else ""),
        f"rows with unresolved clusters: {summary['with_unresolved']}",
    ]
    if args.out:
        lines.append(f"rows written to {args.out}")
    _emit(config, lines, {"summary": summary})
    return EXIT_OK if summary["with_unresolved"] == 0 else EXIT_PARTIAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padroot",
        description="Exact root counting for sparse polynomials over Q_p",
    )
    parser.add_argument("--prec", type=int, default=None,
                        help="p-adic digits of each reported root (default 40); "
                        "the working precision doubles on demand")
    parser.add_argument("--depth", type=int, default=None,
                        help="residue refinement depth (default 8)")
    parser.add_argument("--format", dest="output", choices=["human", "structured"],
                        default=None, help="report format")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("count-roots", help="certified root inventory in Q_p^*")
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("--poly", required=True,
                     help="polynomial text or a file holding text/JSON")
    cmd.set_defaults(func=_cmd_count_roots)

    cmd = sub.add_parser("newton-polygon", help="print the Newton polygon")
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("--poly", required=True)
    cmd.set_defaults(func=_cmd_newton_polygon)

    cmd = sub.add_parser("vandermonde-check",
                         help="run the determinant identity grid")
    cmd.add_argument("--t", type=int, required=True)
    cmd.add_argument("--alpha-max", type=int, required=True)
    cmd.set_defaults(func=_cmd_vandermonde_check)

    cmd = sub.add_parser("bounds", help="print all root-count bounds")
    cmd.add_argument("--t", type=int, required=True)
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("--e", type=int, default=1)
    cmd.add_argument("--f", type=int, default=1)
    cmd.set_defaults(func=_cmd_bounds)

    cmd = sub.add_parser("build-extremal",
                         help="construct a lower-bound tower member")
    cmd.add_argument("--t", type=int, required=True)
    cmd.add_argument("--q", type=int, required=True)
    cmd.add_argument("--alpha-window", type=int, default=64)
    cmd.add_argument("--eps-window", type=int, default=32)
    cmd.set_defaults(func=_cmd_build_extremal)

    cmd = sub.add_parser("search", help="sweep a polynomial family")
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("--t", type=int, required=True)
    cmd.add_argument("--max-exp", type=int, required=True)
    cmd.add_argument("--mode", choices=["random", "exhaustive"], default="random")
    cmd.add_argument("--coeff-bound", type=int, default=8)
    cmd.add_argument("--coeff-modulus-exp", type=int, default=1)
    cmd.add_argument("--candidates", type=int, default=200)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--workers", type=int, default=1)
    cmd.add_argument("--out", default=None)
    cmd.add_argument("--checkpoint", default=None)
    cmd.set_defaults(func=_cmd_search)
    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        config = GlobalConfig.load(args)
        return args.func(args, config)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchExhausted as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    except PadrootError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch())
