"""Command-line surface: JSON to stdout, optional CSV for tabular data."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from .kernel import (
    CapacityError,
    OutOfRangeError,
    build_sieve,
    check_convolution_identities,
    lcm_identity_check,
)
from .scheme import (
    BUILTINS,
    Scheme,
    SchemeError,
    base_bounds,
    cancellation_check,
    constant_A,
    e_profile,
    render_scheme,
    resolve_scheme,
)
from .selection import (
    DominationError,
    TermSelection,
    select_terms,
    selection_rows,
    selection_step_function,
)
from .iteration import IterationError, build_recurrence, fixed_point, iterate
from .sweep import SweepRow, optimize_rho, sweep_rho
from .verify import (
    verify_V_identities,
    verify_asymptotic_A,
    verify_final_bounds,
    verify_psi_pi,
    verify_selection_bounds,
)


def _jsonable(value):
    """Floats at 12 significant digits, Fractions as 'p/q', containers recursed."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, np.generic):
        return _jsonable(value.item())
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, complex):
        if value.imag == 0:
            return float(f"{value.real:.12g}")
        return {"re": float(f"{value.real:.12g}"), "im": float(f"{value.imag:.12g}")}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(payload: dict) -> None:
    json.dump(_jsonable(payload), sys.stdout, indent=2)
    sys.stdout.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _parse_excludes(items: list[str] | None) -> tuple[tuple[int, int], ...]:
    out = []
    for item in items or []:
        try:
            m, n = (int(v) for v in item.split(","))
        except ValueError:
            raise SchemeError(f"--exclude expects 'm,n', got {item!r}") from None
        out.append((m, n))
    return tuple(out)


def _selection_payload(sel: TermSelection) -> dict:
    return {
        "side": sel.side,
        "rho": sel.rho,
        "leading": sel.leading_n,
        "pairs": list(sel.kept_pairs),
        "dropped_pairs": list(sel.dropped_pairs),
        "standalones": list(sel.standalones),
        "scan_end": sel.scan_end,
        "max_index": sel.max_index,
        "excluded": list(sel.excluded),
        "n_terms": sel.n_terms,
    }


def _sweep_row_payload(row: SweepRow) -> dict:
    return {
        "rho": row.rho,
        "a": row.a_limit,
        "b": row.b_limit,
        "ratio": row.ratio,
        "lambda1": row.lambda1,
        "lambda2": row.lambda2,
        "n_lower": row.n_lower_terms,
        "n_upper": row.n_upper_terms,
        "converges": row.converges,
    }


def _cmd_analyze(args) -> int:
    s = resolve_scheme(args.scheme)
    if cancellation_check(s) != 0:
        raise SchemeError(
            f"scheme {render_scheme(s)} fails the cancellation condition "
            f"(sum nu(n)/n = {cancellation_check(s)})"
        )
    p = e_profile(s)
    _emit(
        {
            "name": s.name,
            "scheme": render_scheme(s),
            "period": p.period,
            "N": p.n,
            "M": p.m,
            "e_min": p.e_min,
            "e_max": p.e_max,
            **asdict(base_bounds(s, p)),
        }
    )
    return 0


def _cmd_eprofile(args) -> int:
    s = resolve_scheme(args.scheme)
    p = e_profile(s)
    if args.csv:
        _write_csv(
            args.csv, ["x", "E"], ((x, int(p.values[x - 1])) for x in range(1, p.period + 1))
        )
    _emit(
        {
            "scheme": render_scheme(s),
            "period": p.period,
            "N": p.n,
            "M": p.m,
            "e_min": p.e_min,
            "e_max": p.e_max,
            "first_occurrence": {str(k): v for k, v in sorted(p.first_occurrence.items())},
            "values": p.values.tolist(),
        }
    )
    return 0


def _cmd_base_bounds(args) -> int:
    s = resolve_scheme(args.scheme)
    _emit({"scheme": render_scheme(s), **asdict(base_bounds(s))})
    return 0


def _cmd_select(args) -> int:
    s = resolve_scheme(args.scheme)
    p = e_profile(s)
    sel = select_terms(
        p, args.side, args.rho, max_index=args.max_index, exclude=_parse_excludes(args.exclude)
    )
    if args.csv:
        _write_csv(args.csv, ["position", "sign", "status"], selection_rows(sel))
    payload = _selection_payload(sel)
    payload["scheme"] = render_scheme(s)
    if args.check_domination:
        rep = selection_step_function(sel, p, strict=False)
        payload["domination_ok"] = rep.ok
    _emit(payload)
    return 0


def _cmd_iterate(args) -> int:
    s = resolve_scheme(args.scheme)
    p = e_profile(s)
    A = constant_A(s)
    exclude = _parse_excludes(args.exclude)
    upper = select_terms(p, "upper", args.rho, exclude=exclude)
    if args.hybrid_lower:
        s2 = resolve_scheme(args.hybrid_lower)
        p2 = e_profile(s2)
        lower = select_terms(
            p2, "lower", args.rho, max_index=args.hybrid_max_index, exclude=exclude
        )
        rec = build_recurrence(lower, upper, constant_A(s2), p2.n, upper_A=A)
        provenance = f"hybrid:rho_upper={upper.rho},rho_lower={lower.rho}"
    else:
        lower = select_terms(p, "lower", args.rho, exclude=exclude)
        rec = build_recurrence(lower, upper, A, p.n)
        provenance = f"rho_lower={lower.rho},rho_upper={upper.rho}"
    result = fixed_point(rec)
    payload = {
        "scheme": render_scheme(s),
        "rho": args.rho,
        "alpha": result.alpha,
        "beta": result.beta,
        "a": result.a_limit,
        "b": result.b_limit,
        "ratio": result.b_limit / result.a_limit,
        "eigenvalues": list(result.eigenvalues),
        "converges": result.converges,
        "n_lower_terms": lower.n_terms,
        "n_upper_terms": upper.n_terms,
        "provenance": provenance,
    }
    if args.steps is not None:
        a0 = args.a0 if args.a0 is not None else A
        b0 = args.b0 if args.b0 is not None else rec.c2
        trace = iterate(rec, a0, b0, args.steps)
        payload["trace"] = [{"i": i, "a": a, "b": b} for i, a, b in trace]
        if args.csv:
            _write_csv(args.csv, ["i", "a_i", "b_i"], trace)
    _emit(payload)
    return 0


def _cmd_sweep(args) -> int:
    s = resolve_scheme(args.scheme)
    exclude = _parse_excludes(args.exclude)
    sweep = sweep_rho(s, args.rho_min, args.rho_max, args.step, exclude)
    rows = [_sweep_row_payload(r) for r in sweep]
    if args.csv:
        _write_csv(args.csv, list(rows[0]), (row.values() for row in rows))
    payload: dict = {"scheme": render_scheme(s), "rows": rows}
    if args.refine:
        opt = optimize_rho(s, args.rho_min, args.rho_max, args.step, exclude=exclude)
        payload["optimum"] = {
            "best_a": _sweep_row_payload(opt.best_a),
            "best_b": _sweep_row_payload(opt.best_b),
            "best_ratio": _sweep_row_payload(opt.best_ratio),
            "residual": opt.residual,
        }
    _emit(payload)
    return 0


# Each verify check's --limit when the flag is absent.
_VERIFY_LIMITS = {
    "convolution": 10**4,
    "lcm": 50,
    "v-identity": 10**4,
    "selection": 10**5,
    "asymptotic": 10**5,
    "final-bounds": 10**6,
    "psi-pi": 10**5,
}


def _cmd_verify(args) -> int:
    limit = _VERIFY_LIMITS[args.check] if args.limit is None else args.limit
    if args.check == "convolution":
        rep = check_convolution_identities(limit)
        _emit(
            {
                "name": "convolution",
                "limit": rep.limit,
                "max_dev_T": rep.max_dev_T,
                "max_dev_psi": rep.max_dev_psi,
                "passed": rep.passed,
            }
        )
        return 0 if rep.passed else 1
    if args.check == "lcm":
        if limit < 1:
            raise OutOfRangeError("lcm needs --limit >= 1")
        failures = [x for x in range(1, limit + 1) if not lcm_identity_check(x)]
        _emit({"name": "lcm", "x_max": limit, "failures": failures, "passed": not failures})
        return 0 if not failures else 1
    if args.check == "v-identity":
        s = resolve_scheme(args.scheme or "cheb")
        rep = verify_V_identities(s, limit)
    elif args.check == "selection":
        s = resolve_scheme(args.scheme or "cheb")
        p = e_profile(s)
        rep = verify_selection_bounds(
            s,
            select_terms(p, "lower", args.rho),
            select_terms(p, "upper", args.rho),
            limit,
        )
    elif args.check == "asymptotic":
        s = resolve_scheme(args.scheme or "cheb")
        ladder = []
        x = 100
        while x <= limit:
            ladder.append(x)
            x *= 2
        rep = verify_asymptotic_A(s, ladder)
    elif args.check == "final-bounds":
        rep = verify_final_bounds(args.a, args.b, limit)
    else:  # psi-pi
        tables = build_sieve(limit)
        ladder = [float(x) for x in (100, 1000, 10**4, limit) if x <= limit]
        rep = verify_psi_pi(args.alpha, ladder, tables)
    _emit(asdict(rep))
    return 0 if rep.passed else 1


def _cmd_list_schemes(args) -> int:
    entries = []
    for name, s in BUILTINS.items():
        p = e_profile(s)
        entry = {
            "name": name,
            "scheme": render_scheme(s),
            "period": p.period,
            "N": p.n,
            "A": constant_A(s),
        }
        if name == "nu4":
            entry["caveat"] = (
                "registry entry is the delta-expansion {1:+1,2:-1,3:-1,6:-1}; "
                "the bracket form [1,6;2,3] does not cancel"
            )
        entries.append(entry)
    _emit({"schemes": entries})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebsylv",
        description="Chebyshev-Sylvester elementary bounds for the prime-counting function",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="scheme constants and profile metrics")
    p_analyze.add_argument("scheme")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_prof = sub.add_parser("eprofile", help="one period of E with jump metrics")
    p_prof.add_argument("scheme")
    p_prof.add_argument("--csv", metavar="PATH")
    p_prof.set_defaults(func=_cmd_eprofile)

    p_bb = sub.add_parser("base-bounds", help="one-shot telescoping bounds A', B")
    p_bb.add_argument("scheme")
    p_bb.set_defaults(func=_cmd_base_bounds)

    p_sel = sub.add_parser("select", help="rho-threshold term selection for one side")
    p_sel.add_argument("scheme")
    p_sel.add_argument("--rho", type=float, required=True)
    p_sel.add_argument("--side", choices=("lower", "upper"), required=True)
    p_sel.add_argument("--max-index", type=int, default=None)
    p_sel.add_argument("--exclude", action="append", metavar="m,n")
    p_sel.add_argument("--csv", metavar="PATH")
    p_sel.add_argument("--check-domination", action="store_true")
    p_sel.set_defaults(func=_cmd_select)

    p_it = sub.add_parser("iterate", help="affine recurrence fixed point (and trace)")
    p_it.add_argument("scheme")
    p_it.add_argument("--rho", type=float, required=True)
    p_it.add_argument("--a0", type=float, default=None)
    p_it.add_argument("--b0", type=float, default=None)
    p_it.add_argument("--steps", type=int, default=None)
    p_it.add_argument("--hybrid-lower", metavar="SCHEME2")
    p_it.add_argument("--hybrid-max-index", type=int, default=None)
    p_it.add_argument("--exclude", action="append", metavar="m,n")
    p_it.add_argument("--csv", metavar="PATH")
    p_it.set_defaults(func=_cmd_iterate)

    p_sw = sub.add_parser("sweep", help="tabulate limits and spectra over a rho grid")
    p_sw.add_argument("scheme")
    p_sw.add_argument("--rho-min", type=float, default=1.02)
    p_sw.add_argument("--rho-max", type=float, default=2.0)
    p_sw.add_argument("--step", type=float, default=0.005)
    p_sw.add_argument("--refine", action="store_true")
    p_sw.add_argument("--exclude", action="append", metavar="m,n")
    p_sw.add_argument("--csv", metavar="PATH")
    p_sw.set_defaults(func=_cmd_sweep)

    p_ver = sub.add_parser("verify", help="empirical checks against the sieve oracle")
    p_ver.add_argument("check", choices=tuple(_VERIFY_LIMITS))
    p_ver.add_argument("--limit", type=int, default=None)
    p_ver.add_argument("--scheme", default=None)
    p_ver.add_argument("--rho", type=float, default=1.2)
    p_ver.add_argument("--a", type=float, default=0.9226)
    p_ver.add_argument("--b", type=float, default=1.0765)
    p_ver.add_argument("--alpha", type=float, default=0.75)
    p_ver.set_defaults(func=_cmd_verify)

    p_ls = sub.add_parser("list-schemes", help="built-in scheme registry")
    p_ls.set_defaults(func=_cmd_list_schemes)

    return parser


_KNOWN_ERRORS = (
    SchemeError,
    DominationError,
    IterationError,
    CapacityError,
    OutOfRangeError,
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _KNOWN_ERRORS as exc:
        print(f"chebsylv: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
