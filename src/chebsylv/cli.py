"""Command-line surface: JSON to stdout, optional CSV for tabular data.

Each subcommand handler returns its payload; ``main`` prints it and exits 1
when the payload carries ``"passed": false``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction

import numpy as np

from .kernel import (
    CapacityError,
    OutOfRangeError,
    build_sieve,
    check_convolution_identities,
    lcm_identity_failures,
)
from .scheme import (
    BUILTINS,
    SchemeError,
    base_bounds,
    constant_A,
    e_profile,
    render_scheme,
    resolve_scheme,
)
from .selection import (
    DominationError,
    list_dropped_pairs,
    select_terms,
    selection_rows,
    selection_step_function,
)
from .iteration import IterationError, build_recurrence, fixed_point, iterate
from .sweep import _optimize, _sweep
from .verify import (
    verify_V_identities,
    verify_asymptotic_A,
    verify_final_bounds,
    verify_psi_pi,
    verify_selection_bounds,
)

# JSON names of result-dataclass fields that differ from the field names.
_RENAME = {
    "leading_n": "leading",
    "kept_pairs": "pairs",
    "a_limit": "a",
    "b_limit": "b",
    "n_lower_terms": "n_lower",
    "n_upper_terms": "n_upper",
}


def _fields(obj) -> dict:
    """A result dataclass's fields under their JSON names; values are not copied."""
    return {_RENAME.get(f.name, f.name): getattr(obj, f.name) for f in fields(obj)}


_PLAIN = frozenset((int, str, bool, type(None)))


def _jsonable(value):
    """Floats at 12 significant digits, Fractions as 'p/q', containers recursed."""
    if type(value) in _PLAIN:  # most values, e.g. the ints of every listed pair
        return value
    if isinstance(value, Fraction):
        return _fraction_text(value)
    if isinstance(value, np.generic):
        return _jsonable(value.item())
    if is_dataclass(value):
        return _jsonable(_fields(value))
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


def _fraction_text(value: Fraction) -> str:
    """'p/q' in full. Near the pair cap an exact fixed point runs past the
    interpreter's int-to-str digit limit (nu8 at rho = 1.0003: about 47,000
    digits in each numerator and denominator, 0.15 s to print alpha and
    beta), so the limit is lifted for this conversion only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return f"{value.numerator}/{value.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(_jsonable(payload), indent=2) + "\n")


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


def _profile_header(p) -> dict:
    return {"period": p.period, "N": p.n, "M": p.m, "e_min": p.e_min, "e_max": p.e_max}


def _cmd_analyze(args) -> dict:
    s = resolve_scheme(args.scheme)
    p = e_profile(s)
    return {
        "name": s.name,
        "scheme": render_scheme(s),
        **_profile_header(p),
        **_fields(base_bounds(s, p)),
    }


def _cmd_eprofile(args) -> dict:
    s = resolve_scheme(args.scheme)
    p = e_profile(s)
    if args.csv:
        _write_csv(
            args.csv, ["x", "E"], ((x, int(p.values[x - 1])) for x in range(1, p.period + 1))
        )
    return {
        "scheme": render_scheme(s),
        **_profile_header(p),
        "first_occurrence": dict(sorted(p.first_occurrence.items())),
        "values": p.values.tolist(),
    }


def _cmd_base_bounds(args) -> dict:
    s = resolve_scheme(args.scheme)
    return {"scheme": render_scheme(s), **_fields(base_bounds(s))}


def _cmd_select(args) -> dict:
    s = resolve_scheme(args.scheme)
    p = e_profile(s)
    sel = select_terms(
        p, args.side, args.rho, max_index=args.max_index, exclude=_parse_excludes(args.exclude)
    )
    dropped = list_dropped_pairs(p, sel)
    if args.csv:
        _write_csv(args.csv, ["position", "sign", "status"], selection_rows(sel, dropped))
    payload = {**_fields(sel), "n_terms": sel.n_terms, "scheme": render_scheme(s)}
    payload["dropped_pairs"] = dropped  # the listing, in the count's place
    if args.check_domination:
        payload["domination_ok"] = selection_step_function(sel, p, strict=False).ok
    return payload


def _cmd_iterate(args) -> dict:
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
        "eigenvalues": result.eigenvalues,
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
    return payload


def _cmd_sweep(args) -> dict:
    s = resolve_scheme(args.scheme)
    window = (args.rho_min, args.rho_max, args.step)
    rows, make_row = _sweep(s, *window, _parse_excludes(args.exclude))
    table = [_fields(r) for r in rows]
    if args.csv:
        _write_csv(args.csv, list(table[0]), (row.values() for row in table))
    payload = {"scheme": render_scheme(s), "rows": table}
    if args.refine:  # the optimum searched on the same rows and row factory
        payload["optimum"] = _optimize(rows, make_row, *window)
    return payload


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


def _cmd_verify(args) -> dict:
    limit = _VERIFY_LIMITS[args.check] if args.limit is None else args.limit
    if args.check == "convolution":
        rep = check_convolution_identities(limit)
        return {"name": "convolution", **_fields(rep), "passed": rep.passed}
    if args.check == "lcm":
        failures = lcm_identity_failures(limit)
        return {"name": "lcm", "x_max": limit, "failures": failures, "passed": not failures}
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
    return _fields(rep)


def _cmd_list_schemes(args) -> dict:
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
    return {"schemes": entries}


# Options that several subcommands share: (name or flag, add_argument keywords).
_SCHEME = ("scheme", {})
_RHO = ("--rho", {"type": float, "required": True})
_EXCLUDE = ("--exclude", {"action": "append", "metavar": "m,n"})
_CSV = ("--csv", {"metavar": "PATH"})

# (name, handler, help, options) of every subcommand, in the order --help lists them.
_SUBCOMMANDS = (
    ("analyze", _cmd_analyze, "scheme constants and profile metrics", [_SCHEME]),
    ("eprofile", _cmd_eprofile, "one period of E with jump metrics", [_SCHEME, _CSV]),
    ("base-bounds", _cmd_base_bounds, "one-shot telescoping bounds A', B", [_SCHEME]),
    ("select", _cmd_select, "rho-threshold term selection for one side", [
        _SCHEME,
        _RHO,
        ("--side", {"choices": ("lower", "upper"), "required": True}),
        ("--max-index", {"type": int}),
        _EXCLUDE,
        _CSV,
        ("--check-domination", {"action": "store_true"}),
    ]),
    ("iterate", _cmd_iterate, "affine recurrence fixed point (and trace)", [
        _SCHEME,
        _RHO,
        ("--a0", {"type": float}),
        ("--b0", {"type": float}),
        ("--steps", {"type": int}),
        ("--hybrid-lower", {"metavar": "SCHEME2"}),
        ("--hybrid-max-index", {"type": int}),
        _EXCLUDE,
        _CSV,
    ]),
    ("sweep", _cmd_sweep, "tabulate limits and spectra over a rho grid", [
        _SCHEME,
        ("--rho-min", {"type": float, "default": 1.02}),
        ("--rho-max", {"type": float, "default": 2.0}),
        ("--step", {"type": float, "default": 0.005}),
        ("--refine", {"action": "store_true"}),
        _EXCLUDE,
        _CSV,
    ]),
    ("verify", _cmd_verify, "empirical checks against the sieve oracle", [
        ("check", {"choices": tuple(_VERIFY_LIMITS)}),
        ("--limit", {"type": int}),
        ("--scheme", {}),
        ("--rho", {"type": float, "default": 1.2}),
        ("--a", {"type": float, "default": 0.9226}),
        ("--b", {"type": float, "default": 1.0765}),
        ("--alpha", {"type": float, "default": 0.75}),
    ]),
    ("list-schemes", _cmd_list_schemes, "built-in scheme registry", []),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebsylv",
        description="Chebyshev-Sylvester elementary bounds for the prime-counting function",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, options in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


_KNOWN_ERRORS = (
    SchemeError,
    DominationError,
    IterationError,
    CapacityError,
    OutOfRangeError,
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.func(args)
    except _KNOWN_ERRORS as exc:
        print(f"chebsylv: error: {exc}", file=sys.stderr)
        return 2
    _emit(payload)
    return 0 if payload.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
