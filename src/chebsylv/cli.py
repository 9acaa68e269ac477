"""Command-line surface: JSON to stdout, optional CSV for tabular data.

Each subcommand handler returns its payload; ``main`` prints it and exits 1
when the payload carries ``"passed": false``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction

from . import iteration, selection, sweep, verify  # each loaded by the handlers that use it
from .kernel import (
    PRINT_DIGITS,
    CapacityError,
    OutOfRangeError,
    check_convolution_identities,
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
    """Floats at PRINT_DIGITS significant digits, a non-finite one as None (strict JSON);
    Fractions as 'p/q' in full, through decimal, which has no digit limit; containers recursed."""
    if type(value) in _PLAIN:  # most values, e.g. the ints of every listed pair
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, float):
        return float(f"{value:.{PRINT_DIGITS}g}") if math.isfinite(value) else None
    if isinstance(value, Fraction):
        return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"
    if isinstance(value, complex):  # an eigenvalue off the real line
        return {"re": _jsonable(value.real), "im": _jsonable(value.imag)}
    return _jsonable(_fields(value))  # a result dataclass


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _exclude_pair(text: str) -> tuple[int, int]:
    try:
        m, n = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects 'm,n', got {text!r}") from None
    return m, n


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
        _write_csv(args.csv, ["x", "E"], enumerate(p.values.tolist(), 1))
    return {
        "scheme": render_scheme(s),
        **_profile_header(p),
        "first_occurrence": p.first_occurrence,  # in level order, as np.unique gives them
        "values": p.values.tolist(),
    }


def _cmd_base_bounds(args) -> dict:
    s = resolve_scheme(args.scheme)
    return {"scheme": render_scheme(s), **_fields(base_bounds(s))}


def _cmd_select(args) -> dict:
    s = resolve_scheme(args.scheme)
    p = e_profile(s)
    sel = selection.select_terms(
        p, args.side, args.rho, max_index=args.max_index, exclude=args.exclude or ()
    )
    dropped = selection.list_dropped_pairs(p, sel)
    if args.csv:
        _write_csv(args.csv, ["position", "sign", "status"], selection.selection_rows(sel, dropped))
    payload = {**_fields(sel), "n_terms": sel.n_terms, "scheme": render_scheme(s)}
    payload["dropped_pairs"] = dropped  # the listing, in the count's place
    if args.check_domination:
        payload["domination_ok"] = selection.selection_step_function(sel, p, strict=False).ok
    return payload


def _cmd_iterate(args) -> dict:
    for name in ("a0", "b0", "csv"):  # each sets up or writes the trace
        if getattr(args, name) is not None and args.steps is None:
            raise OutOfRangeError(f"--{name} needs --steps")
    s = resolve_scheme(args.scheme)
    p = e_profile(s)
    A = constant_A(s)
    exclude = args.exclude or ()
    upper = selection.select_terms(p, "upper", args.rho, exclude=exclude)
    s2 = resolve_scheme(args.hybrid_lower) if args.hybrid_lower else s
    p2 = p if s2 is s else e_profile(s2)
    lower = selection.select_terms(
        p2, "lower", args.rho, max_index=args.hybrid_max_index, exclude=exclude
    )
    rec = iteration.build_recurrence(lower, upper, constant_A(s2), p2.n, upper_A=A)
    provenance = f"rho_lower={lower.rho},rho_upper={upper.rho}"
    if args.hybrid_lower:
        provenance = f"hybrid:rho_upper={upper.rho},rho_lower={lower.rho}"
    payload = {
        "scheme": render_scheme(s),
        "rho": args.rho,
        **_fields(iteration.fixed_point(rec)),
        "n_lower_terms": lower.n_terms,
        "n_upper_terms": upper.n_terms,
        "provenance": provenance,
    }
    if args.steps is not None:
        a0 = args.a0 if args.a0 is not None else A
        b0 = args.b0 if args.b0 is not None else rec.c2
        trace = iteration.iterate(rec, a0, b0, args.steps)
        payload["trace"] = [{"i": i, "a": a, "b": b} for i, a, b in trace]
        if args.csv:
            _write_csv(args.csv, ["i", "a_i", "b_i"], trace)
    return payload


def _cmd_sweep(args) -> dict:
    s = resolve_scheme(args.scheme)
    window = (args.rho_min, args.rho_max, args.step)
    rows, optimum = sweep._sweep(s, *window, args.exclude or (), optimize=args.refine)
    table = [_fields(r) for r in rows]
    if args.csv:
        _write_csv(args.csv, list(table[0]), (row.values() for row in table))
    payload = {"scheme": render_scheme(s), "rows": table}
    if args.refine:
        payload["optimum"] = optimum
    return payload


def _cmd_verify(args) -> dict:
    limit = args.limit
    if args.check == "convolution":
        rep = check_convolution_identities(limit)
        return {"name": "convolution", **_fields(rep), "passed": rep.passed}
    if args.check == "lcm":
        failures = verify.lcm_identity_failures(limit)
        return {"name": "lcm", "x_max": limit, "failures": failures, "passed": not failures}
    if args.check == "v-identity":
        rep = verify.verify_V_identities(resolve_scheme(args.scheme), limit)
    elif args.check == "selection":
        s = resolve_scheme(args.scheme)
        p = e_profile(s)
        rep = verify.verify_selection_bounds(
            s,
            selection.select_terms(p, "lower", args.rho),
            selection.select_terms(p, "upper", args.rho),
            limit,
        )
    elif args.check == "asymptotic":
        ladder = [100 * 2**i for i in range(max(limit // 100, 0).bit_length())]  # 100 2^i <= limit
        rep = verify.verify_asymptotic_A(resolve_scheme(args.scheme), ladder)
    elif args.check == "final-bounds":
        rep = verify.verify_final_bounds(args.a, args.b, limit)
    else:  # psi-pi
        ladder = [x for x in (100, 1000, 10**4, limit) if x <= limit]
        rep = verify.verify_psi_pi(args.alpha, ladder)
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
_EXCLUDE = ("--exclude", {"type": _exclude_pair, "action": "append", "metavar": "m,n"})
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
    ("verify", _cmd_verify, "empirical checks against the sieve oracle", []),
    ("list-schemes", _cmd_list_schemes, "built-in scheme registry", []),
)

# (default --limit, other options) of every verify check, each a sub-parser of
# verify, in the order --help lists them: a check takes only its own options.
_VERIFY_SCHEME = ("--scheme", {"default": "cheb"})
_VERIFY_CHECKS = {
    "convolution": (10**4, []),
    "lcm": (50, []),
    "v-identity": (10**4, [_VERIFY_SCHEME]),
    "selection": (10**5, [_VERIFY_SCHEME, ("--rho", {"type": float, "default": 1.2})]),
    "asymptotic": (10**5, [_VERIFY_SCHEME]),
    "final-bounds": (10**6, [
        ("--a", {"type": float, "default": 0.9226}),
        ("--b", {"type": float, "default": 1.0765}),
    ]),
    "psi-pi": (10**5, [("--alpha", {"type": float, "default": 0.75})]),
}


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
    checks = sub.choices["verify"].add_subparsers(dest="check", required=True)
    for check, (limit, options) in _VERIFY_CHECKS.items():
        # no abbreviations: psi-pi would read final-bounds' --a as its --alpha
        p = checks.add_parser(check, allow_abbrev=False)
        p.add_argument("--limit", type=int, default=limit, help="default %(default)s")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.func(args)
    except (
        SchemeError,
        iteration.IterationError,
        CapacityError,
        OutOfRangeError,
        OSError,  # a --csv path that cannot be opened for writing
    ) as exc:  # read only on an error, so a command loads no layer for it
        print(f"chebsylv: error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(_jsonable(payload), indent=2) + "\n")
    return 0 if payload.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
