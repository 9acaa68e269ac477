"""Empirical validation of every identity and bound against the sieve oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernel import (
    OutOfRangeError,
    SieveTables,
    build_sieve,
    dirichlet_convolution,
    log_prefix,
    log_table,
    max_abs_prefix,
    psi_pi_bracket,
)
from .scheme import Scheme, EProfile, e_profile, constant_A
from .selection import TermSelection

# Float tolerance of the V-identity and selection-bound checks.
TOL = 1e-6


@dataclass(frozen=True)
class VerificationReport:
    name: str
    x_min: int
    x_max: int
    max_violation: float
    passed: bool
    witness_x: int | None = None
    extras: dict = field(default_factory=dict)


def _v_from_scheme(s: Scheme, xs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """V(x) = sum_k nu(k) T(x/k) for an array of integer x."""
    out = np.zeros(len(xs), dtype=np.float64)
    for k, w in s.terms:
        out += w * t[xs // k]
    return out


def verify_V_identities(
    s: Scheme,
    x_max: int,
    tables: SieveTables | None = None,
    profile: EProfile | None = None,
) -> VerificationReport:
    """Check sum_k nu(k) T(x/k) == sum_k E(x/k) Lambda(k) for all x <= x_max.

    Differenced in x, the two sides are sum_{k|n} nu(k) ln(n/k) and
    (Lambda * dE)(n) with dE(m) = E(m) - E(m-1), E(0) = 0; the deviation at x
    is accumulated from their per-n differences. Measured max deviation over
    the nine built-ins, against TOL = 1e-6: 8.6e-13 at x_max 10^4, 1.1e-11
    at 10^5, 7.0e-11 at 10^6 and 7.5e-10 at 10^7 (x86-64, numpy 2.4).
    """
    if tables is None or tables.limit < x_max:
        tables = build_sieve(x_max)
    if profile is None:
        profile = e_profile(s)
    # dE(x) depends on x mod the period except at x = 1, where E(0) = 0:
    # tile one period of it, rolled so that index 0 holds x = 0 mod period
    step = np.diff(profile.values, prepend=profile.values[-1]).astype(np.float64)
    de = np.resize(np.roll(step, 1), x_max + 1)
    de[0], de[1] = 0.0, profile.values[0]
    diff = -dirichlet_convolution(tables.lam[: x_max + 1], de)
    logs = log_table(x_max)
    for k, w in s.terms:
        diff[k::k] += w * logs[1 : x_max // k + 1]
    max_dev, witness = max_abs_prefix(diff)
    return VerificationReport(
        name=f"V-identities[{s.name or 'scheme'}]",
        x_min=1,
        x_max=x_max,
        max_violation=max_dev,
        passed=max_dev <= TOL,
        witness_x=witness if max_dev > TOL else None,
    )


def verify_selection_bounds(
    s: Scheme,
    lower: TermSelection,
    upper: TermSelection,
    x_max: int,
    tables: SieveTables | None = None,
) -> VerificationReport:
    """Check lower-sum <= V(x) <= upper-sum for all integer x <= x_max."""
    if tables is None or tables.limit < x_max:
        tables = build_sieve(x_max)
    t = log_prefix(x_max)
    psi_p = tables.psi_prefix
    xs = np.arange(1, x_max + 1)
    v = _v_from_scheme(s, xs, t)

    assert lower.leading_n is not None
    low = psi_p[xs] - psi_p[xs // lower.leading_n]
    for m, n in lower.kept_pairs:
        low += psi_p[xs // m] - psi_p[xs // n]
    for u in lower.standalones:
        low -= psi_p[xs // u]

    up = psi_p[xs].copy()
    for v_pos in upper.standalones:
        up += psi_p[xs // v_pos]
    for m, n in upper.kept_pairs:
        up -= psi_p[xs // m] - psi_p[xs // n]

    viol = np.maximum(low - v, v - up)
    worst = float(viol.max())
    witness = int(xs[int(viol.argmax())]) if worst > TOL else None
    return VerificationReport(
        name=f"selection-bounds[{s.name or 'scheme'}@rho={lower.rho}]",
        x_min=1,
        x_max=x_max,
        max_violation=max(0.0, worst),
        passed=worst <= TOL,
        witness_x=witness,
    )


def verify_asymptotic_A(s: Scheme, xs: list[int]) -> VerificationReport:
    """Check |V(x) - A x| / ln x stays bounded along a geometric ladder."""
    xs = sorted(x for x in xs if x >= 2)
    if len(xs) < 2:
        raise OutOfRangeError("need at least two ladder points >= 2")
    t = log_prefix(xs[-1])
    arr = np.asarray(xs, dtype=np.int64)
    v = _v_from_scheme(s, arr, t)
    a = constant_A(s)
    ratios = np.abs(v - a * arr) / np.log(arr)
    passed = bool(ratios[-1] <= 2.0 * max(ratios[0], 1e-12))
    return VerificationReport(
        name=f"asymptotic-A[{s.name or 'scheme'}]",
        x_min=xs[0],
        x_max=xs[-1],
        max_violation=float(ratios.max()),
        passed=passed,
        extras={"ratios": ratios.tolist()},
    )


def verify_final_bounds(
    a: float, b: float, x_max: int, tables: SieveTables | None = None
) -> VerificationReport:
    """Check a x + O(ln^2 x) <= psi(x) <= b x + O(ln^2 x) by constant stabilization.

    C_low = max (a x - psi(x)) / ln^2 x and C_high = max (psi(x) - b x) / ln^2 x
    over 100 <= x <= x_max; passes when both maxima are attained before
    x_max / 10 (the empirical constants stabilize instead of growing).
    """
    if a >= b:
        raise OutOfRangeError("require a < b")
    if x_max < 100:
        raise OutOfRangeError("x_max must be >= 100")
    if tables is None or tables.limit < x_max:
        tables = build_sieve(x_max)
    xs = np.arange(100, x_max + 1)
    ln2 = np.log(xs) ** 2
    psi_v = tables.psi_prefix[xs]
    c_low = (a * xs - psi_v) / ln2
    c_high = (psi_v - b * xs) / ln2
    i_low = int(c_low.argmax())
    i_high = int(c_high.argmax())
    cutoff = x_max // 10
    low_ok = xs[i_low] < cutoff
    high_ok = xs[i_high] < cutoff
    passed = bool(low_ok and high_ok)
    witness = None if passed else int(xs[i_low] if not low_ok else xs[i_high])
    return VerificationReport(
        name=f"final-bounds[a={a},b={b}]",
        x_min=100,
        x_max=x_max,
        max_violation=float(max(c_low[i_low], c_high[i_high])),
        passed=passed,
        witness_x=witness,
        extras={"C_low": float(c_low[i_low]), "C_high": float(c_high[i_high])},
    )


def verify_psi_pi(
    alpha: float, xs: list[float], tables: SieveTables
) -> VerificationReport:
    """psi(x) <= pi(x) ln x <= psi(x)/alpha + x^alpha ln x at every ladder point."""
    worst = 0.0
    witness = None
    for x in xs:
        br = psi_pi_bracket(x, alpha, tables)
        gap = max(br.psi_value - br.pi_ln_x, br.pi_ln_x - br.upper)
        if gap > worst:
            worst, witness = gap, int(math.floor(x))
    return VerificationReport(
        name=f"psi-pi[alpha={alpha}]",
        x_min=int(min(xs)),
        x_max=int(max(xs)),
        max_violation=max(0.0, worst),
        passed=worst <= 0.0,
        witness_x=witness if worst > 0 else None,
    )
