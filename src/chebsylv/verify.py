"""Empirical validation of every identity and bound against the sieve oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .kernel import (
    _LOGS,
    _SEGMENT,
    SIEVE_CAP,
    TOL,
    CapacityError,
    OutOfRangeError,
    SieveTables,
    _add_multiples,
    _block_logs,
    _dirichlet_sum,
    _first_max,
    _running_peak,
    _sieve_for,
    _Slices,
    build_sieve,
    pi_count,
    psi,
)
from .scheme import Scheme, e_profile, constant_A

if TYPE_CHECKING:
    from .selection import TermSelection

# Entries of x per block of the selection-bound scan: each block buffer is
# 512 KB of float64, which stays in cache.
_BLOCK = 1 << 16
# Pieces of psi per chunk of the final-bound check: 256 KB per float64 array.
_PIECES = 1 << 15
# Largest ladder point of the asymptotic check. An ulp off in each lgamma moves a ratio by up to
# sum |nu(k)| ulp(lgamma(x/k + 1)) / ln x: over the nine built-ins 0.029-0.040 at 10^14, 0.23-0.37
# at 10^15 and 3.3-4.1 at 10^16, against pass thresholds 2 ratio(100) of 0.70-1.97.
ASYMPTOTIC_CAP = 10**14
LCM_CAP = 10**4


@dataclass(frozen=True)
class VerificationReport:
    name: str
    x_min: int
    x_max: int
    max_violation: float
    passed: bool
    witness_x: int | None = None
    extras: dict = field(default_factory=dict)


def _running_report(name: str, x_max: int, block: int, fill) -> VerificationReport:
    """A check over x = 1..x_max that passes while the peak of _running_peak
    is at most TOL, with the first x of the peak as its witness otherwise."""
    worst, witness = _running_peak(x_max, block, fill)
    return VerificationReport(
        name=name,
        x_min=1,
        x_max=x_max,
        max_violation=worst,
        passed=worst <= TOL,
        witness_x=witness if worst > TOL else None,
    )


def verify_V_identities(
    s: Scheme, x_max: int, tables: SieveTables | None = None
) -> VerificationReport:
    """Check sum_k nu(k) T(x/k) == sum_k E(x/k) Lambda(k) for all x <= x_max.

    E is e_profile(s), computed before the sieve. Differenced in x, the sides
    are sum_{k|n} nu(k) ln(n/k) and (Lambda * dE)(n), dE(m) = E(m) - E(m-1),
    E(0) = 0; the deviation at x sums their per-n differences. Measured max
    deviation over the nine built-ins, against TOL = 1e-6: 8.6e-13 at x_max
    10^4, 1.1e-11 at 10^5, 7.0e-11 at 10^6 and 7.5e-10 at 10^7 (x86-64, numpy 2.4).
    """
    profile = e_profile(s)
    tables = _sieve_for(x_max, tables)
    # dE(m), m = 1..P, repeats with period P since E(P) = E(0) = 0; a tile of
    # it holds every slice of a block
    period = profile.period
    step = np.diff(profile.values, prepend=0).astype(np.float64)
    tile = np.tile(step, min(_SEGMENT, x_max + 1) // period + 2)
    de = _Slices(lambda a, b: tile[(a - 1) % period :][: b - a])
    lam_de = _dirichlet_sum(tables.lam, de, x_max)
    logs = _block_logs(x_max)

    def dev(buf: np.ndarray, lo: int):  # (nu*ln - Lambda*dE)(n)
        lam_de(buf, lo)
        return (_add_multiples(np.negative(buf, out=buf), lo, s.terms, logs),)

    return _running_report(f"V-identities[{s.name or 'scheme'}]", x_max, _SEGMENT, dev)


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
    from .selection import bound_terms  # here alone: the other checks need no selection

    tables = _sieve_for(x_max, tables)
    lower_terms = bound_terms(lower)
    upper_terms = [(k, -c) for k, c in bound_terms(upper)]

    def gaps(buf: np.ndarray, lo: int):  # (lower - V)(n) and (V - upper)(n)
        dv = _add_multiples(buf, lo, s.terms, _LOGS)
        return (  # the lower side copies dv before the upper side adds into it
            _add_multiples(-dv, lo, lower_terms, tables.lam),
            _add_multiples(dv, lo, upper_terms, tables.lam),
        )

    name = f"selection-bounds[{s.name or 'scheme'}@rho={lower.rho}]"
    return _running_report(name, x_max, _BLOCK, gaps)


def verify_asymptotic_A(s: Scheme, xs: list[int]) -> VerificationReport:
    """Check |V(x) - A x| / ln x stays bounded along a geometric ladder."""
    e_profile(s)  # V(x) ~ A x needs a cancelling scheme: refuse others, as every command does
    if not all(-math.inf < x < math.inf for x in xs):  # NaN fails every comparison
        raise OutOfRangeError("ladder points must be finite")
    xs = sorted(x for x in xs if x >= 2)
    if len(xs) < 2:
        raise OutOfRangeError("need at least two ladder points >= 2")
    if xs[-1] > ASYMPTOTIC_CAP:
        raise CapacityError(f"ladder point {xs[-1]} exceeds cap {ASYMPTOTIC_CAP}")
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
    x_max / 10 (the empirical constants stabilize instead of growing).
    a and b must be finite with 0 <= a < b, and b x_max must not overflow.

    psi is constant, c >= 0, on each piece [u, v]: u = 100 or a prime power
    in (100, x_max], v one less than the next such u, or x_max. For
    x >= 100 > e^2 and 0 <= a < b,
        d/dx (a x - c) / ln^2 x =  [a (ln x - 2) + 2c/x] / ln^3 x > 0,
        d/dx (c - b x) / ln^2 x = -[b (ln x - 2) + 2c/x] / ln^3 x < 0,
    so on each piece C_low peaks only at v and C_high only at u. With
    c = psi(x) ~ x the slope is at least about 2 / ln^3 x, 4e-4 per unit step
    at 10^7, where the values' ulp is below 1e-11, so rounding cannot reorder
    a piece's points, and the first x of each maximum is one of these ends.
    Each end is evaluated with the same float operations as a dense scan, so
    the report is the same bit for bit, from O(pi(x_max)) points in chunks
    of _PIECES pieces.
    """
    if not 0 <= a < b < math.inf:  # NaN fails every comparison
        raise OutOfRangeError("require finite a and b with 0 <= a < b")
    if x_max < 100:
        raise OutOfRangeError("x_max must be >= 100")
    if x_max > SIEVE_CAP:  # before b * x_max, which cannot convert so large an int
        raise CapacityError(f"sieve limit {x_max} exceeds cap {SIEVE_CAP}")
    if b * x_max == math.inf:  # and so a x and b x are finite at every x
        raise OutOfRangeError(f"b * x_max overflows for b={b}")
    tables = _sieve_for(x_max, tables)
    powers, psi_at = tables.prime_powers, tables.psi_at_powers
    # piece t, t = i - 1 .. j - 1, starts at powers[t] (at 100 for the first)
    # and has psi = psi_at[t]; 2 <= 100 is a prime power, so i >= 1
    i, j = powers.searchsorted([100, x_max], side="right").tolist()
    best = [(-math.inf, 0), (-math.inf, 0)]  # (C_low, x) and (C_high, x)
    for t in range(i - 1, j, _PIECES):
        end = min(t + _PIECES, j)
        psi_v = psi_at[t:end]
        # the chunk's u and the next piece's u
        edges = np.concatenate(
            (powers[t:end], [powers[end] if end < j else x_max + 1]), dtype=np.float64
        )
        edges[0] = max(edges[0], 100.0)
        xs = np.subtract(edges[1:], 1.0)  # v
        ln2 = np.log(xs)
        ln2 *= ln2
        c_low = a * xs
        c_low -= psi_v
        c_low /= ln2
        best[0] = _first_max(c_low, xs, best[0])
        del c_low
        xs = edges[:-1]  # u
        ln2 = np.log(xs, out=ln2)
        ln2 *= ln2
        c_high = np.subtract(psi_v, np.multiply(xs, b))
        c_high /= ln2
        best[1] = _first_max(c_high, xs, best[1])
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


def lcm_identity_failures(x_max: int) -> list[int]:
    """Every x <= x_max at which the product of p over prime powers p^m <= x
    differs from lcm(1..x).

    One pass with both sides as running integers: the product gains a factor
    p at each prime power x = p^m, and the lcm takes in x. The lcm has about
    1.44 x bits, so the pass is quadratic in x_max and capped at LCM_CAP.
    """
    if x_max < 1:
        raise OutOfRangeError("lcm check needs x_max >= 1")
    if x_max > LCM_CAP:
        raise CapacityError(f"lcm check limit {x_max} exceeds cap {LCM_CAP}")
    base = [1] * (x_max + 1)  # base[p^m] = p, 1 elsewhere
    for p in build_sieve(x_max).primes.tolist():  # LCM_CAP <= SIEVE_CAP
        pk = p
        while pk <= x_max:
            base[pk] = p
            pk *= p
    prod = lcm = 1
    failures = []
    for x in range(1, x_max + 1):
        prod *= base[x]
        lcm = math.lcm(lcm, x)
        if prod != lcm:
            failures.append(x)
    return failures


def lcm_identity_check(x: int) -> bool:
    """True iff the product of p over prime powers p^m <= x equals lcm(1..x)."""
    return x not in lcm_identity_failures(x)


@dataclass(frozen=True)
class PsiPiBracket:
    x: float
    alpha: float
    psi_value: float
    pi_ln_x: float
    upper: float
    holds: bool


def psi_pi_bracket(x: float, alpha: float, tables: SieveTables) -> PsiPiBracket:
    """Evaluate psi(x) <= pi(x) ln x <= psi(x)/alpha + x^alpha ln x."""
    if not 0 < alpha < 1:
        raise OutOfRangeError("alpha must be in (0, 1)")
    if x <= 1:
        raise OutOfRangeError("x must exceed 1")
    psi_v = psi(x, tables)
    mid = pi_count(x, tables) * math.log(x)
    upper = psi_v / alpha + x**alpha * math.log(x)
    return PsiPiBracket(
        x=x,
        alpha=alpha,
        psi_value=psi_v,
        pi_ln_x=mid,
        upper=upper,
        # no slack: over 2 <= x <= 10^6, psi - pi ln x peaks at 0.0 (x = 2, both ln 2), next
        # -0.288, and pi ln x - upper at -1.37 for alpha in {0.6, 0.75, 0.9, 0.999}
        holds=psi_v <= mid <= upper,
    )


def verify_psi_pi(
    alpha: float, xs: list[float], tables: SieveTables | None = None
) -> VerificationReport:
    """psi(x) <= pi(x) ln x <= psi(x)/alpha + x^alpha ln x at every ladder point, each
    finite and above 1; the tables are _sieve_for's at the largest point."""
    if not 0 < alpha < 1:  # before the sieve, which may be large
        raise OutOfRangeError("alpha must be in (0, 1)")
    if not xs or not all(1 < x < math.inf for x in xs):  # NaN fails every comparison
        raise OutOfRangeError("need ladder points, each finite and above 1")
    tables = _sieve_for(math.floor(max(xs)), tables)
    brackets = [psi_pi_bracket(x, alpha, tables) for x in xs]
    # a float a - b is > 0 iff a > b, so a bracket holds iff its gap is <= 0
    gaps = [max(br.psi_value - br.pi_ln_x, br.pi_ln_x - br.upper) for br in brackets]
    passed = max(gaps) <= 0
    return VerificationReport(
        name=f"psi-pi[alpha={alpha}]",
        x_min=int(min(xs)),
        x_max=int(max(xs)),
        max_violation=max(0.0, *gaps),
        passed=passed,
        witness_x=None if passed else int(math.floor(xs[gaps.index(max(gaps))])),
    )
