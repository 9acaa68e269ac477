"""Affine bound-refinement recurrence: exact fixed points and convergence.

A lower and an upper selection induce the affine map
    a'  =  upper_A + m11 a + m12 b
    b'  =  k lower_A + m21 a + m22 b,    k = N/(N-1),
on bound constants (a, b), where upper_A and lower_A are the growth
constants of the schemes the two selections come from (equal unless the
recurrence is a hybrid of two schemes). Matrix entries are exact rationals,
and the fixed point is exact in units of A when the two constants are equal.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .kernel import CapacityError, OutOfRangeError
from .selection import TermSelection, selection_coefficients

# Trace steps per iterate call. The trace is kept whole: a cold `iterate --steps` CLI run took
# 0.3-0.5 s and 43 MiB at 10^4 steps, 1.5-2.5 s and 160 MiB at 10^5 (2-vCPU x86-64 VM).
MAX_STEPS = 10_000


class IterationError(ValueError):
    """Recurrence is structurally unusable (side mismatch, singular I - M)."""


@dataclass(frozen=True)
class AffineRecurrence:
    m11: Fraction
    m12: Fraction
    m21: Fraction
    m22: Fraction
    k: Fraction
    upper_A: float
    lower_A: float

    @property
    def c1(self) -> float:
        return self.upper_A

    @property
    def c2(self) -> float:
        return float(self.k) * self.lower_A


@dataclass(frozen=True)
class IterationResult:  # alpha, beta, then _solve's float view in its order
    alpha: Fraction | None
    beta: Fraction | None
    a_limit: float
    b_limit: float
    ratio: float
    eigenvalues: tuple[complex, complex]
    converges: bool


def build_recurrence(
    lower: TermSelection,
    upper: TermSelection,
    A: float,
    N: int,
    upper_A: float | None = None,
) -> AffineRecurrence:
    """Recurrence from one lower and one upper selection.

    A and N belong to the scheme of the lower selection; upper_A is the
    growth constant of the upper selection's scheme and defaults to A.
    """
    if lower.side != "lower" or upper.side != "upper":
        raise IterationError("selection sides do not match their roles")
    if N < 2:
        raise IterationError("N must be >= 2")
    upper_A = A if upper_A is None else upper_A
    if not all(abs(c) <= sys.float_info.max for c in (A, upper_A)):  # NaN fails too
        raise OutOfRangeError(f"A = {A} and upper_A = {upper_A} must both be finite floats")
    lo_a, lo_b = selection_coefficients(lower)
    up_a, up_b = selection_coefficients(upper)
    k = Fraction(N, N - 1)
    return AffineRecurrence(
        m11=up_a,
        m12=-up_b,
        m21=-k * lo_a,
        m22=k * lo_b,
        k=k,
        upper_A=upper_A,
        lower_A=A,
    )


def _solve(m11, m12, m21, m22, k, upper_A: float, lower_A: float):
    """The fixed point of M = [[m11, m12], [m21, m22]] and k, each given as a
    (numerator, denominator) pair, in integers: each row of M over the lcm of its
    own denominators, q_up and q_lo, so that q_up q_lo is the denominator of
    tr M = tr/qq, det M = det_m/qq and det(I - M) = det/qq.

    Returns (x, y, den), with den > 0 and (x/den, y/den) the exact fixed point in units
    of A when upper_A == lower_A, and the float view: a, b, Sylvester's ratio b / a (inf
    at a = 0), the eigenvalues of M and the exact real 2x2 stability verdict |det M| < 1
    and |tr M| < 1 + det M. a and b are each one int / int true division, which CPython
    rounds correctly, as float(Fraction) does, so that no fraction need be reduced.
    """
    (p11, q11), (p12, q12), (p21, q21), (p22, q22), (kn, kd) = m11, m12, m21, m22, k
    q_up, q_lo = math.lcm(q11, q12), math.lcm(q21, q22)
    u11, u12 = p11 * (q_up // q11), p12 * (q_up // q12)
    l21, l22 = p21 * (q_lo // q21), p22 * (q_lo // q22)
    qq, tr, det_m = q_up * q_lo, u11 * q_lo + l22 * q_up, u11 * l22 - u12 * l21
    det = qq - tr + det_m
    if det == 0:
        raise IterationError("I - M is singular: no fixed point")
    t, d = tr / qq, det_m / qq
    disc = t * t - 4 * d
    root = math.sqrt(disc) if disc >= 0 else cmath.sqrt(disc)
    stable = abs(det_m) < qq and abs(tr) < qq + det_m
    if upper_A == lower_A:  # (a, b) = (alpha, beta) A
        up = lo = w = 1
        scale = upper_A
    else:  # upper_A = up / w_up and lower_A = lo / w_lo taken as exact: one rounding, at the end
        (up, w_up), (lo, w_lo) = upper_A.as_integer_ratio(), lower_A.as_integer_ratio()
        up, lo, w, scale = up * w_lo, lo * w_up, w_up * w_lo, 1.0
    # (a, b) = adj(I - M) (upper_A, k lower_A) / det(I - M), adj(I - M) = [[1 - m22, m12],
    # [m21, 1 - m11]]: x and y are its numerators over kd det, the factors 1/qq cancelling
    x = (q_lo - l22) * q_up * kd * up + u12 * q_lo * kn * lo
    y = l21 * q_up * kd * up + (q_up - u11) * q_lo * kn * lo
    if det < 0:  # a positive denominator, as a Fraction's: x = 0 gives 0.0, not -0.0
        det, x, y = -det, -x, -y
    den = kd * det
    a, b = (z / (den * w) * scale for z in (x, y))
    ratio = b / a if a else math.inf
    return (x, y, den), (a, b, ratio, ((t - root) / 2, (t + root) / 2), stable)


def fixed_point(rec: AffineRecurrence) -> IterationResult:
    """Solve (I - M)(a, b) = (upper_A, k lower_A) exactly.

    a and b come out as exact rational combinations of upper_A and lower_A, and
    ratio is Sylvester's b / a, inf at a = 0. When the two are equal, alpha and
    beta are the exact limits in units of A; otherwise they are None and only the
    floats are reported.
    """
    entries = (rec.m11, rec.m12, rec.m21, rec.m22, rec.k)
    (x, y, den), floats = _solve(
        *(e.as_integer_ratio() for e in entries), rec.upper_A, rec.lower_A
    )
    if rec.upper_A != rec.lower_A:
        return IterationResult(None, None, *floats)
    return IterationResult(Fraction(x, den), Fraction(y, den), *floats)


def iterate(
    rec: AffineRecurrence, a0: float, b0: float, steps: int
) -> list[tuple[int, float, float]]:
    """Explicit trace [(i, a_i, b_i)] for i = 0..steps, every a_i and b_i finite."""
    if steps < 0:
        raise IterationError("steps must be >= 0")
    if steps > MAX_STEPS:
        raise CapacityError(f"{steps} steps, over the cap of {MAX_STEPS}")
    a, b = float(a0), float(b0)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise OutOfRangeError(f"a0 = {a0} and b0 = {b0} must both be finite")
    m11, m12 = float(rec.m11), float(rec.m12)
    m21, m22 = float(rec.m21), float(rec.m22)
    trace = [(0, a, b)]
    for i in range(1, steps + 1):
        a, b = rec.c1 + m11 * a + m12 * b, rec.c2 + m21 * a + m22 * b
        if not (math.isfinite(a) and math.isfinite(b)):
            raise IterationError(f"the trace leaves the floats at step {i}: a = {a}, b = {b}")
        trace.append((i, a, b))
    return trace
