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
from dataclasses import dataclass
from fractions import Fraction

from .kernel import CapacityError
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
class IterationResult:
    alpha: Fraction | None
    beta: Fraction | None
    a_limit: float
    b_limit: float
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
    return _recurrence(
        selection_coefficients(lower),
        selection_coefficients(upper),
        A,
        N,
        A if upper_A is None else upper_A,
    )


def _recurrence(
    lower: tuple[Fraction, Fraction],
    upper: tuple[Fraction, Fraction],
    A: float,
    N: int,
    upper_A: float,
) -> AffineRecurrence:
    """Recurrence from each side's (coef_a, coef_b)."""
    (lo_a, lo_b), (up_a, up_b) = lower, upper
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


def _spectrum(tr: Fraction, det: Fraction) -> tuple[tuple[complex, complex], bool]:
    """Floating eigenvalues of M from its exact trace and determinant, plus
    the exact real 2x2 stability verdict |det M| < 1 and |tr M| < 1 + det M."""
    t, d = float(tr), float(det)
    disc = t * t - 4 * d
    root = math.sqrt(disc) if disc >= 0 else cmath.sqrt(disc)
    return ((t - root) / 2, (t + root) / 2), abs(det) < 1 and abs(tr) < 1 + det


def fixed_point(rec: AffineRecurrence) -> IterationResult:
    """Solve (I - M)(a, b) = (upper_A, k lower_A) exactly.

    a and b come out as exact rational combinations of upper_A and lower_A.
    When the two are equal, alpha and beta are the exact limits in units of A;
    otherwise they are None and only the float limits are reported.
    """
    tr, det_m = rec.m11 + rec.m22, rec.m11 * rec.m22 - rec.m12 * rec.m21
    det = 1 - tr + det_m  # det(I - M)
    if det == 0:
        raise IterationError("I - M is singular: no fixed point")
    eigs, stable = _spectrum(tr, det_m)
    # det * (a, b) = adj(I - M) (upper_A, k lower_A), coefficient by coefficient
    a_up, a_lo = 1 - rec.m22, rec.m12 * rec.k
    b_up, b_lo = rec.m21, (1 - rec.m11) * rec.k
    if rec.upper_A == rec.lower_A:
        alpha, beta = (a_up + a_lo) / det, (b_up + b_lo) / det
        a_limit, b_limit = float(alpha) * rec.upper_A, float(beta) * rec.upper_A
    else:  # the float constants taken as exact: one rounding, at the end
        alpha = beta = None
        up_A, lo_A = Fraction(rec.upper_A), Fraction(rec.lower_A)
        a_limit = float((a_up * up_A + a_lo * lo_A) / det)
        b_limit = float((b_up * up_A + b_lo * lo_A) / det)
    return IterationResult(
        alpha=alpha,
        beta=beta,
        a_limit=a_limit,
        b_limit=b_limit,
        eigenvalues=eigs,
        converges=stable,
    )


def iterate(
    rec: AffineRecurrence, a0: float, b0: float, steps: int
) -> list[tuple[int, float, float]]:
    """Explicit trace [(i, a_i, b_i)] for i = 0..steps."""
    if steps < 0:
        raise IterationError("steps must be >= 0")
    if steps > MAX_STEPS:
        raise CapacityError(f"{steps} steps, over the cap of {MAX_STEPS}")
    m11, m12 = float(rec.m11), float(rec.m12)
    m21, m22 = float(rec.m21), float(rec.m22)
    a, b = float(a0), float(b0)
    trace = [(0, a, b)]
    for i in range(1, steps + 1):
        a, b = rec.c1 + m11 * a + m12 * b, rec.c2 + m21 * a + m22 * b
        trace.append((i, a, b))
    return trace
