"""Threshold sweeps: tabulate limits, eigenvalues, and term counts over rho.

Every row is read from the exact fixed point of ``iteration``. The pairs kept
at any rho >= rho_min are the pairs kept at rho_min whose ratio reaches rho,
so rows that keep the same pair counts share one exact solve.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

from .iteration import build_recurrence, fixed_point
from .scheme import Scheme, constant_A, e_profile
from .selection import _select, pair_pattern


@dataclass(frozen=True)
class SweepRow:
    rho: float
    a_limit: float
    b_limit: float
    ratio: float
    lambda1: float
    lambda2: float
    n_lower_terms: int
    n_upper_terms: int
    converges: bool


def _row_maker(
    s: Scheme, rho_min: float, exclude: tuple[tuple[int, int], ...]
) -> Callable[[float], SweepRow]:
    """SweepRow factory valid for every rho >= rho_min."""
    profile = e_profile(s)
    A = constant_A(s)
    patterns = [pair_pattern(profile, side) for side in ("lower", "upper")]
    sels = [_select(pattern, rho_min, exclude=exclude) for pattern in patterns]
    by_ratio = [sorted(sel.kept_pairs, key=lambda p: -(p[1] / p[0])) for sel in sels]
    neg_ratios = [[-(n / m) for m, n in pairs] for pairs in by_ratio]
    solved: dict = {}

    def make_row(rho: float) -> SweepRow:
        counts = tuple(bisect.bisect_right(neg, -rho) for neg in neg_ratios)
        if counts not in solved:
            # only the kept pairs and standalones feed the recurrence
            lower, upper = (
                replace(sel, rho=rho, kept_pairs=tuple(pairs[:c]))
                for sel, pairs, c in zip(sels, by_ratio, counts)
            )
            fp = fixed_point(build_recurrence(lower, upper, A, profile.n))
            solved[counts] = (fp, lower.n_terms, upper.n_terms)
        fp, n_lower, n_upper = solved[counts]
        # a complex-conjugate pair is reported by its modulus
        lam1, lam2 = (abs(e) if isinstance(e, complex) else e for e in fp.eigenvalues)
        return SweepRow(
            rho=rho,
            a_limit=fp.a_limit,
            b_limit=fp.b_limit,
            ratio=fp.b_limit / fp.a_limit if fp.a_limit else math.inf,
            lambda1=lam1,
            lambda2=lam2,
            n_lower_terms=n_lower,
            n_upper_terms=n_upper,
            converges=fp.converges,
        )

    return make_row


def _grid(rho_min: float, rho_max: float, step: float) -> list[float]:
    if not (1 < rho_min < rho_max) or step <= 0:
        raise ValueError("require 1 < rho_min < rho_max and step > 0")
    count = int(math.floor((rho_max - rho_min) / step + 1e-9)) + 1
    return [rho_min + i * step for i in range(count)]


def sweep_rho(
    s: Scheme,
    rho_min: float = 1.02,
    rho_max: float = 2.0,
    step: float = 0.005,
    exclude: tuple[tuple[int, int], ...] = (),
) -> list[SweepRow]:
    """One SweepRow per grid point rho_min, rho_min+step, ..., <= rho_max."""
    grid = _grid(rho_min, rho_max, step)
    make_row = _row_maker(s, rho_min, exclude)
    return [make_row(rho) for rho in grid]


@dataclass(frozen=True)
class OptimizeResult:
    best_a: SweepRow
    best_b: SweepRow
    best_ratio: SweepRow
    residual: float  # |rho_opt - b/a| at the ratio optimum


def optimize_rho(
    s: Scheme,
    rho_min: float = 1.02,
    rho_max: float = 2.0,
    coarse_step: float = 0.005,
    exclude: tuple[tuple[int, int], ...] = (),
) -> OptimizeResult:
    """Locate near-optimal rho for argmax a, argmin b, and argmin b/a."""
    grid = _grid(rho_min, rho_max, coarse_step)
    make_row = _row_maker(s, rho_min, exclude)
    usable = [r for r in map(make_row, grid) if r.converges and r.a_limit > 0]
    if not usable:
        raise ValueError("no converging grid point in the sweep range")

    def refine(best: SweepRow, key) -> SweepRow:
        step = coarse_step
        for _ in range(3):  # halve the grid step three times
            step /= 2
            lo = max(rho_min, best.rho - 2 * step)
            cands = [make_row(lo + i * step) for i in range(5)]
            cands = [c for c in cands if c.converges and c.a_limit > 0]
            best = min(cands + [best], key=key)
        return best

    best_a = refine(min(usable, key=lambda r: -r.a_limit), lambda r: -r.a_limit)
    best_b = refine(min(usable, key=lambda r: r.b_limit), lambda r: r.b_limit)
    best_ratio = refine(min(usable, key=lambda r: r.ratio), lambda r: r.ratio)

    # the ratio objective is piecewise constant in rho; within the optimal
    # plateau, move rho to the self-consistent point rho = b/a
    for _ in range(8):
        target = min(max(best_ratio.ratio, rho_min), rho_max)
        if abs(target - best_ratio.rho) < 1e-12:
            break
        cand = make_row(target)
        if cand.converges and cand.ratio <= best_ratio.ratio + 1e-12:
            best_ratio = cand
        else:
            break
    return OptimizeResult(
        best_a=best_a,
        best_b=best_b,
        best_ratio=best_ratio,
        residual=abs(best_ratio.rho - best_ratio.ratio),
    )
