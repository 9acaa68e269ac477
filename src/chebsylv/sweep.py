"""Threshold sweeps: tabulate limits, eigenvalues, and term counts over rho.

Every row is read from the exact fixed point of ``iteration``. The pairs kept
at any rho >= rho_min are the pairs kept at rho_min whose ratio reaches rho,
so rows that keep the same pair counts share one exact solve, and each new
count's exact sums are cut back from the nearest larger count already summed.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .iteration import IterationError, _recurrence, fixed_point
from .kernel import CapacityError, OutOfRangeError
from .scheme import Scheme, constant_A, e_profile
from .selection import _reciprocal_sum, _select, pair_pattern

# Grid points per sweep or optimisation; 10^5 rows of nu8 take about 0.8 s.
MAX_GRID_POINTS = 100_000


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


def _prefix_sums(
    pairs: list[tuple[int, int]], extra_b: Fraction
) -> Callable[[int], tuple[Fraction, Fraction]]:
    """(sum 1/m, sum 1/n + extra_b) over pairs[:count], for any count.

    All the pairs are summed once; a new count takes off the pairs between
    it and the nearest count above it that is already summed.
    """

    def total(part: list[tuple[int, int]]) -> tuple[Fraction, Fraction]:
        return _reciprocal_sum(m for m, _ in part), _reciprocal_sum(n for _, n in part)

    a, b = total(pairs)
    counts, sums = [len(pairs)], {len(pairs): (a, b + extra_b)}

    def at(count: int) -> tuple[Fraction, Fraction]:
        if count not in sums:
            i = bisect.bisect(counts, count)
            (a, b), (da, db) = sums[counts[i]], total(pairs[count : counts[i]])
            sums[count] = (a - da, b - db)
            counts.insert(i, count)
        return sums[count]

    return at


def _row_maker(
    s: Scheme, rho_min: float, exclude: tuple[tuple[int, int], ...]
) -> Callable[[float], SweepRow]:
    """SweepRow factory valid for every rho >= rho_min."""
    profile = e_profile(s)
    A = constant_A(s)

    def side_state(side: str):
        # only the kept pairs and standalones feed the recurrence
        sel = _select(pair_pattern(profile, side), rho_min, exclude=exclude)
        pairs = sorted(sel.kept_pairs, key=lambda p: -(p[1] / p[0]))
        neg_ratios = [-(n / m) for m, n in pairs]
        sums = _prefix_sums(pairs, _reciprocal_sum(sel.standalones))
        return neg_ratios, sums, sel.n_terms - 2 * len(pairs)

    (lower_neg, upper_neg), sums, base_terms = zip(*map(side_state, ("lower", "upper")))
    solved: dict = {}

    def make_row(rho: float) -> SweepRow:
        counts = (bisect.bisect_right(lower_neg, -rho), bisect.bisect_right(upper_neg, -rho))
        if counts not in solved:
            lower, upper = (at(c) for at, c in zip(sums, counts))
            fp = fixed_point(_recurrence(lower, upper, A, profile.n, A))
            # a complex-conjugate pair is reported by its modulus
            lam1, lam2 = (abs(e) if isinstance(e, complex) else e for e in fp.eigenvalues)
            solved[counts] = (
                fp.a_limit,
                fp.b_limit,
                fp.b_limit / fp.a_limit if fp.a_limit else math.inf,
                lam1,
                lam2,
                *(base + 2 * c for base, c in zip(base_terms, counts)),
                fp.converges,
            )
        return SweepRow(rho, *solved[counts])

    return make_row


def _grid(rho_min: float, rho_max: float, step: float) -> list[float]:
    if not (1 < rho_min < rho_max < math.inf and 0 < step < math.inf):
        raise OutOfRangeError("require 1 < rho_min < rho_max and 0 < step, all finite")
    span = (rho_max - rho_min) / step + 1e-9  # may overflow to inf
    if span >= MAX_GRID_POINTS:
        raise CapacityError(f"{span + 1:.3g} grid points, over the cap of {MAX_GRID_POINTS}")
    return [rho_min + i * step for i in range(int(span) + 1)]


def _sweep(
    s: Scheme,
    rho_min: float,
    rho_max: float,
    step: float,
    exclude: tuple[tuple[int, int], ...],
) -> tuple[list[SweepRow], Callable[[float], SweepRow]]:
    """The grid rows and the row factory that made them."""
    grid = _grid(rho_min, rho_max, step)
    make_row = _row_maker(s, rho_min, exclude)
    return [make_row(rho) for rho in grid], make_row


def sweep_rho(
    s: Scheme,
    rho_min: float = 1.02,
    rho_max: float = 2.0,
    step: float = 0.005,
    exclude: tuple[tuple[int, int], ...] = (),
) -> list[SweepRow]:
    """One SweepRow per grid point rho_min, rho_min+step, ..., <= rho_max."""
    return _sweep(s, rho_min, rho_max, step, exclude)[0]


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
    rows, make_row = _sweep(s, rho_min, rho_max, coarse_step, exclude)
    return _optimize(rows, make_row, rho_min, rho_max, coarse_step)


def _optimize(
    rows: list[SweepRow],
    make_row: Callable[[float], SweepRow],
    rho_min: float,
    rho_max: float,
    coarse_step: float,
) -> OptimizeResult:
    """optimize_rho from the coarse grid's rows and the factory that made them."""
    usable = [r for r in rows if r.converges and r.a_limit > 0]
    if not usable:
        raise IterationError("no converging grid point in the sweep range")

    def refine(best: SweepRow, key) -> SweepRow:
        step = coarse_step
        for _ in range(3):  # halve the grid step three times
            step /= 2
            lo = max(rho_min, best.rho - 2 * step)
            cands = (make_row(r) for r in (lo + i * step for i in range(5)) if r <= rho_max)
            best = min([c for c in cands if c.converges and c.a_limit > 0] + [best], key=key)
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
