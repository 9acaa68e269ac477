"""Threshold sweeps: tabulate limits, eigenvalues, and term counts over rho.

Every row is read from the exact fixed point of ``iteration``. The pairs kept
at rho >= rho_min are those kept at rho_min whose ratio n/m reaches rho, so a
selection is constant on each plateau (r_prev, r] between neighbouring kept
ratios. Rows come from one rising pass that solves once per plateau, and the
optimum from the plateaus near each objective's best grid row, each solved at a
rho that prints, to PRINT_DIGITS digits, on its own plateau.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from decimal import ROUND_FLOOR, Decimal

from .iteration import IterationError, _solve
from .kernel import PRINT_DIGITS, CapacityError, OutOfRangeError
from .scheme import Scheme, constant_A, e_profile
from .selection import _pair_sums, _simplest_fraction, select_terms

# Grid points per sweep or optimisation; 10^5 rows of nu8 from 1.02 to 2.0 take about 0.3 s.
MAX_GRID_POINTS = 100_000

# Kept pairs of both sides, summed over the plateaus one pass of rows solves. The worst case
# is dense plateaus near the pair cap: nu8 over 1.0003-1.000365 at step 1e-6 solves 66 plateaus,
# 995,820 pairs, in 2.6 s; both passes of an optimisation take at most twice that (x86-64 VM).
MAX_SOLVED_PAIRS = 1_000_000


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


def _table(
    s: Scheme, rho_min: float, exclude: tuple[tuple[int, int], ...]
) -> tuple[list[float], Callable[[list[float]], Iterator[SweepRow]]]:
    """The tops of the plateaus of rho >= rho_min, rising: every kept ratio n / m
    of both sides, then inf; and rows(rhos), the SweepRows of rising rhos >= rho_min.

    A float n / m orders against a float rho as _select's test q n >= p m does: rounding
    is monotone, and _simplest_fraction(n / m) == Fraction(n, m) for m below about 5 * 10^7.
    """
    profile, A = e_profile(s), constant_A(s)
    n = profile.n
    sides = []  # kept pairs by rising n/m, their ratios, the standalones, other terms
    for side in ("lower", "upper"):
        sel = select_terms(profile, side, rho_min, exclude=exclude)
        pairs = sorted(sel.kept_pairs, key=lambda p: p[1] / p[0])
        base = sel.n_terms - 2 * len(pairs)
        sides.append((pairs, [n / m for m, n in pairs], sel.standalones, base))

    def rows(rhos: list[float]) -> Iterator[SweepRow]:
        if not rhos:
            return
        # each rho's plateau, as the first pair each side keeps there, before any solve
        plateaus = list(zip(*([bisect_left(r, rho) for rho in rhos] for _, r, _, _ in sides)))
        distinct = set(plateaus)  # each keeps len(pairs) - first pairs a side
        kept = len(distinct) * sum(len(pairs) for pairs, *_ in sides) - sum(map(sum, distinct))
        if kept > MAX_SOLVED_PAIRS:
            raise CapacityError(f"{kept} pairs to solve, over the budget of {MAX_SOLVED_PAIRS}")
        # the sums over the pairs kept at rhos[0] only: from a low rho_min, most lie below it
        starts = plateaus[0]
        sums = [list(_pair_sums(pairs[i:], us)) for i, (pairs, _, us, _) in zip(starts, sides)]
        solved = None
        for rho, firsts in zip(rhos, plateaus):
            if solved is None or firsts != starts:  # a new plateau: pairs of ratio < rho drop out
                for k, (i, j) in enumerate(zip(starts, firsts)):
                    if j > i:
                        sums[k] = [x - d for x, d in zip(sums[k], _pair_sums(sides[k][0][i:j]))]
                starts = firsts
                (lo_a, lo_b), (up_a, up_b) = ([x.as_integer_ratio() for x in xs] for xs in sums)
                m12 = -up_b[0], up_b[1]  # M = [[up_a, -up_b], [-k lo_a, k lo_b]]
                m21, m22 = (-n * lo_a[0], (n - 1) * lo_a[1]), (n * lo_b[0], (n - 1) * lo_b[1])
                _, (a, b, ratio, eigs, converges) = _solve(up_a, m12, m21, m22, (n, n - 1), A, A)
                # a complex-conjugate pair is reported by its modulus
                lam1, lam2 = (abs(e) if isinstance(e, complex) else e for e in eigs)
                counts = (base + 2 * (len(p) - i) for i, (p, _, _, base) in zip(starts, sides))
                solved = (a, b, ratio, lam1, lam2, *counts, converges)
            yield SweepRow(rho, *solved)

    return sorted(r for _, ratios, _, _ in sides for r in ratios) + [math.inf], rows


@dataclass(frozen=True)
class OptimizeResult:
    best_a: SweepRow
    best_b: SweepRow
    best_ratio: SweepRow
    residual: float  # |rho_opt - b/a| at the ratio optimum


def _label(rho: float) -> float:
    """The largest decimal of PRINT_DIGITS significant digits <= rho. The CLI prints
    floats to as many, so this rho reads back as itself and keeps the terms it is solved at."""
    d = Decimal(rho)
    return float(d.quantize(Decimal(1).scaleb(d.adjusted() + 1 - PRINT_DIGITS), ROUND_FLOOR))


def _self_consistent(row: SweepRow, ratios: list[float], lo: float, hi: float) -> SweepRow:
    """row moved on its plateau of [lo, hi] to the self-consistent rho = b/a, or to the
    plateau's top when b/a lies above it, or to the _label below either when it would
    print off the plateau. A b/a below the plateau leaves row as it is."""
    i = bisect_left(ratios, row.rho)  # row's plateau (ratios[i - 1], ratios[i]]
    target = min(row.ratio, ratios[i], hi)
    for rho in (target, _label(target)):
        printed = float(f"{rho:.{PRINT_DIGITS}g}")
        if all(lo <= x and bisect_left(ratios, x) == i for x in (rho, printed)):
            return replace(row, rho=rho)
    return row


def _sweep(
    s: Scheme,
    rho_min: float,
    rho_max: float,
    step: float,
    exclude: tuple[tuple[int, int], ...],
    optimize: bool = False,
) -> tuple[list[SweepRow], OptimizeResult | None]:
    """The grid rows, and with optimize the optimum searched around them."""
    if not (1 < rho_min < rho_max < math.inf and 0 < step < math.inf):
        raise OutOfRangeError("require 1 < rho_min < rho_max and 0 < step, all finite")
    # on the fractions _select reads: 1.35 to 1.3500002 at 2e-8 is 11 points, not the float's 10
    span = (_simplest_fraction(rho_max) - _simplest_fraction(rho_min)) / _simplest_fraction(step)
    if (points := math.floor(span) + 1) > MAX_GRID_POINTS:
        raise CapacityError(f"{Decimal(points):.3g} grid points, over the cap of {MAX_GRID_POINTS}")
    grid = [rho_min + i * step for i in range(points)]
    ratios, rows = _table(s, rho_min, exclude)
    grid_rows = list(rows(grid))
    if not optimize:
        return grid_rows, None
    usable = [r for r in grid_rows if r.converges and r.a_limit > 0]
    if not usable:
        raise IterationError("no converging grid point in the sweep range")
    keys = (lambda r: -r.a_limit, lambda r: r.b_limit, lambda r: r.ratio)
    hi = max(rho_max, grid[-1])  # grid points may pass rho_max by rounding
    # the plateaus within two steps of each best grid row, and the one of b/a in the window
    best = [min(usable, key=key) for key in keys]
    near = {bisect_left(ratios, min(best[2].ratio, hi))}
    for b in best:
        first, last = (bisect_left(ratios, b.rho + d * step) for d in (-2, 2))
        near.update(range(first, last + 1))
    near -= {bisect_left(ratios, g) for g in grid}  # only a plateau off the grid can beat it
    # each solved at its top, to PRINT_DIGITS: a plateau narrower than that is passed over
    labels = [x for i in sorted(near) if (x := _label(min(ratios[i], hi))) > ratios[i - 1]]
    usable += [r for r in rows(labels) if r.converges and r.a_limit > 0]
    best_a, best_b, best_ratio = (min(usable, key=key) for key in keys)
    best_ratio = _self_consistent(best_ratio, ratios, rho_min, hi)
    residual = abs(best_ratio.rho - best_ratio.ratio)
    return grid_rows, OptimizeResult(best_a, best_b, best_ratio, residual)


def sweep_rho(
    s: Scheme,
    rho_min: float = 1.02,
    rho_max: float = 2.0,
    step: float = 0.005,
    exclude: tuple[tuple[int, int], ...] = (),
) -> list[SweepRow]:
    """One SweepRow per grid point rho_min, rho_min+step, ..., <= rho_max."""
    return _sweep(s, rho_min, rho_max, step, exclude)[0]


def optimize_rho(
    s: Scheme,
    rho_min: float = 1.02,
    rho_max: float = 2.0,
    coarse_step: float = 0.005,
    exclude: tuple[tuple[int, int], ...] = (),
) -> OptimizeResult:
    """Locate near-optimal rho for argmax a, argmin b, and argmin b/a."""
    return _sweep(s, rho_min, rho_max, coarse_step, exclude, optimize=True)[1]
