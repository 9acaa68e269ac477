"""Threshold term selection: turn an E-profile into finite psi-term bounds.

The unit jumps of E are the coefficients of V(x) as a combination of
psi(x/n). For each side we match opposite-sign unit jumps (each closing jump
pairs with the most recent open one) and keep unmatched closing jumps as
standalone terms. The leading block psi(x) - psi(x/N) (lower side) and the
psi(x) term (upper side) are set aside before matching. The matched pairs
repeat with the period after a few periods; ``pair_pattern`` records that
finite pattern and ``select_terms`` keeps a pair (m, n) iff n/m >= rho.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .kernel import CapacityError
from .scheme import EProfile

# Periods matched while waiting for three periods to replay one another;
# every built-in scheme replays by period 4 on both sides.
MAX_STEADY_PERIODS = 8

# Pairs one side may keep. As rho -> 1 the kept count grows without bound,
# and the exact fixed point slows faster than linearly in it (8,300 kept
# pairs per side take 0.4 s for nu1, 6,200 take 1.6 s for nu8).
MAX_KEPT_PAIRS = 10_000


class SelectionError(RuntimeError):
    """Matching failed to reach steady state within MAX_STEADY_PERIODS."""


class DominationError(RuntimeError):
    """A selection's step function failed to dominate E (selection bug)."""


@dataclass(frozen=True)
class UnitJump:
    position: int
    sign: int


@dataclass(frozen=True)
class TermSelection:
    """One side's kept structure: leading block, kept pairs, standalones.

    Lower side: psi(x) - psi(x/leading_n) + sum [psi(x/m) - psi(x/n)]
    - sum psi(x/u). Upper side: psi(x) + sum psi(x/v)
    - sum [psi(x/m) - psi(x/n)].
    """

    side: str
    rho: float
    leading_n: int | None
    kept_pairs: tuple[tuple[int, int], ...]
    dropped_pairs: tuple[tuple[int, int], ...]
    standalones: tuple[int, ...]
    scan_end: int
    max_index: int | None = None
    excluded: tuple[tuple[int, int], ...] = ()

    @property
    def n_terms(self) -> int:
        """psi-term count of the induced bound (leading block included)."""
        base = 2 if self.side == "lower" else 1
        return base + 2 * len(self.kept_pairs) + len(self.standalones)


def jump_stream(profile: EProfile, up_to: int) -> list[UnitJump]:
    """Unit jumps at positions 1..up_to, periodic extension, multiplicities expanded."""
    if up_to < 1:
        raise ValueError("up_to must be >= 1")
    out: list[UnitJump] = []
    p = profile.period
    base = 0
    while base < up_to:
        for pos, delta in profile.jumps:
            at = base + pos
            if at > up_to:
                break
            sign = 1 if delta > 0 else -1
            out.extend(UnitJump(at, sign) for _ in range(abs(delta)))
        base += p
    return out


@dataclass(frozen=True, eq=False)
class PairPattern:
    """Every matched pair of one side: ``prefix``, then ``block`` shifted by
    k * period for each k >= 0. Arrays hold one (m, n) row per pair in closing
    order; ``block`` holds the pairs closed in period ``steady_period``."""

    side: str
    period: int
    leading_n: int | None
    prefix: np.ndarray
    block: np.ndarray
    standalones: tuple[int, ...]
    steady_period: int


def pair_pattern(profile: EProfile, side: str) -> PairPattern:
    """Stack-match one side's unit jumps period by period until steady.

    Period q (1-based) is steady when it and period q-1 replay their
    predecessors shifted by the period, neither closes a standalone, and the
    stack of open jumps has the same size after periods q-2, q-1 and q.
    """
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    period, lower = profile.period, side == "lower"
    units = [(x, 1 if d > 0 else -1) for x, d in profile.jumps for _ in range(abs(d))]
    first = list(units)
    first.remove((1, 1))  # the leading psi(x) term
    if lower:
        first.remove((profile.n, -1))  # and psi(x/N)
    stack: list[int] = []
    pairs: list[tuple[int, int]] = []
    standalones: list[int] = []
    starts = [0]  # pairs[starts[q-1]:starts[q]] closed in period q
    alone = [0]  # standalones closed by the end of each period
    sizes: list[int] = []  # stack size after each period

    def replays(q: int) -> bool:
        prev = pairs[starts[q - 2] : starts[q - 1]]
        return pairs[starts[q - 1] : starts[q]] == [(m + period, n + period) for m, n in prev]

    for q in range(1, MAX_STEADY_PERIODS + 1):
        for x, sign in first if q == 1 else units:
            pos = (q - 1) * period + x
            if (sign > 0) == lower:  # an opening jump
                stack.append(pos)
            elif stack:
                pairs.append((stack.pop(), pos))
            else:
                standalones.append(pos)
        starts.append(len(pairs))
        alone.append(len(standalones))
        sizes.append(len(stack))
        if (
            q >= 3
            and alone[-1] == alone[-3]  # none closed in periods q-1 and q
            and sizes[-1] == sizes[-2] == sizes[-3]
            and replays(q)
            and replays(q - 1)
        ):
            arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
            return PairPattern(
                side=side,
                period=period,
                leading_n=profile.n if lower else None,
                prefix=arr[: starts[q - 1]],
                block=arr[starts[q - 1] :],
                standalones=tuple(standalones),
                steady_period=q,
            )
    raise SelectionError(f"no steady state within {MAX_STEADY_PERIODS} periods for side={side}")


def select_terms(
    profile: EProfile,
    side: str,
    rho: float,
    max_index: int | None = None,
    exclude: tuple[tuple[int, int], ...] = (),
) -> TermSelection:
    """Match and threshold the jump stream of one side at threshold rho."""
    return _select(pair_pattern(profile, side), rho, max_index, exclude)


def _select(
    pattern: PairPattern,
    rho: float,
    max_index: int | None = None,
    exclude: tuple[tuple[int, int], ...] = (),
) -> TermSelection:
    """select_terms on a precomputed pattern.

    Scans whole periods up to the first steady-shifted period whose pairs all
    have ratio <= rho; a pair with ratio exactly rho is kept.
    """
    if rho <= 1:
        raise ValueError("rho must exceed 1")
    period, (bm, bn), (pm, pn) = pattern.period, pattern.block.T, pattern.prefix.T
    # closed form: (n + kP)/(m + kP) >= rho  <=>  k <= (n - rho m) / ((rho - 1) P)
    reach = (bn - rho * bm) / ((rho - 1) * period)
    kept_count = np.sum(np.floor(reach[reach >= 0]) + 1) + np.count_nonzero(pn / pm >= rho)
    if kept_count > MAX_KEPT_PAIRS:
        raise CapacityError(
            f"side={pattern.side} at rho={rho} keeps about {int(kept_count)} pairs, "
            f"over the cap of {MAX_KEPT_PAIRS}; use a larger rho"
        )
    # float ratios never rise with k (division rounds monotonically), and the
    # pair setting k_end alone keeps about k_end shifts, so the cap bounds it
    k_end = 0
    while ((bn + k_end * period) / (bm + k_end * period) > rho).any():
        k_end += 1
    shifts = np.arange(k_end + 1, dtype=np.int64)[:, None] * period
    m = np.concatenate([pm, (bm + shifts).ravel()])
    n = np.concatenate([pn, (bn + shifts).ravel()])
    order = np.lexsort((n, m))
    m, n = m[order], n[order]
    excluded = tuple(tuple(p) for p in exclude)
    keep = n / m >= rho
    for em, en in excluded:
        keep &= (m != em) | (n != en)
    if max_index is not None:
        keep &= m <= max_index
    return TermSelection(
        side=pattern.side,
        rho=rho,
        leading_n=pattern.leading_n,
        kept_pairs=tuple(zip(m[keep].tolist(), n[keep].tolist())),
        dropped_pairs=tuple(zip(m[~keep].tolist(), n[~keep].tolist())),
        standalones=tuple(u for u in pattern.standalones if max_index is None or u <= max_index),
        scan_end=(pattern.steady_period + k_end) * period,
        max_index=max_index,
        excluded=excluded,
    )


@dataclass(frozen=True)
class DominationReport:
    side: str
    ok: bool
    max_violation: int
    witness_x: int | None
    tail: int
    tail_ok: bool
    samples: np.ndarray


def selection_step_function(
    sel: TermSelection, profile: EProfile, strict: bool = True
) -> DominationReport:
    """Build the chi-step dominator of a selection and verify it against E.

    Lower side: L(x) = chi(x) - chi(x/N) + sum kept [chi(x/m) - chi(x/n)]
    - sum chi(x/u); checks L <= E pointwise on [1, 2*scan_end] and that the
    tail constant is <= e_min. Upper side symmetric with U >= E and e_max.
    Raises DominationError on failure unless strict=False.
    """
    hi = 2 * sel.scan_end
    deltas = np.zeros(hi + 2, dtype=np.int64)

    def add(pos: int, w: int) -> None:
        if pos <= hi:
            deltas[pos] += w

    add(1, 1)
    if sel.side == "lower":
        assert sel.leading_n is not None
        add(sel.leading_n, -1)
        for m, n in sel.kept_pairs:
            add(m, 1)
            add(n, -1)
        for u in sel.standalones:
            add(u, -1)
        tail = -len(sel.standalones)
        tail_ok = tail <= profile.e_min
    else:
        for v in sel.standalones:
            add(v, 1)
        for m, n in sel.kept_pairs:
            add(m, -1)
            add(n, 1)
        tail = 1 + len(sel.standalones)
        tail_ok = tail >= profile.e_max

    samples = np.cumsum(deltas[1 : hi + 1])
    xs = np.arange(1, hi + 1)
    e_vals = profile.values_at(xs)
    gap = e_vals - samples if sel.side == "lower" else samples - e_vals
    worst = int(gap.min())
    ok = worst >= 0 and tail_ok
    witness = int(xs[int(gap.argmin())]) if worst < 0 else None
    report = DominationReport(
        side=sel.side,
        ok=ok,
        max_violation=max(0, -worst),
        witness_x=witness,
        tail=tail,
        tail_ok=tail_ok,
        samples=samples,
    )
    if strict and not ok:
        raise DominationError(
            f"{sel.side} selection at rho={sel.rho} fails domination "
            f"(violation {report.max_violation} at x={witness}, tail_ok={tail_ok})"
        )
    return report


@dataclass(frozen=True)
class SelectionCoefficients:
    coef_a: Fraction
    coef_b: Fraction


def selection_coefficients(sel: TermSelection) -> SelectionCoefficients:
    """Exact rational coefficient sums feeding the affine recurrence."""
    coef_a = sum((Fraction(1, m) for m, _ in sel.kept_pairs), Fraction(0))
    coef_b = sum((Fraction(1, n) for _, n in sel.kept_pairs), Fraction(0))
    coef_b += sum((Fraction(1, u) for u in sel.standalones), Fraction(0))
    return SelectionCoefficients(coef_a=coef_a, coef_b=coef_b)


def selection_rows(sel: TermSelection) -> list[tuple[int, int, str]]:
    """(position, sign, status) rows for CSV export."""
    open_sign = 1 if sel.side == "lower" else -1
    rows: list[tuple[int, int, str]] = [(1, 1, "leading")]
    if sel.side == "lower" and sel.leading_n is not None:
        rows.append((sel.leading_n, -1, "leading"))
    for m, n in sel.kept_pairs:
        rows.append((m, open_sign, "kept"))
        rows.append((n, -open_sign, "kept"))
    for m, n in sel.dropped_pairs:
        rows.append((m, open_sign, "dropped"))
        rows.append((n, -open_sign, "dropped"))
    for u in sel.standalones:
        rows.append((u, -open_sign, "standalone"))
    return sorted(rows)
