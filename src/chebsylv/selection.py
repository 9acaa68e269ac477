"""Threshold term selection: turn an E-profile into finite psi-term bounds.

The unit jumps of E are the coefficients of V(x) as a combination of
psi(x/n). For each side we match opposite-sign unit jumps (each closing jump
pairs with the most recent open one) and keep unmatched closing jumps as
standalone terms. The leading block psi(x) - psi(x/N) (lower side) and the
psi(x) term (upper side) are set aside before matching. From period 4 on,
the pairs closed in each period are those of the period before, shifted by
the period; ``pair_pattern`` records that finite pattern and
``select_terms`` keeps a pair (m, n) iff n/m >= rho. A selection holds only
what the bound uses and counts the pairs it drops; ``list_dropped_pairs``
lists them for output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .kernel import CapacityError, OutOfRangeError
from .scheme import EProfile

# The first period whose pairs repeat the period before, shifted by the
# period (see pair_pattern); periods 1 to BLOCK_PERIOD - 1 are matched.
BLOCK_PERIOD = 4

# Pairs one side may keep. As rho -> 1 the kept count grows without bound,
# and the exact fixed point slows faster than linearly in it: selecting both
# sides, build_recurrence and fixed_point take 0.07 s for nu1 with 8,300 kept
# pairs per side, 0.22 s for nu8 with 6,200 and 0.33 s with 8,300 (best of 3,
# 2-vCPU x86-64 VM).
MAX_KEPT_PAIRS = 10_000

# The most dropped pairs list_dropped_pairs lists. A selection only counts
# them, and as rho -> 1 they outnumber the kept pairs by far (nu8's lower side
# at rho = 1.0003 drops 1.5 million); only the CLI's select output lists them.
MAX_LISTED_PAIRS = 100_000


class DominationError(RuntimeError):
    """A selection's step function failed to dominate E (selection bug)."""


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
    dropped_pairs: int  # how many scanned pairs were not kept
    standalones: tuple[int, ...]
    scan_end: int
    max_index: int | None = None
    excluded: tuple[tuple[int, int], ...] = ()

    @property
    def n_terms(self) -> int:
        """psi-term count of the induced bound (leading block included)."""
        base = 2 if self.side == "lower" else 1
        return base + 2 * len(self.kept_pairs) + len(self.standalones)


@dataclass(frozen=True, eq=False)
class PairPattern:
    """Every matched pair of one side: ``prefix``, then ``block`` shifted by
    k * period for each k >= 0. Arrays hold one (m, n) row per pair in closing
    order; ``block`` holds the pairs closed in period ``BLOCK_PERIOD``."""

    side: str
    period: int
    leading_n: int | None
    prefix: np.ndarray
    block: np.ndarray
    standalones: tuple[int, ...]


def pair_pattern(profile: EProfile, side: str) -> PairPattern:
    """Match one side's unit jumps over periods 1 to BLOCK_PERIOD - 1.

    The opening jumps are the up-steps of a walk: E - 1 + [x >= N] on the
    lower side, 1 - E on the upper. A close pairs with the last open on its
    own level that no earlier close took, as a stack would match them. The
    steps that cross one edge of the walk (level h to h + 1 or back) cross it
    in turn up and down, so that open is the step just before the close
    among the steps on its edge, in walk order; a close with no open there
    is the first crossing of its edge, a new minimum, and stays standalone.
    So one stable sort of the steps by edge matches every close at once: the
    walk stays in [E_min, E_max] (lower) or [1 - E_max, 1 - E_min] (upper), so
    the edges fit the narrowest signed type holding +-(max |E| + 1) (8 bits
    for every built-in), which numpy sorts with a linear radix (counting)
    sort up to 16 bits. A partner array, indexed by close, lists the pairs in closing
    order without a second sort.

    From period 2 on the walk is periodic and starts every period at the same
    level. Since E >= 1 on [1, N) and E(P) = 0, the walk reaches its lowest
    level in period 1 (and again in every later period), so no standalone
    closes after period 1. From period 3 on, the open a close pairs with lies
    in the same period or the one before, so the pairs closed in period q + 1
    are the period-q pairs shifted by P for every q >= 3.
    """
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    period, lower, values = profile.period, side == "lower", profile.values
    jump = np.empty_like(values)
    jump[0] = values[0]
    np.subtract(values[1:], values[:-1], out=jump[1:])
    at = np.flatnonzero(jump != 0)
    jump = jump[at]
    size = np.abs(jump)
    x = np.repeat(at + 1, size)  # one period's unit jumps, in walk order
    pos = np.concatenate([x + q * period for q in range(BLOCK_PERIOD - 1)])
    # +1 opens, -1 closes; the leading terms become 0, which no close pairs with
    unit = np.repeat(np.sign(jump if lower else -jump).astype(np.int8), size)
    step = np.concatenate((unit,) * (BLOCK_PERIOD - 1))
    step[0] = 0  # the leading psi(x) term
    if lower:
        step[np.searchsorted(x, profile.n)] = 0  # and psi(x/N)
    bound = max(-profile.e_min, profile.e_max) + 1  # every edge lies in [-bound, bound]
    edge = np.cumsum(step, dtype=np.min_scalar_type(-bound - 1))
    edge -= step > 0  # an up-step to level h crosses edge h - 1
    order = np.argsort(edge, kind="stable")
    s, e = step[order], edge[order]
    hit = np.flatnonzero((s[1:] < 0) & (s[:-1] > 0) & (e[1:] == e[:-1]))
    partner = np.full(step.size, -1)  # the open each close pairs with
    partner[order[hit + 1]] = order[hit]
    closes = np.flatnonzero(partner >= 0)
    prefix = np.empty((closes.size, 2), dtype=pos.dtype)
    prefix[:, 0], prefix[:, 1] = pos[partner[closes]], pos[closes]
    last = prefix[np.searchsorted(closes, (BLOCK_PERIOD - 2) * x.size) :]  # closed in period 3
    return PairPattern(
        side=side,
        period=period,
        leading_n=profile.n if lower else None,
        prefix=prefix,
        block=last + period,
        standalones=tuple(pos[(step < 0) & (partner < 0)].tolist()),
    )


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

    Scans whole periods up to the first one from period BLOCK_PERIOD on whose
    pairs all have ratio <= rho; a pair with ratio exactly rho is kept. Only
    the kept pairs are sorted and listed; the dropped ones are counted.
    """
    excluded = tuple(tuple(p) for p in exclude)
    m, n, keep, k_end = _scan(pattern, rho, max_index, excluded)
    at = np.flatnonzero(keep)
    return TermSelection(
        side=pattern.side,
        rho=rho,
        leading_n=pattern.leading_n,
        kept_pairs=_sorted_pairs(m[at], n[at]),
        dropped_pairs=len(keep) - len(at),
        standalones=tuple(u for u in pattern.standalones if max_index is None or u <= max_index),
        scan_end=(BLOCK_PERIOD + k_end) * pattern.period,
        max_index=max_index,
        excluded=excluded,
    )


def _scan(
    pattern: PairPattern,
    rho: float,
    max_index: int | None,
    excluded: tuple[tuple[int, int], ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Every pair a selection at rho scans, unsorted: (m, n, keep, k_end).

    The scan is the prefix, then the block shifted by k * period for k = 0 to
    k_end; keep marks the pairs with n / m >= rho that are neither excluded
    nor past max_index.
    """
    if not 1 < rho < float("inf"):  # NaN fails both comparisons
        raise OutOfRangeError("rho must be finite and exceed 1")
    period, (bm, bn), (pm, pn) = pattern.period, pattern.block.T, pattern.prefix.T
    # closed form: (n + kP)/(m + kP) >= rho  <=>  k <= (n - rho m) / ((rho - 1) P)
    reach = (bn - rho * bm) / ((rho - 1) * period)
    kept_count = np.sum(np.floor(reach[reach >= 0]) + 1) + np.count_nonzero(pn / pm >= rho)
    if kept_count > MAX_KEPT_PAIRS:
        raise CapacityError(
            f"side={pattern.side} at rho={rho} keeps about {int(kept_count)} pairs, "
            f"over the cap of {MAX_KEPT_PAIRS}; use a larger rho"
        )
    # k_end is the first k at which no float ratio exceeds rho. Float ratios
    # never rise with k (division rounds monotonically), so it is the largest
    # reach rounded up, moved by the float test where rounding put it a step
    # off; the pair setting k_end alone keeps about k_end shifts, so the cap
    # bounds it
    def exceeds(k: int) -> bool:
        return bool(((bn + k * period) / (bm + k * period) > rho).any())

    k_end = max(0, math.ceil(reach.max())) if reach.size else 0
    while exceeds(k_end):
        k_end += 1
    while k_end > 0 and not exceeds(k_end - 1):
        k_end -= 1
    shifts = np.arange(k_end + 1, dtype=np.int64)[:, None] * period
    m = np.concatenate([pm, (bm + shifts).ravel()])
    n = np.concatenate([pn, (bn + shifts).ravel()])
    keep = n / m >= rho
    for em, en in excluded:
        keep &= (m != em) | (n != en)
    if max_index is not None:
        keep &= m <= max_index
    return m, n, keep, k_end


def _sorted_pairs(m: np.ndarray, n: np.ndarray) -> tuple[tuple[int, int], ...]:
    order = np.lexsort((n, m))
    return tuple(zip(m[order].tolist(), n[order].tolist()))


def list_dropped_pairs(profile: EProfile, sel: TermSelection) -> tuple[tuple[int, int], ...]:
    """The pairs sel scanned but did not keep, in (m, n) order.

    A selection stores only their count; this lists them again from the
    profile sel was made from. Raises CapacityError before listing more than
    MAX_LISTED_PAIRS.
    """
    if sel.dropped_pairs > MAX_LISTED_PAIRS:
        raise CapacityError(
            f"side={sel.side} at rho={sel.rho} drops {sel.dropped_pairs} pairs, "
            f"over the listing budget of {MAX_LISTED_PAIRS}; use a larger rho"
        )
    m, n, keep, _ = _scan(pair_pattern(profile, sel.side), sel.rho, sel.max_index, sel.excluded)
    return _sorted_pairs(m[~keep], n[~keep])


def _pair_terms(pairs: tuple[tuple[int, int], ...], opens: int) -> list[tuple[int, int]]:
    return [t for m, n in pairs for t in ((m, opens), (n, -opens))]


def bound_terms(sel: TermSelection) -> list[tuple[int, int]]:
    """(k, sign) of every psi(x/k) term of the side's bound, in the order:
    leading block, kept pairs (m then n), standalones."""
    opens = 1 if sel.side == "lower" else -1
    leading = [(1, 1), (sel.leading_n, -1)] if sel.side == "lower" else [(1, 1)]
    return leading + _pair_terms(sel.kept_pairs, opens) + [(u, -opens) for u in sel.standalones]


@dataclass(frozen=True)
class DominationReport:
    side: str
    ok: bool
    max_violation: int
    witness_x: int | None
    tail: int
    tail_ok: bool


def selection_step_function(
    sel: TermSelection, profile: EProfile, strict: bool = True
) -> DominationReport:
    """Check the chi-step dominator of a selection against E at every x >= 1.

    Lower side: L(x) = chi(x) - chi(x/N) + sum kept [chi(x/m) - chi(x/n)]
    - sum chi(x/u) <= E; upper side U >= E. L is constant between term indices
    and from the last one on, so each piece meets the extreme of E over it,
    read from two periods of E. Raises DominationError unless strict=False.
    """
    steps: dict[int, int] = {}
    for k, sign in bound_terms(sel):
        steps[k] = steps.get(k, 0) + sign
    starts = sorted(steps)
    s = 1 if sel.side == "lower" else -1  # the upper side checks -U <= -E
    e = s * np.concatenate((profile.values, profile.values))
    period, level, worst, witness = profile.period, 0, 0, None
    for k, end in zip(starts, starts[1:] + [starts[-1] + period]):
        level += steps[k]
        window = e[(k - 1) % period :][: min(end - k, period)]
        i = int(window.argmin())  # the first x of the piece where E is extreme
        gap = int(window[i]) - s * level
        if gap < worst:
            worst, witness = gap, k + i
    report = DominationReport(
        side=sel.side,
        ok=worst >= 0,
        max_violation=-worst,
        witness_x=witness,
        tail=level,
        tail_ok=gap >= 0,  # the tail piece spans a whole period
    )
    if strict and not report.ok:
        raise DominationError(
            f"{sel.side} selection at rho={sel.rho} fails domination "
            f"(violation {report.max_violation} at x={witness}, tail_ok={report.tail_ok})"
        )
    return report


def _reciprocal_sum(ks) -> Fraction:
    """Exact sum of 1/k over the positive integers ks.

    Sums in a balanced tree, over (numerator, denominator) pairs whose
    denominators stay the lcm of the terms below them, and reduces once at
    the end: adding one term at a time to a running Fraction would cost a
    gcd of the full-size sum per term.
    """
    terms = [(1, k) for k in ks]
    if not terms:
        return Fraction(0)
    while len(terms) > 1:
        odd = terms[-1:] if len(terms) % 2 else []
        merged = []
        for (a, b), (c, d) in zip(terms[::2], terms[1::2]):
            g = math.gcd(b, d)
            merged.append((a * (d // g) + c * (b // g), b // g * d))
        terms = merged + odd
    return Fraction(*terms[0])


def selection_coefficients(sel: TermSelection) -> tuple[Fraction, Fraction]:
    """Exact rational sums (coef_a, coef_b) feeding the affine recurrence."""
    coef_a = _reciprocal_sum(m for m, _ in sel.kept_pairs)
    coef_b = _reciprocal_sum([n for _, n in sel.kept_pairs] + list(sel.standalones))
    return coef_a, coef_b


def selection_rows(
    sel: TermSelection, dropped: tuple[tuple[int, int], ...]
) -> list[tuple[int, int, str]]:
    """(position, sign, status) rows for CSV export; dropped is the listing
    of list_dropped_pairs."""
    lead = 2 if sel.side == "lower" else 1
    status = (
        ["leading"] * lead + ["kept"] * (2 * len(sel.kept_pairs))
        + ["standalone"] * len(sel.standalones)
    )
    rows = [(k, sign, st) for (k, sign), st in zip(bound_terms(sel), status)]
    dropped_terms = _pair_terms(dropped, 1 if sel.side == "lower" else -1)
    return sorted(rows + [(k, sign, "dropped") for k, sign in dropped_terms])
