"""Threshold term selection: turn an E-profile into finite psi-term bounds.

The unit jumps of E are the coefficients of V(x) as a combination of
psi(x/n). For each side we match opposite-sign unit jumps (each closing jump
pairs with the most recent open one) and keep unmatched closing jumps as
standalone terms, with the leading block psi(x) - psi(x/N) (lower side) or
psi(x) term (upper side) set aside. Every period closes the pairs of the
period before, shifted by the period: ``pair_pattern`` matches one period
as a cycle, and ``select_terms`` keeps a pair (m, n) iff q n >= p m, for the
simplest fraction p / q that rounds to the float rho. A selection holds only
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

# Every selection scans the pairs closed in periods 1 to BLOCK_PERIOD at least:
# its scan_end is a whole number of periods, BLOCK_PERIOD or more.
BLOCK_PERIOD = 4

# Unit jumps of E one period may hold for pair_pattern, whose arrays take
# about 75 bytes per unit: at the cap, 1:1,2:2w,4:-4w-4 (w = 249,998) peaks
# at 71-75 MB (tracemalloc) and matches in 0.06-0.07 s (2-vCPU x86-64 VM).
MAX_PATTERN_UNITS = 10**6

# Pairs one side may keep. As rho -> 1 the kept count grows without bound,
# and the exact fixed point slows faster than linearly in it: selecting both
# sides, build_recurrence and fixed_point take 0.06-0.08 s for nu1 with 8,300
# kept pairs per side, 0.11-0.18 s for nu8 with 6,200 and 0.18-0.25 s with
# 8,300 (best of 3 in each of three runs, 2-vCPU x86-64 VM).
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
        return len(bound_terms(self))


@dataclass(frozen=True, eq=False)
class PairPattern:
    """Every matched pair of one side: row j of ``pairs``, the (m, n) of a close
    of one period (1 <= n <= P, closing order; m <= 0 if the open lies one period
    back), shifted by k periods for each k >= ``first[j]``: 1 for a wrapped row,
    whose shift 0 is a standalone, and for the leading terms' row, else 0."""

    side: str
    period: int
    leading_n: int | None
    pairs: np.ndarray
    first: np.ndarray
    standalones: tuple[int, ...]


def pair_pattern(profile: EProfile, side: str) -> PairPattern:
    """Match one side's unit jumps over one period, cyclically.

    One period's unit steps form a walk, E on the lower side and -E on the
    upper, whose up-steps open and down-steps close; repeated every period,
    a close pairs with the last open on its own edge (level h to h + 1 or
    back) before it, as a stack would match them. Each edge is crossed in
    turn up and down, so the matches repeat every period: one stable sort of
    the steps by edge puts each close right after its open, or first on its
    edge, whose last step is then its open one period back (m = x - P <= 0).
    The edges fit the narrowest signed type holding +-(max |E| + 1) (8 bits
    for every built-in), which numpy sorts with a linear counting sort up to
    16 bits; each step's rank in the sort lists the pairs in closing order.

    The jump stream starts at x = 1 and sets the leading terms aside. On the
    lower side, the open at 1 and the unit at N that crosses edge 0 match
    each other, because E >= 1 on [1, N); removing a matched pair changes no
    other match, and every unit at N has the same position, so it does not
    matter which of them is removed. On the upper side, the close at 1 has
    its partner one period back. A close whose partner comes before x = 1 is
    a standalone.
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
    units = int(size.sum())
    if units > MAX_PATTERN_UNITS:
        raise CapacityError(f"E has {units} unit jumps a period, over the cap {MAX_PATTERN_UNITS}")
    x = np.repeat(at + 1, size)  # one period's unit steps, in walk order
    step = np.repeat(np.sign(jump if lower else -jump).astype(np.int8), size)  # +1 opens
    bound = max(-profile.e_min, profile.e_max) + 1  # every edge lies in [-bound, bound]
    edge = np.cumsum(step, dtype=np.min_scalar_type(-bound - 1))
    edge -= step > 0  # an up-step to level h crosses edge h - 1
    order = np.argsort(edge, kind="stable")
    e = edge[order]
    ends = np.flatnonzero(np.append(e[1:] != e[:-1], True))  # each edge's last step
    before = np.arange(-1, units - 1)  # each sorted step's predecessor on its edge, cyclically
    before[0], before[ends[:-1] + 1] = ends[0], ends[1:]
    rank = np.empty(units, dtype=np.intp)  # each step's place in the sort
    rank[order] = np.arange(units)
    closes = np.flatnonzero(step < 0)
    opens = order[before[rank[closes]]]
    wrapped = opens > closes  # the open lies one period back
    pairs = np.empty((closes.size, 2), dtype=np.int64)
    pairs[:, 0], pairs[:, 1] = x[opens] - period * wrapped, x[closes]
    first = (wrapped | (opens == 0)).astype(np.int64)  # opens == 0: the lower (1, N)
    standalones = tuple(x[closes[wrapped & (closes > 0)]].tolist())  # not the upper close at 1
    return PairPattern(side, period, profile.n if lower else None, pairs, first, standalones)


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

    Keeps a pair iff q n >= p m, for rho read as p / q (_simplest_fraction):
    row j shifted by k periods is kept iff k <= (q n_j - p m_j) / ((p - q) P),
    so it keeps the run of shifts from first_j to that bound. Only kept pairs
    are built, after the cap is checked on their exact count; the rest up to
    the scan's last shift, past which no pair has ratio above rho, are counted.
    """
    p, q = _simplest_fraction(rho).as_integer_ratio() if math.isfinite(rho) else (0, 1)
    if p <= q:
        raise OutOfRangeError("rho must be finite and exceed 1")
    if max_index is not None and not -math.inf < max_index < math.inf:  # NaN fails too
        raise OutOfRangeError(f"max_index must be finite, got {max_index}")
    period, first = pattern.period, pattern.first
    # |q n - p m| < 2 p P: only a rho of about 16 digits needs Python ints
    pairs = pattern.pairs if p * period < 2**60 else pattern.pairs.astype(object)
    num, den = q * pairs[:, 1] - p * pairs[:, 0], (p - q) * period
    # int64 holds the runs: |num // den| < (p + q) / (p - q) < 2^54
    runs = np.maximum(num // den + 1 - first, 0).astype(np.int64, copy=False)
    scans = max(BLOCK_PERIOD, -(-int(num.max()) // den) + 1)  # shifts 0 to scans - 1
    total = int(np.minimum(runs, MAX_KEPT_PAIRS + 1).sum())  # clipped, so it cannot overflow
    if total > MAX_KEPT_PAIRS:
        raise CapacityError(  # with the exact count: runs may sum past int64
            f"side={pattern.side} at rho={rho} keeps {sum(runs.tolist())} pairs, "
            f"over the cap of {MAX_KEPT_PAIRS}; use a larger rho"
        )
    m, n = _shifted(pattern, runs)
    keep = np.ones(m.size, dtype=bool) if max_index is None else m <= max_index
    excluded = tuple(tuple(pair) for pair in exclude)
    for em, en in excluded:
        keep &= (m != em) | (n != en)
    kept_pairs = _sorted_pairs(m[keep], n[keep])
    return TermSelection(
        side=pattern.side,
        rho=rho,
        leading_n=pattern.leading_n,
        kept_pairs=kept_pairs,
        dropped_pairs=scans * len(first) - int(first.sum()) - len(kept_pairs),
        standalones=tuple(u for u in pattern.standalones if max_index is None or u <= max_index),
        scan_end=scans * period,
        max_index=max_index,
        excluded=excluded,
    )


def _shifted(pattern: PairPattern, runs: np.ndarray) -> np.ndarray:
    """(m, n) arrays of row j of pattern at shifts first_j to first_j + runs_j - 1."""
    ends = np.cumsum(runs)
    shift = np.arange(ends[-1]) + np.repeat(pattern.first + runs - ends, runs)
    return (np.repeat(pattern.pairs, runs, axis=0) + (shift * pattern.period)[:, None]).T


def _simplest_fraction(rho: float) -> Fraction:
    """The fraction of least denominator that rounds to the float rho: float(n /
    m) gives back n / m for every m below about 5 * 10^7, and 1.1 gives 11/10.
    rho = M 2^(e - 53), with a 53-bit M, is what every real strictly between
    (4M -+ 2) / 2^(55 - e) rounds to (from 4M - 1 below a power of two); a
    continued-fraction walk finds the simplest fraction there."""
    mantissa, e = math.frexp(rho)
    top, up = int(mantissa * 2.0**53), max(e, 0)
    a, c = (4 * top - (1 if top == 1 << 52 else 2)) << up, (4 * top + 2) << up
    b = d = 1 << (55 - min(e, 0))
    h0, k0, h1, k1 = 0, 1, 1, 0  # the last two convergents
    while True:  # the open interval (a / b, c / d) left after the terms so far
        t = a // b
        if (t + 1) * d < c:  # it holds an integer, and the least one is simplest
            return Fraction((t + 1) * h1 + h0, (t + 1) * k1 + k0)
        h0, k0, h1, k1 = h1, k1, t * h1 + h0, t * k1 + k0
        a, b, c, d = d, c - t * d, b, a - t * b  # 1 / (hi - t), 1 / (lo - t); d = 0 is infinite


def _sorted_pairs(m: np.ndarray, n: np.ndarray) -> tuple[tuple[int, int], ...]:
    order = np.lexsort((n, m))
    return tuple(zip(m[order].tolist(), n[order].tolist()))


def list_dropped_pairs(profile: EProfile, sel: TermSelection) -> tuple[tuple[int, int], ...]:
    """The pairs sel scanned but did not keep, in (m, n) order: row j at
    shifts first_j to scan_end / P - 1, for every row, less its kept pairs
    (whether a pair is kept depends on (m, n) alone, so a pair closed twice
    is dropped twice). Raises CapacityError past MAX_LISTED_PAIRS of them."""
    if sel.dropped_pairs > MAX_LISTED_PAIRS:
        raise CapacityError(
            f"side={sel.side} at rho={sel.rho} drops {sel.dropped_pairs} pairs, "
            f"over the listing budget of {MAX_LISTED_PAIRS}; use a larger rho"
        )
    pattern = pair_pattern(profile, sel.side)
    m, n = _shifted(pattern, sel.scan_end // pattern.period - pattern.first)
    kept = set(sel.kept_pairs)
    return tuple(pair for pair in _sorted_pairs(m, n) if pair not in kept)


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
    e = np.concatenate((profile.values, profile.values))
    e *= s  # in place, with no second copy of two periods
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


def _pair_sums(pairs, standalones=()) -> tuple[Fraction, Fraction]:
    """Exact (sum 1/m, sum 1/n + sum 1/u) over the pairs (m, n) and the standalones u."""
    ns = [n for _, n in pairs] + list(standalones)
    return _reciprocal_sum(m for m, _ in pairs), _reciprocal_sum(ns)


def selection_coefficients(sel: TermSelection) -> tuple[Fraction, Fraction]:
    """Exact rational sums (coef_a, coef_b) feeding the affine recurrence."""
    return _pair_sums(sel.kept_pairs, sel.standalones)


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
