import math
import random
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from chebsylv import (
    BUILTINS,
    CapacityError,
    DominationError,
    EProfile,
    e_profile,
    list_dropped_pairs,
    select_terms,
    selection_coefficients,
    selection_rows,
    selection_step_function,
)
from chebsylv.scheme import Scheme
from chebsylv.selection import (
    BLOCK_PERIOD,
    MAX_KEPT_PAIRS,
    MAX_PATTERN_UNITS,
    DominationReport,
    _select,
    _simplest_fraction,
    bound_terms,
    pair_pattern,
)
from fractions import Fraction

from oracles import RANDOM_SCHEMES


@dataclass(frozen=True)
class UnitJump:
    position: int
    sign: int


def jump_stream(profile: EProfile, up_to: int) -> list[UnitJump]:
    """Unit jumps at positions 1..up_to, periodic extension, multiplicities expanded."""
    if up_to < 1:
        raise ValueError("up_to must be >= 1")
    out: list[UnitJump] = []
    p, jumps = profile.period, profile.jumps  # derived on each access
    base = 0
    while base < up_to:
        for pos, delta in jumps:
            at = base + pos
            if at > up_to:
                break
            sign = 1 if delta > 0 else -1
            out.extend([UnitJump(at, sign)] * abs(delta))
        base += p
    return out


def test_jump_stream_matches_E_differences(profiles):
    for name in ("cheb", "nu4", "nu5"):
        p = profiles[name]
        stream = jump_stream(p, 2 * p.period)
        deltas = np.zeros(2 * p.period + 1, dtype=np.int64)
        for j in stream:
            deltas[j.position] += j.sign
        rebuilt = np.cumsum(deltas[1:])
        assert np.array_equal(rebuilt, np.tile(p.values, 2))


def test_jump_stream_expands_multiplicities(profiles):
    # nu4: E drops by 2 at x = 6 -> two -1 jumps at the same position
    p = profiles["nu4"]
    stream = jump_stream(p, 6)
    assert [(j.position, j.sign) for j in stream] == [
        (1, 1),
        (5, 1),
        (6, -1),
        (6, -1),
    ]


def test_select_nu4_rho_15(profiles):
    p = profiles["nu4"]
    lower = select_terms(p, "lower", 1.5)
    upper = select_terms(p, "upper", 1.5)
    assert lower.leading_n == 6
    assert lower.kept_pairs == ((7, 12),)
    assert lower.standalones == ()
    assert upper.kept_pairs == ((6, 11),)
    assert upper.standalones == (5,)


def test_select_nu4_rho_13_adds_pairs(profiles):
    p = profiles["nu4"]
    lower = select_terms(p, "lower", 1.3)
    upper = select_terms(p, "upper", 1.3)
    assert (13, 18) in lower.kept_pairs and (7, 12) in lower.kept_pairs
    assert (12, 17) in upper.kept_pairs and (6, 11) in upper.kept_pairs


def test_select_cheb_rho_12(profiles):
    p = profiles["cheb"]
    lower = select_terms(p, "lower", 1.2)
    upper = select_terms(p, "upper", 1.2)
    assert lower.leading_n == 6
    assert lower.kept_pairs == ((7, 10),)
    assert upper.kept_pairs == ((24, 29),)
    assert lower.standalones == () and upper.standalones == ()


def test_select_nu5_rho_12(profiles):
    p = profiles["nu5"]
    lower = select_terms(p, "lower", 1.2)
    upper = select_terms(p, "upper", 1.2)
    # seven matched pairs plus the leading (1, 6) block make eight brackets
    assert len(lower.kept_pairs) + len(upper.kept_pairs) == 7
    assert upper.standalones == (17,)
    assert lower.kept_pairs == ((7, 10), (13, 30), (43, 60), (73, 90))
    assert upper.kept_pairs == ((24, 29), (30, 47), (60, 77))


def test_boundary_ratio_is_kept(profiles):
    # nu6 at rho = 1.1 retains the pair (10, 11) with ratio exactly 1.1
    p = profiles["nu6"]
    upper = select_terms(p, "upper", 1.1)
    assert (10, 11) in upper.kept_pairs


def test_dropped_pairs_have_small_ratio(profiles):
    p = profiles["nu5"]
    sel = select_terms(p, "lower", 1.2)
    assert all(n / m < 1.2 for m, n in list_dropped_pairs(p, sel))
    assert all(n / m >= 1.2 for m, n in sel.kept_pairs)


def test_exclude_removes_pair(profiles):
    p = profiles["nu6"]
    base = select_terms(p, "lower", 1.1)
    assert (281, 310) in base.kept_pairs
    excl = select_terms(p, "lower", 1.1, exclude=((281, 310),))
    assert (281, 310) not in excl.kept_pairs
    assert (281, 310) in list_dropped_pairs(p, excl)


def test_max_index_truncates(profiles):
    p = profiles["nu7"]
    full = select_terms(p, "lower", 1.1)
    trunc = select_terms(p, "lower", 1.1, max_index=616)
    assert all(m <= 616 for m, _ in trunc.kept_pairs)
    assert all(u <= 616 for u in trunc.standalones)
    assert len(trunc.kept_pairs) < len(full.kept_pairs)


def test_n_terms_counts(profiles):
    p = profiles["nu4"]
    lower = select_terms(p, "lower", 1.5)
    upper = select_terms(p, "upper", 1.5)
    # lower: psi(x), psi(x/6), psi(x/7), psi(x/12)
    assert lower.n_terms == 4
    # upper: psi(x), psi(x/5), psi(x/6), psi(x/11)
    assert upper.n_terms == 4


def test_invalid_arguments(profiles):
    p = profiles["nu4"]
    with pytest.raises(ValueError):
        select_terms(p, "middle", 1.2)
    with pytest.raises(ValueError):
        select_terms(p, "lower", 1.0)


def test_step_function_domination_all_builtins(profiles):
    for name, p in profiles.items():
        for side in ("lower", "upper"):
            for rho in (1.1, 1.3, 2.0):
                sel = select_terms(p, side, rho)
                report = selection_step_function(sel, p)
                assert report.ok, (name, side, rho)
                assert report.max_violation == 0


def test_step_function_detects_bad_selection(profiles):
    # forging an unmatched upper pair must break domination
    p = profiles["cheb"]
    sel = select_terms(p, "upper", 1.2)
    bad = type(sel)(
        side="upper",
        rho=sel.rho,
        leading_n=None,
        kept_pairs=((2, 29),),  # removes far too much mass
        dropped_pairs=0,
        standalones=(),
        scan_end=sel.scan_end,
    )
    with pytest.raises(DominationError):
        selection_step_function(bad, p)
    report = selection_step_function(bad, p, strict=False)
    assert not report.ok and report.witness_x is not None


def dense_step_function(sel, profile):
    """selection_step_function by building L and E at every x in
    [1, 2 * scan_end] and comparing the tail level with e_min (upper: e_max);
    every term must sit at k <= 2 * scan_end."""
    hi = 2 * sel.scan_end
    k, sign = np.array(bound_terms(sel), dtype=np.int64).T
    deltas = np.zeros(hi + 1, dtype=np.int64)
    np.add.at(deltas, k, sign)
    tail = int(sign.sum())
    step = np.cumsum(deltas[1:])
    xs = np.arange(1, hi + 1)
    e_vals = profile.values[(xs - 1) % profile.period]
    if sel.side == "lower":
        gap, tail_ok = e_vals - step, tail <= profile.e_min
    else:
        gap, tail_ok = step - e_vals, tail >= profile.e_max
    worst = int(gap.min())
    return DominationReport(
        side=sel.side,
        ok=worst >= 0 and tail_ok,
        max_violation=max(0, -worst),
        witness_x=int(xs[int(gap.argmin())]) if worst < 0 else None,
        tail=tail,
        tail_ok=tail_ok,
    )


def _mutants(sel):
    """sel, then sel with its first pair dropped, with that pair's n raised
    by 1, with its first standalone dropped (sel again when it has none) and
    with a (7, 5) pair added."""
    out = [sel]
    if sel.kept_pairs:
        (m, n), rest = sel.kept_pairs[0], sel.kept_pairs[1:]
        out += [replace(sel, kept_pairs=rest), replace(sel, kept_pairs=((m, n + 1),) + rest)]
    return out + [
        replace(sel, standalones=sel.standalones[1:]),
        replace(sel, kept_pairs=sel.kept_pairs + ((7, 5),)),
    ]


def test_step_function_matches_dense_check(profiles):
    rhos = (1.003, 1.02, 1.1, 1.2, 1.5, 2.0)
    cases = [(name, p, rho) for name, p in profiles.items() for rho in rhos]
    cases += [(s.terms, e_profile(s), rho) for s in RANDOM_SCHEMES for rho in rhos[2:]]
    checked = failing = 0
    for name, p, rho in cases:
        for side in ("lower", "upper"):
            for sel in _mutants(select_terms(p, side, rho)):
                report = selection_step_function(sel, p, strict=False)
                assert report == dense_step_function(sel, p), (name, side, rho, sel)
                checked += 1
                failing += not report.ok
    assert checked >= 4_500 and failing >= checked / 5


def test_step_function_checks_terms_past_twice_scan_end(profiles):
    # the piece from 3 * scan_end on is the tail: one more standalone there
    # only moves the upper bound further above E
    p = profiles["nu4"]
    sel = select_terms(p, "upper", 1.3)
    far = replace(sel, standalones=sel.standalones + (3 * sel.scan_end,))
    report = selection_step_function(far, p)
    assert report.ok and report.tail == selection_step_function(sel, p).tail + 1
    # a pair (3 * scan_end, 3 * scan_end + P) lifts L by 1 over one whole
    # period, where E reaches 0 at its first x, 3 * scan_end itself
    p = profiles["cheb"]
    sel = select_terms(p, "lower", 1.3)
    end = 3 * sel.scan_end
    far = replace(sel, kept_pairs=sel.kept_pairs + ((end, end + p.period),))
    report = selection_step_function(far, p, strict=False)
    assert (end, report.ok, report.max_violation, report.witness_x) == (360, False, 1, 360)
    assert report.tail_ok


def test_step_function_memory_near_the_pair_cap(profiles):
    # nu8's lower side at rho = 1.0003 has scan_end 7,687,680; the check
    # reads two periods of E and one window per piece (1.9 MB), where L and
    # E at every x up to 2 * scan_end took 587 MB
    p = profiles["nu8"]
    sel = select_terms(p, "lower", 1.0003)
    tracemalloc.start()
    try:
        report = selection_step_function(sel, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and sel.scan_end == 7_687_680
    assert peak < 16e6


def test_selection_coefficients_exact(profiles):
    p = profiles["nu4"]
    sel = select_terms(p, "lower", 1.5)
    assert selection_coefficients(sel) == (Fraction(1, 7), Fraction(1, 12))


def test_selection_rows_statuses(profiles):
    p = profiles["nu4"]
    sel = select_terms(p, "lower", 1.5)
    rows = selection_rows(sel, list_dropped_pairs(p, sel))
    statuses = {status for _, _, status in rows}
    assert statuses <= {"leading", "kept", "dropped", "standalone"}
    assert (1, 1, "leading") in rows
    assert (6, -1, "leading") in rows
    assert (7, 1, "kept") in rows and (12, -1, "kept") in rows


def test_scan_end_is_whole_periods(profiles):
    for name, p in profiles.items():
        sel = select_terms(p, "upper", 1.3)
        assert sel.scan_end % p.period == 0
        assert sel.scan_end >= 3 * p.period


def _brute_match(p, side, up_to):
    """Stack-match jump_stream(p, up_to) directly: (pairs in closing order,
    standalones)."""
    open_sign = 1 if side == "lower" else -1
    leading = [(1, 1)] + ([(p.n, -1)] if side == "lower" else [])
    stack, pairs, alone = [], [], []
    for j in jump_stream(p, up_to):
        if leading and (j.position, j.sign) in leading:
            leading.remove((j.position, j.sign))
        elif j.sign == open_sign:
            stack.append(j.position)
        elif stack:
            pairs.append((stack.pop(), j.position))
        else:
            alone.append(j.position)
    return pairs, alone


def _brute_force(p, side, rho, scan_end, max_index=None, exclude=()):
    """Stack-match jump_stream(p, scan_end + 2P) directly and filter by ratio."""
    pairs, alone = _brute_match(p, side, scan_end + 2 * p.period)
    return _brute_filter(pairs, alone, rho, scan_end, max_index, exclude)


def _brute_filter(pairs, alone, rho, scan_end, max_index=None, exclude=()):
    """Split a brute-force match up to scan_end into kept and dropped pairs."""

    def in_range(x):
        return max_index is None or x <= max_index

    def keep(pr):
        return pr[1] / pr[0] >= rho and pr not in exclude and in_range(pr[0])

    # a jump of size d > 1 can close the same pair more than once: keep repeats
    scanned = sorted(pr for pr in pairs if pr[1] <= scan_end)
    kept = [pr for pr in scanned if keep(pr)]
    dropped = [pr for pr in scanned if not keep(pr)]
    return kept, dropped, [u for u in alone if u <= scan_end and in_range(u)], pairs


_ORACLE_RHOS = (1.05, 1.1, 1.113, 1.2, 1.5, 2.0)
_ORACLE_CASES = [
    (name, side, rho, None, ())
    for name in BUILTINS
    for side in ("lower", "upper")
    for rho in ((1.1, 1.5) if name == "nu8" else _ORACLE_RHOS)
] + [
    ("nu7", "lower", 1.1, 616, ()),
    ("nu7", "upper", 1.113, 616, ()),
    ("nu6", "lower", 1.1, None, ((281, 310),)),
]


def _case_id(case):
    name, side, rho, max_index, exclude = case
    extra = (f"-max{max_index}" if max_index else "") + ("-exclude" if exclude else "")
    return f"{name}-{side}-{rho}{extra}"


@pytest.mark.parametrize(
    "name,side,rho,max_index,exclude", _ORACLE_CASES, ids=map(_case_id, _ORACLE_CASES)
)
def test_selection_matches_brute_force_matching(profiles, name, side, rho, max_index, exclude):
    p = profiles[name]
    sel = select_terms(p, side, rho, max_index=max_index, exclude=exclude)
    kept, dropped, standalones, pairs = _brute_force(p, side, rho, sel.scan_end, max_index, exclude)
    assert list(sel.kept_pairs) == kept
    assert list(list_dropped_pairs(p, sel)) == dropped
    assert sel.dropped_pairs == len(dropped)
    assert list(sel.standalones) == standalones
    # no pair past the scan reaches rho; the scan stops at period BLOCK_PERIOD
    # or right after the last period holding a pair above rho
    end, period = sel.scan_end, p.period
    assert end % period == 0
    assert all(n / m < rho for m, n in pairs if n > end)
    assert all(n / m <= rho for m, n in pairs if end - period < n <= end)
    assert end == BLOCK_PERIOD * period or any(
        n / m > rho for m, n in pairs if end - 2 * period < n <= end - period
    )


def test_selection_matches_brute_force_on_random_schemes():
    for s in RANDOM_SCHEMES:
        p = e_profile(s)
        for side in ("lower", "upper"):
            pattern = pair_pattern(p, side)  # select_terms without re-matching per rho
            sels = [_select(pattern, rho) for rho in (1.1, 1.5, 2.0)]
            matched = _brute_match(p, side, max(sel.scan_end for sel in sels))
            for sel in sels:
                rho = sel.rho
                kept, dropped, standalones, _ = _brute_filter(*matched, rho, sel.scan_end)
                assert list(sel.kept_pairs) == kept, (s.terms, side, rho)
                assert list(list_dropped_pairs(p, sel)) == dropped, (s.terms, side, rho)
                assert sel.dropped_pairs == len(dropped), (s.terms, side, rho)
                assert list(sel.standalones) == standalones, (s.terms, side, rho)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_pairs_repeat_from_period_three(profiles, side):
    # what pair_pattern takes without a check: no standalone after period 1,
    # and every later period closes the period-3 pairs shifted by P
    cases = list(profiles.items())
    cases += [(s.terms, e_profile(s)) for s in RANDOM_SCHEMES[:50]]
    for name, p in cases:
        period = p.period
        pairs, alone = _brute_match(p, side, 8 * period)
        assert all(u <= period for u in alone), name
        closed = [[(m, n) for m, n in pairs if q * period < n <= (q + 1) * period] for q in range(8)]
        for q in range(BLOCK_PERIOD - 1, 8):
            shift = (q - 2) * period
            assert closed[q] == [(m + shift, n + shift) for m, n in closed[2]], (name, q + 1)
        pattern = pair_pattern(p, side)
        shift_0_to_2 = [list(pr) for q in range(3) for pr in closed[q]]
        assert pattern_shifts(pattern, range(3)) == shift_0_to_2
        assert pattern_shifts(pattern, [3]) == [list(pr) for pr in closed[3]]
        assert list(pattern.standalones) == alone


def pattern_shifts(pattern, shifts):
    """The pattern's pairs at each of shifts, in closing order: row j at
    shift k when k >= first[j]."""
    rows = list(zip(pattern.pairs.tolist(), pattern.first.tolist()))
    period = pattern.period
    return [[m + k * period, n + k * period] for k in shifts for (m, n), f in rows if k >= f]


def loop_pair_pattern(p, side):
    """pair_pattern by pushing and popping one unit jump at a time: (prefix,
    block, standalones)."""
    units = [(x, 1 if d > 0 else -1) for x, d in p.jumps for _ in range(abs(d))]
    first = list(units)
    first.remove((1, 1))  # the leading psi(x) term
    if side == "lower":
        first.remove((p.n, -1))  # and psi(x/N)
    stack, pairs, standalones = [], [], []
    for q in range(1, BLOCK_PERIOD):
        for x, sign in first if q == 1 else units:
            pos = (q - 1) * p.period + x
            if (sign > 0) == (side == "lower"):  # an opening jump
                stack.append(pos)
            elif stack:
                pairs.append((stack.pop(), pos))
            else:
                standalones.append(pos)
    prefix = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    block = prefix[prefix[:, 1] > (BLOCK_PERIOD - 2) * p.period] + p.period
    return prefix, block, tuple(standalones)


def test_pair_pattern_matches_stack_loop(profiles):
    cases = list(profiles.items()) + [(s.terms, e_profile(s)) for s in RANDOM_SCHEMES]
    for name, p in cases:
        for side in ("lower", "upper"):
            pattern = pair_pattern(p, side)
            prefix, block, standalones = loop_pair_pattern(p, side)
            assert pattern_shifts(pattern, range(3)) == prefix.tolist(), (name, side)
            assert pattern_shifts(pattern, [3]) == block.tolist(), (name, side)
            assert pattern.standalones == standalones, (name, side)
            # one row per close of one period: the closes of period 4 are all of them
            assert len(pattern.pairs) == len(block), (name, side)
    for side in ("lower", "upper"):
        assert len(pair_pattern(profiles["nu8"], side).pairs) == 5_880


@pytest.mark.parametrize("weight", [300, 70_000])
@pytest.mark.parametrize("side", ["lower", "upper"])
def test_pair_pattern_on_walks_wider_than_a_byte_and_16_bits(weight, side):
    # E climbs to weight + 1 within each period, so the edge key of the sort
    # needs 16 bits at 300 and 32 at 70,000; a key cut to 16 bits at 70,000
    # lost 13,395 of the 210,008 lower pairs closed in periods 1 to 3
    p = e_profile(Scheme(((1, 1), (2, -2), (3, weight), (6, -2 * weight))))
    assert (p.e_min, p.e_max) == (0, weight + 1)
    pattern = pair_pattern(p, side)
    prefix, block, standalones = loop_pair_pattern(p, side)
    assert pattern_shifts(pattern, range(3)) == prefix.tolist()
    assert pattern_shifts(pattern, [3]) == block.tolist()
    assert pattern.standalones == standalones
    assert len(prefix) == (3 * weight + 8 if side == "lower" else 2 * weight + 8)


@pytest.mark.parametrize("w", [(MAX_PATTERN_UNITS - 6) // 4 + 1, 10**8])
def test_pair_pattern_refuses_unit_jumps_past_the_cap(w):
    # 1:1,2:2w,4:-4w-4 makes 4w + 6 unit jumps a period of 4; past the cap
    # they are refused before any per-unit array is made (at about 75 bytes a
    # unit, w = 10^8 would need 30 GB)
    p = e_profile(Scheme(((1, 1), (2, 2 * w), (4, -4 * w - 4))))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"{4 * w + 6} unit jumps a period"):
            select_terms(p, "lower", 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5


def test_rho_near_one_exceeds_the_pair_cap(profiles):
    # about 5 * 10^5 kept pairs: refused before any pair is enumerated
    p = profiles["nu1"]
    with pytest.raises(CapacityError):
        select_terms(p, "lower", 1.000001)
    # the shift-3 pair (7, 8) shifted by k periods sets a breakpoint at
    # (8 + 2k) / (7 + 2k); with both pairs of shifts 0 to 2, k = 9,997 keeps exactly
    # the cap and k = 9,998 one pair more
    assert len(select_terms(p, "lower", 20002 / 20001).kept_pairs) == MAX_KEPT_PAIRS
    with pytest.raises(CapacityError, match=f"keeps {MAX_KEPT_PAIRS + 1} pairs, over the cap"):
        select_terms(p, "lower", 20004 / 20003)
    # 70,003 shift-3 pairs next to rho = 1: each keeps about 1.5 * 10^15 shifts,
    # and together they keep more pairs than an int64 holds
    wide = pair_pattern(e_profile(Scheme(((1, 1), (2, -2), (3, 70_000), (6, -140_000)))), "lower")
    rho = math.nextafter(1, 2)
    a, b = _simplest_fraction(rho).as_integer_ratio()
    den = (a - b) * wide.period
    kept = sum(max(0, (b * n - a * m) // den + 1) for m, n in pattern_shifts(wide, [3]))
    kept += sum(b * n >= a * m for m, n in pattern_shifts(wide, range(3)))
    assert kept > 2**63
    with pytest.raises(CapacityError, match=f"keeps {kept} pairs, over the cap"):
        _select(wide, rho)


def test_simplest_fraction_reads_back_ratios_and_decimals():
    rng = random.Random(5)
    for _ in range(5_000):
        m = rng.randint(1, 10**7)
        n = rng.randint(m + 1, 4 * m)
        assert _simplest_fraction(n / m) == Fraction(n, m), (n, m)
    assert _simplest_fraction(1.1) == Fraction(11, 10)
    assert _simplest_fraction(1.02) == Fraction(51, 50)
    assert _simplest_fraction(1.0003) == Fraction(10003, 10000)
    assert _simplest_fraction(float(np.float64(1.1))) == Fraction(11, 10)
    assert _simplest_fraction(float(2)) == 2
    rhos = [1.1, 1.02, 1.0003, 7 / 6, 1.2000000000000002, 2.0, 4.0, 7.5, 1e20]
    rhos += [rng.uniform(1, 3) for _ in range(1_000)]
    for rho in rhos:
        for x in (math.nextafter(rho, 0), rho, math.nextafter(rho, math.inf)):
            got = _simplest_fraction(x)
            assert float(got) == x, x
            # the nearest fraction with a smaller denominator rounds elsewhere
            if got.denominator > 1 and math.frexp(x)[0] != 0.5:
                assert float(Fraction(x).limit_denominator(got.denominator - 1)) != x, x


def dense_select(pattern, rho, max_index=None, exclude=()):
    """_select that lists every scanned pair and sorts them all before
    filtering: (kept_pairs, dropped_pairs, standalones, scan_end)."""
    (bm, bn), (pm, pn) = (np.array(pattern_shifts(pattern, k)).T for k in ([3], range(3)))
    period = pattern.period
    reach = (bn - rho * bm) / ((rho - 1) * period)
    kept_count = np.sum(np.floor(reach[reach >= 0]) + 1) + np.count_nonzero(pn / pm >= rho)
    if kept_count > MAX_KEPT_PAIRS:
        raise CapacityError(f"about {int(kept_count)} pairs")

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
    order = np.lexsort((n, m))
    m, n = m[order], n[order]
    keep = n / m >= rho
    for em, en in exclude:
        keep &= (m != em) | (n != en)
    if max_index is not None:
        keep &= m <= max_index
    return (
        tuple(zip(m[keep].tolist(), n[keep].tolist())),
        tuple(zip(m[~keep].tolist(), n[~keep].tolist())),
        tuple(u for u in pattern.standalones if max_index is None or u <= max_index),
        (BLOCK_PERIOD + k_end) * period,
    )


def _ties(pattern):
    """Shift-3 pairs with the threshold each sits exactly on, ((m, n), n / m):
    the three pairs of largest ratio, each shifted by 0 to 2 periods."""
    top = sorted(pattern_shifts(pattern, [3]), key=lambda pr: pr[1] / pr[0])[-3:]
    shifted = [(m + k * pattern.period, n + k * pattern.period) for m, n in top for k in range(3)]
    return [((m, n), n / m) for m, n in shifted]


# every built-in, plus every tenth random scheme without the rho closest to 1
_DENSE_SCAN_CASES = [(name, s, (1.0003, 1.002)) for name, s in BUILTINS.items()] + [
    (f"random{i}", s, ()) for i, s in enumerate(RANDOM_SCHEMES) if i % 10 == 0
]


@pytest.mark.parametrize(
    "scheme,near_one", [c[1:] for c in _DENSE_SCAN_CASES], ids=[c[0] for c in _DENSE_SCAN_CASES]
)
def test_select_matches_dense_scan(scheme, near_one):
    # near rho = 1 nu8 drops 1.5 million pairs on each side, nu7 430,000; ties
    # under 1.005 (random schemes only) are left out, as there the dense scan
    # takes 0.1-0.2 s. 1.2000000000000002 reads as a fraction with 15-digit
    # terms, which periods from 1,387 on (nu7, nu8) compare in Python integers
    for side in ("lower", "upper"):
        pattern = pair_pattern(e_profile(scheme), side)
        ties = [(pair, tie) for pair, tie in _ties(pattern) if tie >= 1.005]
        for rho in near_one + (1.01, 1.02, 1.2, 1.2000000000000002) + tuple(t for _, t in ties):
            case = (scheme.terms, side, rho)
            try:
                kept, dropped, standalones, scan_end = dense_select(pattern, rho)
            except CapacityError:
                with pytest.raises(CapacityError):
                    _select(pattern, rho)
                continue
            sel = _select(pattern, rho)
            assert sel.kept_pairs == kept, case
            assert sel.dropped_pairs == len(dropped), case
            assert sel.standalones == standalones, case
            assert sel.scan_end == scan_end, case
        for pair, tie in ties:
            assert pair in _select(pattern, tie).kept_pairs, (scheme.terms, side, tie)


def test_select_memory_near_the_pair_cap(profiles):
    # nu8's lower side at rho = 1.0003 keeps 8,340 pairs and drops 1.5
    # million; building the kept pairs alone peaks near 1.5 MB, where arrays
    # of every scanned pair took 37.7 MB and a tuple per scanned pair 250 MB
    pattern = pair_pattern(profiles["nu8"], "lower")
    tracemalloc.start()
    try:
        sel = _select(pattern, 1.0003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sel.kept_pairs) == 8340 and sel.dropped_pairs == 1_496_938
    assert peak < 5e6
