import numpy as np
import pytest

from chebsylv import (
    BUILTINS,
    CapacityError,
    DominationError,
    e_profile,
    jump_stream,
    select_terms,
    selection_coefficients,
    selection_rows,
    selection_step_function,
)
from chebsylv.selection import pair_pattern
from fractions import Fraction


def test_jump_stream_matches_E_differences(profiles):
    for name in ("cheb", "nu4", "nu5"):
        p = profiles[name]
        stream = jump_stream(p, 2 * p.period)
        deltas = np.zeros(2 * p.period + 1, dtype=np.int64)
        for j in stream:
            deltas[j.position] += j.sign
        rebuilt = np.cumsum(deltas[1:])
        assert np.array_equal(rebuilt, p.values_at(np.arange(1, 2 * p.period + 1)))


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
    assert all(n / m < 1.2 for m, n in sel.dropped_pairs)
    assert all(n / m >= 1.2 for m, n in sel.kept_pairs)


def test_exclude_removes_pair(profiles):
    p = profiles["nu6"]
    base = select_terms(p, "lower", 1.1)
    assert (281, 310) in base.kept_pairs
    excl = select_terms(p, "lower", 1.1, exclude=((281, 310),))
    assert (281, 310) not in excl.kept_pairs
    assert (281, 310) in excl.dropped_pairs


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
        dropped_pairs=(),
        standalones=(),
        scan_end=sel.scan_end,
    )
    with pytest.raises(DominationError):
        selection_step_function(bad, p)
    report = selection_step_function(bad, p, strict=False)
    assert not report.ok and report.witness_x is not None


def test_selection_coefficients_exact(profiles):
    p = profiles["nu4"]
    sel = select_terms(p, "lower", 1.5)
    coef = selection_coefficients(sel)
    assert coef.coef_a == Fraction(1, 7)
    assert coef.coef_b == Fraction(1, 12)


def test_selection_rows_statuses(profiles):
    p = profiles["nu4"]
    rows = selection_rows(select_terms(p, "lower", 1.5))
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


def _brute_force(p, side, rho, scan_end, max_index=None, exclude=()):
    """Stack-match jump_stream(p, scan_end + 2P) directly and filter by ratio."""
    open_sign = 1 if side == "lower" else -1
    leading = [(1, 1)] + ([(p.n, -1)] if side == "lower" else [])
    stack, pairs, alone = [], [], []
    for j in jump_stream(p, scan_end + 2 * p.period):
        if (j.position, j.sign) in leading:
            leading.remove((j.position, j.sign))
        elif j.sign == open_sign:
            stack.append(j.position)
        elif stack:
            pairs.append((stack.pop(), j.position))
        else:
            alone.append(j.position)

    def in_range(x):
        return max_index is None or x <= max_index

    scanned = sorted(pr for pr in pairs if pr[1] <= scan_end)
    kept = [pr for pr in scanned if pr[1] / pr[0] >= rho and pr not in exclude and in_range(pr[0])]
    dropped = sorted(set(scanned) - set(kept))
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
    assert list(sel.dropped_pairs) == dropped
    assert list(sel.standalones) == standalones
    # no pair past the scan reaches rho; the scan stops at the steady period
    # or right after the last period holding a pair above rho
    end, period = sel.scan_end, p.period
    assert end % period == 0
    assert all(n / m < rho for m, n in pairs if n > end)
    assert all(n / m <= rho for m, n in pairs if end - period < n <= end)
    assert end == pair_pattern(p, side).steady_period * period or any(
        n / m > rho for m, n in pairs if end - 2 * period < n <= end - period
    )


def test_rho_near_one_exceeds_the_pair_cap(profiles):
    # about 5 * 10^5 kept pairs: refused before any pair is enumerated
    with pytest.raises(CapacityError):
        select_terms(profiles["nu1"], "lower", 1.000001)
