import json
import math
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from chebsylv import (
    BUILTINS,
    CapacityError,
    OutOfRangeError,
    build_recurrence,
    constant_A,
    e_profile,
    fixed_point,
    optimize_rho,
    select_terms,
    sweep_rho,
)
from chebsylv.cli import main
from chebsylv.selection import _simplest_fraction
from chebsylv.sweep import MAX_GRID_POINTS, SweepRow, _label, _self_consistent, _table
from oracles import fraction_fixed_point, optimize_windows, plateau_walk


def test_sweep_grid_size_and_order():
    rows = sweep_rho(BUILTINS["nu4"], 1.1, 1.6, 0.05)
    assert len(rows) == 11
    assert rows[0].rho == pytest.approx(1.1)
    assert rows[-1].rho == pytest.approx(1.6)
    assert all(r2.rho > r1.rho for r1, r2 in zip(rows, rows[1:]))


def _breakpoint_rhos(p, rho_min, count):
    """rho on each side of `count` kept ratios n/m spread over [rho_min, inf):
    at n/m the pair is kept, one float above it it is dropped."""
    sels = [select_terms(p, side, rho_min) for side in ("lower", "upper")]
    ratios = sorted({n / m for sel in sels for m, n in sel.kept_pairs})
    picks = [ratios[i * (len(ratios) - 1) // (count - 1)] for i in range(count)]
    return [rho for r in picks for rho in (r, math.nextafter(r, math.inf))]


def _assert_rows_exact(s, p, rows, exclude=()):
    """Each row equals, float for float, the Fraction-arithmetic fixed point of
    its rho's own selections."""
    a_const = constant_A(s)
    for row in rows:
        lower = select_terms(p, "lower", row.rho, exclude=exclude)
        upper = select_terms(p, "upper", row.rho, exclude=exclude)
        rec = build_recurrence(lower, upper, a_const, p.n)
        exact = fraction_fixed_point(rec)
        lam1, lam2 = (abs(e) if isinstance(e, complex) else e for e in exact.eigenvalues)
        floats = (exact.a_limit, exact.b_limit, exact.ratio, lam1, lam2)
        assert (row.a_limit, row.b_limit, row.ratio, row.lambda1, row.lambda2) == floats
        assert row.ratio == fixed_point(rec).ratio
        assert row.converges == exact.converges
        assert (row.n_lower_terms, row.n_upper_terms) == (lower.n_terms, upper.n_terms)


def test_sweep_rows_match_exact_iteration(profiles):
    windows = {"nu4": (1.2, 1.6, 0.1), "cheb": (1.05, 2.0, 0.05), "nu6": (1.05, 1.6, 0.05)}
    rows = {name: sweep_rho(BUILTINS[name], *window) for name, window in windows.items()}
    for name, rho_min in (("nu7", 1.06), ("nu8", 1.04)):
        # one rising pass over both sides of four kept ratios: each row one
        # float above a ratio takes that ratio's pairs off the sums
        rhos = _breakpoint_rhos(profiles[name], rho_min, 4)
        rows[name] = list(_table(BUILTINS[name], rho_min, ())[1](rhos))
        kept, dropped = rows[name][::2], rows[name][1::2]
        assert all(
            a.n_lower_terms + a.n_upper_terms > b.n_lower_terms + b.n_upper_terms
            for a, b in zip(kept, dropped)
        )
    for name, name_rows in rows.items():
        _assert_rows_exact(BUILTINS[name], profiles[name], name_rows)


# the acceptance suite's nu6 exclusions, ratios 310/281 = 1.103 and 493/440 = 1.120
NU6_EXCLUSIONS = ((281, 310), (440, 493))


def test_sweep_and_optimum_with_exclusions_match_exact_iteration(profiles):
    s, p = BUILTINS["nu6"], profiles["nu6"]
    rows = sweep_rho(s, 1.05, 1.3, 0.01, exclude=NU6_EXCLUSIONS)
    _assert_rows_exact(s, p, rows, NU6_EXCLUSIONS)
    # the exclusions take terms off the rows below both ratios
    plain = sweep_rho(s, 1.05, 1.3, 0.01)
    assert any(r.n_lower_terms + r.n_upper_terms < q.n_lower_terms + q.n_upper_terms
               for r, q in zip(rows, plain))
    result = optimize_rho(s, 1.05, 1.3, 0.01, exclude=NU6_EXCLUSIONS)
    _assert_rows_exact(s, p, [result.best_a, result.best_b, result.best_ratio], NU6_EXCLUSIONS)


def _assert_matches_plateau_walk(result, s, rho_min, rho_max, step):
    """The optimum has the best a, b and b/a of every plateau of the window, and
    finds the best a and the best b at the rho the walk finds them."""
    walk_a, walk_b, walk_ratio = plateau_walk(s, rho_min, rho_max, step)
    assert (result.best_a.rho, result.best_a.a_limit, result.best_a.b_limit) == walk_a
    assert (result.best_b.rho, result.best_b.a_limit, result.best_b.b_limit) == walk_b
    best, (_, a, b) = result.best_ratio, walk_ratio  # best.rho moved along its plateau
    assert (best.a_limit, best.b_limit, best.ratio) == (a, b, b / a)


# the 60 optimize windows of the benchmark's seeds 1, 2 and 3
SEEDED_WINDOWS = [w for seed in (1, 2, 3) for w in optimize_windows(seed)]


@pytest.mark.parametrize("name, rho_min, rho_max, step", SEEDED_WINDOWS)
def test_optimum_matches_the_plateau_walk(name, rho_min, rho_max, step):
    s = BUILTINS[name]
    _assert_matches_plateau_walk(optimize_rho(s, rho_min, rho_max, step), s, rho_min, rho_max, step)


@pytest.mark.parametrize(
    "name, rho_min, rho_max, step",
    [
        ("nu2", 1.08, 1.18, 0.02),  # refining past rho_max gave rho = 1.2 for all three
        ("cheb", 1.02, 1.1, 0.02),
        ("nu4", 1.1, 1.3, 0.02),
        ("nu5", 1.3, 1.5, 0.01),
        ("nu6", 1.05, 1.25, 0.02),
        ("nu7", 1.08, 1.13, 0.005),
        ("nu8", 1.02, 1.12, 0.02),
        # the best grid plateau runs from 1.3377 to 1.5, and the better one
        # from 1.5 lies past the last grid point, 1.4877
        ("nu1", 1.3377, 1.5284, 0.05),
    ],
)
def test_optimum_stays_in_the_window(profiles, name, rho_min, rho_max, step):
    s, p = BUILTINS[name], profiles[name]
    result = optimize_rho(s, rho_min, rho_max, step)
    _assert_matches_plateau_walk(result, s, rho_min, rho_max, step)
    best = (result.best_a, result.best_b, result.best_ratio)
    for row in best:
        # grid points may pass rho_max by float rounding (rho_min + i * step)
        assert rho_min <= row.rho <= rho_max + 1e-9
    _assert_rows_exact(s, p, best)
    # no better row on a grid eight times finer, each of whose rows is exact
    fine = sweep_rho(s, rho_min, rho_max, step / 8)
    _assert_rows_exact(s, p, fine)
    fine = [r for r in fine if r.converges and r.a_limit > 0]
    assert result.best_a.a_limit >= max(r.a_limit for r in fine)
    assert result.best_b.b_limit <= min(r.b_limit for r in fine)
    assert result.best_ratio.ratio <= min(r.ratio for r in fine)
    # the ratio optimum sits at b/a when b/a lies on its plateau, at the plateau's
    # top when b/a lies above it (the least kept ratio, or the window's end), and
    # where it was found when b/a lies below it, on a plateau of more terms
    ratio = result.best_ratio
    kept = (select_terms(p, side, ratio.rho).kept_pairs for side in ("lower", "upper"))
    top = min((n / m for pairs in kept for m, n in pairs), default=math.inf)
    top = min(top, max(rho_max, sweep_rho(s, rho_min, rho_max, step)[-1].rho))
    if ratio.ratio > top:
        assert ratio.rho in (top, _label(top))
    elif ratio.rho != ratio.ratio:
        terms = sum(select_terms(p, side, ratio.ratio).n_terms for side in ("lower", "upper"))
        assert ratio.ratio < rho_min or terms > ratio.n_lower_terms + ratio.n_upper_terms
    # each optimum's rho printed to 12 digits keeps the terms the row reports
    _assert_rows_exact(s, p, [replace(row, rho=float(f"{row.rho:.12g}")) for row in best])


def test_label_prints_as_itself_at_or_below():
    # 1144/1049 = 1.0905624404194...: the nearest 12-digit decimal, 1.09056244042, lies above
    for rho, label in ((1144 / 1049, 1.09056244041), (1.3, 1.3), (1.2000000000000002, 1.2)):
        assert _label(rho) == label <= rho
        assert float(f"{label:.12g}") == label


def test_self_consistent_rho_stays_on_its_plateau():
    # the window [1.05, 1.5] and the plateaus [1.05, 1.1], (1.1, top] and (top, inf)
    row = SweepRow(1.2, 0.9, 1.0, 1.0, 0.1, 0.2, 10, 10, True)
    for top, b_over_a, rho in [
        (1.3, 1.25, 1.25),  # b/a on the plateau
        (1.3, 1.3, 1.3),
        (1.3, 1.4, 1.3),  # b/a above it: the plateau's top
        (1.3, 1.6, 1.3),  # b/a past the window
        (1.3, 1.05, 1.2),  # b/a on a lower plateau: the row stays
        (1.3, 1.0, 1.2),  # b/a below the window
        # the top and a b/a just under it print as 1.3, on the plateau above
        (1.29999999999995, 1.4, 1.29999999999),
        (1.29999999999995, 1.29999999999994, 1.29999999999),
    ]:
        moved = _self_consistent(replace(row, ratio=b_over_a), [1.1, top, math.inf], 1.05, 1.5)
        assert moved.rho == rho


def test_float_ratios_order_as_exact_fractions(profiles):
    # the sweep orders kept pairs by the float n / m: exact when n / m is the
    # simplest fraction that rounds to it, the rho _select reads from that float
    cases = [(name, 1.02) for name in BUILTINS] + [("nu8", 1.0003)]
    for name, rho in cases:
        for side in ("lower", "upper"):
            for m, n in select_terms(profiles[name], side, rho).kept_pairs:
                assert _simplest_fraction(n / m) == Fraction(n, m)


def test_term_counts_nonincreasing_in_rho():
    for name in ("cheb", "nu4", "nu5", "nu6"):
        rows = sweep_rho(BUILTINS[name], 1.05, 2.0, 0.05)
        for r1, r2 in zip(rows, rows[1:]):
            assert r2.n_lower_terms <= r1.n_lower_terms
            assert r2.n_upper_terms <= r1.n_upper_terms


def test_sweep_input_validation():
    with pytest.raises(ValueError):
        sweep_rho(BUILTINS["nu4"], 1.5, 1.2, 0.01)
    with pytest.raises(ValueError):
        sweep_rho(BUILTINS["nu4"], 1.1, 1.5, 0.0)
    with pytest.raises(ValueError):
        sweep_rho(BUILTINS["nu4"], 0.9, 1.5, 0.01)


@pytest.mark.parametrize(
    "rho_min, rho_max, step",
    [
        (1.1, math.inf, 0.1),
        (1.1, math.nan, 0.1),
        (math.nan, 1.5, 0.1),
        (1.1, 1.5, math.nan),
        (1.1, 1.5, math.inf),
    ],
)
def test_sweep_rejects_non_finite_grid(rho_min, rho_max, step):
    with pytest.raises(OutOfRangeError):
        sweep_rho(BUILTINS["nu4"], rho_min, rho_max, step)


def test_sweep_grid_point_cap():
    # 4e299 points: refused from the count, before any list is built
    with pytest.raises(CapacityError, match="grid points"):
        sweep_rho(BUILTINS["nu4"], 1.1, 1.5, 1e-300)
    with pytest.raises(CapacityError):  # a point count far past any float
        sweep_rho(BUILTINS["nu4"], 1.1, 1e308, 1e-300)
    # (1.5 - 1.1) / 0.000004 is exactly 10^5 steps, so 10^5 + 1 points
    with pytest.raises(CapacityError, match="grid points"):
        optimize_rho(BUILTINS["nu4"], 1.1, 1.5, 0.000004)
    rows = sweep_rho(BUILTINS["nu4"], 1.1, 1.499996, 0.000004)
    assert len(rows) == MAX_GRID_POINTS


def test_fine_decimal_grid_reaches_rho_max(capsys):
    # the float quotient (rho_max - rho_min) / step is 9.99999999..., one step short
    nu4 = BUILTINS["nu4"]
    assert (1.3500002 - 1.35) / 2e-8 < 10 - 1e-9
    rows = sweep_rho(nu4, 1.35, 1.3500002, 2e-8)
    assert len(rows) == 11
    assert rows[-1].rho == pytest.approx(1.3500002, rel=1e-15)
    argv = "sweep nu4 --rho-min 1.35 --rho-max 1.3500002 --step 2e-8"
    assert main(argv.split()) == 0
    printed = json.loads(capsys.readouterr().out)["rows"]
    assert len(printed) == 11
    assert printed[-1]["rho"] == 1.3500002


def test_sweep_solve_budget(monkeypatch):
    nu8 = BUILTINS["nu8"]
    start = time.perf_counter()  # 11,154 plateaus of 1.1e8 pairs: about 3 minutes of solves
    with pytest.raises(CapacityError, match="pairs to solve"):
        sweep_rho(nu8, 1.0003, 1.0012, 1e-8)
    assert time.perf_counter() - start < 2
    assert len(sweep_rho(nu8, 1.0003, 1.0013, 1e-5)) == 101  # 742,813 pairs
    # the budget is on the kept pairs of both sides summed over the distinct plateaus
    p4 = e_profile(BUILTINS["nu4"])
    plateaus = {
        tuple(len(select_terms(p4, side, 1.1 + i * 0.1).kept_pairs) for side in ("lower", "upper"))
        for i in range(5)
    }
    kept = sum(map(sum, plateaus))
    monkeypatch.setattr("chebsylv.sweep.MAX_SOLVED_PAIRS", kept - 1)
    with pytest.raises(CapacityError, match="pairs to solve"):
        sweep_rho(BUILTINS["nu4"], 1.1, 1.5, 0.1)
    monkeypatch.setattr("chebsylv.sweep.MAX_SOLVED_PAIRS", kept)
    assert len(sweep_rho(BUILTINS["nu4"], 1.1, 1.5, 0.1)) == 5


def test_optimize_cheb_matches_published_optimum():
    result = optimize_rho(BUILTINS["cheb"], 1.02, 2.0, 0.005)
    best = result.best_ratio
    assert best.a_limit == pytest.approx(0.9226, abs=1e-4)
    assert best.b_limit == pytest.approx(1.0766, abs=1e-4)
    assert result.residual <= 0.05


def test_optimize_objectives_are_consistent():
    result = optimize_rho(BUILTINS["nu5"], 1.05, 1.6, 0.01)
    assert result.best_a.a_limit >= result.best_ratio.a_limit - 1e-12
    assert result.best_b.b_limit <= result.best_ratio.b_limit + 1e-12
    assert result.best_ratio.ratio <= result.best_a.ratio + 1e-12
    assert result.best_ratio.ratio <= result.best_b.ratio + 1e-12


def test_optimum_kept_pairs_clear_the_ratio(profiles):
    # every kept pair at the optimum improves the bound: n/m >= optimal b/a,
    # up to one grid step of slack
    result = optimize_rho(BUILTINS["cheb"], 1.02, 2.0, 0.005)
    best = result.best_ratio
    p = profiles["cheb"]
    for side in ("lower", "upper"):
        sel = select_terms(p, side, best.rho)
        for m, n in sel.kept_pairs:
            assert n / m >= best.ratio - 0.005


def test_optimize_requires_converging_points():
    with pytest.raises(ValueError):
        # range pinned below any usable threshold: every grid point keeps so
        # many terms that nothing converges for nu8 below 1.001
        optimize_rho(BUILTINS["nu1"], 1.000001, 1.000002, 0.000001)
