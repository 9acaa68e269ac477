import math

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
from chebsylv.sweep import MAX_GRID_POINTS, _row_maker


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
    """Each row equals the exact fixed point of its rho's own selections."""
    a_const = constant_A(s)
    for row in rows:
        lower = select_terms(p, "lower", row.rho, exclude=exclude)
        upper = select_terms(p, "upper", row.rho, exclude=exclude)
        exact = fixed_point(build_recurrence(lower, upper, a_const, p.n))
        assert row.a_limit == exact.a_limit
        assert row.b_limit == exact.b_limit
        assert row.converges == exact.converges
        assert (row.n_lower_terms, row.n_upper_terms) == (lower.n_terms, upper.n_terms)


def test_sweep_rows_match_exact_iteration(profiles):
    windows = {"nu4": (1.2, 1.6, 0.1), "cheb": (1.05, 2.0, 0.05), "nu6": (1.05, 1.6, 0.05)}
    rows = {name: sweep_rho(BUILTINS[name], *window) for name, window in windows.items()}
    for name, rho_min in (("nu7", 1.06), ("nu8", 1.04)):
        # rows asked for out of order, so that a new count's exact sums are
        # cut back from a larger count summed before, not only the full one
        rhos = _breakpoint_rhos(profiles[name], rho_min, 4)
        make_row = _row_maker(BUILTINS[name], rho_min, ())
        rows[name] = [make_row(rho) for rho in rhos[::2] + rhos[1::2]]
        kept, dropped = rows[name][: len(rhos) // 2], rows[name][len(rhos) // 2 :]
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
    ],
)
def test_optimum_stays_in_the_window(name, rho_min, rho_max, step):
    result = optimize_rho(BUILTINS[name], rho_min, rho_max, step)
    for row in (result.best_a, result.best_b, result.best_ratio):
        # grid points may pass rho_max by float rounding (rho_min + i * step)
        assert rho_min <= row.rho <= rho_max + 1e-9


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
    with pytest.raises(CapacityError):  # the point count overflows to inf
        sweep_rho(BUILTINS["nu4"], 1.1, 1e308, 1e-300)
    with pytest.raises(CapacityError):
        optimize_rho(BUILTINS["nu4"], 1.1, 1.5, 0.4 / MAX_GRID_POINTS)
    rows = sweep_rho(BUILTINS["nu4"], 1.1, 1.5, 0.4 / (MAX_GRID_POINTS - 1))
    assert len(rows) == MAX_GRID_POINTS


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
