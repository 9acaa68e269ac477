import math
import re
from fractions import Fraction

import pytest

from chebsylv import (
    BUILTINS,
    CapacityError,
    IterationError,
    OutOfRangeError,
    build_recurrence,
    constant_A,
    e_profile,
    fixed_point,
    iterate,
    parse_scheme,
    select_terms,
)
from chebsylv.iteration import MAX_STEPS, AffineRecurrence
from oracles import fraction_fixed_point


def _recurrence(profiles, name, rho, exclude=()):
    p = profiles[name]
    lower = select_terms(p, "lower", rho, exclude=exclude)
    upper = select_terms(p, "upper", rho, exclude=exclude)
    return build_recurrence(lower, upper, constant_A(BUILTINS[name]), p.n)


def test_nu4_rho_15_exact_fixed_point(profiles):
    result = fixed_point(_recurrence(profiles, "nu4", 1.5))
    assert result.alpha == Fraction(4242, 5391)
    assert result.beta == Fraction(6380, 5391)
    assert result.converges
    lam1, lam2 = sorted(result.eigenvalues, key=lambda z: z.real)
    assert lam1.real == pytest.approx(-0.0924, abs=1e-3)
    assert lam2.real == pytest.approx(0.3591, abs=1e-3)


def test_cheb_rho_12_exact_fixed_point(profiles):
    result = fixed_point(_recurrence(profiles, "cheb", 1.2))
    assert result.alpha == Fraction(51072, 50999)
    assert result.beta == Fraction(59595, 50999)
    lam1, lam2 = sorted(result.eigenvalues, key=lambda z: z.real)
    assert lam1.real == pytest.approx(-0.0054, abs=1e-3)
    assert lam2.real == pytest.approx(0.1671, abs=1e-3)


def test_recurrence_matrix_entries_nu4_15(profiles):
    rec = _recurrence(profiles, "nu4", 1.5)
    assert rec.m11 == Fraction(1, 6)  # upper pair opens at 6
    assert rec.m12 == -(Fraction(1, 11) + Fraction(1, 5))
    assert rec.m21 == -Fraction(6, 5) * Fraction(1, 7)
    assert rec.m22 == Fraction(6, 5) * Fraction(1, 12)


def test_iterate_trace_converges_to_fixed_point(profiles):
    rec = _recurrence(profiles, "nu5", 1.2)
    result = fixed_point(rec)
    trace = iterate(rec, constant_A(BUILTINS["nu5"]), 2.0, 60)
    assert trace[0] == (0, constant_A(BUILTINS["nu5"]), 2.0)
    _, a, b = trace[-1]
    assert a == pytest.approx(result.a_limit, abs=1e-10)
    assert b == pytest.approx(result.b_limit, abs=1e-10)


def test_iterate_step_matches_affine_map(profiles):
    rec = _recurrence(profiles, "nu4", 1.3)
    trace = iterate(rec, 1.0, 1.5, 2)
    _, a1, b1 = trace[1]
    assert a1 == pytest.approx(
        rec.c1 + float(rec.m11) * 1.0 + float(rec.m12) * 1.5, abs=1e-14
    )
    assert b1 == pytest.approx(
        rec.c2 + float(rec.m21) * 1.0 + float(rec.m22) * 1.5, abs=1e-14
    )


def test_convergence_exact_jury_agrees_with_eigenvalues(profiles):
    for name in ("cheb", "nu4", "nu5", "nu6"):
        for rho in (1.2, 1.5):
            rec = _recurrence(profiles, name, rho)
            fp = fixed_point(rec)
            eigs, stable = fp.eigenvalues, fp.converges
            assert stable == (max(abs(z) for z in eigs) < 1)


def test_hybrid_same_scheme_reduces_to_single(profiles):
    p = profiles["nu4"]
    a_const = constant_A(BUILTINS["nu4"])
    lower = select_terms(p, "lower", 1.5)
    upper = select_terms(p, "upper", 1.5)
    single = fixed_point(build_recurrence(lower, upper, a_const, p.n))
    hybrid = fixed_point(build_recurrence(lower, upper, a_const, p.n, upper_A=a_const))
    assert hybrid.alpha == single.alpha
    assert hybrid.beta == single.beta


def test_true_hybrid_has_no_exact_rationals(profiles):
    up7 = select_terms(profiles["nu7"], "upper", 1.1)
    lo6 = select_terms(profiles["nu6"], "lower", 1.1)
    rec = build_recurrence(
        lo6,
        up7,
        constant_A(BUILTINS["nu6"]),
        profiles["nu6"].n,
        upper_A=constant_A(BUILTINS["nu7"]),
    )
    assert rec.upper_A != rec.lower_A
    result = fixed_point(rec)
    assert result.alpha is None and result.beta is None
    assert 0.9 < result.a_limit < result.b_limit < 1.1
    assert result.ratio == result.b_limit / result.a_limit


def test_ratio_is_inf_where_a_is_zero():
    s = parse_scheme("1:1,2:-2,11:1,22:-2")
    p = e_profile(s)
    lower, upper = (select_terms(p, side, 1.5) for side in ("lower", "upper"))
    result = fixed_point(build_recurrence(lower, upper, constant_A(s), p.n))
    assert result.a_limit == 0 and result.b_limit > 0
    assert result.ratio == math.inf


def test_side_mismatch_rejected(profiles):
    p = profiles["nu4"]
    lower = select_terms(p, "lower", 1.5)
    upper = select_terms(p, "upper", 1.5)
    with pytest.raises(IterationError):
        build_recurrence(upper, lower, 1.0, p.n)
    with pytest.raises(IterationError):
        build_recurrence(upper, lower, 1.0, p.n, upper_A=1.0)


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "1e400"]
)
def test_build_recurrence_refuses_a_constant_past_the_floats(profiles, bad):
    p = profiles["nu4"]
    lower, upper = (select_terms(p, side, 1.3) for side in ("lower", "upper"))
    a4 = constant_A(BUILTINS["nu4"])
    for A, upper_A in ((bad, None), (bad, a4), (a4, bad)):
        with pytest.raises(OutOfRangeError, match="finite"):
            build_recurrence(lower, upper, A, p.n, upper_A=upper_A)


def test_iterate_rejects_negative_steps(profiles):
    rec = _recurrence(profiles, "nu4", 1.5)
    with pytest.raises(ValueError):
        iterate(rec, 1.0, 1.2, -1)


def test_iterate_step_cap(profiles):
    rec = _recurrence(profiles, "nu4", 1.5)
    assert len(iterate(rec, 1.0, 1.2, MAX_STEPS)) == MAX_STEPS + 1
    for steps in (MAX_STEPS + 1, 10**8):  # refused before any step is taken
        with pytest.raises(CapacityError, match="steps"):
            iterate(rec, 1.0, 1.2, steps)


def _assert_as_oracle(rec):
    """fixed_point equals the Fraction-arithmetic solve, every float to the sign of zero."""
    result, oracle = fixed_point(rec), fraction_fixed_point(rec)
    assert result == oracle
    floats = [(r.a_limit, r.b_limit, *r.eigenvalues) for r in (result, oracle)]
    assert [repr(v) for v in floats[0]] == [repr(v) for v in floats[1]]
    return result


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_fixed_point_equals_fraction_solve(profiles, name):
    results = [_assert_as_oracle(_recurrence(profiles, name, rho))
               for rho in (1.05, 1.1, 1.2, 1.3, 1.5, 2.0)]
    # diverging cases included: every built-in but nu6, nu7 and nu8 diverges at 1.05
    assert results[0].converges == (name in ("nu6", "nu7", "nu8"))


def test_fixed_point_equals_fraction_solve_off_the_builtin_path(profiles):
    _assert_as_oracle(_recurrence(profiles, "nu6", 1.05, exclude=((281, 310), (440, 493))))
    # criterion 5's hybrid (two growth constants) and truncated recurrences
    up7 = select_terms(profiles["nu7"], "upper", 1.1)
    lo6 = select_terms(profiles["nu6"], "lower", 1.1)
    a6, a7 = constant_A(BUILTINS["nu6"]), constant_A(BUILTINS["nu7"])
    hybrid = _assert_as_oracle(build_recurrence(lo6, up7, a6, profiles["nu6"].n, upper_A=a7))
    assert hybrid.alpha is None
    lo7t = select_terms(profiles["nu7"], "lower", 1.1, max_index=616)
    _assert_as_oracle(build_recurrence(lo7t, up7, a7, profiles["nu7"].n, upper_A=a7))
    # near the pair cap: 8,340 kept pairs a side, denominators of about 10^5 bits
    _assert_as_oracle(_recurrence(profiles, "nu8", 1.0003))


def test_fixed_point_hand_built_edges():
    f = Fraction
    # det(I - M) = -2 < 0 and alpha = 0: a_limit is 0.0, not -0.0
    rec = AffineRecurrence(f(3), f(-1, 2), f(0), f(0), f(2), 1.0, 1.0)
    result = _assert_as_oracle(rec)
    assert result.alpha == 0 and math.copysign(1, result.a_limit) == 1
    # the hybrid form of the same, with the float constants taken as exact
    _assert_as_oracle(AffineRecurrence(f(3), f(-1, 2), f(0), f(0), f(2), 0.1, 0.3))
    # I - M singular: both solves refuse it
    singular = AffineRecurrence(f(1, 2), f(-1, 3), f(-3, 4), f(1, 2), f(3, 2), 1.0, 1.0)
    for solve in (fixed_point, fraction_fixed_point):
        with pytest.raises(IterationError, match="singular"):
            solve(singular)


def test_iterate_refuses_non_finite_start(profiles):
    rec = _recurrence(profiles, "nu4", 1.3)
    for a0, b0 in ((math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(OutOfRangeError, match="finite"):
            iterate(rec, a0, b0, 3)


def test_iterate_names_the_step_that_leaves_the_floats(profiles):
    rec = _recurrence(profiles, "nu4", 1.05)
    assert max(abs(z) for z in fixed_point(rec).eigenvalues) > 1.8  # diverging
    with pytest.raises(IterationError, match="at step") as info:
        iterate(rec, 1.0, 1.2, MAX_STEPS)
    step = int(re.search(r"at step (\d+)", str(info.value)).group(1))
    assert all(math.isfinite(v) for v in iterate(rec, 1.0, 1.2, step - 1)[-1][1:])
    with pytest.raises(IterationError, match=f"at step {step}:"):
        iterate(rec, 1.0, 1.2, step)
