"""Acceptance suite: one test per criterion, summarized at the end of the run."""

from fractions import Fraction

import pytest

from chebsylv import (
    BUILTINS,
    base_bounds,
    build_recurrence,
    check_convolution_identities,
    constant_A,
    fixed_point,
    lcm_identity_check,
    optimize_rho,
    select_terms,
    selection_step_function,
    sweep_rho,
    verify_V_identities,
    verify_final_bounds,
    verify_selection_bounds,
)

NAMES = ("cheb", "nu1", "nu2", "nu3", "nu4", "nu5", "nu6", "nu7", "nu8")

# (scheme, rho) pairs whose selections and limits appear explicitly in the
# worked examples; nu6 additionally appears with two historical pair exclusions
LISTED_PAIRS = (
    ("nu4", 1.5),
    ("nu4", 1.3),
    ("cheb", 1.2),
    ("nu5", 1.2),
    ("nu6", 1.1),
    ("nu6", 1.105),
    ("nu7", 1.113),
    ("nu8", 1.09),
)
NU6_EXCLUSIONS = ((281, 310), (440, 493))


def _limits(profiles, name, rho, exclude=()):
    p = profiles[name]
    lower = select_terms(p, "lower", rho, exclude=exclude)
    upper = select_terms(p, "upper", rho, exclude=exclude)
    rec = build_recurrence(lower, upper, constant_A(BUILTINS[name]), p.n)
    result = fixed_point(rec)
    return result


def test_criterion_01_constants_table(profiles):
    expected = {
        # name: (A, A_prime, B) -- None where the bound does not exist
        "cheb": (0.92129, None, None),
        "nu1": (0.6931, None, 1.3862),
        "nu2": (0.7803, None, 1.1705),
        "nu3": (0.8522, None, 1.1363),
        "nu4": (1.0114, 0.7686, 1.2136),
        "nu5": (0.9675, 0.8992, 1.1610),
        "nu6": (0.9787, 0.8951, 1.0875),
    }
    for name, (a, a_prime, b) in expected.items():
        bb = base_bounds(BUILTINS[name], profiles[name])
        assert bb.A == pytest.approx(a, abs=1e-3), name
        if a_prime is not None:
            assert bb.A_prime == pytest.approx(a_prime, abs=1e-3), name
        if b is not None:
            assert bb.B == pytest.approx(b, abs=1e-3), name
    factors = {"nu4": Fraction(19, 25), "nu5": Fraction(79, 85), "nu6": Fraction(107, 117)}
    b_factors = {"nu4": Fraction(6, 5), "nu5": Fraction(6, 5), "nu6": Fraction(10, 9)}
    for name in factors:
        bb = base_bounds(BUILTINS[name], profiles[name])
        assert bb.a_prime_factor == factors[name], name
        assert bb.b_factor == b_factors[name], name


def test_criterion_02_eprofile_metrics(profiles):
    periods = dict(zip(NAMES, (30, 2, 6, 12, 6, 30, 210, 2310, 30030)))
    n_values = dict(zip(NAMES, (6, 2, 3, 4, 6, 6, 10, 15, 15)))
    m_values = {"nu4": 5, "nu5": 17, "nu6": 13}
    for name in NAMES:
        p = profiles[name]
        assert p.period == periods[name], name
        assert p.n == n_values[name], name
    for name, m in m_values.items():
        assert profiles[name].m == m, name
    assert profiles["nu7"].first_occurrence[2] == 13
    assert profiles["nu7"].first_occurrence[-1] == 105
    assert profiles["nu7"].first_occurrence[-2] == 616
    assert profiles["nu8"].first_occurrence[2] == 19
    assert profiles["nu8"].first_occurrence[-1] == 66
    assert profiles["nu8"].first_occurrence[3] == 229
    assert profiles["nu8"].first_occurrence[4] == 1891


def test_criterion_03_selection_replication(profiles):
    p4, pc, p5 = profiles["nu4"], profiles["cheb"], profiles["nu5"]

    lower = select_terms(p4, "lower", 1.5)
    upper = select_terms(p4, "upper", 1.5)
    assert lower.leading_n == 6
    assert lower.kept_pairs == ((7, 12),)
    assert upper.kept_pairs == ((6, 11),)
    assert upper.standalones == (5,)

    lower13 = select_terms(p4, "lower", 1.3)
    upper13 = select_terms(p4, "upper", 1.3)
    assert set(lower13.kept_pairs) == {(7, 12), (13, 18)}
    assert set(upper13.kept_pairs) == {(6, 11), (12, 17)}

    lower_c = select_terms(pc, "lower", 1.2)
    upper_c = select_terms(pc, "upper", 1.2)
    assert lower_c.leading_n == 6
    assert lower_c.kept_pairs == ((7, 10),)
    assert upper_c.kept_pairs == ((24, 29),)

    lower5 = select_terms(p5, "lower", 1.2)
    upper5 = select_terms(p5, "upper", 1.2)
    assert lower5.kept_pairs == ((7, 10), (13, 30), (43, 60), (73, 90))
    assert upper5.kept_pairs == ((24, 29), (30, 47), (60, 77))
    assert upper5.standalones == (17,)


def test_criterion_04_exact_fixed_points(profiles):
    r4 = _limits(profiles, "nu4", 1.5)
    assert r4.alpha == Fraction(4242, 5391)
    assert r4.beta == Fraction(6380, 5391)
    lam1, lam2 = sorted(r4.eigenvalues, key=lambda z: z.real)
    assert lam1.real == pytest.approx(-0.0924, abs=1e-3)
    assert lam2.real == pytest.approx(0.3591, abs=1e-3)

    rc = _limits(profiles, "cheb", 1.2)
    assert rc.alpha == Fraction(51072, 50999)
    assert rc.beta == Fraction(59595, 50999)
    lam1, lam2 = sorted(rc.eigenvalues, key=lambda z: z.real)
    assert lam1.real == pytest.approx(-0.0054, abs=1e-3)
    assert lam2.real == pytest.approx(0.1671, abs=1e-3)


def test_criterion_05_iterated_limits(profiles):
    r5 = _limits(profiles, "nu5", 1.2)
    assert r5.a_limit == pytest.approx(0.9119, abs=1e-4)
    assert r5.b_limit == pytest.approx(1.0909, abs=1e-4)
    assert r5.b_limit / r5.a_limit == pytest.approx(1.1963, abs=1e-4)

    r6x = _limits(profiles, "nu6", 1.1, exclude=NU6_EXCLUSIONS)
    assert r6x.a_limit == pytest.approx(0.941854, abs=1e-4)
    assert r6x.b_limit == pytest.approx(1.056726, abs=1e-4)

    r6 = _limits(profiles, "nu6", 1.1)
    assert r6.a_limit == pytest.approx(0.941806, abs=1e-4)
    assert r6.b_limit == pytest.approx(1.056825, abs=1e-4)

    r6b = _limits(profiles, "nu6", 1.105)
    assert r6b.a_limit == pytest.approx(0.944462, abs=1e-4)
    assert r6b.b_limit == pytest.approx(1.055800, abs=1e-4)

    r7 = _limits(profiles, "nu7", 1.113)
    assert r7.a_limit == pytest.approx(0.946585, abs=1e-4)
    assert r7.b_limit == pytest.approx(1.054309, abs=1e-4)

    r8 = _limits(profiles, "nu8", 1.09)
    assert r8.a_limit == pytest.approx(0.957600, abs=1e-4)
    assert r8.b_limit == pytest.approx(1.043521, abs=1e-4)

    up7 = select_terms(profiles["nu7"], "upper", 1.1)
    lo6 = select_terms(profiles["nu6"], "lower", 1.1)
    hyb = fixed_point(
        build_recurrence(
            lo6,
            up7,
            constant_A(BUILTINS["nu6"]),
            profiles["nu6"].n,
            upper_A=constant_A(BUILTINS["nu7"]),
        )
    )
    assert hyb.a_limit == pytest.approx(0.946197, abs=5e-4)
    assert hyb.b_limit == pytest.approx(1.055185, abs=5e-4)

    lo7t = select_terms(profiles["nu7"], "lower", 1.1, max_index=616)
    a7 = constant_A(BUILTINS["nu7"])
    trunc = fixed_point(build_recurrence(lo7t, up7, a7, profiles["nu7"].n, upper_A=a7))
    assert trunc.b_limit == pytest.approx(1.054239, abs=5e-3)

    # nu4 at rho = 1.3 (see README.md, "Tests"):
    # the published 1.5381 is the limit ratio b/a, not b itself;
    # b = 1.2079 is the exact fixed point of the displayed recurrence
    r4 = _limits(profiles, "nu4", 1.3)
    assert r4.a_limit == pytest.approx(0.7852, abs=1e-4)
    assert r4.b_limit / r4.a_limit == pytest.approx(1.5381, abs=1e-4)
    assert r4.b_limit == pytest.approx(1.2079, abs=1e-4)


def test_criterion_06_degeneration_to_base_bounds(profiles):
    # rho = 10^6 suppresses every pair; the limits must equal the one-shot
    # bounds wherever the one-shot theorem applies (E confined to [0, 2]);
    # nu7 reaches E = -2, where (A', B) are not valid bounds to begin with
    for name in NAMES:
        p = profiles[name]
        if p.e_max > 2 or p.e_min < 0:
            continue
        bb = base_bounds(BUILTINS[name], p)
        result = _limits(profiles, name, 1e6)
        assert result.a_limit == pytest.approx(bb.A_prime, rel=1e-12), name
        assert result.b_limit == pytest.approx(bb.B, rel=1e-12), name


def test_criterion_07_oracle_identity_suite(profiles, tables_10k, tables_100k):
    conv = check_convolution_identities(10**4, tables_10k)
    assert conv.passed and max(conv.max_dev_T, conv.max_dev_psi) <= 1e-6

    for name in ("cheb", "nu4", "nu8"):
        rep = verify_V_identities(BUILTINS[name], 10**4, tables_10k)
        assert rep.passed, name

    for name, rho in LISTED_PAIRS:
        p = profiles[name]
        rep = verify_selection_bounds(
            BUILTINS[name],
            select_terms(p, "lower", rho),
            select_terms(p, "upper", rho),
            10**5,
            tables_100k,
        )
        assert rep.passed, (name, rho)

    assert all(lcm_identity_check(x) for x in range(1, 51))


def test_criterion_08_step_function_domination(profiles):
    for name in NAMES:
        p = profiles[name]
        for side in ("lower", "upper"):
            for rho in (1.05, 1.1, 1.2, 1.3, 1.5, 2.0):
                sel = select_terms(p, side, rho)
                report = selection_step_function(sel, p)
                assert report.ok, (name, side, rho)


def test_criterion_09_sweep_self_consistency(profiles):
    for name in NAMES:
        hi = 1.3 if profiles[name].period > 1000 else 2.0
        result = optimize_rho(BUILTINS[name], 1.05, hi, 0.01)
        assert result.residual <= 0.05, name
        rows = sweep_rho(BUILTINS[name], 1.05, hi, 0.01)
        for r1, r2 in zip(rows, rows[1:]):
            assert r2.n_lower_terms <= r1.n_lower_terms, name
            assert r2.n_upper_terms <= r1.n_upper_terms, name


def test_criterion_10_final_bound_stabilization(tables_1m):
    good = verify_final_bounds(0.9226, 1.0765, 10**6, tables_1m)
    assert good.passed

    bad = verify_final_bounds(1.1, 1.2, 10**6, tables_1m)
    assert not bad.passed
    assert bad.witness_x is not None
