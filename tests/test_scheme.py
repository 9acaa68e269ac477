import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chebsylv import (
    BUILTINS,
    CapacityError,
    Scheme,
    SchemeError,
    base_bounds,
    cancellation_check,
    constant_A,
    e_profile,
    parse_scheme,
    render_scheme,
    resolve_scheme,
)
from chebsylv.scheme import PERIOD_CAP
from oracles import RANDOM_SCHEMES, floor_division_profile, value_at

EXPECTED_METRICS = {
    # name: (period, N, M, e_min, e_max)
    "cheb": (30, 6, None, 0, 1),
    "nu1": (2, 2, None, 0, 1),
    "nu2": (6, 3, None, 0, 1),
    "nu3": (12, 4, None, 0, 1),
    "nu4": (6, 6, 5, 0, 2),
    "nu5": (30, 6, 17, 0, 2),
    "nu6": (210, 10, 13, 0, 2),
    "nu7": (2310, 15, 13, -2, 2),
    "nu8": (30030, 15, 19, -1, 4),
}


def direct_E(s, x):
    return sum(w * (x // k) for k, w in s.terms)


def test_parse_bracket_form():
    s = parse_scheme("[1,30;2,3,5]")
    assert dict(s.terms) == {1: 1, 2: -1, 3: -1, 5: -1, 30: 1}


def test_parse_explicit_form():
    s = parse_scheme("1:1,2:-1,3:-2,6:1")
    assert dict(s.terms) == {1: 1, 2: -1, 3: -2, 6: 1}


def test_parse_accumulates_repeated_indices():
    # bracket sides sharing an index accumulate and drop on cancellation
    s = parse_scheme("[1,6,6;2,3,6]")
    assert dict(s.terms) == {1: 1, 2: -1, 3: -1, 6: 1}


def test_parse_rejects_bad_input():
    with pytest.raises(SchemeError):
        parse_scheme("2:1,3:-1")  # weight at 1 must be +1
    with pytest.raises(SchemeError):
        parse_scheme("1:2,2:-1")
    with pytest.raises(SchemeError):
        parse_scheme("1:1,0:-1")
    with pytest.raises(SchemeError):
        parse_scheme("garbage")
    with pytest.raises(SchemeError):
        parse_scheme("")


def test_scheme_refuses_indices_out_of_order():
    with pytest.raises(SchemeError, match="indices must be unique and increasing"):
        Scheme(((2, 1), (1, 1)))


def test_round_trip_every_builtin():
    for name, s in BUILTINS.items():
        assert parse_scheme(render_scheme(s)) == parse_scheme(render_scheme(s))
        assert dict(parse_scheme(render_scheme(s)).terms) == dict(s.terms)


def test_resolve_scheme_registry_and_text():
    assert resolve_scheme("nu4") is BUILTINS["nu4"]
    assert dict(resolve_scheme("1:1,2:-2").terms) == {1: 1, 2: -2}


def test_every_builtin_cancels():
    for name, s in BUILTINS.items():
        assert cancellation_check(s) == 0, name


def test_cancellation_check_nonzero():
    assert cancellation_check(parse_scheme("1:1,2:-1")) == Fraction(1, 2)


def test_constant_A_cheb():
    # A(nu*) = (ln2)/2 + (ln3)/3 + (ln5)/5 - (ln30)/30
    expected = (
        math.log(2) / 2 + math.log(3) / 3 + math.log(5) / 5 - math.log(30) / 30
    )
    assert constant_A(BUILTINS["cheb"]) == pytest.approx(expected, abs=1e-12)
    assert constant_A(BUILTINS["cheb"]) == pytest.approx(0.92129, abs=1e-5)


def test_profile_metrics_all_builtins(profiles):
    for name, (period, n, m, e_min, e_max) in EXPECTED_METRICS.items():
        p = profiles[name]
        assert p.period == period, name
        assert p.n == n, name
        assert p.m == m, name
        assert p.e_min == e_min, name
        assert p.e_max == e_max, name


def test_profile_period_is_lcm_of_support(profiles):
    for name, s in BUILTINS.items():
        assert profiles[name].period == math.lcm(*(k for k, _ in s.terms))


def test_profile_values_match_direct_sum(profiles):
    for name, s in BUILTINS.items():
        p = profiles[name]
        stride = max(1, p.period // 97)
        for x in range(1, 3 * p.period + 1, stride):
            assert value_at(p, x) == direct_E(s, x), (name, x)


def test_profile_periodicity(profiles):
    p = profiles["nu4"]
    xs = np.arange(1, 4 * p.period + 1)
    vals = p.values[(xs - 1) % p.period]
    assert np.array_equal(vals[: p.period], vals[p.period : 2 * p.period])


def test_profile_matches_floor_division_oracle(profiles):
    cases = [(name, profiles[name], s) for name, s in BUILTINS.items()]
    cases += [(s.terms, e_profile(s), s) for s in RANDOM_SCHEMES]
    for name, p, s in cases:
        expected = floor_division_profile(s)
        assert p.values.dtype == expected["values"].dtype, name
        assert np.array_equal(p.values, expected.pop("values")), name
        for key, value in expected.items():
            assert getattr(p, key) == value, (name, key)


@pytest.mark.parametrize(
    "text, error",
    [
        ("1:1,2:-1", SchemeError),  # fails the cancellation condition
        ("1:1,2:-1,3:-1,7:-1,43:-1", SchemeError),  # by 1/1806, over a period of 1806
        (f"1:1,{PERIOD_CAP + 1}:{-(PERIOD_CAP + 1)}", CapacityError),
        ("1:1,1009:-1,1013:-1,1019:-1,1031:1", SchemeError),  # checked before the period
    ],
)
def test_profile_errors_match_floor_division_oracle(text, error):
    s = parse_scheme(text)
    with pytest.raises(error) as expected:
        floor_division_profile(s)
    with pytest.raises(error) as got:
        e_profile(s)
    assert str(got.value) == str(expected.value)


def test_profile_jumps_reconstruct_values(profiles):
    for name in ("cheb", "nu4", "nu7"):
        p = profiles[name]
        rebuilt = np.zeros(p.period, dtype=np.int64)
        for pos, delta in p.jumps:
            rebuilt[pos - 1 :] += delta
        # E(period) == E(0)+... : one full period of jumps sums to 0 net drift
        assert sum(d for _, d in p.jumps) == 0
        # jumps over positions > 1 reconstruct E relative to E(1) = 1
        assert rebuilt[0] == 1
        assert np.array_equal(rebuilt, p.values)


def test_first_occurrences_nu7_nu8(profiles):
    assert profiles["nu7"].first_occurrence[2] == 13
    assert profiles["nu7"].first_occurrence[-1] == 105
    assert profiles["nu7"].first_occurrence[-2] == 616
    assert profiles["nu8"].first_occurrence[2] == 19
    assert profiles["nu8"].first_occurrence[-1] == 66
    assert profiles["nu8"].first_occurrence[3] == 229
    assert profiles["nu8"].first_occurrence[4] == 1891


def test_base_bounds_factors(profiles):
    bb4 = base_bounds(BUILTINS["nu4"], profiles["nu4"])
    assert bb4.a_prime_factor == Fraction(19, 25)
    assert bb4.b_factor == Fraction(6, 5)
    bb5 = base_bounds(BUILTINS["nu5"], profiles["nu5"])
    assert bb5.a_prime_factor == Fraction(79, 85)
    assert bb5.b_factor == Fraction(6, 5)
    bb6 = base_bounds(BUILTINS["nu6"], profiles["nu6"])
    assert bb6.a_prime_factor == Fraction(107, 117)
    assert bb6.b_factor == Fraction(10, 9)


def test_base_bounds_refuses_n_below_2(profiles):
    # no profile from e_profile has N < 2 (E(1) = 1), so one is made by hand
    with pytest.raises(SchemeError, match="N < 2"):
        base_bounds(BUILTINS["nu4"], dataclasses.replace(profiles["nu4"], n=1))


def test_base_bounds_no_lower_when_e_max_large(profiles):
    bb8 = base_bounds(BUILTINS["nu8"], profiles["nu8"])
    assert not bb8.lower_applicable
    assert bb8.A_prime is None
    assert bb8.a_prime_factor is None


@given(st.integers(min_value=1, max_value=10**6))
def test_value_at_periodic_reduction_property(x):
    p = e_profile(BUILTINS["nu2"])
    assert value_at(p, x) == direct_E(BUILTINS["nu2"], x)


def test_profiles_compare_and_hash_by_identity():
    # an ndarray field cannot take part in a generated __eq__ or __hash__
    a, b = e_profile(BUILTINS["cheb"]), e_profile(BUILTINS["cheb"])
    assert a == a and a != b
    assert len({a, a, b}) == 2
