import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from chebsylv import (
    BUILTINS,
    CapacityError,
    OutOfRangeError,
    build_sieve,
    check_convolution_identities,
    constant_A,
    select_terms,
    verify_V_identities,
    verify_asymptotic_A,
    verify_final_bounds,
    verify_psi_pi,
    verify_selection_bounds,
)
from chebsylv.kernel import SieveTables
from chebsylv.verify import _BLOCK, _PIECES, ASYMPTOTIC_CAP, psi_pi_bracket
from oracles import (
    chebyshev_T,
    dense_final_bounds,
    dense_selection_bounds,
    log_prefix,
    whole_array_convolution_identities,
    whole_array_v_identities,
)

# x_max on either side of a block boundary, past several blocks, and one
# ending inside a block
BLOCK_EDGES = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7, 10**5)
# a pair (m, FAR) adds the lone term psi(x/m): psi(x/FAR) is 0 at every x here
FAR = 10**9


def brute_v_devs(s, x_max, tables, profile) -> np.ndarray:
    """|sum_k nu(k) T(x/k) - sum_k E(x/k) Lambda(k)| at x = 1..x_max, O(x_max^2)."""
    t = log_prefix(x_max)
    ks = np.arange(1, x_max + 1)
    lhs = np.zeros(x_max)
    for k, w in s.terms:
        lhs += w * t[ks // k]
    e = profile.values
    return np.array(
        [
            abs(lhs[x - 1] - float(np.dot(tables.lam[1 : x + 1], e[(x // ks[:x] - 1) % len(e)])))
            for x in range(1, x_max + 1)
        ]
    )


def brute_selection_gaps(s, lower, upper, x_max, tables) -> np.ndarray:
    """max(lower - V, V - upper) at x = 1..x_max, one gather of psi(x/k) per term."""
    t = log_prefix(x_max)
    psi_p = np.cumsum(tables.lam)
    xs = np.arange(1, x_max + 1)
    v = np.zeros(x_max)
    for k, w in s.terms:
        v += w * t[xs // k]
    low = psi_p[xs] - psi_p[xs // lower.leading_n]
    for m, n in lower.kept_pairs:
        low += psi_p[xs // m] - psi_p[xs // n]
    for u in lower.standalones:
        low -= psi_p[xs // u]
    up = psi_p[xs].copy()
    for u in upper.standalones:
        up += psi_p[xs // u]
    for m, n in upper.kept_pairs:
        up -= psi_p[xs // m] - psi_p[xs // n]
    return np.maximum(low - v, v - up)


def _same_report(got, want):
    """Every field equal, floats bit for bit (repr round-trips a float exactly)."""
    assert repr(got) == repr(want)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_v_identities_match_brute_force(tables_10k, profiles, name):
    for x_max in (1, 2, 3, 30, 2000):
        report = verify_V_identities(BUILTINS[name], x_max, tables_10k, profiles[name])
        devs = brute_v_devs(BUILTINS[name], x_max, tables_10k, profiles[name])
        assert report.max_violation == pytest.approx(devs.max(), abs=1e-9), x_max
        assert report.passed


# One E value off by one, at E(9) for cheb and at E(1) for nu4. Each gives a
# deviation whose maximum over x <= 2000 is attained at a single x, so the
# witness is not decided by round-off.
@pytest.mark.parametrize("name, slot", [("cheb", 8), ("nu4", 0)])
def test_v_identities_catch_a_wrong_e_value(tables_10k, profiles, name, slot):
    values = profiles[name].values.copy()
    values[slot] += 1
    bad = dataclasses.replace(profiles[name], values=values)
    report = verify_V_identities(BUILTINS[name], 2000, tables_10k, bad)
    devs = brute_v_devs(BUILTINS[name], 2000, tables_10k, bad)
    runner_up, worst = np.sort(devs)[-2:]
    assert worst - runner_up > 1.0
    assert not report.passed
    assert report.max_violation == pytest.approx(worst, abs=1e-9)
    assert report.witness_x == int(devs.argmax()) + 1


@pytest.mark.parametrize("name", ["cheb", "nu4"])
def test_v_identities_refuse_a_profile_with_e_of_p_nonzero(tables_10k, profiles, name):
    # E(P) is the one value e_profile pins to 0: E(x + P) = E(x) + E(P) for every x
    values = profiles[name].values.copy()
    values[-1] += 1
    bad = dataclasses.replace(profiles[name], values=values)
    with pytest.raises(OutOfRangeError, match=r"E\(P\) = 1"):
        verify_V_identities(BUILTINS[name], 2000, tables_10k, bad)


# x_max on either side of the identity checks' block boundaries (_SEGMENT =
# 2^18 entries), past several blocks, and at the largest tables here
IDENTITY_LIMITS = (1, 2, 30, 2**18 - 1, 2**18, 2**18 + 1, 3 * 2**18 + 7, 10**6)


@pytest.mark.parametrize("x_max", IDENTITY_LIMITS)
def test_identity_checks_equal_the_whole_array_oracle(tables_1m, profiles, x_max):
    assert check_convolution_identities(x_max, tables_1m) == whole_array_convolution_identities(
        x_max, tables_1m
    )
    witnesses = set()
    for name in sorted(BUILTINS):
        s, profile = BUILTINS[name], profiles[name]
        values = profile.values.copy()
        values[0] += 1  # E(1) off by one: the check fails, with a witness
        for p in (profile, dataclasses.replace(profile, values=values)):
            got = verify_V_identities(s, x_max, tables_1m, p)
            assert got == whole_array_v_identities(s, x_max, tables_1m, p), name
            witnesses.add(got.witness_x)
    # at x = 1 every side is 0, whatever E(1) is
    assert None in witnesses and (x_max == 1 or len(witnesses) > 1)


def test_v_identities_small_schemes(tables_10k, profiles):
    for name in ("cheb", "nu4"):
        report = verify_V_identities(
            BUILTINS[name], 2000, tables_10k, profiles[name]
        )
        assert report.passed, name
        assert report.max_violation <= 1e-6


def test_selection_bounds_nu4(tables_100k, profiles):
    p = profiles["nu4"]
    report = verify_selection_bounds(
        BUILTINS["nu4"],
        select_terms(p, "lower", 1.5),
        select_terms(p, "upper", 1.5),
        10**5,
        tables_100k,
    )
    assert report.passed
    # only floating round-off, no sign violations
    assert report.max_violation <= 1e-9
    assert report.witness_x is None


def test_selection_bounds_detect_violation(tables_10k, profiles):
    # swapping rho sides is invalid; an over-tight fake upper must fail
    p = profiles["nu4"]
    lower = select_terms(p, "lower", 1.5)
    upper = select_terms(p, "upper", 1.5)
    fake_upper = type(upper)(
        side="upper",
        rho=1.5,
        leading_n=None,
        kept_pairs=((2, 11),),  # subtracts psi(x/2): far below V
        dropped_pairs=0,
        standalones=(),
        scan_end=upper.scan_end,
    )
    report = verify_selection_bounds(
        BUILTINS["nu4"], lower, fake_upper, 5000, tables_10k
    )
    assert not report.passed
    assert report.witness_x is not None
    assert report.max_violation > 0


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_selection_bounds_match_brute_force(tables_10k, profiles, name):
    for rho in (1.05, 1.1, 1.2, 1.5, 2.0):
        lower = select_terms(profiles[name], "lower", rho)
        upper = select_terms(profiles[name], "upper", rho)
        for x_max in (1, 2, 3, 30, 2000):
            report = verify_selection_bounds(BUILTINS[name], lower, upper, x_max, tables_10k)
            gaps = brute_selection_gaps(BUILTINS[name], lower, upper, x_max, tables_10k)
            worst = gaps.max()
            assert report.passed == (worst <= 1e-6), (rho, x_max)
            assert report.max_violation == pytest.approx(max(0.0, worst), abs=1e-9), (rho, x_max)


def _flip_standalone(sel, u):
    """sel with the standalone psi(x/u) moved into a pair (u, 10^9), whose
    psi(x/10^9) is 0 for every x here: the term's sign flips."""
    rest = tuple(v for v in sel.standalones if v != u)
    return dataclasses.replace(sel, standalones=rest, kept_pairs=sel.kept_pairs + ((u, 10**9),))


# cheb with the lower side's leading -psi(x/N) dropped (N moved past every x),
# and nu6 with the upper side's standalone +psi(x/u) made -psi(x/u). Both
# give a maximum over x <= 2000 that is attained at a single x, so the
# witness is not decided by round-off.
@pytest.mark.parametrize("name, mutation", [("cheb", "drop-leading"), ("nu6", "flip-standalone")])
def test_selection_bounds_catch_a_mutated_selection(tables_10k, profiles, name, mutation):
    lower = select_terms(profiles[name], "lower", 1.2)
    upper = select_terms(profiles[name], "upper", 1.2)
    if mutation == "drop-leading":
        lower = dataclasses.replace(lower, leading_n=10**9)
    else:
        upper = _flip_standalone(upper, upper.standalones[0])
    report = verify_selection_bounds(BUILTINS[name], lower, upper, 2000, tables_10k)
    gaps = brute_selection_gaps(BUILTINS[name], lower, upper, 2000, tables_10k)
    runner_up, worst = np.sort(gaps)[-2:]
    assert worst - runner_up > 0.5
    assert not report.passed
    assert report.max_violation == pytest.approx(worst, abs=1e-9)
    assert report.witness_x == int(gaps.argmax()) + 1


def test_asymptotic_A_bounded_ratio():
    ladder = [100 * 2**i for i in range(10)]
    report = verify_asymptotic_A(BUILTINS["cheb"], ladder)
    assert report.passed


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_asymptotic_ratios_match_fsum_oracle(name):
    # V(x) summed term by term from chebyshev_T (an fsum of logs); the
    # lgamma form measured within 1.0e-12 of it on this ladder, a log_prefix
    # table within 1.4e-11
    s = BUILTINS[name]
    ladder = [100 * 2**i for i in range(7)]
    report = verify_asymptotic_A(s, ladder)
    a = constant_A(s)
    oracle = [
        abs(math.fsum(w * chebyshev_T(x // k) for k, w in s.terms) - a * x) / math.log(x)
        for x in ladder
    ]
    assert report.extras["ratios"] == pytest.approx(oracle, rel=0, abs=1e-11)


def test_asymptotic_needs_two_points():
    with pytest.raises(ValueError):
        verify_asymptotic_A(BUILTINS["cheb"], [1000])


def _no_lgamma(*args):
    raise AssertionError("lgamma called before the ladder was checked")


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_asymptotic_refuses_non_finite_points_first(monkeypatch, x):
    monkeypatch.setattr(math, "lgamma", _no_lgamma)
    with pytest.raises(OutOfRangeError):
        verify_asymptotic_A(BUILTINS["nu4"], [100, 200, x])


@pytest.mark.parametrize("top", [ASYMPTOTIC_CAP + 1, 10**17, 2 * 10**19, 10**400])
def test_asymptotic_refuses_points_past_the_cap_first(monkeypatch, top):
    # past the cap the lgamma round-off alone can swing the verdict
    monkeypatch.setattr(math, "lgamma", _no_lgamma)
    with pytest.raises(CapacityError):
        verify_asymptotic_A(BUILTINS["nu4"], [100, 200, top])


def test_asymptotic_at_the_cap():
    ladder = [100, 10**7, ASYMPTOTIC_CAP]
    assert verify_asymptotic_A(BUILTINS["nu4"], ladder).x_max == ASYMPTOTIC_CAP


def test_final_bounds_good_constants(tables_1m):
    report = verify_final_bounds(0.9226, 1.0765, 10**6, tables_1m)
    assert report.passed
    assert report.witness_x is None


def test_final_bounds_bad_constants(tables_1m):
    report = verify_final_bounds(1.1, 1.2, 10**6, tables_1m)
    assert not report.passed
    assert report.witness_x is not None


# psi steps at every x here, so each x >= 100 is a piece; for the larger
# x_max, x_max // 10 = 100 + 2 * _PIECES is the first x of the third chunk
# of pieces, so the dip before, at or past the cutoff straddles a chunk.
@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["before", "at", "past"])
def test_final_bounds_cutoff_is_a_tenth_of_x_max(offset):
    # psi(x) = x but for one dip to a x - 1 at x_max // 10 + offset: C_low
    # peaks at the dip, and C_high = -(b - 1) x / ln^2 x peaks at x = 100
    a, b = 0.9, 1.1
    for x_max in (2000, 10 * (_BLOCK + 100)):
        dip = x_max // 10 + offset
        psi_dense = np.arange(x_max + 1, dtype=np.float64)
        psi_dense[dip] = a * dip - 1
        lam = np.diff(psi_dense, prepend=0.0)  # psi steps at every x >= 1
        steps = np.arange(1, x_max + 1)
        unused = np.zeros(x_max + 1)
        tables = SieveTables(
            limit=x_max,
            lam=lam,
            moebius=unused,
            primes=unused,
            prime_powers=steps,
            psi_at_powers=np.cumsum(lam)[steps],
        )
        report = verify_final_bounds(a, b, x_max, tables)
        _same_report(report, dense_final_bounds(a, b, x_max, tables))
        assert report.extras["C_low"] > 0 > report.extras["C_high"]
        assert (report.passed, report.witness_x) == ((True, None) if offset < 0 else (False, dip))


def test_final_bounds_requires_a_below_b(tables_10k):
    with pytest.raises(ValueError):
        verify_final_bounds(1.2, 1.1, 10**4, tables_10k)


# the piece-end argument needs finite constants with 0 <= a < b, and a
# finite b x_max keeps C_low and C_high finite
@pytest.mark.parametrize(
    "a, b",
    [(math.nan, 1.0765), (0.9226, math.nan), (0.9226, math.inf), (-0.5, 1.0765), (1e300, 1e305)],
)
def test_final_bounds_refuses_non_finite_or_negative_constants_first(a, b):
    with pytest.raises(OutOfRangeError):
        verify_final_bounds(a, b, 10**4, _NoTables())


@pytest.mark.parametrize("x_max", [10**7 + 1, 2 * 10**19, 10**400])
def test_final_bounds_refuses_a_limit_past_the_sieve_cap_first(x_max):
    # 10^400 overflowed converting to float in b * x_max
    with pytest.raises(CapacityError):
        verify_final_bounds(0.9226, 1.0765, x_max, _NoTables())


def test_psi_pi_ladder(tables_100k):
    report = verify_psi_pi(0.75, [100.0, 1000.0, 10**4, 10**5], tables_100k)
    assert report.passed
    with pytest.raises(OutOfRangeError):  # before any table is read
        verify_psi_pi(0.75, [], None)


def test_psi_pi_reports_a_corrupted_psi(tables_100k):
    # psi doubled past 1000: the brackets at 100 and 1000 still hold, 10^4 and 10^5 fail
    t = tables_100k
    doubled = np.where(t.prime_powers > 1000, 2 * t.psi_at_powers, t.psi_at_powers)
    bad = dataclasses.replace(t, psi_at_powers=doubled)
    ladder = [100.0, 1000.0, 10**4, 10**5]
    brackets = [psi_pi_bracket(x, 0.75, bad) for x in ladder]
    assert [br.holds for br in brackets] == [True, True, False, False]
    gaps = [max(br.psi_value - br.pi_ln_x, br.pi_ln_x - br.upper) for br in brackets]
    report = verify_psi_pi(0.75, ladder, bad)
    assert not report.passed
    assert report.max_violation == max(gaps) > 0
    assert report.witness_x == int(ladder[gaps.index(max(gaps))])
    # the first failing point is the witness when it has the largest gap
    report = verify_psi_pi(0.75, ladder[:3], bad)
    assert (report.passed, report.witness_x, report.max_violation) == (False, 10**4, gaps[2])


def test_psi_pi_bracket_and_report_share_one_verdict(tables_100k):
    # psi raised by 1e-12: the tight bracket at x = 2 fails in both, with no slack to forgive it
    bumped = dataclasses.replace(tables_100k, psi_at_powers=tables_100k.psi_at_powers + 1e-12)
    assert not psi_pi_bracket(2, 0.75, bumped).holds
    report = verify_psi_pi(0.75, [2.0, 100.0], bumped)
    assert (report.passed, report.witness_x) == (False, 2)
    assert 0 < report.max_violation < 1e-11


def test_constant_A_values_match_table():
    expected = {
        "cheb": 0.92129,
        "nu1": 0.6931,
        "nu2": 0.7803,
        "nu3": 0.8522,
        "nu4": 1.0114,
        "nu5": 0.9675,
        "nu6": 0.9787,
    }
    for name, value in expected.items():
        assert constant_A(BUILTINS[name]) == pytest.approx(value, abs=1e-3)


def _one_term_mutants(lower, upper):
    """The selection pair, then one side with one psi term dropped or added."""
    return [
        (lower, upper),
        (dataclasses.replace(lower, leading_n=FAR), upper),
        (dataclasses.replace(lower, kept_pairs=lower.kept_pairs + ((2, FAR),)), upper),
        (lower, dataclasses.replace(upper, standalones=upper.standalones[1:])),
        (lower, dataclasses.replace(upper, kept_pairs=upper.kept_pairs + ((3, FAR),))),
    ]


@pytest.mark.parametrize("name, rho", [("cheb", 1.2), ("nu4", 1.5), ("nu6", 1.2), ("nu8", 1.05)])
def test_blocked_selection_bounds_match_dense_oracle(tables_1m, profiles, name, rho):
    lower = select_terms(profiles[name], "lower", rho)
    upper = select_terms(profiles[name], "upper", rho)
    verdicts = []
    for low, up in _one_term_mutants(lower, upper):
        for x_max in BLOCK_EDGES:
            got = verify_selection_bounds(BUILTINS[name], low, up, x_max, tables_1m)
            _same_report(got, dense_selection_bounds(BUILTINS[name], low, up, x_max, tables_1m))
            verdicts.append(got.passed)
    assert verdicts[0] and not all(verdicts)


def _spiked(tables, spikes):
    """tables with Lambda(x) += h and Lambda(x + 1) -= h for each (x, h):
    psi rises by h at x alone."""
    lam = tables.lam.copy()
    for x, h in spikes:
        lam[x] += h
        lam[x + 1] -= h
    return dataclasses.replace(tables, lam=lam)


# A spike at x on the lower side (up) or the upper side (down), far above
# both gaps (each within a few thousand of 0 here), makes x the single worst
# point, on the last or first x of a block. nu6 at rho = 1.2 has no term with
# k = 2 or 3, so no other term sees the spike at an x <= x_max.
@pytest.mark.parametrize("x0", [_BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1])
@pytest.mark.parametrize("height", [1e6, -1e6], ids=["lower", "upper"])
def test_selection_witness_on_a_block_boundary(tables_1m, profiles, x0, height):
    lower = select_terms(profiles["nu6"], "lower", 1.2)
    upper = select_terms(profiles["nu6"], "upper", 1.2)
    tables = _spiked(tables_1m, [(x0, height)])
    x_max = 3 * _BLOCK + 7
    got = verify_selection_bounds(BUILTINS["nu6"], lower, upper, x_max, tables)
    _same_report(got, dense_selection_bounds(BUILTINS["nu6"], lower, upper, x_max, tables))
    assert not got.passed and got.witness_x == x0


# With no scheme terms V = 0, and with Lambda made of +-1 spikes every sum is
# an exact integer: the lower gap psi(x) and the upper gap -psi(x) reach 1
# exactly at each of their spikes, so the peaks tie and the first x wins,
# within a block, across blocks and across the two sides.
@pytest.mark.parametrize(
    "lower_at, upper_at, first",
    [
        ((_BLOCK, 2 * _BLOCK + 5), (_BLOCK + 1, _BLOCK + 2), _BLOCK),
        ((2 * _BLOCK + 5,), (_BLOCK + 1, _BLOCK + 2), _BLOCK + 1),
        ((7, 9), (), 7),
    ],
)
def test_selection_ties_go_to_the_first_x(profiles, lower_at, upper_at, first):
    x_max = 3 * _BLOCK + 7
    zero = np.zeros(x_max + 2)
    tables = _spiked(
        SieveTables(
            limit=x_max,
            lam=zero,
            moebius=zero,
            primes=zero,
            prime_powers=zero,
            psi_at_powers=zero,
        ),
        [(x, 1.0) for x in lower_at] + [(x, -1.0) for x in upper_at],
    )
    selected = select_terms(profiles["cheb"], "lower", 1.2)
    lower = dataclasses.replace(selected, leading_n=FAR, kept_pairs=(), standalones=())
    upper = dataclasses.replace(lower, side="upper", leading_n=None)
    no_terms = SimpleNamespace(terms=(), name="V=0")
    got = verify_selection_bounds(no_terms, lower, upper, x_max, tables)
    _same_report(got, dense_selection_bounds(no_terms, lower, upper, x_max, tables))
    assert (got.max_violation, got.witness_x) == (1.0, first)


@pytest.mark.parametrize(
    "a, b", [(0.9226, 1.0765), (0.93, 1.07), (1.1, 1.2), (0.5, 0.6), (0.0, 0.5)]
)
def test_blocked_final_bounds_match_dense_oracle(tables_1m, a, b):
    # 127 and 128 are prime powers; the second chunk of pieces starts at u
    powers = tables_1m.prime_powers
    u = int(powers[powers.searchsorted(100, side="right") - 1 + _PIECES])
    edges = (100, 101, 127, 128, 129, 131, u - 1, u, u + 1)
    for x_max in edges + (_BLOCK + 99, _BLOCK + 100, _BLOCK + 101, 3 * _BLOCK + 7, 10**5, 10**6):
        got = verify_final_bounds(a, b, x_max, tables_1m)
        _same_report(got, dense_final_bounds(a, b, x_max, tables_1m))


def _peak_bytes(check) -> int:
    tracemalloc.start()
    try:
        check()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blocked_checks_work_in_a_few_block_buffers(tables_1m, profiles):
    # nu8 at rho = 1.02 keeps 237 + 266 terms; one float64 block is 512 KB
    lower = select_terms(profiles["nu8"], "lower", 1.02)
    upper = select_terms(profiles["nu8"], "upper", 1.02)
    limit = 4 * 2**20
    assert _peak_bytes(lambda: verify_selection_bounds(BUILTINS["nu8"], lower, upper, 10**6, tables_1m)) <= limit
    # four float64 arrays of one chunk of 2^15 pieces, 256 KB each
    assert _peak_bytes(lambda: verify_final_bounds(0.9226, 1.0765, 10**6, tables_1m)) <= 2 * 2**20


def test_identity_checks_work_in_place(tables_1m, profiles):
    # beyond the sieve tables, the identity checks hold a few float64 buffers
    # of one 2^18-entry block (2 MB each): the block's sums, ln m for
    # m <= 2^18, a fresh slice of logs, and for V the dE tile of a block and
    # a period; measured at 7.6-10.0 B/n at 10^6
    limit = 12 * (10**6 + 1)
    assert _peak_bytes(lambda: check_convolution_identities(10**6, tables_1m)) <= limit
    for name in sorted(BUILTINS):
        check = lambda: verify_V_identities(BUILTINS[name], 10**6, tables_1m, profiles[name])
        assert _peak_bytes(check) <= limit, name


class _NoTables:
    def __getattr__(self, name):
        raise AssertionError(f"tables.{name} read before the range check")


def _sieve_check(check, x_max, tables, profile):
    s = BUILTINS["cheb"]
    if check == "convolution":
        return check_convolution_identities(x_max, tables)
    if check == "v-identity":
        return verify_V_identities(s, x_max, tables, profile)
    lower, upper = (select_terms(profile, side, 1.5) for side in ("lower", "upper"))
    return verify_selection_bounds(s, lower, upper, x_max, tables)


@pytest.mark.parametrize("check", ["convolution", "v-identity", "selection"])
@pytest.mark.parametrize("x_max", [0, -1, -10**6])
@pytest.mark.parametrize("given", [True, False], ids=["tables", "no-tables"])
def test_sieve_checks_reject_x_max_below_one_first(monkeypatch, profiles, check, x_max, given):
    def no_sieve(limit):
        raise AssertionError("sieve built before the range check")

    monkeypatch.setattr("chebsylv.kernel.build_sieve", no_sieve)
    with pytest.raises(OutOfRangeError):
        _sieve_check(check, x_max, _NoTables() if given else None, profiles["cheb"])


@pytest.mark.parametrize("limit", [10**4, 10**5])
@pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
def test_psi_pi_builds_the_sieve_it_needs(tables_10k, limit, alpha):
    ladder = [x for x in (100, 1000, 10**4, limit) if x <= limit]  # the CLI's
    expected = verify_psi_pi(alpha, ladder, build_sieve(max(ladder)))
    assert verify_psi_pi(alpha, ladder) == expected
    # tables that stop short of the ladder give way to a sieve that reaches it
    assert verify_psi_pi(alpha, ladder, build_sieve(max(ladder) - 1)) == expected
    assert verify_psi_pi(alpha, ladder, tables_10k) == expected


@pytest.mark.parametrize("ladder", [[], [100, math.nan], [100, math.inf], [100, -math.inf],
                                    [100, 1], [100, 0], [0.0]])
@pytest.mark.parametrize("given", [True, False], ids=["tables", "no-tables"])
def test_psi_pi_refuses_a_bad_ladder_first(monkeypatch, ladder, given):
    def no_sieve(limit):
        raise AssertionError("sieve built before the range check")

    monkeypatch.setattr("chebsylv.kernel.build_sieve", no_sieve)
    with pytest.raises(OutOfRangeError):
        verify_psi_pi(0.75, ladder, _NoTables() if given else None)


@pytest.mark.parametrize("alpha", [0, 1, 1.5, -0.5, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("given", [True, False], ids=["tables", "no-tables"])
def test_psi_pi_refuses_a_bad_alpha_first(monkeypatch, tables_100k, alpha, given):
    # alpha is refused before any sieve is built, as the ladder is
    def no_sieve(limit):
        raise AssertionError("sieve built before the alpha check")

    monkeypatch.setattr("chebsylv.kernel.build_sieve", no_sieve)
    with pytest.raises(OutOfRangeError, match="alpha"):
        verify_psi_pi(alpha, [100, 1000, 10**4], tables_100k if given else None)
