import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from chebsylv import (
    CapacityError,
    OutOfRangeError,
    build_sieve,
    check_convolution_identities,
    lcm_identity_check,
    pi_count,
    psi,
    psi_pi_bracket,
)
from chebsylv import kernel
from chebsylv.kernel import (
    _LOGS,
    _SEGMENT,
    SIEVE_CAP,
    SieveTables,
    _block_logs,
)
from chebsylv.verify import lcm_identity_failures
from oracles import chebyshev_T, log_prefix, log_table


def brute_lambda(n: int) -> float:
    """Independent von Mangoldt: ln p when n = p^k, else 0."""
    if n < 2:
        return 0.0
    for p in range(2, n + 1):
        m = n
        while m % p == 0:
            m //= p
        if m == 1:
            return math.log(p)
        if n % p == 0:
            return 0.0
    return 0.0


def loop_prime_mask(limit: int) -> np.ndarray:
    """is_prime[n] for n = 0..limit, by Eratosthenes' sieve."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[: min(2, limit + 1)] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return is_prime


def loop_sieve(limit: int) -> SieveTables:
    """Reference sieve: one Python pass over every prime <= limit."""
    is_prime = loop_prime_mask(limit)
    lam = np.zeros(limit + 1, dtype=np.float64)
    moebius = np.ones(limit + 1, dtype=np.int8)
    moebius[0] = 0
    powers = []
    for p in np.nonzero(is_prime)[0]:
        p = int(p)
        logp = math.log(p)
        pk = p
        while pk <= limit:
            lam[pk] = logp
            powers.append(pk)
            pk *= p
        moebius[p::p] = -moebius[p::p]
        if p * p <= limit:
            moebius[p * p :: p * p] = 0
    prime_powers = np.array(sorted(powers), dtype=np.int64)
    return SieveTables(
        limit=limit,
        lam=lam,
        moebius=moebius,
        primes=np.flatnonzero(is_prime),
        prime_powers=prime_powers,
        psi_at_powers=np.cumsum(lam)[prime_powers],
    )


def brute_convolution_devs(limit: int, tables: SieveTables) -> tuple[float, float]:
    """Both sides of T = sum_k psi(x/k) and psi = sum_k mu(k) T(x/k) at every
    x <= limit, O(limit^2); returns the two max deviations."""
    t = log_prefix(limit)
    psi_p = np.cumsum(tables.lam)
    mu = tables.moebius.astype(np.float64)
    ks = np.arange(1, limit + 1)
    max_dev_t = max_dev_psi = 0.0
    for x in range(1, limit + 1):
        idx = x // ks[:x]
        max_dev_t = max(max_dev_t, abs(t[x] - psi_p[idx].sum()))
        max_dev_psi = max(max_dev_psi, abs(psi_p[x] - (mu[1 : x + 1] * t[idx]).sum()))
    return max_dev_t, max_dev_psi


# p^2 - 1 and p^2 for p = 2, 3, 5, 7, 11 bracket the points where a prime
# joins the small-prime loop; the limits around _SEGMENT end the sieve on
# either side of a segment boundary.
@pytest.mark.parametrize(
    "limit",
    [1, 2, 3, 4, 8, 9, 24, 25, 48, 49, 120, 121, 10**5, 10**6]
    + [_SEGMENT - 1, _SEGMENT, _SEGMENT + 1],
)
def test_sieve_bit_identical_to_loop_sieve(limit):
    got, ref = build_sieve(limit), loop_sieve(limit)
    for name in ("lam", "moebius", "primes", "prime_powers", "psi_at_powers"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


# Every limit up to 300 ends the sieve on each parity and on each small
# prime's square; around 2 and 3 segments, the even n of the last segment
# read mu(n/2) from an earlier one, and the last segment may hold only
# n = lo, or n = lo and lo + 1.
@pytest.mark.parametrize("extended", [kernel._EXTENDED, False])
def test_odd_only_sieve_edges(extended, monkeypatch):
    monkeypatch.setattr(kernel, "_EXTENDED", extended)
    edges = [k * _SEGMENT + d for k in (2, 3) for d in (-1, 0, 1, 2)]
    for limit in list(range(1, 301)) + edges:
        got, ref = build_sieve(limit), loop_sieve(limit)
        for name in ("lam", "moebius", "primes", "prime_powers", "psi_at_powers"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (limit, name)


def counted_math_log(monkeypatch) -> list[int]:
    """Patch math.log to count its calls; returns the one-entry counter."""
    calls, log = [0], math.log

    def counting(x):
        calls[0] += 1
        return log(x)

    monkeypatch.setattr(math, "log", counting)
    return calls


def test_lambda_is_math_log_at_every_prime_up_to_the_cap():
    t = build_sieve(SIEVE_CAP)
    ref = np.fromiter(map(math.log, t.primes.tolist()), np.float64, t.primes.size)
    assert np.array_equal(t.lam[t.primes].view(np.int64), ref.view(np.int64))


# where long double is no wider than float64, every prime takes math.log
@pytest.mark.parametrize("limit", [10**5, _SEGMENT + 1])
def test_sieve_without_extended_precision_matches_loop_sieve(limit, monkeypatch):
    ref = loop_sieve(limit)
    monkeypatch.setattr(kernel, "_EXTENDED", False)
    calls = counted_math_log(monkeypatch)
    got = build_sieve(limit)
    assert calls[0] == got.primes.size
    for name in ("lam", "moebius", "primes", "prime_powers", "psi_at_powers"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.skipif(not kernel._EXTENDED, reason="long double is not x87 extended")
def test_most_primes_take_the_long_double_log(monkeypatch):
    # about 1/16 of the primes lie within 1/32 ULP of a rounding midpoint; a
    # slip that sent them all to math.log would stay exact, and show only here
    calls = counted_math_log(monkeypatch)
    t = build_sieve(10**6)
    assert calls[0] <= t.primes.size / 8


# psi from its steps must be the dense prefix sum of Lambda, bit for bit
@pytest.mark.parametrize("limit", [1, 2, 3, 2000, _SEGMENT - 1, _SEGMENT, _SEGMENT + 1, 10**6])
def test_psi_steps_are_the_prefix_sum_of_lambda(limit):
    t = build_sieve(limit)
    dense = np.cumsum(t.lam)
    gaps = np.diff(t.prime_powers, prepend=0, append=limit + 1)
    steps = np.repeat(np.concatenate(([0.0], t.psi_at_powers)), gaps)
    assert steps.tobytes() == dense.tobytes()
    xs = np.unique(np.linspace(0, limit, 500).astype(np.int64)).tolist()
    assert [psi(x, t) for x in xs] == dense[xs].tolist()


def test_sieve_peak_memory_is_its_tables():
    # lam at 8 B/n, moebius at 1 B/n, and three int64 or float64 arrays of
    # about pi(L) entries (the primes, the prime powers and psi at them) at
    # 8 pi(L)/L, about 0.6 B/n each; the segments' primes are briefly held
    # twice while they are joined
    limit = 10**6
    tracemalloc.start()
    try:
        build_sieve(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 12 * (limit + 1)


def test_sieve_tables_take_at_most_11_bytes_per_entry(tables_1m):
    # every array field counts, so a table added to SieveTables shows here
    arrays = [getattr(tables_1m, f.name) for f in dataclasses.fields(SieveTables)]
    size = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    assert size <= 11 * (tables_1m.limit + 1)


@pytest.mark.parametrize("limit", [1, 2, 3, 30, 2000])
def test_convolution_identities_match_brute_force(tables_10k, limit):
    report = check_convolution_identities(limit, tables_10k)
    dev_t, dev_psi = brute_convolution_devs(limit, tables_10k)
    assert report.max_dev_T == pytest.approx(dev_t, abs=1e-9)
    assert report.max_dev_psi == pytest.approx(dev_psi, abs=1e-9)


def test_convolution_identities_catch_a_wrong_lambda(tables_10k):
    lam = tables_10k.lam.copy()
    lam[8] = math.log(3)  # Lambda(2^3) is ln 2
    bad = dataclasses.replace(
        tables_10k, lam=lam, psi_at_powers=np.cumsum(lam[tables_10k.prime_powers])
    )
    report = check_convolution_identities(2000, bad)
    dev_t, dev_psi = brute_convolution_devs(2000, bad)
    assert not report.passed
    assert report.max_dev_T == pytest.approx(dev_t, abs=1e-9)
    assert report.max_dev_psi == pytest.approx(dev_psi, abs=1e-9)


def test_sieve_lambda_matches_brute_force(tables_10k):
    for n in range(1, 1000):
        assert tables_10k.lam[n] == pytest.approx(brute_lambda(n), abs=1e-12)


def test_sieve_moebius_matches_brute_force(tables_10k):
    def brute_mu(n):
        if n == 1:
            return 1
        mu, m = 1, n
        for p in range(2, n + 1):
            if p * p > m:
                break
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                mu = -mu
        if m > 1:
            mu = -mu
        return mu

    for n in range(1, 500):
        assert tables_10k.moebius[n] == brute_mu(n)


def test_moebius_dirichlet_inverse_of_one(tables_10k):
    # sum_{d | n} mu(d) = [n == 1]
    for n in range(1, 300):
        total = sum(tables_10k.moebius[d] for d in range(1, n + 1) if n % d == 0)
        assert total == (1 if n == 1 else 0)


def test_psi_known_values(tables_10k):
    # psi(10) = 3 ln2 + 2 ln3 + ln5 + ln7
    expected = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    assert psi(10, tables_10k) == pytest.approx(expected, abs=1e-12)
    assert psi(1, tables_10k) == 0.0
    # floor semantics: non-integer x uses floor(x)
    assert psi(10.9, tables_10k) == psi(10, tables_10k)


def test_pi_count_known_values(tables_10k):
    assert pi_count(10, tables_10k) == 4
    assert pi_count(100, tables_10k) == 25
    assert pi_count(1000, tables_10k) == 168
    assert pi_count(10**4, tables_10k) == 1229


def test_psi_out_of_range(tables_10k):
    with pytest.raises(OutOfRangeError):
        psi(10**4 + 1, tables_10k)
    with pytest.raises(OutOfRangeError):
        pi_count(10**5, tables_10k)
    # floor(x) is the limit itself
    assert pi_count(10**4 + 0.5, tables_10k) == 1229


@pytest.mark.parametrize("x", [-1, -0.5, math.nan, math.inf, -math.inf])
def test_psi_and_pi_count_refuse_negative_and_non_finite_x(tables_10k, x):
    for f in (psi, pi_count):
        with pytest.raises(OutOfRangeError):
            f(x, tables_10k)


@pytest.mark.parametrize("x", [-1, math.nan, math.inf, -math.inf])
def test_psi_pi_bracket_refuses_negative_and_non_finite_x(tables_10k, x):
    with pytest.raises(OutOfRangeError):
        psi_pi_bracket(x, 0.75, tables_10k)


def test_build_sieve_capacity_guard():
    with pytest.raises(CapacityError):
        build_sieve(10**8)
    with pytest.raises(ValueError):
        build_sieve(0)


def test_chebyshev_T_matches_lgamma():
    for x in (1, 2, 5, 10, 100, 1000.7):
        assert chebyshev_T(x) == pytest.approx(
            math.lgamma(math.floor(x) + 1), rel=1e-12
        )


# Every log of the sieve checks is a slice of _LOGS, made on demand, or a view
# of one held slice; their sums are bit-identical to the whole-array oracle's
# only if each ln m is the same float wherever in an array it is made.
@pytest.mark.parametrize(
    "a, b",
    [(1, 2), (1, 31), (2, 1001), (7, 8), (_SEGMENT - 5, _SEGMENT + 6), (1, _SEGMENT + 1)]
    + [(999_001, 10**6 + 1)],
)
def test_logs_equal_a_log_table_bit_for_bit(a, b):
    want = log_table(b - 1)[a:b].view(np.int64)
    assert np.array_equal(_LOGS[a:b].view(np.int64), want)
    for limit in (b - 1, 10**6):
        assert np.array_equal(_block_logs(limit)[a:b].view(np.int64), want)


def test_log_prefix_matches_T():
    t = log_prefix(50)
    for x in range(1, 51):
        assert t[x] == pytest.approx(chebyshev_T(x), abs=1e-9)


def test_convolution_identities(tables_10k):
    report = check_convolution_identities(2000, tables_10k)
    assert report.passed
    assert report.max_dev_T <= 1e-6
    assert report.max_dev_psi <= 1e-6


def test_lcm_identity_all_small_x():
    assert all(lcm_identity_check(x) for x in range(1, 51))


def test_lcm_identity_failures_lists_a_missing_prime(monkeypatch):
    # with 2 dropped from the primes the product misses its factor at x = 2 onwards
    def sieve_without_2(x_max):
        tables = build_sieve(x_max)
        return dataclasses.replace(tables, primes=tables.primes[1:])

    monkeypatch.setattr("chebsylv.verify.build_sieve", sieve_without_2)
    failures = lcm_identity_failures(50)
    assert failures[0] == 2


def brute_lcm_identity(x: int) -> bool:
    """Independent per-x check: trial-divided primes, lcm(1..x) from scratch."""
    prod = 1
    for p in range(2, x + 1):
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            pk = p
            while pk <= x:
                prod *= p
                pk *= p
    return prod == math.lcm(*range(1, x + 1))


def test_lcm_failures_match_brute_force():
    brute = [x for x in range(1, 301) if not brute_lcm_identity(x)]
    assert lcm_identity_failures(300) == brute


def test_psi_pi_bracket_holds(tables_10k):
    # with no slack: at x = 2, psi and pi ln x are the same float, ln 2
    for x in (2, 10, 100, 1000, 9999):
        br = psi_pi_bracket(x, 0.75, tables_10k)
        assert br.holds
        assert br.psi_value <= br.pi_ln_x <= br.upper


def test_psi_pi_bracket_rejects_bad_alpha(tables_10k):
    with pytest.raises(ValueError):
        psi_pi_bracket(100, 1.5, tables_10k)


def test_prefix_arrays_are_consistent(tables_10k):
    t = tables_10k
    assert psi(0, t) == psi(1, t) == 0.0
    assert np.all(np.diff(t.prime_powers) > 0) and np.all(np.diff(t.psi_at_powers) > 0)
    counts = np.cumsum(loop_prime_mask(t.limit))
    assert [pi_count(n, t) for n in range(t.limit + 1)] == counts.tolist()
    # n around the first segment boundary of a sieve past it
    t = build_sieve(_SEGMENT + 100)
    counts = np.cumsum(loop_prime_mask(t.limit))
    for n in (_SEGMENT - 1, _SEGMENT, _SEGMENT + 1):
        assert pi_count(n, t) == counts[n]


def test_pi_count_allocates_no_copy_of_the_primes(tables_1m):
    # an int32 primes array would be cast to an int64 copy (about 0.6 MB at
    # 10^6) by every searchsorted call with an int needle
    t = tables_1m
    assert t.primes.dtype == np.int64
    tracemalloc.start()
    try:
        for n in range(10**6 - 200, 10**6):
            pi_count(n, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
