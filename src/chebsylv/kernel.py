"""Sieve tables and summatory functions: Lambda, mu, psi, pi.

Everything here is a desk-scale exact oracle: a segmented Eratosthenes sieve
of the odd n <= ``limit``, whose Python loop runs, segment by segment, only
over the odd primes p <= sqrt(limit); mu(2m) = -mu(m) fills the even n. psi is
kept as the step function it is, at the prime powers alone, next to the list
of primes, so that psi and pi queries are each one binary search,
O(log pi(limit)), afterwards, and a check on psi itself can read it at the
steps alone. Every check of a Dirichlet sum is one pass over x in blocks: each
block gets its sums from strided adds (_add_multiples, split at sqrt(limit) by
_dirichlet_sum), and _running_peak carries the running sums from block to
block, so a check costs O(limit log limit) and a few block buffers beyond the
tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIEVE_CAP = 10**7
TOL = 1e-6  # float tolerance of every check that sums a Dirichlet convolution, here and in verify
PRINT_DIGITS = 12  # of every printed float: the CLI's, and the optimum's labels (sweep._label)

# Entries per segment of build_sieve, and per block of the identity checks: the
# int32 r(n) of the segment's odd n (512 KB) or a block's float64 sums (2 MB)
# stay in cache while every small prime or term strides them.
_SEGMENT = 1 << 18
# long double is the x87 80-bit format, with 11 more fraction bits than float64
_EXTENDED = np.finfo(np.longdouble).nmant == 63


class CapacityError(ValueError):
    """Requested limit is zero or exceeds the configured memory cap."""


class OutOfRangeError(ValueError):
    """An argument lies outside its valid range (e.g. beyond the sieve limit)."""


@dataclass(frozen=True)
class SieveTables:
    """Arithmetic tables for 1..limit (index 0 is padding).

    lam[n] = Lambda(n) (ln p for prime powers p^k, else 0) and
    moebius[n] = mu(n); primes is the sorted int64 array of the primes
    <= limit, so pi(n) is its count of entries <= n. psi changes only at the
    prime powers: prime_powers is their sorted int64 array and
    psi_at_powers[i] = psi(prime_powers[i]), so psi(n) is the value at the
    last prime power <= n, or 0 below 2.
    """

    limit: int
    lam: np.ndarray
    moebius: np.ndarray
    primes: np.ndarray
    prime_powers: np.ndarray
    psi_at_powers: np.ndarray


def _sieve_segment(lo: int, odd_primes: np.ndarray, moebius: np.ndarray) -> np.ndarray:
    """Fill moebius[lo:], the table's segment for n = lo .. len - 1, and
    return the segment's odd primes > sqrt(limit).

    The odd n = lo + 1 + 2i come first, from r(n) at index i: the product of
    -p over the odd primes p <= sqrt(limit) dividing n. Every odd composite
    n <= limit has such a p, so an odd n > sqrt(limit) is prime iff r(n) = 1,
    which holds for no odd n <= sqrt(limit) but 1. A squarefree odd n has
    mu(n) = sign r(n) when |r(n)| = n, and -sign r(n) when it also has one
    prime factor > sqrt(limit); the odd squares p^2 then zero mu. Each even
    n = 2m then takes mu(2m) = -mu(m) for odd m and 0 for even m: m < n, so
    mu(m) is filled by then, in the first segment from its odd half.
    """
    seg = moebius[lo:]
    n = np.arange(lo + 1, lo + len(seg), 2, dtype=np.int32)  # the odd n
    rad = np.ones_like(n)

    def first(d: np.ndarray) -> np.ndarray:
        # the i of each odd d's first multiple: lo + 1 + 2i = d (mod d), lo even
        return d // 2 if lo == 0 else (d // 2 - lo // 2) % d

    for p, start in zip(odd_primes.tolist(), first(odd_primes).tolist()):
        rad[start::p] *= -p
    primes = 2 * (rad == 1).nonzero()[0] + (lo + 1)
    negative = rad < 0
    negative ^= np.abs(rad, out=rad) != n  # a prime factor > sqrt(limit)
    odd = seg[1::2]
    np.subtract(1, 2 * negative.view(np.int8), out=odd)
    squares = odd_primes * odd_primes
    starts = first(squares)
    # a square >= len(odd) strikes at most one entry: all of them in one store
    big = int(squares.searchsorted(len(odd)))
    for q, start in zip(squares[:big].tolist(), starts[:big].tolist()):
        odd[start::q] = 0
    odd[starts[big:][starts[big:] < len(odd)]] = 0
    np.negative(moebius[lo // 2 : (lo + len(seg) + 1) // 2], out=seg[::2])
    seg[::4] = 0  # the n = 2m with m even, as lo is a multiple of 4
    return primes[1:] if lo == 0 else primes  # n = 1 is no prime


def _log_primes(primes: np.ndarray) -> np.ndarray:
    """ln p for each p in primes, bit for bit as math.log gives it.

    With x87 long double, ln p is np.log in long double, rounded to float64,
    and math.log is called only where that rounding is close: where the long
    double result lies within 1/32 ULP of a float64 rounding midpoint, or
    rounds to a power of two (whose ULP below is half the ULP above). x87 logl
    is within about 2^-11 ULP of a double of the exact ln p, and glibc's log,
    which math.log calls, within 0.519 ULP; so an exact ln p more than about
    0.03 ULP from a midpoint rounds to the same double in both. On other
    platforms every prime takes math.log. tests/test_kernel.py checks every
    prime up to SIEVE_CAP against math.log.
    """
    if _EXTENDED:
        z = np.log(primes.astype(np.longdouble))
        logs = z.astype(np.float64)
        # z - logs is exact in long double, and has few enough bits for float64
        gap = np.subtract(z, logs, out=z).astype(np.float64)
        frac, exp = np.frexp(logs)  # logs = frac 2^exp, 1/2 <= frac < 1: ULP 2^(exp - 53)
        ulps = np.abs(np.ldexp(gap, 53 - exp, out=gap), out=gap)
        near = np.flatnonzero((ulps >= 0.5 - 1 / 32) | (frac == 0.5))
    else:
        logs = np.empty(primes.size)
        near = np.arange(primes.size)
    logs[near] = np.fromiter(map(math.log, primes[near].tolist()), np.float64, near.size)
    return logs


def build_sieve(limit: int) -> SieveTables:
    """Sieve Lambda, mu and the primes up to limit; attach psi at the prime powers.

    The primes p <= sqrt(limit), and 2 at every limit >= 2, come from a small
    sieve; in each segment of _SEGMENT entries in turn the odd ones sieve the
    odd n, and the even n take mu(2m) = -mu(m) (_sieve_segment).
    """
    if limit < 1:
        raise CapacityError("sieve limit must be >= 1")
    if limit > SIEVE_CAP:
        raise CapacityError(f"sieve limit {limit} exceeds cap {SIEVE_CAP}")

    root = max(math.isqrt(limit), min(limit, 2))  # 2 too: the segments sieve no even n
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p :: p] = False
    small_primes = np.flatnonzero(small)
    moebius = np.empty(limit + 1, dtype=np.int8)
    # Lambda: ln p as math.log gives it (_log_primes), one segment at a time,
    # never from a list of all primes
    lam = np.zeros(limit + 1, dtype=np.float64)
    found, powers = [small_primes], []  # powers: the p^k, k >= 2, <= limit
    for p in small_primes.tolist():
        lam[p] = logp = math.log(p)
        pk = p * p
        while pk <= limit:
            lam[pk] = logp
            powers.append(pk)
            pk *= p
    for lo in range(0, limit + 1, _SEGMENT):
        primes = _sieve_segment(lo, small_primes[1:], moebius[: lo + _SEGMENT])
        lam[primes] = _log_primes(primes)
        found.append(primes)
    primes = np.concatenate(found)
    del found

    # a stable sort is a timsort here, which merges the sorted primes with
    # the few powers in about one pass
    prime_powers = np.concatenate((primes, np.array(powers, dtype=np.int64)))
    prime_powers.sort(kind="stable")
    # np.cumsum adds in sequence, and a sum >= 0 plus 0.0 is itself, so psi at
    # the prime powers is the cumsum of all of lam there, bit for bit
    psi_at_powers = lam[prime_powers]
    return SieveTables(
        limit=limit,
        lam=lam,
        moebius=moebius,
        primes=primes,
        prime_powers=prime_powers,
        psi_at_powers=np.cumsum(psi_at_powers, out=psi_at_powers),
    )


def _sieve_for(x_max: int, tables: SieveTables | None) -> SieveTables:
    """tables if they reach x_max, else a new sieve up to x_max; an x_max
    below 1 is refused before any table is read or built."""
    if x_max < 1:
        raise OutOfRangeError("limit must be >= 1")
    return tables if tables is not None and tables.limit >= x_max else build_sieve(x_max)


def _floor_in_range(x: float, tables: SieveTables) -> int:
    """floor(x), once 0 <= floor(x) <= tables.limit; NaN and +-inf are refused
    with the other x outside that range, before any table is read."""
    if not 0 <= x < tables.limit + 1:  # every comparison with NaN is false
        raise OutOfRangeError(f"x={x} outside [0, sieve limit {tables.limit}]")
    return math.floor(x)


def psi(x: float, tables: SieveTables) -> float:
    """Chebyshev psi(x) = sum of Lambda(n) over n <= x: a binary search in the
    prime powers."""
    i = int(tables.prime_powers.searchsorted(_floor_in_range(x, tables), side="right"))
    return float(tables.psi_at_powers[i - 1]) if i else 0.0


def pi_count(x: float, tables: SieveTables) -> int:
    """Number of primes <= x: a binary search in the primes, kept int64 so that
    searchsorted casts no copy of them to compare with an int."""
    return int(tables.primes.searchsorted(_floor_in_range(x, tables), side="right"))


def _add_multiples(buf: np.ndarray, lo: int, terms, g, start: int = 1) -> np.ndarray:
    """Add the sparse Dirichlet convolution c*g, on n = lo .. lo + len(buf) - 1,
    to buf: buf[n - lo] += c_k g(m) for each (k, c_k) in terms and each
    n = k m in that range with m >= start; g[a:b] holds g(m) for a <= m < b.
    Every Dirichlet sum of the sieve checks is built from this routine."""
    hi = lo + len(buf)
    for k, c in terms:
        first, last = max(start, -(-lo // k)), (hi - 1) // k
        if first > last:  # no multiple of k in the block
            continue
        view, values = buf[k * first - lo :: k], g[first : last + 1]
        if c == 1:  # the same sums as view += c * values, without the product
            view += values
        elif c == -1:
            view -= values
        else:  # a product no longer than the block
            view += c * values
    return buf


class _Slices:
    """g[a:b] made on demand as make(a, b): a source of slices with no table."""

    def __init__(self, make) -> None:
        self.make = make

    def __getitem__(self, span: slice) -> np.ndarray:
        return self.make(span.start, span.stop)


def _logs(a: int, b: int) -> np.ndarray:
    m = np.arange(a, b, dtype=np.float64)
    return np.log(m, out=m)


_LOGS = _Slices(_logs)  # ln m for every m >= 1: the one source of the checks' logs


def _block_logs(limit: int) -> _Slices:
    """_LOGS with ln m for m <= min(_SEGMENT, limit) made once: in block i of a
    pass, each term k > i of a Dirichlet sum reads only such m."""
    held = _logs(1, min(_SEGMENT, limit) + 1)
    return _Slices(lambda a, b: held[a - 1 : b - 1] if b <= len(held) + 1 else _logs(a, b))


def _dirichlet_sum(f: np.ndarray, g, limit: int):
    """add(buf, lo), which adds (f*g)(n) = sum of f(d) g(n/d) over d | n to buf
    on n = lo .. lo + len(buf) - 1 <= limit. As in the hyperbola method, the
    divisors d <= r = isqrt(limit) with f(d) != 0 add f(d) g(n/d), then the
    cofactors j <= limit // (r + 1) with g(j) != 0 add g(j) f(n/j) for n/j > r:
    each n gets its terms in this order in any block. f is a table (float64,
    or int8 like mu); g is a table or any source of slices g[a:b]."""
    root = math.isqrt(limit)
    d = np.flatnonzero(f[1 : root + 1]) + 1
    divisors = list(zip(d.tolist(), f[d].tolist()))
    small = g[1 : limit // (root + 1) + 1]
    j = np.flatnonzero(small) + 1
    cofactors = list(zip(j.tolist(), small[j - 1].tolist()))
    return lambda buf, lo: _add_multiples(
        _add_multiples(buf, lo, divisors, g), lo, cofactors, f, start=root + 1
    )


def _first_max(values: np.ndarray, xs, best: tuple[float, int]) -> tuple[float, int]:
    """(max, x) of values, whose entry i belongs to x = xs[i], if that max
    exceeds best[0]; else best. On ties the earlier x wins."""
    i = int(values.argmax())
    return (float(values[i]), int(xs[i])) if values[i] > best[0] else best


def _running_peak(x_max: int, block: int, fill) -> tuple[float, int]:
    """The peak (at least 0.0) of running sums S(x) = sum of diff(n) over
    1 <= n <= x, x = 1..x_max, and the first x that reaches it. fill(buf, lo)
    returns diff(n), n = lo .. lo + len(buf) - 1, in the zeroed buf or new
    arrays: of one sum, whose peak is max |S| (the worse of the sides S and
    -S), or of two sums, whose peak is the larger of their maxima. One pass
    over x in blocks carries each sum into the next block, so it works in a
    few block buffers for any x_max."""
    # -0.0 is the identity of float addition, so the first block's sums are
    # those of one cumsum over all of x
    carry = [-0.0, -0.0]
    peaks = [(-math.inf, 0), (-math.inf, 0)]
    # one buffer for every block: a new 2 MB buffer per block can cost a
    # page fault per 4 KB, whenever malloc hands such blocks back to the OS
    held = np.empty(min(block, x_max))
    for lo in range(1, x_max + 1, block):
        buf = held[: min(block, x_max + 1 - lo)]
        buf.fill(0.0)
        diffs = fill(buf, lo)
        for i, diff in enumerate(diffs):
            diff[0] += carry[i]
            carry[i] = np.cumsum(diff, out=diff)[-1]
            if len(diffs) == 1:
                np.abs(diff, out=diff)
            peaks[i] = _first_max(diff, range(lo, lo + len(diff)), peaks[i])
        del diffs, diff  # this block's other buffers go before the next block's
    worst = max(peak for peak, _ in peaks)
    return max(0.0, worst), min(x for peak, x in peaks if peak == worst)


@dataclass(frozen=True)
class ConvolutionReport:
    limit: int
    max_dev_T: float
    max_dev_psi: float

    @property
    def passed(self) -> bool:
        # Measured max_dev_T / max_dev_psi: 5.0e-13 / 1.3e-13 at limit 10^4,
        # 6.8e-12 / 3.4e-13 at 10^5, 5.3e-11 / 1.6e-12 at 10^6 and
        # 5.0e-10 / 9.0e-11 at 10^7 (x86-64, numpy 2.4).
        return max(self.max_dev_T, self.max_dev_psi) <= TOL


def check_convolution_identities(
    limit: int, tables: SieveTables | None = None
) -> ConvolutionReport:
    """Check T(x) = sum_k psi(x/k) and psi(x) = sum_k mu(k) T(x/k) for x <= limit.

    Differenced in x these are Lambda*1 = ln and Lambda = mu*ln; the report
    gives max_x |sum_{n<=x} (a(n) - b(n))| for each, which is the deviation
    between the two sides at x, accumulated from per-n differences.
    """
    tables = _sieve_for(limit, tables)
    lam = tables.lam
    logs = _block_logs(limit)
    lam_1 = _dirichlet_sum(lam, np.broadcast_to(np.float64(1.0), (limit + 1,)), limit)
    # mu stays int8: each mu(d) * ln and ln(j) * mu is the float64 product
    mu_ln = _dirichlet_sum(tables.moebius, logs, limit)

    def dev_t(buf: np.ndarray, lo: int):  # (Lambda*1 - ln)(n)
        return (np.subtract(lam_1(buf, lo), logs[lo : lo + len(buf)], out=buf),)

    def dev_psi(buf: np.ndarray, lo: int):  # (Lambda - mu*ln)(n)
        return (np.subtract(lam[lo : lo + len(buf)], mu_ln(buf, lo), out=buf),)

    return ConvolutionReport(
        limit=limit,
        max_dev_T=_running_peak(limit, _SEGMENT, dev_t)[0],
        max_dev_psi=_running_peak(limit, _SEGMENT, dev_psi)[0],
    )
