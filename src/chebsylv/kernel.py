"""Sieve tables and summatory functions: Lambda, mu, psi, pi.

Everything here is a desk-scale exact oracle: a segmented Eratosthenes sieve
up to ``limit`` whose Python loop runs, segment by segment, only over the
primes p <= sqrt(limit), with prefix sums, so that psi and pi queries are
O(1) afterwards. The identity checks compare Dirichlet convolutions n by n
in O(limit log limit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIEVE_CAP = 10**7
LCM_CAP = 10**4

# Entries per segment of build_sieve: the segment's int32 radical (1 MB) and
# its slices of the tables stay in cache while every small prime strides them.
_SEGMENT = 1 << 18


class CapacityError(ValueError):
    """Requested limit is zero or exceeds the configured memory cap."""


class OutOfRangeError(ValueError):
    """An argument lies outside its valid range (e.g. beyond the sieve limit)."""


@dataclass(frozen=True)
class SieveTables:
    """Arithmetic tables for 1..limit (index 0 is padding).

    lam[n] = Lambda(n) (ln p for prime powers p^k, else 0),
    moebius[n] = mu(n), psi_prefix[n] = psi(n), pi_prefix[n] = pi(n).
    """

    limit: int
    lam: np.ndarray
    moebius: np.ndarray
    is_prime: np.ndarray
    psi_prefix: np.ndarray
    pi_prefix: np.ndarray


def _sieve_segment(lo: int, small_primes: np.ndarray, is_prime: np.ndarray, moebius: np.ndarray) -> None:
    """Fill is_prime and moebius, the tables' slices for n = lo .. lo + len - 1,
    from r(n), the product of -p over the primes p <= sqrt(limit) dividing n.

    Every composite n <= limit has such a p, so n > sqrt(limit) is prime iff
    r(n) = 1. A squarefree n has mu(n) = sign r(n) when |r(n)| = n, and
    -sign r(n) when it also has one prime factor > sqrt(limit); the squares
    p^2 then zero mu. Entries n <= sqrt(limit) of is_prime are the caller's.
    """
    rad = np.ones(len(is_prime), dtype=np.int32)
    # the first multiple of p at or after lo, skipping n = 0
    starts = small_primes if lo == 0 else (-lo) % small_primes
    for p, start in zip(small_primes.tolist(), starts.tolist()):
        rad[start::p] *= -p
    np.equal(rad, 1, out=is_prime)
    has_big = np.abs(rad) != np.arange(lo, lo + len(rad), dtype=np.int32)
    np.copyto(moebius, np.where((rad < 0) != has_big, np.int8(-1), np.int8(1)))
    squares = small_primes * small_primes
    for q, start in zip(squares.tolist(), ((-lo) % squares).tolist()):
        if start < len(rad):
            moebius[start::q] = 0


def build_sieve(limit: int) -> SieveTables:
    """Sieve Lambda, mu, primality up to limit and attach prefix sums.

    The primes p <= sqrt(limit) come from a small sieve; every segment of
    _SEGMENT entries is then sieved by them in turn (_sieve_segment).
    """
    if limit < 1:
        raise CapacityError("sieve limit must be >= 1")
    if limit > SIEVE_CAP:
        raise CapacityError(f"sieve limit {limit} exceeds cap {SIEVE_CAP}")

    root = math.isqrt(limit)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p :: p] = False
    small_primes = np.flatnonzero(small)
    is_prime = np.empty(limit + 1, dtype=bool)
    moebius = np.empty(limit + 1, dtype=np.int8)
    for lo in range(0, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)
        _sieve_segment(lo, small_primes, is_prime[lo:hi], moebius[lo:hi])
    is_prime[: root + 1] = small
    moebius[0] = 0

    lam = np.zeros(limit + 1, dtype=np.float64)
    for p in small_primes.tolist():
        logp = math.log(p)
        pk = p * p
        while pk <= limit:
            lam[pk] = logp
            pk *= p
    primes = np.flatnonzero(is_prime)
    # math.log, not np.log: the two differ in the last bit at some primes.
    lam[primes] = np.fromiter(map(math.log, primes.tolist()), np.float64, primes.size)

    psi_prefix = np.cumsum(lam)
    # summed in place: np.cumsum(is_prime, dtype=np.int64) casts into a
    # second int64 table of its own
    pi_prefix = is_prime.astype(np.int64)
    np.cumsum(pi_prefix, out=pi_prefix)
    return SieveTables(
        limit=limit,
        lam=lam,
        moebius=moebius,
        is_prime=is_prime,
        psi_prefix=psi_prefix,
        pi_prefix=pi_prefix,
    )


def _sieve_for(x_max: int, tables: SieveTables | None) -> SieveTables:
    """tables if they reach x_max, else a new sieve up to x_max; an x_max
    below 1 is refused before any table is read or built."""
    if x_max < 1:
        raise OutOfRangeError("limit must be >= 1")
    return tables if tables is not None and tables.limit >= x_max else build_sieve(x_max)


def psi(x: float, tables: SieveTables) -> float:
    """Chebyshev psi(x) = sum of Lambda(n) over n <= x."""
    if x < 0:
        raise ValueError("psi requires x >= 0")
    n = math.floor(x)
    if n > tables.limit:
        raise OutOfRangeError(f"x={x} beyond sieve limit {tables.limit}")
    if n < 1:
        return 0.0
    return float(tables.psi_prefix[n])


def pi_count(x: float, tables: SieveTables) -> int:
    """Number of primes <= x."""
    n = math.floor(x)
    if n > tables.limit:
        raise OutOfRangeError(f"x={x} beyond sieve limit {tables.limit}")
    if n < 2:
        return 0
    return int(tables.pi_prefix[n])


def log_table(limit: int) -> np.ndarray:
    """Table l[n] = ln n for n = 1..limit, with l[0] = 0."""
    t = np.arange(limit + 1, dtype=np.float64)
    np.log(t[1:], out=t[1:])
    return t


def _add_multiples(buf: np.ndarray, lo: int, terms, g, start: int = 1) -> np.ndarray:
    """Add the sparse Dirichlet convolution c*g, on n = lo .. lo + len(buf) - 1,
    to buf: buf[n - lo] += c_k g(m) for each (k, c_k) in terms and each
    n = k m in that range with m >= start; g[a:b] holds g(m) for a <= m < b.
    Every Dirichlet sum of the sieve checks is built from this routine."""
    hi = lo + len(buf)
    for k, c in terms:
        first, last = max(start, -(-lo // k)), (hi - 1) // k  # empty slices if first > last
        view, values = buf[k * first - lo :: k], g[first : last + 1]
        if c == 1:  # the same sums as view += c * values, without the product
            view += values
        elif c == -1:
            view -= values
        else:
            view += c * values
    return buf


def dirichlet_convolution(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(f*g)(n) = sum of f(d) g(n/d) over d | n, for n = 1..L (index 0 is 0).

    f and g are tables over 0..L (float64, or int8 like mu), summed in
    float64. Each divisor d <= sqrt(L) with f(d) != 0 adds f(d) g(1..L/d)
    along stride d; every larger d has a cofactor j = n/d <= sqrt(L), and
    each such j with g(j) != 0 adds g(j) f(d) for d in (sqrt(L), L/j] along
    stride j. O(L log L) work.
    """
    limit = len(f) - 1
    root = math.isqrt(limit)
    out = np.zeros(limit + 1)
    d = np.flatnonzero(f[1 : root + 1]) + 1
    _add_multiples(out, 0, zip(d.tolist(), f[d].tolist()), g)
    j = np.flatnonzero(g[1 : limit // (root + 1) + 1]) + 1
    return _add_multiples(out, 0, zip(j.tolist(), g[j].tolist()), f, start=root + 1)


def max_abs_prefix(diff: np.ndarray) -> tuple[float, int]:
    """max over x of |sum of diff[n] for 1 <= n <= x|, and the first x attaining it.

    Overwrites diff[1:] with those sums' absolute values. Returns (0.0, 0)
    when diff holds no n >= 1.
    """
    dev = np.cumsum(diff[1:], out=diff[1:])
    if dev.size == 0:
        return 0.0, 0
    np.abs(dev, out=dev)
    i = int(dev.argmax())
    return float(dev[i]), i + 1


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
        return max(self.max_dev_T, self.max_dev_psi) <= 1e-6


def check_convolution_identities(
    limit: int, tables: SieveTables | None = None
) -> ConvolutionReport:
    """Check T(x) = sum_k psi(x/k) and psi(x) = sum_k mu(k) T(x/k) for x <= limit.

    Differenced in x these are Lambda*1 = ln and Lambda = mu*ln; the report
    gives max_x |sum_{n<=x} (a(n) - b(n))| for each, which is the deviation
    between the two sides at x, accumulated from per-n differences.
    """
    tables = _sieve_for(limit, tables)
    lam = tables.lam[: limit + 1]
    logs = log_table(limit)
    ones = np.broadcast_to(np.float64(1.0), (limit + 1,))
    lam_1 = dirichlet_convolution(lam, ones)
    dev_t, _ = max_abs_prefix(np.subtract(lam_1, logs, out=lam_1))
    del lam_1  # 8 B/n, freed before the second convolution
    # mu stays int8: each mu(d) * ln and ln(j) * mu is the float64 product
    mu_ln = dirichlet_convolution(tables.moebius[: limit + 1], logs)
    dev_psi, _ = max_abs_prefix(np.subtract(lam, mu_ln, out=mu_ln))
    return ConvolutionReport(limit=limit, max_dev_T=dev_t, max_dev_psi=dev_psi)


def lcm_identity_failures(x_max: int) -> list[int]:
    """Every x <= x_max at which the product of p over prime powers p^m <= x
    differs from lcm(1..x).

    One pass with both sides as running integers: the product gains a factor
    p at each prime power x = p^m, and the lcm takes in x. The lcm has about
    1.44 x bits, so the pass is quadratic in x_max and capped at LCM_CAP.
    """
    if x_max < 1:
        raise OutOfRangeError("lcm check needs x_max >= 1")
    if x_max > LCM_CAP:
        raise CapacityError(f"lcm check limit {x_max} exceeds cap {LCM_CAP}")
    base = [1] * (x_max + 1)  # base[p^m] = p, 1 elsewhere
    composite = bytearray(x_max + 1)
    for p in range(2, x_max + 1):
        if not composite[p]:
            composite[p::p] = b"\1" * (x_max // p)
            pk = p
            while pk <= x_max:
                base[pk] = p
                pk *= p
    prod = lcm = 1
    failures = []
    for x in range(1, x_max + 1):
        prod *= base[x]
        lcm = math.lcm(lcm, x)
        if prod != lcm:
            failures.append(x)
    return failures


def lcm_identity_check(x: int) -> bool:
    """True iff the product of p over prime powers p^m <= x equals lcm(1..x)."""
    return x not in lcm_identity_failures(x)


@dataclass(frozen=True)
class PsiPiBracket:
    x: float
    alpha: float
    psi_value: float
    pi_ln_x: float
    upper: float
    holds: bool


def psi_pi_bracket(x: float, alpha: float, tables: SieveTables) -> PsiPiBracket:
    """Evaluate psi(x) <= pi(x) ln x <= psi(x)/alpha + x^alpha ln x."""
    if not 0 < alpha < 1:
        raise OutOfRangeError("alpha must be in (0, 1)")
    if x <= 1:
        raise OutOfRangeError("x must exceed 1")
    psi_v = psi(x, tables)
    mid = pi_count(x, tables) * math.log(x)
    upper = psi_v / alpha + x**alpha * math.log(x)
    return PsiPiBracket(
        x=x,
        alpha=alpha,
        psi_value=psi_v,
        pi_ln_x=mid,
        upper=upper,
        holds=psi_v <= mid + 1e-9 and mid <= upper + 1e-9,
    )
