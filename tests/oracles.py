"""Reference implementations the tests compare the library against, and
the random schemes they compare them on."""

import math
import random
from fractions import Fraction

import numpy as np

from chebsylv.kernel import CapacityError, log_table
from chebsylv.scheme import PERIOD_CAP, Scheme, SchemeError, cancellation_check, render_scheme


def chebyshev_T(x: float) -> float:
    """T(x) = sum of ln n over n <= x = ln(floor(x)!)."""
    if x < 0:
        raise ValueError("T requires x >= 0")
    n = math.floor(x)
    if n < 2:
        return 0.0
    return math.fsum(math.log(k) for k in range(2, n + 1))


def log_prefix(limit: int) -> np.ndarray:
    """Prefix table t[n] = T(n) for n = 0..limit."""
    return np.cumsum(log_table(limit))


def value_at(profile, x: int) -> int:
    """E(x) for any integer x >= 1, by periodic extension of one period."""
    return int(profile.values[(x - 1) % profile.period])


def floor_division_profile(s: Scheme) -> dict:
    """Every field and property of e_profile(s), with E(x) = sum nu(k) floor(x/k)
    evaluated term by term over the period; raises as e_profile does."""
    total = cancellation_check(s)
    if total != 0:
        raise SchemeError(
            f"scheme {render_scheme(s)} fails the cancellation condition "
            f"(sum nu(n)/n = {total}); E is not periodic"
        )
    period = math.lcm(*s.support)
    if period > PERIOD_CAP:
        raise CapacityError(f"period {period} exceeds cap {PERIOD_CAP}")
    xs = np.arange(1, period + 1, dtype=np.int64)
    values = np.zeros(period, dtype=np.int64)
    for k, w in s.terms:
        values += w * (xs // k)
    deltas = np.diff(values, prepend=0)
    jump_pos = np.flatnonzero(deltas)
    below = np.nonzero(values < 1)[0]
    above = np.nonzero(values > 1)[0]
    levels, first = np.unique(values, return_index=True)
    return {
        "period": period,
        "values": values,
        "jumps": tuple(zip((jump_pos + 1).tolist(), deltas[jump_pos].tolist())),
        "n": int(below[0] + 1) if below.size else period + 1,
        "m": int(above[0] + 1) if above.size else None,
        "e_min": int(levels[0]),
        "e_max": int(levels[-1]),
        "first_occurrence": dict(zip(levels.tolist(), (first + 1).tolist())),
    }


def random_cancelling_schemes(count, seed):
    """Schemes with weights on a few divisors of L in [12, 840], closed by a
    weight of at most 3 in size at L so that sum nu(k)/k = 0."""
    rng = random.Random(seed)
    schemes = set()
    while len(schemes) < count:
        big = rng.randint(12, 840)
        divisors = [d for d in range(2, big) if big % d == 0]
        weights = {1: 1}
        for d in rng.sample(divisors, min(len(divisors), rng.randint(1, 5))):
            weights[d] = rng.choice((-2, -1, -1, 1, 1, 2))
        closing = -big * sum(Fraction(w, k) for k, w in weights.items())
        if closing.denominator == 1 and 0 < abs(closing) <= 3:
            weights[big] = int(closing)
            schemes.add(tuple(sorted((k, w) for k, w in weights.items() if w)))
    return [Scheme(terms) for terms in sorted(schemes)]


RANDOM_SCHEMES = random_cancelling_schemes(200, seed=7)
