"""Reference implementations the tests compare the library against."""

import math

import numpy as np

from chebsylv.kernel import log_table


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
