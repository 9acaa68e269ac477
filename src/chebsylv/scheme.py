"""Moebius-surrogate schemes: parsing, cancellation, growth constant, E-profile.

A scheme is a finitely supported integer-weighted function nu on the positive
integers. When sum nu(k)/k = 0, the step function
E(x) = sum_k nu(k) * floor(x/k) is periodic with period lcm(support) and
drives every bound downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .kernel import CapacityError

PERIOD_CAP = 10**6


class SchemeError(ValueError):
    """Malformed scheme text or a scheme outside the method's assumptions."""


@dataclass(frozen=True)
class Scheme:
    """Ordered (index, weight) terms with strictly increasing indices."""

    terms: tuple[tuple[int, int], ...]
    name: str | None = None

    def __post_init__(self) -> None:
        if not self.terms:
            raise SchemeError("scheme has no terms")
        indices = [k for k, _ in self.terms]
        if indices != sorted(set(indices)):
            raise SchemeError("indices must be unique and increasing")
        if any(k < 1 for k in indices) or any(w == 0 for _, w in self.terms):
            raise SchemeError("indices must be positive and weights nonzero")
        if self.terms[0] != (1, 1):
            raise SchemeError("scheme must carry index 1 with weight +1")
        if not all(-(2**63) <= w < 2**63 for _, w in self.terms):
            raise SchemeError("weights must fit in int64")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.terms)


def parse_scheme(text: str, name: str | None = None) -> Scheme:
    """Parse bracket form "[1,30;2,3,5]" or explicit form "1:1,2:-1,...".

    Bracket form: each index on the left contributes +1, each on the right -1;
    repetitions accumulate. Accumulated zero weights are dropped.
    """
    text = text.strip()
    weights: dict[int, int] = {}
    try:
        if text.startswith("[") and text.endswith("]"):
            left, _, right = text[1:-1].partition(";")
            for part, sign in ((left, 1), (right, -1)):
                for tok in part.split(","):
                    tok = tok.strip()
                    if tok:
                        k = int(tok)
                        weights[k] = weights.get(k, 0) + sign
        else:
            for tok in text.split(","):
                idx, _, w = tok.partition(":")
                k = int(idx.strip())
                weights[k] = weights.get(k, 0) + int(w.strip())
    except ValueError as exc:
        raise SchemeError(f"malformed scheme text {text!r}") from exc
    if not weights:
        raise SchemeError(f"empty scheme text {text!r}")
    return Scheme(terms=tuple(sorted((k, w) for k, w in weights.items() if w != 0)), name=name)


def render_scheme(s: Scheme) -> str:
    """Explicit-form text that parse_scheme round-trips."""
    return ",".join(f"{k}:{w}" for k, w in s.terms)


def cancellation_check(s: Scheme) -> Fraction:
    """Exact rational sum of weight(k)/k; zero iff E is periodic."""
    return sum((Fraction(w, k) for k, w in s.terms), Fraction(0))


def constant_A(s: Scheme) -> float:
    """Linear growth rate of V: A = -sum weight(k) ln(k) / k."""
    return -math.fsum(w * math.log(k) / k for k, w in s.terms)


@dataclass(frozen=True, eq=False)
class EProfile:
    """One period of E at integer arguments plus derived metrics.

    values[i] = E(i+1) for i = 0..period-1; n is the first x >= 2 with
    E(x) < 1, m the first x >= 2 with E(x) > 1 (None when E <= 1 throughout).
    """

    period: int
    values: np.ndarray
    n: int
    m: int | None
    e_min: int
    e_max: int

    @property
    def jumps(self) -> tuple[tuple[int, int], ...]:
        """(x, E(x) - E(x-1)) at every x of the period where E moves."""
        deltas = np.diff(self.values, prepend=0)
        at = np.flatnonzero(deltas)
        return tuple(zip((at + 1).tolist(), deltas[at].tolist()))

    @property
    def first_occurrence(self) -> dict[int, int]:
        """The first x of the period at which E takes each of its levels."""
        levels, first = np.unique(self.values, return_index=True)
        return dict(zip(levels.tolist(), (first + 1).tolist()))


def e_profile(s: Scheme) -> EProfile:
    """Compute E over one full period; requires the cancellation condition.
    E(x) - E(x-1) is nu summed over the divisors of x: one strided add per term."""
    period = math.lcm(*s.support)
    if sum(w * (period // k) for k, w in s.terms):  # E(P) = P sum nu(k)/k, in integers
        raise SchemeError(
            f"scheme {render_scheme(s)} fails the cancellation condition "
            f"(sum nu(n)/n = {cancellation_check(s)}); E is not periodic"
        )
    if period > PERIOD_CAP:
        raise CapacityError(f"period {period} exceeds cap {PERIOD_CAP}")
    # bounds every |E(x) - E(x-1)| and every |E(x)| on the period, and so the int64 sums
    if sum(abs(w) * (period // k) for k, w in s.terms) >= 2**63:
        raise CapacityError("E may pass int64: sum |nu(k)| floor(P/k) >= 2^63")

    values = np.zeros(period, dtype=np.int64)
    for k, w in s.terms:
        values[k - 1 :: k] += w
    np.cumsum(values, out=values)  # exact under the int64 bound: E(P) = 0, as tested above

    above = values > 1
    m = int(above.argmax())
    return EProfile(
        period=period,
        values=values,
        n=int((values < 1).argmax()) + 1,  # E(period) = 0, so some x has E < 1
        m=m + 1 if above[m] else None,
        e_min=int(values.min()),
        e_max=int(values.max()),
    )


@dataclass(frozen=True)
class BaseBounds:
    """Telescoping bounds of the one-shot theorem: A' x <= psi(x) <= B x."""

    A: float
    B: float
    A_prime: float | None
    b_factor: Fraction
    a_prime_factor: Fraction | None
    lower_applicable: bool


def base_bounds(s: Scheme, profile: EProfile | None = None) -> BaseBounds:
    """B = N/(N-1) A always; A' = A when E <= 1, (1 - N/(M(N-1))) A when E <= 2."""
    if profile is None:
        profile = e_profile(s)
    n = profile.n
    if n < 2:
        raise SchemeError("N < 2: scheme unusable for telescoping")
    a = constant_A(s)
    b_factor = Fraction(n, n - 1)
    if profile.e_max <= 1:
        a_factor: Fraction | None = Fraction(1)
    elif profile.e_max <= 2:
        m = profile.m
        assert m is not None
        a_factor = 1 - Fraction(n, m * (n - 1))
    else:
        a_factor = None
    return BaseBounds(
        A=a,
        B=float(b_factor) * a,
        A_prime=None if a_factor is None else float(a_factor) * a,
        b_factor=b_factor,
        a_prime_factor=a_factor,
        lower_applicable=a_factor is not None,
    )


# nu4 uses the delta-expansion {1,-2,-3,-6}; the bracket string "[1,6;2,3]"
# circulating for it fails the cancellation condition.
BUILTINS: dict[str, Scheme] = {
    "nu1": parse_scheme("1:1,2:-2", "nu1"),
    "nu2": parse_scheme("1:1,2:-1,3:-2,6:1", "nu2"),
    "nu3": parse_scheme("1:1,2:-1,3:-1,4:-1,12:1", "nu3"),
    "nu4": parse_scheme("1:1,2:-1,3:-1,6:-1", "nu4"),
    "nu5": parse_scheme("1:1,2:-1,3:-1,5:-1,15:1,30:-1", "nu5"),
    "nu6": parse_scheme("1:1,2:-1,3:-1,5:-1,6:1,7:-1,70:1,210:-1", "nu6"),
    "nu7": parse_scheme("[1,6,10,210,231,1155;2,3,5,7,11,105]", "nu7"),
    "nu8": parse_scheme("[1,6,10,14,105;2,3,5,7,11,13,385,1001]", "nu8"),
    "cheb": parse_scheme("[1,30;2,3,5]", "cheb"),
}


def resolve_scheme(text: str) -> Scheme:
    """Registry name, bracket string, or explicit index:weight list."""
    if text in BUILTINS:
        return BUILTINS[text]
    return parse_scheme(text)
