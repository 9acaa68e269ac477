"""Reference implementations the tests compare the library against, and
the random schemes they compare them on."""

import cmath
import math
import random
from decimal import ROUND_FLOOR, Decimal
from fractions import Fraction

import numpy as np

from chebsylv import build_recurrence, constant_A, e_profile, fixed_point, select_terms
from chebsylv.iteration import AffineRecurrence, IterationError, IterationResult
from chebsylv.kernel import CapacityError, ConvolutionReport, _add_multiples
from chebsylv.scheme import PERIOD_CAP, Scheme, SchemeError, cancellation_check, render_scheme
from chebsylv.selection import bound_terms
from chebsylv.verify import TOL, VerificationReport


def log_table(limit: int) -> np.ndarray:
    """Table l[n] = ln n for n = 1..limit, with l[0] = 0."""
    t = np.arange(limit + 1, dtype=np.float64)
    np.log(t[1:], out=t[1:])
    return t


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


def fraction_fixed_point(rec: AffineRecurrence) -> IterationResult:
    """fixed_point in Fraction arithmetic: trace, determinants, adjugate and
    limits each an exact reduced rational, every float rounded from one."""
    tr, det_m = rec.m11 + rec.m22, rec.m11 * rec.m22 - rec.m12 * rec.m21
    det = 1 - tr + det_m  # det(I - M)
    if det == 0:
        raise IterationError("I - M is singular: no fixed point")
    t, d = float(tr), float(det_m)
    disc = t * t - 4 * d
    root = math.sqrt(disc) if disc >= 0 else cmath.sqrt(disc)
    # det * (a, b) = adj(I - M) (upper_A, k lower_A), coefficient by coefficient
    a_up, a_lo = 1 - rec.m22, rec.m12 * rec.k
    b_up, b_lo = rec.m21, (1 - rec.m11) * rec.k
    if rec.upper_A == rec.lower_A:
        alpha, beta = (a_up + a_lo) / det, (b_up + b_lo) / det
        a_limit, b_limit = float(alpha) * rec.upper_A, float(beta) * rec.upper_A
    else:
        alpha = beta = None
        up_A, lo_A = Fraction(rec.upper_A), Fraction(rec.lower_A)
        a_limit = float((a_up * up_A + a_lo * lo_A) / det)
        b_limit = float((b_up * up_A + b_lo * lo_A) / det)
    return IterationResult(
        alpha=alpha,
        beta=beta,
        a_limit=a_limit,
        b_limit=b_limit,
        ratio=b_limit / a_limit if a_limit else math.inf,
        eigenvalues=((t - root) / 2, (t + root) / 2),
        converges=abs(det_m) < 1 and abs(tr) < 1 + det_m,
    )


def _floor_12_digits(x: float) -> float:
    """The largest decimal of 12 significant digits not above x."""
    d = Decimal(x)
    return float(d.quantize(Decimal(1).scaleb(d.adjusted() - 11), ROUND_FLOOR))


def plateau_walk(s: Scheme, rho_min: float, rho_max: float, step: float):
    """optimize_rho by exhaustion: every grid point rho_min + i step, then the top of
    every plateau of the window past the first (which holds rho_min) at its largest
    12-digit decimal not above the top, each solved through select_terms,
    build_recurrence and fixed_point with no solve budget. Returns the best
    (rho, a, b) by largest a, by smallest b and by smallest b/a over the points that
    converge with a > 0; ties go to the earlier point. A plateau narrower than
    12 digits is passed over."""
    profile, A = e_profile(s), constant_A(s)
    grid = [rho_min + i * step for i in range(int((rho_max - rho_min) / step + 1e-9) + 1)]
    hi = max(rho_max, grid[-1])
    kept = (select_terms(profile, side, rho_min).kept_pairs for side in ("lower", "upper"))
    ratios = sorted(n / m for pairs in kept for m, n in pairs if n / m < hi)
    tops = (_floor_12_digits(top) for top in ratios[1:] + [hi])
    points = grid + [x for below, x in zip(ratios, tops) if x > below]
    found = []
    for rho in points:
        lower, upper = (select_terms(profile, side, rho) for side in ("lower", "upper"))
        result = fixed_point(build_recurrence(lower, upper, A, profile.n))
        if result.converges and result.a_limit > 0:
            found.append((rho, result.a_limit, result.b_limit))
    return (
        min(found, key=lambda r: -r[1]),
        min(found, key=lambda r: r[2]),
        min(found, key=lambda r: r[2] / r[1]),
    )


def optimize_windows(seed: int) -> list[tuple[str, float, float, float]]:
    """(scheme, rho_min, rho_max, step) of the twenty optimize windows that the
    optimize benchmark draws for seed: one for nu8 and five for nu7, 0.2 wide at
    step 0.01, and two for each small built-in, 0.3 wide at step 0.005. Each start
    is uniform in its own equal sub-band above where the scheme converges; the
    benchmark's sweep windows are drawn in between and passed over."""
    converges_from = {
        "nu1": 1.34, "nu2": 1.18, "nu3": 1.16, "nu4": 1.18, "nu5": 1.10,
        "nu6": 1.06, "nu7": 1.06, "nu8": 1.04, "cheb": 1.06,
    }
    strata = [("nu8", 1, 1.30, 0.01, 0.2), ("nu7", 5, 1.30, 0.01, 0.2)]
    for name in ("nu1", "nu2", "nu3", "nu4", "nu5", "nu6", "cheb"):
        strata.append((name, 2, 1.6, 0.005, 0.3))
    rng = random.Random(f"optimize:{seed}")
    windows = []
    for name, k, top, step, width in strata:
        lo = converges_from[name] + 0.02
        starts = [round(lo + (i + rng.random()) * ((top - lo) / k), 2) for i in range(k)]
        windows += [(name, start, round(start + width, 2), step) for start in starts]
        for _ in range(k):  # the starts of as many sweep windows
            rng.random()
    return windows


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


def _add_strided(out: np.ndarray, terms, g: np.ndarray) -> np.ndarray:
    """out[n] += c_k g(n/k) for each (k, c_k) in terms and each multiple n of k."""
    limit = len(out) - 1
    for k, c in terms:
        out[k::k] += c * g[1 : limit // k + 1]
    return out


def dense_selection_bounds(s, lower, upper, x_max, tables) -> VerificationReport:
    """verify_selection_bounds in one dense pass: each side's per-n gap
    differences as a length-x_max table, summed with one cumsum."""
    dv = _add_strided(np.zeros(x_max + 1), s.terms, log_table(x_max))
    sides = [  # the lower side copies dv before the upper side adds into it
        _add_strided(-dv, bound_terms(lower), tables.lam),
        _add_strided(dv, [(k, -c) for k, c in bound_terms(upper)], tables.lam),
    ]
    gaps = [np.cumsum(diff[1:], out=diff[1:]) for diff in sides]
    peaks = [(float(gap.max()), int(gap.argmax()) + 1) for gap in gaps]
    worst = max(peak for peak, _ in peaks)
    return VerificationReport(
        name=f"selection-bounds[{s.name or 'scheme'}@rho={lower.rho}]",
        x_min=1,
        x_max=x_max,
        max_violation=max(0.0, worst),
        passed=worst <= TOL,
        witness_x=min(x for peak, x in peaks if peak == worst) if worst > TOL else None,
    )


def dense_final_bounds(a, b, x_max, tables) -> VerificationReport:
    """verify_final_bounds in one dense pass over 100 <= x <= x_max."""
    xs = np.arange(100, x_max + 1, dtype=np.float64)
    ln2 = np.log(xs)
    ln2 *= ln2
    psi_v = np.cumsum(tables.lam)[100 : x_max + 1]
    c_low = a * xs
    c_low -= psi_v
    c_low /= ln2
    c_high = np.subtract(psi_v, np.multiply(xs, b, out=xs), out=xs)
    c_high /= ln2
    i_low = int(c_low.argmax())
    i_high = int(c_high.argmax())
    cutoff = x_max // 10 - 100  # the index of x = x_max // 10
    passed = i_low < cutoff and i_high < cutoff
    witness = None if passed else 100 + (i_low if i_low >= cutoff else i_high)
    return VerificationReport(
        name=f"final-bounds[a={a},b={b}]",
        x_min=100,
        x_max=x_max,
        max_violation=float(max(c_low[i_low], c_high[i_high])),
        passed=passed,
        witness_x=witness,
        extras={"C_low": float(c_low[i_low]), "C_high": float(c_high[i_high])},
    )


def dirichlet_convolution(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(f*g)(n) = sum of f(d) g(n/d) over d | n, for n = 1..L (index 0 is 0),
    as one length-L array: each divisor d <= sqrt(L) with f(d) != 0 adds
    f(d) g(1..L/d) along stride d, then each cofactor j <= L // (sqrt(L) + 1)
    with g(j) != 0 adds g(j) f(d) for d in (sqrt(L), L/j] along stride j."""
    limit = len(f) - 1
    root = math.isqrt(limit)
    out = np.zeros(limit + 1)
    d = np.flatnonzero(f[1 : root + 1]) + 1
    _add_multiples(out, 0, zip(d.tolist(), f[d].tolist()), g)
    j = np.flatnonzero(g[1 : limit // (root + 1) + 1]) + 1
    return _add_multiples(out, 0, zip(j.tolist(), g[j].tolist()), f, start=root + 1)


def max_abs_prefix(diff: np.ndarray) -> tuple[float, int]:
    """max over x of |sum of diff[n] for 1 <= n <= x|, and the first x
    attaining it; overwrites diff[1:] with those sums' absolute values."""
    dev = np.cumsum(diff[1:], out=diff[1:])
    np.abs(dev, out=dev)
    i = int(dev.argmax())
    return float(dev[i]), i + 1


def whole_array_convolution_identities(limit, tables) -> ConvolutionReport:
    """check_convolution_identities with each Dirichlet sum as one length-L
    array and one cumsum over all of x."""
    lam = tables.lam[: limit + 1]
    logs = log_table(limit)
    ones = np.broadcast_to(np.float64(1.0), (limit + 1,))
    lam_1 = dirichlet_convolution(lam, ones)
    dev_t, _ = max_abs_prefix(np.subtract(lam_1, logs, out=lam_1))
    mu_ln = dirichlet_convolution(tables.moebius[: limit + 1], logs)
    dev_psi, _ = max_abs_prefix(np.subtract(lam, mu_ln, out=mu_ln))
    return ConvolutionReport(limit=limit, max_dev_T=dev_t, max_dev_psi=dev_psi)


def whole_array_v_identities(s, x_max, tables, profile) -> VerificationReport:
    """verify_V_identities with dE tiled over 0..x_max (dE(1) = E(1), since
    E(0) = 0) and each Dirichlet sum as one length-L array."""
    step = np.diff(profile.values, prepend=profile.values[-1]).astype(np.float64)
    de = np.resize(np.roll(step, 1), x_max + 1)
    de[0], de[1] = 0.0, profile.values[0]
    diff = dirichlet_convolution(tables.lam[: x_max + 1], de)
    np.negative(diff, out=diff)
    max_dev, witness = max_abs_prefix(_add_multiples(diff, 0, s.terms, log_table(x_max)))
    return VerificationReport(
        name=f"V-identities[{s.name or 'scheme'}]",
        x_min=1,
        x_max=x_max,
        max_violation=max_dev,
        passed=max_dev <= TOL,
        witness_x=witness if max_dev > TOL else None,
    )
