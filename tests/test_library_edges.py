"""Every numeric parameter of the functions in chebsylv.__all__ at edge values.

Each call either raises one of the library's errors (a TypeError only where an
int parameter gets a float) or returns a result that holds no NaN, within
EDGE_SECONDS. Functions with no numeric parameter, and the result records,
are left out.
"""

import dataclasses
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import chebsylv as cs

LIBRARY_ERRORS = (
    cs.CapacityError, cs.OutOfRangeError, cs.SchemeError, cs.IterationError, cs.DominationError
)
# nan, +-inf, 0, -1, the float range's ends, and the first int past int64
EDGE_VALUES = (math.nan, math.inf, -math.inf, 0, -1, 1e308, 1e-308, 2**63)
EDGE_SECONDS = 2

# (function and parameter, call at value v); the other arguments are small valid ones
CALLS = {
    "build_sieve(limit)": lambda c, v: cs.build_sieve(v),
    "check_convolution_identities(limit)": lambda c, v: cs.check_convolution_identities(v),
    "check_convolution_identities(limit, tables)":
        lambda c, v: cs.check_convolution_identities(v, c.tables),
    "lcm_identity_check(x)": lambda c, v: cs.lcm_identity_check(v),
    "psi(x)": lambda c, v: cs.psi(v, c.tables),
    "pi_count(x)": lambda c, v: cs.pi_count(v, c.tables),
    "psi_pi_bracket(x)": lambda c, v: cs.psi_pi_bracket(v, 0.75, c.tables),
    "psi_pi_bracket(alpha)": lambda c, v: cs.psi_pi_bracket(500, v, c.tables),
    "parse_scheme(weight)": lambda c, v: cs.parse_scheme(f"1:1,2:{v}"),
    "resolve_scheme(weight)": lambda c, v: cs.resolve_scheme(f"1:1,2:{v}"),
    "select_terms(rho)": lambda c, v: cs.select_terms(c.p, "lower", v),
    "select_terms(max_index)": lambda c, v: cs.select_terms(c.p, "lower", 1.3, max_index=v),
    "build_recurrence(A)": lambda c, v: cs.fixed_point(cs.build_recurrence(c.lo, c.up, v, c.p.n)),
    "build_recurrence(N)": lambda c, v: cs.fixed_point(cs.build_recurrence(c.lo, c.up, c.A, v)),
    "build_recurrence(upper_A)":
        lambda c, v: cs.fixed_point(cs.build_recurrence(c.lo, c.up, c.A, c.p.n, upper_A=v)),
    "iterate(a0)": lambda c, v: cs.iterate(c.rec, v, 1.2, 5),
    "iterate(b0)": lambda c, v: cs.iterate(c.rec, 0.8, v, 5),
    "iterate(steps)": lambda c, v: cs.iterate(c.rec, 0.8, 1.2, v),
    "sweep_rho(rho_min)": lambda c, v: cs.sweep_rho(c.s, v, 1.5, 0.1),
    "sweep_rho(rho_max)": lambda c, v: cs.sweep_rho(c.s, 1.1, v, 0.1),
    "sweep_rho(step)": lambda c, v: cs.sweep_rho(c.s, 1.1, 1.5, v),
    "optimize_rho(rho_min)": lambda c, v: cs.optimize_rho(c.s, v, 1.5, 0.1),
    "optimize_rho(rho_max)": lambda c, v: cs.optimize_rho(c.s, 1.1, v, 0.1),
    "optimize_rho(coarse_step)": lambda c, v: cs.optimize_rho(c.s, 1.1, 1.5, v),
    "verify_V_identities(x_max)": lambda c, v: cs.verify_V_identities(c.s, v, c.tables),
    "verify_selection_bounds(x_max)":
        lambda c, v: cs.verify_selection_bounds(c.s, c.lo, c.up, v, c.tables),
    "verify_asymptotic_A(xs)": lambda c, v: cs.verify_asymptotic_A(c.s, [100, v]),
    "verify_final_bounds(a)": lambda c, v: cs.verify_final_bounds(v, 1.0765, 1000, c.tables),
    "verify_final_bounds(b)": lambda c, v: cs.verify_final_bounds(0.9226, v, 1000, c.tables),
    "verify_final_bounds(x_max)":
        lambda c, v: cs.verify_final_bounds(0.9226, 1.0765, v, c.tables),
    "verify_psi_pi(alpha)": lambda c, v: cs.verify_psi_pi(v, [500.0], c.tables),
    "verify_psi_pi(xs)": lambda c, v: cs.verify_psi_pi(0.75, [v], c.tables),
}
# the parameters that take an int, where a float may raise TypeError
INT_PARAMETERS = {
    "build_sieve(limit)", "check_convolution_identities(limit)",
    "check_convolution_identities(limit, tables)", "lcm_identity_check(x)",
    "build_recurrence(N)", "iterate(steps)", "verify_V_identities(x_max)",
    "verify_selection_bounds(x_max)", "verify_final_bounds(x_max)",
}


@pytest.fixture(scope="module")
def ctx():
    s = cs.BUILTINS["nu4"]
    p = cs.e_profile(s)
    lo, up = (cs.select_terms(p, side, 1.3) for side in ("lower", "upper"))
    A = cs.constant_A(s)
    rec = cs.build_recurrence(lo, up, A, p.n)
    return SimpleNamespace(s=s, p=p, lo=lo, up=up, A=A, rec=rec, tables=cs.build_sieve(1000))


def _floats(value):
    """Every float, complex part and float array inside a result."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, complex):
        yield from (value.real, value.imag)
    elif isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            yield from value.ravel().tolist()
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _floats(getattr(value, f.name))
    elif isinstance(value, dict):
        for v in value.values():
            yield from _floats(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _floats(v)


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
@pytest.mark.parametrize("call", sorted(CALLS))
def test_edge_value_is_refused_or_gives_no_nan(ctx, call, value):
    start = time.perf_counter()
    try:
        result = CALLS[call](ctx, value)
    except LIBRARY_ERRORS:
        pass
    except TypeError:
        assert call in INT_PARAMETERS and isinstance(value, float)
    else:
        assert not any(math.isnan(x) for x in _floats(result))
    assert time.perf_counter() - start < EDGE_SECONDS
