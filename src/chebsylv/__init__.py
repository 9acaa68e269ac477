"""Elementary Chebyshev-Sylvester bounds on the prime counting function.

Each layer module is registered lazily: ``import chebsylv`` puts it in
``sys.modules`` and binds it here, but compiles and runs it only when one of
its names is first read, so a command pays only for the layers it uses.
"""

import importlib.util
import sys

# The public names of each layer, in layer order.
_EXPORTS = {
    "kernel": (
        "CapacityError", "OutOfRangeError", "SieveTables", "build_sieve",
        "check_convolution_identities", "pi_count", "psi",
    ),
    "scheme": (
        "BUILTINS", "BaseBounds", "EProfile", "Scheme", "SchemeError", "base_bounds",
        "cancellation_check", "constant_A", "e_profile", "parse_scheme", "render_scheme",
        "resolve_scheme",
    ),
    "selection": (
        "DominationError", "TermSelection", "list_dropped_pairs", "select_terms",
        "selection_coefficients", "selection_rows", "selection_step_function",
    ),
    "iteration": (
        "AffineRecurrence", "IterationError", "IterationResult", "build_recurrence",
        "fixed_point", "iterate",
    ),
    "sweep": ("OptimizeResult", "SweepRow", "optimize_rho", "sweep_rho"),
    "verify": (
        "VerificationReport", "lcm_identity_check", "psi_pi_bracket", "verify_V_identities",
        "verify_asymptotic_A", "verify_final_bounds", "verify_psi_pi", "verify_selection_bounds",
    ),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def _register_layers() -> None:
    for layer in _EXPORTS:
        spec = importlib.util.find_spec(f"{__name__}.{layer}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = globals()[layer] = module
        spec.loader.exec_module(module)


_register_layers()


def __getattr__(name: str):
    # looked up on each read, never cached here, so a name rebound in its
    # layer (by a tracer, say) is the one every caller gets
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
