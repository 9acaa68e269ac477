"""Span tracing of chebsylv's layers from outside the library.

``Tracer.install()`` replaces every public function of each library module
with a wrapper that records a span, and rebinds every name under which a
chebsylv module imported that function (for example
``chebsylv.sweep.select_terms``), so nested library calls become child spans.
``uninstall()`` puts the originals back. ``src/`` is never edited.

A span is ``[name, start, end, parent, task, info, error]``. Spans stay in
memory until the run ends. A span's self time is its duration minus the time
its children cover; children run inside their parent on one thread, so their
intervals never overlap and that cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

LIBRARY_LAYERS = ("kernel", "scheme", "selection", "iteration", "sweep", "verify")
LAYERS = LIBRARY_LAYERS + ("cli",)
CLI_SUBCOMMANDS = (
    "analyze", "eprofile", "base-bounds", "select", "iterate", "sweep", "verify", "list-schemes",
)

# Layers each workload is built to reach. One of these with no span in a
# traced pass is reported as missing rather than as zero seconds.
EXPECTED_LAYERS = {
    "optimize": ("scheme", "selection", "iteration", "sweep"),
    "verify": ("kernel", "scheme", "selection", "verify"),
    "cli": ("cli",),
}

# Time spent in these functions' spans is reported one by one.
TIMED = (
    "selection.select_terms", "selection.selection_step_function",
    "sweep.optimize_rho", "sweep.sweep_rho",
    "iteration.build_recurrence", "iteration.fixed_point",
    "scheme.e_profile",
    "kernel.build_sieve", "kernel.check_convolution_identities",
    "verify.verify_V_identities", "verify.verify_final_bounds",
    "verify.verify_selection_bounds", "verify.verify_asymptotic_A", "verify.verify_psi_pi",
)
# Call counts of these functions are reported.
COUNTED = ("selection.select_terms", "scheme.e_profile", "kernel.build_sieve", "iteration.fixed_point")
IDENTITY_CHECKS = ("kernel.check_convolution_identities", "verify.verify_V_identities")


def _per_layer_units() -> dict[str, str]:
    units = {f"{layer}.busy_s": "s" for layer in LAYERS + ("bench",)}
    units.update({f"{layer}.errors": "count" for layer in LAYERS})
    units.update({f"{name}.s": "s" for name in TIMED})
    units.update({f"{name}.calls": "count" for name in COUNTED})
    units.update({
        "selection.scan_end_sum": "count", "selection.pairs_kept": "count",
        "selection.pairs_dropped": "count", "selection.kept_share": "ratio",
        "selection.domination_points": "count",
        "sweep.rows": "count", "sweep.label_mismatch": "count",
        "iteration.converged_share": "ratio",
        "scheme.period_entries": "count",
        "kernel.sieve_entries": "count", "kernel.table_bytes": "B",
        "verify.points": "count", "verify.points_per_s": "1/s",
        "cli.import_s": "s", "cli.stdout_bytes": "B",
        "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_share": "ratio",
        "trace.accounted_share": "ratio", "trace.spans": "count",
    })
    units.update({f"cli.{sub}.s": "s" for sub in CLI_SUBCOMMANDS})
    return units


# Every metric a traced run reports, with its unit.
PER_LAYER_UNITS = _per_layer_units()

def _info(name: str, args: tuple, kwargs: dict, result) -> tuple | None:
    """The work counters of one call, read from its arguments and result.

    Only small numbers are kept, never the result itself, so that traced runs
    hold no extra sieve tables or selections alive. A field the library no
    longer has loses its counter, not the call.
    """
    try:
        return _read_info(name, args, kwargs, result)
    except (AttributeError, IndexError, TypeError):
        return None


def _read_info(name: str, args: tuple, kwargs: dict, result) -> tuple | None:
    if name == "selection.select_terms":
        side = args[1] if len(args) > 1 else kwargs.get("side")
        return (side, result.scan_end, len(result.kept_pairs), len(result.dropped_pairs))
    if name == "selection.selection_step_function":
        return (2 * args[0].scan_end,)  # E is checked on [1, 2 * scan_end]
    if name == "scheme.e_profile":
        return (result.period,)
    if name == "kernel.build_sieve":
        arrays = (result.lam, result.moebius, result.is_prime, result.psi_prefix, result.pi_prefix)
        return (result.limit + 1, sum(a.nbytes for a in arrays))
    if name == "iteration.fixed_point":
        return (bool(result.converges),)
    if name == "kernel.check_convolution_identities":
        return (result.limit,)
    if name == "verify.verify_V_identities":
        return (result.x_max - result.x_min + 1,)
    return None


class Tracer:
    """Records spans while installed; aggregates them per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.task: tuple[int, int] | None = None

    # -- recording

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, perf_counter(), None, parent, self.task, None, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list, error: bool = False) -> None:
        span[2] = perf_counter()
        span[6] = error
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, error=True)
                raise
            self.close(span)
            span[5] = _info(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions and rebind every alias of them."""
        if self._saved:
            return
        modules = [m for n, m in sorted(sys.modules.items()) if n == "chebsylv" or n.startswith("chebsylv.")]
        wrappers: dict[int, object] = {}
        for layer in LIBRARY_LAYERS:
            mod = sys.modules[f"chebsylv.{layer}"]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    # -- aggregation

    def pass_metrics(self, pass_no: int, wall_s: float) -> dict:
        """Per-layer busy times and counters of one traced pass."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] is not None and s[4][0] == pass_no]
        child_time: dict[int, float] = defaultdict(float)
        for _, s in spans:
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        m: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        layer_calls: dict[str, int] = defaultdict(int)
        total_self = 0.0
        for gi, s in spans:
            name, start, end, parent, _, info, error = s
            self_s = (end - start) - child_time.get(gi, 0.0)
            total_self += self_s
            layer = name.partition(".")[0]
            m[f"{layer}.busy_s"] += self_s
            layer_calls[layer] += 1
            calls[name] += 1
            if error:
                m[f"{layer}.errors"] += 1
            if name in TIMED or layer == "cli":
                m[f"{name}.s"] += self_s
            if info is not None and name == "selection.select_terms":
                side, scan_end, kept, dropped = info
                m["selection.scan_end_sum"] += scan_end
                m["selection.pairs_kept"] += kept
                m["selection.pairs_dropped"] += dropped
                if side == "lower" and parent is not None and self.spans[parent][0].startswith("sweep."):
                    m["sweep.rows"] += 1
            elif info is not None and name == "selection.selection_step_function":
                m["selection.domination_points"] += info[0]
            elif info is not None and name == "scheme.e_profile":
                m["scheme.period_entries"] += info[0]
            elif info is not None and name == "kernel.build_sieve":
                m["kernel.sieve_entries"] += info[0]
                m["kernel.table_bytes"] += info[1]
            elif info is not None and name == "iteration.fixed_point":
                m["iteration.converged"] += info[0]
            if info is not None and name in IDENTITY_CHECKS:
                m["verify.points"] += info[0]
                m["verify.identity_s"] += self_s
            if layer == "cli" and info is not None:
                m["cli.stdout_bytes"] += info[0]
            if name == "cli.import":
                m["cli.import_n"] += 1
        for name in COUNTED:
            m[f"{name}.calls"] = calls[name]
        kept_total = m["selection.pairs_kept"] + m["selection.pairs_dropped"]
        m["selection.kept_share"] = m["selection.pairs_kept"] / kept_total if kept_total else 0.0
        fp_calls = calls["iteration.fixed_point"]
        m["iteration.converged_share"] = m.pop("iteration.converged", 0.0) / fp_calls if fp_calls else 0.0
        identity_s = m.pop("verify.identity_s", 0.0)
        m["verify.points_per_s"] = m["verify.points"] / identity_s if identity_s else 0.0
        import_n = m.pop("cli.import_n", 0.0)
        m["cli.import_s"] = m.pop("cli.import.s", 0.0) / import_n if import_n else 0.0
        m["trace.spans"] = len(spans)
        m["trace.accounted_share"] = total_self / wall_s if wall_s else 0.0
        m["_layer_calls"] = dict(layer_calls)
        return dict(m)

    def write(self, path: str) -> None:
        """All spans as JSON lines: name, start, end, parent index, task, error."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, task, _, error) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "task": task, "error": error,
                }) + "\n")


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over the traced passes."""
    keys = sorted({k for m in per_pass for k in m if not k.startswith("_")})
    return {k: statistics.median(m.get(k, 0.0) for m in per_pass) for k in keys}
