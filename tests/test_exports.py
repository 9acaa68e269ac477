import ast
import dataclasses
import json
from pathlib import Path

import chebsylv
from chebsylv.kernel import SieveTables
from test_cold_start import run_child

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "benchmark" / "workloads.py"
SPANS = ROOT / "benchmark" / "spans.py"

# The package's public names by the layer that defines them.
EXPORTS = {
    "kernel": [
        "CapacityError", "OutOfRangeError", "SieveTables", "build_sieve",
        "check_convolution_identities", "pi_count", "psi",
    ],
    "scheme": [
        "BUILTINS", "BaseBounds", "EProfile", "Scheme", "SchemeError", "base_bounds",
        "cancellation_check", "constant_A", "e_profile", "parse_scheme", "render_scheme",
        "resolve_scheme",
    ],
    "selection": [
        "DominationError", "TermSelection", "list_dropped_pairs", "select_terms",
        "selection_coefficients", "selection_rows", "selection_step_function",
    ],
    "iteration": [
        "AffineRecurrence", "IterationError", "IterationResult", "build_recurrence",
        "fixed_point", "iterate",
    ],
    "sweep": ["OptimizeResult", "SweepRow", "optimize_rho", "sweep_rho"],
    "verify": [
        "VerificationReport", "lcm_identity_check", "psi_pi_bracket", "verify_V_identities",
        "verify_asymptotic_A", "verify_final_bounds", "verify_psi_pi", "verify_selection_bounds",
    ],
}

# Reports, right after a fresh ``import chebsylv``, which of the given layers
# are in sys.modules and which of them have run; then the package's exports,
# each compared with its layer's.
EXPORT_CHILD = """
import json, sys, types
import chebsylv
layers, exports = json.loads(sys.argv[1]), json.loads(sys.argv[2])
print(json.dumps({
    "registered": [n for n in layers if "chebsylv." + n in sys.modules],
    "executed": [n for n in layers if type(sys.modules.get("chebsylv." + n)) is types.ModuleType],
    "all": chebsylv.__all__,
    "same": [n for m, names in exports.items() for n in names
             if getattr(chebsylv, n) is getattr(sys.modules["chebsylv." + m], n)],
    "dir": sorted(set(dir(chebsylv)) & {n for names in exports.values() for n in names}),
}))
"""


def _attributes_read_from(name: str) -> set[str]:
    """Every attr of the name.attr expressions in the benchmark's workloads."""
    tree = ast.parse(WORKLOADS.read_text())
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == name
    }


def test_benchmark_reads_only_library_names():
    # the benchmark calls the library as cs.<name>, looked up at call time,
    # so a name removed from the package fails only when its task runs
    names = _attributes_read_from("cs")
    assert names
    assert sorted(n for n in names if not hasattr(chebsylv, n)) == []


def test_benchmark_reads_only_sieve_table_fields():
    # the benchmark reads sieve tables as tables.<field>, so a renamed field
    # would fail only when its task runs
    names = _attributes_read_from("tables")
    fields = {f.name for f in dataclasses.fields(SieveTables)}
    assert names
    assert sorted(n for n in names if n not in fields and not hasattr(SieveTables, n)) == []


def test_cli_reads_no_private_name_of_any_layer():
    # the CLI calls each layer through its public names alone
    tree = ast.parse((ROOT / "src" / "chebsylv" / "cli.py").read_text())
    private = {
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in EXPORTS
        and node.attr.startswith("_")
    }
    assert private == set()


def _library_layers() -> list[str]:
    """benchmark/spans.py's LIBRARY_LAYERS, read without importing it."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LIBRARY_LAYERS"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError("benchmark/spans.py defines no LIBRARY_LAYERS")


def test_fresh_import_registers_every_traced_layer_and_exports_each_name():
    # the tracer reads sys.modules["chebsylv.<layer>"] for each layer it wraps,
    # so a bare import must register every one, though it runs none
    layers = _library_layers()
    names = sorted(n for ns in EXPORTS.values() for n in ns)
    got = json.loads(run_child(EXPORT_CHILD, json.dumps(layers), json.dumps(EXPORTS)).stdout)
    assert got["registered"] == layers
    assert got["executed"] == []
    assert len(names) == 44 and got["all"] == names
    assert sorted(got["same"]) == names
    assert got["dir"] == names
