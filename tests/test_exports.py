import ast
import dataclasses
from pathlib import Path

import chebsylv
from chebsylv.kernel import SieveTables

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"


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
