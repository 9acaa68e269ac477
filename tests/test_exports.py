import ast
from pathlib import Path

import chebsylv

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"


def test_benchmark_reads_only_library_names():
    # the benchmark calls the library as cs.<name>, looked up at call time,
    # so a name removed from the package fails only when its task runs
    tree = ast.parse(WORKLOADS.read_text())
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cs"
    }
    assert names
    assert sorted(n for n in names if not hasattr(chebsylv, n)) == []
