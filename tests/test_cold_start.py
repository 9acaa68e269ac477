"""Cold commands: each ``python -m chebsylv.cli`` child prints its golden JSON
and executes only the library layers its command uses.

pytest has loaded every layer before the in-process goldens run, so only a
fresh interpreter shows what a command loads. A layer counts as executed once
its lazily registered module has turned into a plain module; reading the
module's type does not load it.
"""

import os
import subprocess
import sys

import pytest

from test_golden import COMMANDS, GOLDEN_DIR

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs chebsylv.cli as -m does, then names the executed layers on stderr.
CHILD = """
import runpy, sys, types
try:
    runpy.run_module("chebsylv.cli", run_name="__main__", alter_sys=True)
finally:
    print(*sorted(n for n, m in sys.modules.items()
                  if n.startswith("chebsylv.") and type(m) is types.ModuleType), file=sys.stderr)
"""

BASE = ("kernel", "scheme")  # cli binds scheme's names, and scheme imports kernel
VERIFY = BASE + ("verify",)

# golden name: the layers its command executes; one command per subcommand and
# per verify check
LOADS = {
    "analyze_cheb": BASE,
    "eprofile_nu5": BASE,
    "base_bounds_nu2": BASE,
    "list_schemes": BASE,
    "select_nu1_lower": BASE + ("selection",),
    "iterate_nu4_steps": BASE + ("selection", "iteration"),
    "sweep_nu1": BASE + ("selection", "iteration", "sweep"),
    "verify_convolution": BASE,
    "verify_lcm": VERIFY,
    "verify_v_identity": VERIFY,
    "verify_selection": VERIFY + ("selection",),
    "verify_asymptotic": VERIFY,
    "verify_final_bounds": VERIFY,
    "verify_psi_pi": VERIFY,
}


def test_one_cold_command_per_subcommand_and_check():
    commands = {COMMANDS[name].split()[0] for name in LOADS}
    checks = {COMMANDS[name].split()[1] for name in LOADS if name.startswith("verify_")}
    assert len(commands) == 8 and len(checks) == 7


def run_child(code: str, *args: str) -> subprocess.CompletedProcess:
    """python -c code args, in a fresh interpreter that imports chebsylv from src/."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("name", sorted(LOADS))
def test_cold_command_prints_golden_and_loads_only_its_layers(name):
    proc = run_child(CHILD, *COMMANDS[name].split())
    with open(os.path.join(GOLDEN_DIR, f"{name}.json")) as fh:
        assert proc.stdout == fh.read()
    assert proc.stderr.split() == sorted(f"chebsylv.{layer}" for layer in LOADS[name])
