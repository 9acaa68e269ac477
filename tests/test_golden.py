"""Golden CLI outputs: the JSON of a fixed command list must not change.

Each command runs in-process through ``chebsylv.cli.main`` and its stdout
is compared byte for byte with ``tests/golden/<name>.json``, so the files are
exactly what the regeneration script writes. The list covers every subcommand
and every built-in scheme.

Regenerate the files (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import os
import sys

import pytest

from chebsylv.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

COMMANDS = {
    "analyze_cheb": "analyze cheb",
    "analyze_nu4": "analyze nu4",
    "eprofile_nu5": "eprofile nu5",
    "base_bounds_nu2": "base-bounds nu2",
    "base_bounds_nu6": "base-bounds nu6",
    "list_schemes": "list-schemes",
    "select_nu6_exclude": "select nu6 --rho 1.1 --side lower --exclude 281,310 --check-domination",
    "select_nu7_max_index": "select nu7 --rho 1.113 --side upper --max-index 616",
    "select_nu3_upper": "select nu3 --rho 1.2 --side upper --check-domination",
    "select_nu1_lower": "select nu1 --rho 1.05 --side lower",
    "select_nu4_tie_upper": "select nu4 --rho 1.1666666666666667 --side upper",
    "iterate_nu4_steps": "iterate nu4 --rho 1.5 --steps 5",
    "iterate_nu7_hybrid": "iterate nu7 --rho 1.1 --hybrid-lower nu6",
    "iterate_nu4_start": "iterate nu4 --rho 1.5 --steps 3 --a0 0.9 --b0 1.1",
    "iterate_nu7_hybrid_max_index": "iterate nu7 --rho 1.1 --hybrid-lower nu6 --hybrid-max-index 100",
    "iterate_nu2_exclude": "iterate nu2 --rho 1.25 --exclude 7,9",
    "iterate_a_zero": "iterate 1:1,2:-2,11:1,22:-2 --rho 1.5",  # b/a prints as null
    "sweep_cheb_refine": "sweep cheb --rho-min 1.02 --rho-max 2.0 --step 0.005 --refine",
    "sweep_nu5_refine": "sweep nu5 --rho-min 1.05 --rho-max 1.6 --step 0.01 --refine",
    "sweep_nu7_refine": "sweep nu7 --rho-min 1.08 --rho-max 1.3 --step 0.01 --refine",
    "sweep_nu8_refine": "sweep nu8 --rho-min 1.06 --rho-max 1.26 --step 0.01 --refine",
    "sweep_nu1": "sweep nu1 --rho-min 1.3 --rho-max 1.6 --step 0.05",
    "sweep_a_zero": "sweep 1:1,2:-2,11:1,22:-2 --rho-min 1.45 --rho-max 1.55 --step 0.05",
    "verify_convolution": "verify convolution --limit 2000",
    "verify_lcm": "verify lcm --limit 30",
    "verify_v_identity": "verify v-identity --scheme nu4 --limit 2000",
    "verify_selection": "verify selection --scheme cheb --rho 1.2 --limit 20000",
    "verify_asymptotic": "verify asymptotic --scheme nu5 --limit 20000",
    "verify_final_bounds": "verify final-bounds --limit 100000",
    "verify_psi_pi": "verify psi-pi --alpha 0.75 --limit 10000",
}


def _golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(capsys, name):
    code = main(COMMANDS[name].split())
    out = capsys.readouterr().out
    assert code == 0
    with open(_golden_path(name)) as fh:
        assert out == fh.read()


def _reject_constant(name: str):
    raise ValueError(f"non-finite float {name} in CLI JSON")


# Python's json writes NaN and +-Infinity, which are not JSON; no golden
# output may hold one
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_is_strict_json(capsys, name):
    main(COMMANDS[name].split())
    json.loads(capsys.readouterr().out, parse_constant=_reject_constant)


def _regenerate() -> None:
    import contextlib
    import io

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, command in COMMANDS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(command.split())
        if code != 0:
            sys.exit(f"{command!r} exited {code}")
        with open(_golden_path(name), "w") as fh:
            fh.write(buf.getvalue())


if __name__ == "__main__":
    _regenerate()
