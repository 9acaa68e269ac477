import csv
import json
from fractions import Fraction

import pytest

from chebsylv.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_cheb(capsys):
    code, out, _ = run_cli(capsys, "analyze", "cheb")
    assert code == 0
    data = json.loads(out)
    assert data["period"] == 30
    assert data["N"] == 6
    assert data["A"] == pytest.approx(0.92129, abs=1e-5)


def test_analyze_rejects_non_cancelling(capsys):
    code, _, err = run_cli(capsys, "analyze", "1:1")
    assert code == 2
    assert "cancellation" in err


def test_iterate_nu4_exact_rationals(capsys):
    code, out, _ = run_cli(capsys, "iterate", "nu4", "--rho", "1.5")
    assert code == 0
    data = json.loads(out)
    assert Fraction(data["alpha"]) == Fraction(4242, 5391)
    assert Fraction(data["beta"]) == Fraction(6380, 5391)
    assert data["a"] == pytest.approx(0.7958, abs=1e-4)
    assert data["b"] == pytest.approx(1.1969, abs=1e-4)


def test_iterate_trace_csv(capsys, tmp_path):
    path = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "iterate", "nu4", "--rho", "1.5", "--steps", "10", "--csv", str(path)
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["trace"]) == 11
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "a_i", "b_i"]
    assert len(rows) == 12


def test_iterate_hybrid(capsys):
    code, out, _ = run_cli(
        capsys, "iterate", "nu7", "--rho", "1.1", "--hybrid-lower", "nu6"
    )
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] is None
    assert data["a"] == pytest.approx(0.946197, abs=5e-4)
    assert data["b"] == pytest.approx(1.055185, abs=5e-4)


def test_eprofile_csv(capsys, tmp_path):
    path = tmp_path / "ep.csv"
    code, out, _ = run_cli(capsys, "eprofile", "cheb", "--csv", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["period"] == 30
    assert len(data["values"]) == 30
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "E"]
    assert len(rows) == 31
    assert rows[1] == ["1", "1"]


def test_base_bounds_fractions(capsys):
    code, out, _ = run_cli(capsys, "base-bounds", "nu4")
    data = json.loads(out)
    assert code == 0
    assert data["a_prime_factor"] == "19/25"
    assert data["b_factor"] == "6/5"


def test_select_with_exclude_and_csv(capsys, tmp_path):
    path = tmp_path / "sel.csv"
    code, out, _ = run_cli(
        capsys,
        "select",
        "nu6",
        "--rho",
        "1.1",
        "--side",
        "lower",
        "--exclude",
        "281,310",
        "--csv",
        str(path),
    )
    assert code == 0
    data = json.loads(out)
    assert [281, 310] not in data["pairs"]
    assert [281, 310] in data["dropped_pairs"]
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["position", "sign", "status"]
    statuses = {r[2] for r in rows[1:]}
    assert statuses <= {"leading", "kept", "dropped", "standalone"}


def test_select_bad_exclude(capsys):
    code, _, err = run_cli(
        capsys, "select", "nu6", "--rho", "1.1", "--side", "lower", "--exclude", "x"
    )
    assert code == 2
    assert "exclude" in err


def test_sweep_csv_and_refine(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "nu4",
        "--rho-min",
        "1.2",
        "--rho-max",
        "1.6",
        "--step",
        "0.05",
        "--refine",
        "--csv",
        str(path),
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 9
    assert data["optimum"]["residual"] <= 0.05
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "rho",
        "a",
        "b",
        "ratio",
        "lambda1",
        "lambda2",
        "n_lower",
        "n_upper",
        "converges",
    ]


def test_verify_convolution(capsys):
    code, out, _ = run_cli(capsys, "verify", "convolution", "--limit", "1000")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_lcm(capsys):
    code, out, _ = run_cli(capsys, "verify", "lcm")
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_verify_selection(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "selection", "--scheme", "nu4", "--rho", "1.5",
        "--limit", "20000",
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_final_bounds_failure_exit(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "final-bounds", "--a", "1.1", "--b", "1.2",
        "--limit", "100000",
    )
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert data["witness_x"] is not None


def test_list_schemes(capsys):
    code, out, _ = run_cli(capsys, "list-schemes")
    assert code == 0
    data = json.loads(out)
    names = {e["name"] for e in data["schemes"]}
    assert names == {"cheb", "nu1", "nu2", "nu3", "nu4", "nu5", "nu6", "nu7", "nu8"}
    nu4 = next(e for e in data["schemes"] if e["name"] == "nu4")
    assert "caveat" in nu4


def test_unknown_scheme_name(capsys):
    code, _, err = run_cli(capsys, "analyze", "nu99:bad")
    assert code == 2
    assert err.startswith("chebsylv: error")


def test_select_rho_near_one_exits_2(capsys):
    code, out, err = run_cli(capsys, "select", "nu1", "--rho", "1.000001", "--side", "lower")
    assert code == 2
    assert out == ""
    assert "over the cap" in err


def test_floats_have_12_significant_digits(capsys):
    _, out, _ = run_cli(capsys, "analyze", "cheb")
    data = json.loads(out)
    assert data["A"] == float(f"{data['A']:.12g}")
