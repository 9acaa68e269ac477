import csv
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from chebsylv import BUILTINS, build_recurrence, constant_A, e_profile, fixed_point, select_terms
from chebsylv.cli import build_parser, main


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


def test_sweep_with_exclude_and_refine(capsys):
    exclude = ((281, 310), (440, 493))
    argv = "sweep nu6 --rho-min 1.05 --rho-max 1.3 --step 0.05 --refine"
    code, out, _ = run_cli(capsys, *argv.split(), *(f"--exclude={m},{n}" for m, n in exclude))
    assert code == 0
    data = json.loads(out)
    p = e_profile(BUILTINS["nu6"])
    for row in data["rows"] + [data["optimum"]["best_ratio"]]:
        lower = select_terms(p, "lower", row["rho"], exclude=exclude)
        upper = select_terms(p, "upper", row["rho"], exclude=exclude)
        assert (row["n_lower"], row["n_upper"]) == (lower.n_terms, upper.n_terms)


def test_verify_convolution(capsys):
    code, out, _ = run_cli(capsys, "verify", "convolution", "--limit", "1000")
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "convolution", "--limit", "1000000"),
        ("verify", "v-identity", "--scheme", "nu8", "--limit", "1000000"),
    ],
)
def test_verify_identity_checks_reach_one_million(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_selection_reaches_one_million(capsys):
    # nu8 at rho = 1.02: 237 lower and 266 upper psi-terms
    code, out, _ = run_cli(
        capsys, "verify", "selection", "--scheme", "nu8", "--rho", "1.02", "--limit", "1000000"
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_lcm(capsys):
    code, out, _ = run_cli(capsys, "verify", "lcm")
    assert code == 0
    assert json.loads(out)["failures"] == []


def test_verify_lcm_reaches_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "lcm", "--limit", "10000")
    assert code == 0
    assert json.loads(out)["passed"] is True


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


def test_select_lists_dropped_pairs_up_to_the_budget(capsys, tmp_path):
    # 93,585 dropped pairs, under the listing budget of 10^5 (at rho = 1.002
    # there are 228,065 and the command exits 2, see below)
    path = tmp_path / "sel.csv"
    argv = ("select", "nu8", "--rho", "1.005", "--side", "lower", "--csv", str(path))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    dropped = json.loads(out)["dropped_pairs"]
    assert len(dropped) == 93_585 and dropped == sorted(dropped)
    with open(path) as fh:
        statuses = [row[2] for row in csv.reader(fh)]
    assert statuses.count("dropped") == 2 * 93_585


@contextmanager
def int_digit_limit(digits):
    """The interpreter's int-to-str digit limit set to digits, then restored."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_iterate_prints_alpha_past_the_int_digit_limit(capsys):
    # alpha at nu8, rho = 1.003 has 4,746 digits, past the default limit of
    # 4,300, which the CLI lifts only to print it
    with int_digit_limit(4300):
        code, out, _ = run_cli(capsys, "iterate", "nu8", "--rho", "1.003")
        assert sys.get_int_max_str_digits() == 4300
    assert code == 0
    s = BUILTINS["nu8"]
    p = e_profile(s)
    sels = (select_terms(p, side, 1.003) for side in ("lower", "upper"))
    alpha = fixed_point(build_recurrence(*sels, constant_A(s), p.n)).alpha
    numerator, denominator = json.loads(out)["alpha"].split("/")
    assert len(numerator) > 4300
    with int_digit_limit(0):
        assert Fraction(int(numerator), int(denominator)) == alpha


def test_floats_have_12_significant_digits(capsys):
    _, out, _ = run_cli(capsys, "analyze", "cheb")
    data = json.loads(out)
    assert data["A"] == float(f"{data['A']:.12g}")


@pytest.mark.parametrize(
    "argv",
    [
        "select nu1 --rho 1 --side lower",
        "select nu4 --rho nan --side lower",
        "select nu8 --rho 1.002 --side lower",
        "iterate nu4 --rho inf",
        "verify selection --scheme cheb --rho nan",
        "sweep nu4 --rho-min 1.5 --rho-max 1.2",
        "sweep nu4 --rho-min 1.1 --rho-max 1.5 --step 0",
        "sweep nu4 --rho-min 1.1 --rho-max inf --step 0.1",
        "sweep nu4 --rho-min 1.1 --rho-max 1.5 --step 1e-300",
        "sweep nu1 --rho-min 1.05 --rho-max 1.25 --step 0.05 --refine",
        "iterate nu4 --rho 1.5 --steps -1",
        "verify final-bounds --a 1.2 --b 1.1 --limit 1000",
        "verify final-bounds --limit 50",
        "verify psi-pi --alpha 1.5 --limit 1000",
        "verify psi-pi --limit 1",
        "verify asymptotic --scheme cheb --limit 150",
        "verify convolution --limit 0",
        "verify lcm --limit 0",
        "verify lcm --limit -3",
        "verify lcm --limit 10001",
    ],
)
def test_bad_user_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith("chebsylv: error")


def test_bare_value_error_propagates(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr("chebsylv.cli.e_profile", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["eprofile", "cheb"])


# vars(args) of a minimal command line per subcommand, without the handler:
# every dest and every default of the parser.
PARSED = {
    "analyze cheb": {"command": "analyze", "scheme": "cheb"},
    "eprofile cheb": {"command": "eprofile", "scheme": "cheb", "csv": None},
    "base-bounds cheb": {"command": "base-bounds", "scheme": "cheb"},
    "select cheb --rho 1.2 --side lower": {
        "command": "select", "scheme": "cheb", "rho": 1.2, "side": "lower",
        "max_index": None, "exclude": None, "csv": None, "check_domination": False,
    },
    "iterate cheb --rho 1.2": {
        "command": "iterate", "scheme": "cheb", "rho": 1.2, "a0": None, "b0": None,
        "steps": None, "hybrid_lower": None, "hybrid_max_index": None,
        "exclude": None, "csv": None,
    },
    "sweep cheb": {
        "command": "sweep", "scheme": "cheb", "rho_min": 1.02, "rho_max": 2.0,
        "step": 0.005, "refine": False, "exclude": None, "csv": None,
    },
    "verify lcm": {
        "command": "verify", "check": "lcm", "limit": None, "scheme": None,
        "rho": 1.2, "a": 0.9226, "b": 1.0765, "alpha": 0.75,
    },
    "list-schemes": {"command": "list-schemes"},
}


@pytest.mark.parametrize("argv", sorted(PARSED))
def test_parser_dests_and_defaults(argv):
    args = vars(build_parser().parse_args(argv.split()))
    assert callable(args.pop("func"))
    assert args == PARSED[argv]


def test_select_failed_domination_exits_0(capsys):
    code, out, _ = run_cli(
        capsys, "select", "nu6", "--rho", "1.2", "--side", "upper", "--max-index", "5",
        "--check-domination",
    )
    assert code == 0
    assert json.loads(out)["domination_ok"] is False
