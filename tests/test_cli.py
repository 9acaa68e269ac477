import argparse
import csv
import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from chebsylv import BUILTINS, build_recurrence, constant_A, e_profile, fixed_point, select_terms
from chebsylv.cli import _jsonable, build_parser, main
from chebsylv.iteration import MAX_STEPS
from test_golden import COMMANDS as GOLDEN_COMMANDS


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


def test_iterate_max_index_without_hybrid_truncates_the_lower_side(capsys):
    # criterion 5's truncated recurrence: nu7's lower side cut at index 616
    code, out, _ = run_cli(capsys, *"iterate nu7 --rho 1.1 --hybrid-max-index 616".split())
    assert code == 0
    data = json.loads(out)
    p = e_profile(BUILTINS["nu7"])
    a7 = constant_A(BUILTINS["nu7"])
    lower = select_terms(p, "lower", 1.1, max_index=616)
    upper = select_terms(p, "upper", 1.1)
    result = fixed_point(build_recurrence(lower, upper, a7, p.n, upper_A=a7))
    assert (Fraction(data["alpha"]), Fraction(data["beta"])) == (result.alpha, result.beta)
    assert (data["b"], data["n_lower_terms"]) == (1.0561140629, 28)


def test_complex_values_print_as_re_and_im_at_12_digits():
    assert _jsonable([complex(1 / 3, -2 / 3)]) == [{"re": 0.333333333333, "im": -0.666666666667}]


def test_non_finite_floats_print_as_null():
    values = (float("inf"), float("-inf"), float("nan"), complex(float("nan"), 1.0))
    assert _jsonable(values) == [None, None, None, {"re": None, "im": 1.0}]


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


@pytest.mark.parametrize(
    "argv",
    [
        "iterate nu4 --rho 1.5 --a0 0.9",
        "iterate nu4 --rho 1.5 --b0 1.1",
        "iterate nu4 --rho 1.5 --csv trace.csv",
    ],
)
def test_iterate_trace_options_need_steps(capsys, tmp_path, monkeypatch, argv):
    # refused before any selection, and no CSV written
    def no_selection(*args, **kwargs):
        raise AssertionError("selected before the options were checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("chebsylv.selection.select_terms", no_selection)
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err == f"chebsylv: error: {argv.split()[-2]} needs --steps\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        "eprofile nu4",
        "select nu4 --rho 1.3 --side lower",
        "iterate nu4 --rho 1.5 --steps 3",
        "sweep nu4 --rho-min 1.2 --rho-max 1.4 --step 0.1",
    ],
)
def test_csv_path_that_cannot_be_opened_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(capsys, *argv.split(), "--csv", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("chebsylv: error:") and err.count("\n") == 1
    assert not path.parent.exists()


def test_select_bad_exclude(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["select", "nu6", "--rho", "1.1", "--side", "lower", "--exclude", "x"])
    assert exc.value.code == 2
    assert "exclude" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", ["select nu6 --rho 1.1 --side lower", "iterate nu6 --rho 1.1", "sweep nu6"]
)
def test_bad_exclude_exits_from_the_parser(capsys, monkeypatch, argv):
    def unread(name):
        raise AssertionError(f"scheme {name} read before --exclude")

    monkeypatch.setattr("chebsylv.cli.resolve_scheme", unread)
    with pytest.raises(SystemExit) as exc:
        main([*argv.split(), "--exclude", "3,5", "--exclude", "x"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "argument --exclude: expects 'm,n', got 'x'" in err


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


def _assert_printed_rhos_keep_their_terms(capsys, argv, exclude=()):
    """Every row and optimum row, re-selected at its printed rho, keeps the terms it prints."""
    code, out, _ = run_cli(capsys, *argv.split(), *(f"--exclude={m},{n}" for m, n in exclude))
    assert code == 0
    data = json.loads(out)
    p = e_profile(BUILTINS[argv.split()[1]])
    for row in data["rows"] + [data["optimum"][k] for k in ("best_a", "best_b", "best_ratio")]:
        lower = select_terms(p, "lower", row["rho"], exclude=exclude)
        upper = select_terms(p, "upper", row["rho"], exclude=exclude)
        assert (row["n_lower"], row["n_upper"]) == (lower.n_terms, upper.n_terms)


def test_sweep_with_exclude_and_refine(capsys):
    argv = "sweep nu6 --rho-min 1.05 --rho-max 1.3 --step 0.05 --refine"
    _assert_printed_rhos_keep_their_terms(capsys, argv, ((281, 310), (440, 493)))


def test_sweep_refine_optimum_printed_on_its_plateau(capsys):
    # the optimum plateau ends at 1144/1049 = 1.0905624404194..., which
    # prints to 12 digits as 1.09056244042, on the plateau above
    argv = "sweep nu8 --rho-min 1.06 --rho-max 1.26 --step 0.01 --refine"
    _assert_printed_rhos_keep_their_terms(capsys, argv)


def test_sweep_refine_selects_each_side_once(capsys, monkeypatch):
    # grid and optimum come from one solve: calling sweep_rho, then optimize_rho, selects four times
    sides = []

    def counted(p, side, *args, **kwargs):
        sides.append(side)
        return select_terms(p, side, *args, **kwargs)

    monkeypatch.setattr("chebsylv.sweep.select_terms", counted)
    argv = "sweep nu8 --rho-min 1.06 --rho-max 1.26 --step 0.01 --refine".split()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "optimum" in json.loads(out)
    assert sorted(sides) == ["lower", "upper"]


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


@pytest.mark.parametrize(
    "text, message",
    [("[]", "empty scheme text"), ("[;]", "empty scheme text"), ("1:1,1:-1", "scheme has no terms")],
)
def test_analyze_refuses_a_scheme_with_no_terms(capsys, text, message):
    code, out, err = run_cli(capsys, "analyze", text)
    assert (code, out) == (2, "")
    assert err.startswith("chebsylv: error:") and message in err


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


def _refuse_digit_limit_change(digits):
    raise AssertionError("the CLI changed the interpreter's int-to-str digit limit")


def test_iterate_prints_alpha_past_the_int_digit_limit(capsys, monkeypatch):
    # alpha at nu8, rho = 1.003 has 4,746 digits, past the default limit of
    # 4,300, which the CLI leaves alone: it prints fractions through decimal
    with int_digit_limit(4300), monkeypatch.context() as patch:
        patch.setattr(sys, "set_int_max_str_digits", _refuse_digit_limit_change)
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
        "verify final-bounds --a nan --limit 10000",
        "verify final-bounds --b nan --limit 10000",
        "verify final-bounds --b inf --limit 10000",
        "verify final-bounds --a -0.5 --limit 10000",
        "verify final-bounds --a 1e307 --b 1.5e307 --limit 10000",
        "verify psi-pi --alpha 1.5 --limit 1000",
        "verify psi-pi --limit 1",
        "verify asymptotic --scheme cheb --limit 150",
        "verify asymptotic --scheme nu4 --limit 100000000000000000",  # lgamma round-off
        "verify final-bounds --limit 1" + "0" * 400,
        "verify convolution --limit 0",
        "verify lcm --limit 0",
        "verify lcm --limit -3",
        "verify lcm --limit 10001",
        "iterate nu4 --rho 1.3 --steps 3 --a0 nan",
        "iterate nu4 --rho 1.3 --steps 3 --b0 inf",
        "iterate nu4 --rho 1.3 --steps 3 --a0=-inf",
        "iterate nu4 --rho 1.05 --steps 10000",  # diverging: larger eigenvalue 1.83
        # weights in int64 whose E reaches 1.07e19: the int64 cumsum would wrap
        "analyze 1:1,2:4000000000000000000,3:-2000000000000000000,5:-2666666666666666666,"
        "6:-4000000000000000000,30:-2000000000000000000,60:-4000000000000000068",
        "select 1:1,2:-20000000000000000000,4:39999999999999999996 --rho 1.3 --side lower",
        f"verify asymptotic --scheme 1:1,2:{2 * 10**399},4:{-4 * 10**399 - 4}",
        # 4 * 10^8 + 6 unit jumps a period, past selection.MAX_PATTERN_UNITS
        "select 1:1,2:200000000,4:-400000004 --rho 1.5 --side lower",
    ],
)
def test_bad_user_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith("chebsylv: error")


def test_iterate_steps_over_the_cap_exit_2_at_once(capsys):
    # one step over first: without the cap, 10^8 steps would need about 130 GB
    for steps in (MAX_STEPS + 1, 10**8):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *f"iterate nu4 --rho 1.5 --steps {steps}".split())
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "over the cap" in err


# A small command line per subcommand, and the numeric options it reads.
EDGE_COMMANDS = [
    ("analyze nu4", ()),
    ("eprofile nu4", ()),
    ("base-bounds nu4", ()),
    ("list-schemes", ()),
    ("select nu4 --rho 1.3 --side lower", ("--rho", "--max-index")),
    ("iterate nu4 --rho 1.3 --steps 3", ("--rho", "--a0", "--b0", "--steps")),
    ("iterate nu4 --rho 1.3 --hybrid-lower nu4", ("--hybrid-max-index",)),
    ("sweep nu4 --rho-min 1.1 --rho-max 1.5 --step 0.1 --refine",
     ("--rho-min", "--rho-max", "--step")),
    *((f"verify {check}", ("--limit",)) for check in
      ("convolution", "lcm", "v-identity", "selection", "asymptotic", "final-bounds", "psi-pi")),
    ("verify selection --scheme nu4 --limit 1000", ("--rho",)),
    ("verify final-bounds --limit 10000", ("--a", "--b")),
    ("verify psi-pi --limit 1000", ("--alpha",)),
]
# 2^63 and a 401-digit integer: past int64 and past float range
EDGE_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "1e-308", str(2**63), "1" + "0" * 400)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.parametrize(
    "argv",
    [base for base, options in EDGE_COMMANDS if not options]
    + [f"{base} {opt}={v}" for base, options in EDGE_COMMANDS for opt in options
       for v in EDGE_VALUES],
)
def test_edge_values_give_strict_json_or_exit_2(capsys, argv):
    # --opt=value, so that the parser takes -inf and -1 as values
    start = time.perf_counter()
    try:
        code = main(argv.split())
    except SystemExit as exc:  # the parser refuses a value that is not an int
        assert exc.code == 2 and "error: argument" in capsys.readouterr().err
    else:
        out, err = capsys.readouterr()
        if code == 2:
            assert (out, err.startswith("chebsylv: error:")) == ("", True)
        else:
            assert code in (0, 1)
            json.loads(out, parse_constant=_reject_constant)
    assert time.perf_counter() - start < 2


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
    "verify convolution": {"command": "verify", "check": "convolution", "limit": 10**4},
    "verify lcm": {"command": "verify", "check": "lcm", "limit": 50},
    "verify v-identity": {
        "command": "verify", "check": "v-identity", "limit": 10**4, "scheme": "cheb",
    },
    "verify selection": {
        "command": "verify", "check": "selection", "limit": 10**5, "scheme": "cheb", "rho": 1.2,
    },
    "verify asymptotic": {
        "command": "verify", "check": "asymptotic", "limit": 10**5, "scheme": "cheb",
    },
    "verify final-bounds": {
        "command": "verify", "check": "final-bounds", "limit": 10**6, "a": 0.9226, "b": 1.0765,
    },
    "verify psi-pi": {"command": "verify", "check": "psi-pi", "limit": 10**5, "alpha": 0.75},
    "list-schemes": {"command": "list-schemes"},
}


@pytest.mark.parametrize("argv", sorted(PARSED))
def test_parser_dests_and_defaults(argv):
    args = vars(build_parser().parse_args(argv.split()))
    assert callable(args.pop("func"))
    assert args == PARSED[argv]


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    """name -> sub-parser of every sub-command that parser declares."""
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


# The options of each verify check besides -h and --limit, and a valid value
# of every such option.
VERIFY_OPTIONS = {
    "convolution": (),
    "lcm": (),
    "v-identity": ("--scheme",),
    "selection": ("--scheme", "--rho"),
    "asymptotic": ("--scheme",),
    "final-bounds": ("--a", "--b"),
    "psi-pi": ("--alpha",),
}
OPTION_VALUES = {"--scheme": "nu4", "--rho": "5", "--a": "3", "--b": "1", "--alpha": "7"}


def test_each_verify_check_declares_only_its_own_options():
    checks = _subparsers(_subparsers(build_parser())["verify"])
    declared = {
        check: sorted(flag for action in p._actions for flag in action.option_strings)
        for check, p in checks.items()
    }
    assert declared == {
        check: sorted(("-h", "--help", "--limit", *own)) for check, own in VERIFY_OPTIONS.items()
    }


# 28 (check, option) pairs: every option of another check that a check does not share
@pytest.mark.parametrize("check, option", [
    (check, option) for check, own in VERIFY_OPTIONS.items()
    for option in OPTION_VALUES if option not in own
])
def test_verify_check_refuses_another_checks_option(capsys, check, option):
    value = OPTION_VALUES[option]
    with pytest.raises(SystemExit) as exc:
        main(["verify", check, "--limit", "10", option, value])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"error: unrecognized arguments: {option} {value}" in err


def test_goldens_run_every_subcommand_and_verify_check():
    # a subcommand or check added to the parser without a golden fails here
    parser = build_parser()
    commands = _subparsers(parser)
    declared = {(name, None) for name in commands if name != "verify"}
    declared |= {("verify", check) for check in _subparsers(commands["verify"])}
    parsed = (parser.parse_args(argv.split()) for argv in GOLDEN_COMMANDS.values())
    assert {(args.command, getattr(args, "check", None)) for args in parsed} == declared


def test_select_failed_domination_exits_0(capsys):
    code, out, _ = run_cli(
        capsys, "select", "nu6", "--rho", "1.2", "--side", "upper", "--max-index", "5",
        "--check-domination",
    )
    assert code == 0
    assert json.loads(out)["domination_ok"] is False
