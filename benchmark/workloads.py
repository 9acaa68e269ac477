"""Seeded task lists for the three benchmark workloads, and their output checks.

A workload is a fixed list of tasks drawn from fixed strata: every seed gets
the same mix of schemes, window widths, sieve limits and subcommands, and the
seed only moves each input inside its stratum. Tasks call chebsylv through its
public package namespace (``cs.name(...)`` looked up at call time), so the
tracer in ``spans.py`` can rebind those names without editing the library.

Every check compares a result against a second, independent path (the exact
rational recurrence against the float sweep, a trial-division oracle against
the sieve, the library against the CLI) rather than against golden numbers
that a correct optimisation could change.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import chebsylv as cs

WORKLOADS = ("optimize", "verify", "cli")

# Relative agreement required between the float sweep and the exact fixed
# point; measured worst case over every built-in grid point is ~1.3e-14.
REL_TOL = 1e-9

# First grid rho (step 0.02) at which each built-in converges with a > 0;
# window starts are drawn above these so that every task has a usable row.
CONVERGES_FROM = {
    "nu1": 1.34, "nu2": 1.18, "nu3": 1.16, "nu4": 1.18, "nu5": 1.10,
    "nu6": 1.06, "nu7": 1.06, "nu8": 1.04, "cheb": 1.06,
}
SMALL = ("nu1", "nu2", "nu3", "nu4", "nu5", "nu6", "cheb")

# Sweep windows (scheme, start, step; width 0.5) on decimal grids where a row
# printed as, say, rho = 1.2 was computed at 1.2000000000000002 and keeps
# other terms: the known sweep-label defect, so every seed has a case to count.
LABEL_WINDOWS = (("nu4", 1.1, 0.1), ("nu5", 1.1, 0.05), ("cheb", 1.1, 0.05))

# (a, b) pairs handed to verify_final_bounds; all lie outside [liminf, limsup]
# of psi(x)/x by a margin, so the check passes at every sieve limit used.
FINAL_PAIRS = ((0.9226, 1.0765), (0.92, 1.08), (0.93, 1.07), (0.90, 1.10))

CLI_TIMEOUT_S = 120


@dataclass
class Task:
    """One item of a workload's list: a kind, its inputs and computed sizes."""

    kind: str
    args: dict
    props: dict = field(default_factory=dict)

    def record(self) -> dict:
        return {"kind": self.kind, **self.args, **self.props}


class CheckFailed(Exception):
    """A task's output disagrees with the independent path."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _starts(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k window starts, one drawn uniformly from each of k equal sub-bands."""
    width = (hi - lo) / k
    return [round(lo + (i + rng.random()) * width, 2) for i in range(k)]


# ---------------------------------------------------------------- optimize


def optimize_tasks(seed: int, tiny: bool = False) -> list[Task]:
    """One optimize and one sweep window for nu8, five of each for nu7, two
    of each for every small built-in, one label-defect window, and the exact
    cheb rho = 1.2 check.

    nu8 sets the pass wall time; the ten nu7 windows hold the tail rank (the
    eleventh slowest task); the small schemes hold the median.
    """
    rng = random.Random(f"optimize:{seed}")
    tasks: list[Task] = []

    def window(kind: str, name: str, start: float, step: float, width: float) -> None:
        tasks.append(Task(kind, {"scheme": name, "lo": start, "hi": round(start + width, 2), "step": step}))

    heavy = () if tiny else (("nu8", 1), ("nu7", 5))
    for name, k in heavy:
        lo = CONVERGES_FROM[name] + 0.02
        for start in _starts(rng, lo, 1.30, k):
            window("optimize", name, start, 0.01, 0.2)
        for start in _starts(rng, lo, 1.60, k):
            window("sweep", name, start, 0.01, 0.3)
    for name in SMALL[-3:] if tiny else SMALL:
        lo = CONVERGES_FROM[name] + 0.02
        for start in _starts(rng, lo, 1.6, 2):
            window("optimize", name, start, 0.005, 0.3)
        for start in _starts(rng, lo, 1.5, 2):
            window("sweep", name, start, 0.005, 0.4)
    window("sweep", *rng.choice(LABEL_WINDOWS[:1] if tiny else LABEL_WINDOWS), 0.5)
    tasks.append(Task("exact", {"scheme": "cheb", "rho": 1.2, "alpha": "51072/50999"}))
    return tasks


def describe_inputs(tasks: list[Task]) -> None:
    """Attach scheme periods and pairs per period to optimize tasks.

    Called after the timed phase, so that set-up time holds no library work
    beyond the import.
    """
    profiles: dict = {}
    for t in tasks:
        if t.kind in ("optimize", "sweep"):
            name = t.args["scheme"]
            if name not in profiles:
                profiles[name] = cs.e_profile(cs.BUILTINS[name])
            p = profiles[name]
            t.props = {
                "period": p.period,
                "pairs_per_period": sum(-d for _, d in p.jumps if d < 0),
                "width": round(t.args["hi"] - t.args["lo"], 3),
            }


def _best_rows(rows):
    usable = [r for r in rows if r.converges and r.a_limit > 0]
    _expect(bool(usable), "no converging row in the window")
    return (
        max(usable, key=lambda r: r.a_limit),
        min(usable, key=lambda r: r.b_limit),
        min(usable, key=lambda r: r.ratio),
    )


def check_row_exact(row, fp, lower, upper) -> None:
    """A float sweep row must equal the exact fixed point at the same float rho."""
    _expect(fp.converges == row.converges, f"converges differs at rho={row.rho!r}")
    _expect(math.isclose(fp.a_limit, row.a_limit, rel_tol=REL_TOL), f"a differs at rho={row.rho!r}")
    _expect(math.isclose(fp.b_limit, row.b_limit, rel_tol=REL_TOL), f"b differs at rho={row.rho!r}")
    _expect(lower.n_terms == row.n_lower_terms, f"lower term count differs at rho={row.rho!r}")
    _expect(upper.n_terms == row.n_upper_terms, f"upper term count differs at rho={row.rho!r}")


def _exact_at(s, profile, rho):
    lower = cs.select_terms(profile, "lower", rho)
    upper = cs.select_terms(profile, "upper", rho)
    fp = cs.fixed_point(cs.build_recurrence(lower, upper, cs.constant_A(s), profile.n))
    return fp, lower, upper


def run_optimize_task(task: Task, ctx: dict) -> dict:
    a = task.args
    s = cs.BUILTINS[a["scheme"]]
    out: dict = {}
    if task.kind == "exact":
        fp, _, _ = _exact_at(s, cs.e_profile(s), a["rho"])
        _expect(fp.alpha == Fraction(a["alpha"]), f"alpha {fp.alpha} != {a['alpha']}")
        return out
    if task.kind == "optimize":
        opt = cs.optimize_rho(s, a["lo"], a["hi"], a["step"])
        best = (opt.best_a, opt.best_b, opt.best_ratio)
    else:
        rows = cs.sweep_rho(s, a["lo"], a["hi"], a["step"])
        best = _best_rows(rows)
        out["rhos"] = [r.rho for r in rows]
    profile = cs.e_profile(s)
    for row in {r.rho: r for r in best}.values():
        fp, lower, upper = _exact_at(s, profile, row.rho)
        cs.selection_step_function(lower, profile)
        cs.selection_step_function(upper, profile)
        check_row_exact(row, fp, lower, upper)
    return out


def label_mismatches(task: Task, rhos: list[float]) -> int:
    """Rows whose 12-digit printed rho keeps other terms than the float rho.

    This is the known sweep-label defect: the row is right for its float rho,
    so it is counted, not failed.
    """
    profile = cs.e_profile(cs.BUILTINS[task.args["scheme"]])
    count = 0
    for rho in rhos:
        printed = float(f"{rho:.12g}")
        if printed == rho:
            continue
        for side in ("lower", "upper"):
            a = cs.select_terms(profile, side, rho)
            b = cs.select_terms(profile, side, printed)
            if (a.kept_pairs, a.standalones) != (b.kept_pairs, b.standalones):
                count += 1
                break
    return count


# ------------------------------------------------------------------ verify


def verify_tasks(seed: int, tiny: bool = False) -> list[Task]:
    """Per sieve limit (about 1, 2 and 4e6): the sieve, then four bound checks
    that reuse it; plus the two O(L^2) identity checks at six limits from
    2e3 to 7e3."""
    rng = random.Random(f"verify:{seed}")
    targets = (20_000, 40_000) if tiny else (1_000_000, 2_000_000, 4_000_000)
    tasks: list[Task] = []
    for target in targets:
        limit = int(target * (0.99 + 0.02 * rng.random()))
        a, b = rng.choice(FINAL_PAIRS)
        scheme, lo = rng.choice((("cheb", 1.1), ("nu4", 1.2)))
        tasks += [
            Task("sieve", {"limit": limit}, {"table_bytes": limit_table_bytes(limit)}),
            Task("final-bounds", {"limit": limit, "a": a, "b": b}),
            Task("selection-bounds", {"limit": limit, "scheme": scheme, "rho": round(rng.uniform(lo, 1.9), 3)}),
            Task("asymptotic", {"limit": limit, "scheme": rng.choice(SMALL)}),
            Task("psi-pi", {"limit": limit, "alpha": round(rng.uniform(0.6, 0.9), 3)}),
        ]
    id_targets = (400, 600) if tiny else (2_000, 3_000, 4_000, 5_000, 6_000, 7_000)
    for target in id_targets:
        tasks.append(Task("convolution", {"limit": int(target * (0.98 + 0.04 * rng.random()))}))
        tasks.append(Task("v-identity", {
            "limit": int(target * (0.98 + 0.04 * rng.random())),
            "scheme": rng.choice(("cheb", "nu4", "nu5", "nu6")),
        }))
    return tasks


def limit_table_bytes(limit: int) -> int:
    """Computed size of SieveTables(limit): lam, psi and pi prefixes at 8 bytes,
    moebius and is_prime at 1 byte, each over limit + 1 entries."""
    return (3 * 8 + 2) * (limit + 1)


def _ladder(limit: int) -> list[int]:
    out, x = [], 100
    while x <= limit:
        out.append(x)
        x *= 2
    return out


def _trial_lambda_mu(n: int) -> tuple[float, int]:
    """Lambda(n) and mu(n) by trial division: the oracle for sampled sieve entries."""
    primes, m, d = [], n, 2
    while d * d <= m:
        while m % d == 0:
            primes.append(d)
            m //= d
        d += 1
    if m > 1:
        primes.append(m)
    distinct = set(primes)
    lam = math.log(primes[0]) if len(distinct) == 1 else 0.0
    mu = 0 if len(distinct) < len(primes) else (-1) ** len(primes)
    return lam, mu


def _check_sieve(tables, limit: int, rng: random.Random) -> None:
    _expect(tables.limit == limit, "sieve limit differs")
    for n in [2, 3, 4, 30, limit] + [rng.randint(2, limit) for _ in range(24)]:
        lam, mu = _trial_lambda_mu(n)
        _expect(math.isclose(float(tables.lam[n]), lam, abs_tol=1e-12), f"Lambda({n}) differs")
        _expect(int(tables.moebius[n]) == mu, f"mu({n}) differs")
    _expect(cs.pi_count(1000, tables) == 168, "pi(1000) != 168")


def run_verify_task(task: Task, ctx: dict) -> dict:
    a = task.args
    if task.kind == "sieve":
        ctx.pop("tables", None)  # release the previous limit's tables before building the next
        tables = cs.build_sieve(a["limit"])
        _check_sieve(tables, a["limit"], random.Random(a["limit"]))
        ctx["tables"] = tables
        return {}
    tables = ctx.get("tables")
    if task.kind == "final-bounds":
        rep = cs.verify_final_bounds(a["a"], a["b"], a["limit"], tables)
    elif task.kind == "selection-bounds":
        s = cs.BUILTINS[a["scheme"]]
        p = cs.e_profile(s)
        lower = cs.select_terms(p, "lower", a["rho"])
        upper = cs.select_terms(p, "upper", a["rho"])
        rep = cs.verify_selection_bounds(s, lower, upper, a["limit"], tables)
    elif task.kind == "asymptotic":
        rep = cs.verify_asymptotic_A(cs.BUILTINS[a["scheme"]], _ladder(a["limit"]))
    elif task.kind == "psi-pi":
        rep = cs.verify_psi_pi(a["alpha"], [float(x) for x in _ladder(a["limit"])], tables)
    elif task.kind == "convolution":
        rep = cs.check_convolution_identities(a["limit"])
        _expect(rep.limit == a["limit"], "convolution limit differs")
    elif task.kind == "v-identity":
        rep = cs.verify_V_identities(cs.BUILTINS[a["scheme"]], a["limit"])
    else:
        raise ValueError(f"unknown verify task {task.kind!r}")
    _expect(rep.passed, f"{task.kind} report did not pass")
    return {}


# --------------------------------------------------------------------- cli


def cli_tasks(seed: int, tiny: bool = False) -> list[Task]:
    """Twenty-eight cold CLI calls covering every subcommand at small sizes,
    plus two bare ``import chebsylv`` children."""
    rng = random.Random(f"cli:{seed}")

    def rho(name: str) -> float:
        return round(rng.uniform(CONVERGES_FROM[name] + 0.02, 1.9), 2)

    def call(*argv) -> Task:
        return Task("import" if argv[0] == "import" else argv[0], {"argv": [str(v) for v in argv]})

    if tiny:
        return [call("import"), call("analyze", "cheb"), call("verify", "lcm", "--limit", 30)]
    small = list(SMALL)
    tasks = [call("import"), call("import"), call("list-schemes")]
    tasks += [call("analyze", s) for s in rng.sample(small + ["nu7"], 3)]
    tasks += [call("base-bounds", s) for s in rng.sample(small + ["nu7"], 3)]
    tasks += [call("eprofile", s) for s in rng.sample(small, 2)]
    for side in ("lower", "upper", "lower", "upper"):
        s = rng.choice(small)
        tasks.append(call("select", s, "--rho", rho(s), "--side", side))
    for steps in (None, None, 20, 20):
        s = rng.choice(small)
        extra = () if steps is None else ("--steps", steps)
        tasks.append(call("iterate", s, "--rho", rho(s), *extra))
    for s, refine in ((rng.choice(small), False), (rng.choice(small), False), (rng.choice(small), True), ("nu7", True)):
        lo = round(rng.uniform(CONVERGES_FROM[s] + 0.02, 1.6), 2)
        extra = ("--refine",) if refine else ()
        tasks.append(call("sweep", s, "--rho-min", lo, "--rho-max", round(lo + 0.3, 2), "--step", 0.01, *extra))
    tasks += [
        call("verify", "convolution", "--limit", rng.randint(1900, 2100)),
        call("verify", "lcm", "--limit", rng.randint(40, 60)),
        call("verify", "v-identity", "--scheme", rng.choice(small), "--limit", rng.randint(1900, 2100)),
        call("verify", "selection", "--scheme", "cheb", "--rho", rho("cheb"), "--limit", rng.randint(90_000, 110_000)),
        call("verify", "asymptotic", "--scheme", rng.choice(small), "--limit", rng.randint(90_000, 110_000)),
        call("verify", "final-bounds", "--limit", rng.randint(190_000, 210_000)),
        call("verify", "psi-pi", "--alpha", round(rng.uniform(0.6, 0.9), 3), "--limit", rng.randint(90_000, 110_000)),
    ]
    return tasks


def cli_command(task: Task) -> list[str]:
    if task.kind == "import":
        return [sys.executable, "-c", "import chebsylv"]
    return [sys.executable, "-m", "chebsylv.cli", *task.args["argv"]]


def run_cli_task(task: Task, ctx: dict) -> dict:
    """One cold child; its output is checked after the timed phase."""
    proc = subprocess.run(
        cli_command(task), cwd=ctx["root"], env=ctx["env"],
        capture_output=True, timeout=CLI_TIMEOUT_S,
    )
    return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-2000:]}


def _r12(x: float) -> float:
    """The CLI's float rendering: 12 significant digits."""
    return float(f"{x:.12g}")


def _frac(x: Fraction | None) -> str | None:
    return None if x is None else f"{x.numerator}/{x.denominator}"


def _opt_value(argv: list[str], flag: str, cast, default=None):
    return cast(argv[argv.index(flag) + 1]) if flag in argv else default


def cli_expected(task: Task) -> dict:
    """Library result for a CLI call's arguments: the keys its JSON must carry."""
    argv = task.args["argv"]
    cmd = argv[0]
    if cmd == "list-schemes":
        return {"schemes": [
            {"name": n, "period": cs.e_profile(s).period, "A": _r12(cs.constant_A(s))}
            for n, s in cs.BUILTINS.items()
        ]}
    if cmd == "verify":
        return _verify_expected(argv)
    s = cs.resolve_scheme(argv[1])
    if cmd == "analyze":
        p = cs.e_profile(s)
        bb = cs.base_bounds(s, p)
        return {"period": p.period, "N": p.n, "M": p.m, "A": _r12(bb.A), "B": _r12(bb.B)}
    if cmd == "base-bounds":
        bb = cs.base_bounds(s)
        return {"A": _r12(bb.A), "B": _r12(bb.B), "b_factor": _frac(bb.b_factor)}
    if cmd == "eprofile":
        return {"values": cs.e_profile(s).values.tolist()}
    rho = _opt_value(argv, "--rho", float)
    if cmd == "select":
        sel = cs.select_terms(cs.e_profile(s), _opt_value(argv, "--side", str), rho)
        return {"pairs": [list(p) for p in sel.kept_pairs], "standalones": list(sel.standalones), "n_terms": sel.n_terms}
    if cmd == "iterate":
        p = cs.e_profile(s)
        fp, _, _ = _exact_at(s, p, rho)
        out = {"alpha": _frac(fp.alpha), "beta": _frac(fp.beta), "a": _r12(fp.a_limit), "b": _r12(fp.b_limit)}
        steps = _opt_value(argv, "--steps", int)
        if steps is not None:
            out["trace_len"] = steps + 1
        return out
    if cmd == "sweep":
        lo, hi, step = (_opt_value(argv, f, float) for f in ("--rho-min", "--rho-max", "--step"))
        rows = cs.sweep_rho(s, lo, hi, step)
        out = {"rows": [[_r12(r.rho), _r12(r.a_limit), _r12(r.b_limit), r.converges] for r in rows]}
        if "--refine" in argv:
            best = cs.optimize_rho(s, lo, hi, step).best_ratio
            out["best_ratio"] = [_r12(best.rho), _r12(best.a_limit), _r12(best.b_limit)]
        return out
    raise ValueError(f"unknown cli task {cmd!r}")


def _verify_expected(argv: list[str]) -> dict:
    check = argv[1]
    limit = _opt_value(argv, "--limit", int)
    if check == "convolution":
        rep = cs.check_convolution_identities(limit)
        return {"passed": rep.passed, "max_dev_T": _r12(rep.max_dev_T), "max_dev_psi": _r12(rep.max_dev_psi)}
    if check == "lcm":
        return {"passed": all(cs.lcm_identity_check(x) for x in range(1, limit + 1))}
    s = cs.resolve_scheme(_opt_value(argv, "--scheme", str, "cheb"))
    if check == "v-identity":
        rep = cs.verify_V_identities(s, limit)
    elif check == "selection":
        p = cs.e_profile(s)
        rho = _opt_value(argv, "--rho", float)
        rep = cs.verify_selection_bounds(s, cs.select_terms(p, "lower", rho), cs.select_terms(p, "upper", rho), limit)
    elif check == "asymptotic":
        rep = cs.verify_asymptotic_A(s, _ladder(limit))
    elif check == "final-bounds":
        rep = cs.verify_final_bounds(0.9226, 1.0765, limit)
    elif check == "psi-pi":
        ladder = [float(x) for x in (100, 1000, 10**4, limit) if x <= limit]
        rep = cs.verify_psi_pi(_opt_value(argv, "--alpha", float), ladder, cs.build_sieve(limit))
    else:
        raise ValueError(f"unknown verify check {check!r}")
    return {"passed": rep.passed, "max_violation": _r12(rep.max_violation)}


def cli_observed(task: Task, payload: dict) -> dict:
    """The same keys as cli_expected, read from the CLI's JSON."""
    argv = task.args["argv"]
    cmd = argv[0]
    if cmd == "list-schemes":
        return {"schemes": [{k: e[k] for k in ("name", "period", "A")} for e in payload["schemes"]]}
    if cmd == "iterate":
        out = {k: payload[k] for k in ("alpha", "beta", "a", "b")}
        if "trace" in payload:
            out["trace_len"] = len(payload["trace"])
        return out
    if cmd == "sweep":
        out = {"rows": [[r["rho"], r["a"], r["b"], r["converges"]] for r in payload["rows"]]}
        if "optimum" in payload:
            best = payload["optimum"]["best_ratio"]
            out["best_ratio"] = [best["rho"], best["a"], best["b"]]
        return out
    return payload


def check_cli_output(task: Task, result: dict, expected: dict | None) -> None:
    """Exit 0, and for chebsylv calls the JSON carries the library's values."""
    _expect(result["returncode"] == 0, f"exit {result['returncode']}: {result['stderr'][-300:]!r}")
    if task.kind == "import":
        return
    payload = json.loads(result["stdout"])
    observed = cli_observed(task, payload)
    for key, want in expected.items():
        _expect(observed.get(key) == want, f"{' '.join(task.args['argv'])}: {key} differs")


def make_tasks(workload: str, seed: int, tiny: bool = False) -> list[Task]:
    if workload == "optimize":
        return optimize_tasks(seed, tiny)
    if workload == "verify":
        return verify_tasks(seed, tiny)
    if workload == "cli":
        return cli_tasks(seed, tiny)
    raise ValueError(f"unknown workload {workload!r}")


RUNNERS = {"optimize": run_optimize_task, "verify": run_verify_task, "cli": run_cli_task}
