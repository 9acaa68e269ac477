"""Run one chebsylv benchmark workload and print its metrics.

From the repository root:

    python3 benchmark/run.py --workload optimize --seed 1 --seconds 30 --trace 0

The workload's seeded task list runs as a closed loop with one caller: pass
after pass over the whole list, a new pass starting only while fewer than
``--seconds`` have gone by. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics, with the tracing overhead. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. A full
run record (inputs, every task time, pass walls, versions) is written under
``.bench_out/``, and the spans of a traced run next to it.

The library is imported from ``src/`` of the checkout this file sits in; the
run fails when those sources are not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def import_library():
    """Import chebsylv from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "chebsylv", "__init__.py")):
        raise SystemExit(f"benchmark: no chebsylv sources under {SRC}")
    sys.path.insert(0, SRC)
    import chebsylv

    if os.path.dirname(os.path.dirname(os.path.abspath(chebsylv.__file__))) != SRC:
        raise SystemExit(f"benchmark: imported chebsylv from {chebsylv.__file__}, not {SRC}")
    return chebsylv


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh workload process until it is ready to
    run its first task: interpreter start, ``import chebsylv`` and input
    generation."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--probe"]
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode} without getting ready")
    return elapsed


def tail_rank(n: int) -> int:
    """1-based rank of the highest nearest-rank percentile with at least ten
    tasks beyond it (the maximum when there are ten tasks or fewer)."""
    return n - 10 if n > 10 else n


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_record(cs) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "chebsylv": cs.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "loop": "closed, one caller; the cli workload runs one child process at a time",
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, probes: int = SETUP_PROBES) -> dict:
    """Run one workload; return the result line's fields plus the run record."""
    cs = import_library()
    import workloads as wl

    tasks = wl.make_tasks(workload, seed, tiny)
    runner = wl.RUNNERS[workload]
    # Set-up probes run between passes, outside the pass wall times, so that
    # they sample the machine at several moments of the run; like task times,
    # set-up time is the best of them.
    probes_left = 0 if trace else probes
    setup_samples: list[float] = []

    tracer = spans.Tracer() if trace else None
    times: list[list[float]] = [[] for _ in tasks]
    outputs: list[list] = [[] for _ in tasks]
    failures: list[dict] = []
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    attempted = 0
    min_passes = 2 if trace else 1
    pass_no = 0
    t0 = perf_counter()
    while pass_no < min_passes or perf_counter() - t0 < seconds:
        if probes_left:
            setup_samples.append(setup_probe(workload, seed))
            probes_left -= 1
        traced = trace and pass_no % 2 == 1
        if traced:
            tracer.install()
        ctx = {"root": ROOT, "env": child_env()}
        start = perf_counter()
        for i, task in enumerate(tasks):
            attempted += 1
            root = cli_span = None
            if traced:
                tracer.task = (pass_no, i)
                root = tracer.open("bench.task")
                if workload == "cli":
                    cli_span = tracer.open(f"cli.{task.kind}")
            ts = perf_counter()
            try:
                out = runner(task, ctx)
            except Exception as exc:  # a failed task is counted, and the loop goes on
                out = None
                failures.append({"pass": pass_no, "task": i, "error": f"{type(exc).__name__}: {exc}"})
            times[i].append(perf_counter() - ts)
            if cli_span is not None:
                tracer.close(cli_span, error=out is None or out["returncode"] != 0)
                cli_span[5] = (len(out["stdout"]),) if out is not None else None
            if root is not None:
                tracer.close(root, error=out is None)
                tracer.task = None
            if out is not None:
                outputs[i].append(out)
        wall = perf_counter() - start
        ctx.clear()
        if traced:
            tracer.uninstall()
            traced_walls.append((pass_no, wall))
        else:
            untraced_walls.append(wall)
        pass_no += 1
    setup_samples += [setup_probe(workload, seed) for _ in range(probes_left)]
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss / 1024  # Linux reports kilobytes

    if workload == "cli":
        failures += check_cli_outputs(wl, tasks, outputs)
    if workload == "optimize":
        wl.describe_inputs(tasks)

    # A task's time is its best over the run's passes: the program's work is
    # the same on every pass, so slower repeats measure interference from
    # the machine, which moves whole runs by up to a third on a shared VM.
    best = [min(t) for t in times]
    ranked = sorted(best)
    k = tail_rank(len(ranked))
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "run": run_record(cs),
        "passes": pass_no,
        "untraced_pass_walls_s": untraced_walls,
        "traced_pass_walls_s": [w for _, w in traced_walls],
        "setup_samples_s": setup_samples,
        "task_tail": {"percentile": round(100 * k / len(ranked), 1), "tasks": len(ranked), "beyond": len(ranked) - k},
        "tasks": [dict(t.record(), best_ms=b * 1000, times_ms=[x * 1000 for x in ts]) for t, b, ts in zip(tasks, best, times)],
        "inputs": input_summary(tasks),
        "failures": failures[:50],
    }
    failed = len(failures)
    fail_ratio = failed / attempted
    if trace:
        metrics, missing = layer_metrics(workload, tracer, traced_walls, untraced_walls, tasks, outputs, wl)
        record["trace_overhead_share"] = metrics["trace.overhead_share"]
        record["missing_layers"] = missing
        record["spans_file"] = write_spans(tracer, workload, seed)
        units = spans.PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": min(setup_samples),
            "wall_s": sum(best),
            "task_p50_ms": statistics.median(best) * 1000,
            "task_tail_ms": ranked[k - 1] * 1000,
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": 1 - fail_ratio,
        }
        units = END_TO_END_UNITS
    record["fail_ratio"] = fail_ratio
    record["metrics"] = metrics
    os.makedirs(OUT_DIR, exist_ok=True)
    record_path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
        "record": record,
        "record_path": record_path,
    }


def check_cli_outputs(wl, tasks, outputs) -> list[dict]:
    """Compare every child's output with the library result, computed now
    that the timed phase is over."""
    failures = []
    for i, task in enumerate(tasks):
        try:
            expected = None if task.kind == "import" else wl.cli_expected(task)
        except Exception as exc:  # the library path itself failed: every run of the call fails
            failures += [{"task": i, "error": f"library: {type(exc).__name__}: {exc}"}] * len(outputs[i])
            continue
        for out in outputs[i]:
            try:
                wl.check_cli_output(task, out, expected)
            except Exception as exc:  # each mismatch or malformed output is one failed call
                failures.append({"task": i, "error": f"{type(exc).__name__}: {exc}"})
    return failures


def input_summary(tasks) -> dict:
    """Properties of the generated inputs: the same strata for every seed."""
    kinds: dict[str, int] = {}
    for t in tasks:
        kinds[t.kind] = kinds.get(t.kind, 0) + 1
    out: dict = {"task_kinds": kinds}
    periods = {t.args["scheme"]: (t.props.get("period"), t.props.get("pairs_per_period")) for t in tasks if "period" in t.props}
    if periods:
        out["periods"] = {k: {"period": p, "pairs_per_period": n} for k, (p, n) in sorted(periods.items())}
        out["rho_windows"] = [[t.args["lo"], t.args["hi"], t.args["step"]] for t in tasks if "lo" in t.args]
    limits = sorted({t.args["limit"] for t in tasks if "limit" in t.args})
    if limits:
        out["limits"] = limits
        out["table_bytes_computed"] = {t.args["limit"]: t.props["table_bytes"] for t in tasks if t.kind == "sieve"}
        out["bandwidth"] = "not claimed: only computed bytes are reported"
    return out


def layer_metrics(workload, tracer, traced_walls, untraced_walls, tasks, outputs, wl):
    """Median per-layer metrics over the traced passes, and missing layers."""
    per_pass = [tracer.pass_metrics(p, wall) for p, wall in traced_walls]
    metrics = {name: 0.0 for name in spans.PER_LAYER_UNITS}
    metrics.update(spans.median_metrics(per_pass))
    if workload == "optimize":
        metrics["sweep.label_mismatch"] = sum(
            wl.label_mismatches(t, outs[0]["rhos"]) for t, outs in zip(tasks, outputs) if t.kind == "sweep" and outs
        )
    traced = statistics.median(w for _, w in traced_walls)
    untraced = statistics.median(untraced_walls)
    metrics["trace.wall_s"] = traced
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_share"] = (traced - untraced) / untraced
    missing = {}
    for layer in spans.EXPECTED_LAYERS[workload]:
        if any(m["_layer_calls"].get(layer, 0) == 0 for m in per_pass):
            missing[layer] = "the workload should reach this layer but a traced pass recorded no call"
            for name in [n for n in metrics if n.startswith(f"{layer}.")]:
                del metrics[name]
    return metrics, missing


def write_spans(tracer, workload: str, seed: int) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.jsonl")
    tracer.write(path)
    return path


def print_summary(result: dict) -> None:
    rec = result["record"]
    print(f"workload {rec['workload']} seed {rec['seed']}: {rec['passes']} passes of {len(rec['tasks'])} tasks, "
          f"closed loop, one caller")
    for name, m in result["metrics"].items():
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    if rec["trace"]:
        for layer, why in rec["missing_layers"].items():
            print(f"  missing layer {layer}: {why}")
        print(f"  tracing overhead {rec['trace_overhead_share']:+.2%} of untraced pass wall time")
        print(f"  spans: {os.path.relpath(rec['spans_file'], ROOT)}")
    else:
        tail = rec["task_tail"]
        print(f"  task_tail_ms is p{tail['percentile']}: {tail['beyond']} of {tail['tasks']} tasks beyond it")
        print(f"  fail_ratio {rec['fail_ratio']:.6g} ratio ({result['failed']} of {result['attempted']} attempted)")
    for f in rec["failures"][:5]:
        print(f"  failure: {f}")
    print(f"  record: {os.path.relpath(result['record_path'], ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("optimize", "verify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        import_library()
        import workloads

        workloads.make_tasks(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_summary(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
