"""Dispatch benchmark runner.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a checkout; the package is imported from ./src. One
process and one caller in a closed loop: each operation starts only after
the previous one returns, with DISPATCH_THREADS at its default of one
thread. The loop starts units (one operation; for the pack workload a pass
over its four seasons) until about --seconds of operations have run. Each
output is checked right after its operation, outside the timed span.

--trace 0 prints the end-to-end metrics. setup_s is the median, over
several fresh processes, of the time from starting the interpreter to the
first operation being ready (imports, model, tariff or pack). --trace 1 runs
every operation twice, untraced and traced in alternating order, requires
bit-identical outputs and prints the per-layer metrics of the traced copies.
--smoke shrinks every size so that a run takes seconds. The last line of
stdout is one JSON object; the exit code is 1 when any check fails.
--workload all runs every workload, each in its own process, and prints one
table.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "_work"
# setup_s is the median over this many fresh processes
SETUP_REPEATS = 5


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def import_program():
    """Import mgtdispatch from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "mgtdispatch" / "__init__.py").is_file():
        sys.exit(f"run.py: {src / 'mgtdispatch'} not found; run from the root of a checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import mgtdispatch
    import mgtdispatch.cli  # noqa: F401  (the trace rebinds its imported names too)

    if Path(mgtdispatch.__file__).resolve().parent != src / "mgtdispatch":
        sys.exit(f"run.py: mgtdispatch imported from {mgtdispatch.__file__}, not {src}")
    return mgtdispatch


def environment(args) -> dict:
    import numpy

    def cache(index: int):
        try:
            return Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size").read_text().strip()
        except OSError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "l2_cache": cache(2),
        "l3_cache": cache(3),
        "DISPATCH_THREADS": os.environ.get("DISPATCH_THREADS", "unset (1 thread)"),
    }


def timed_op(wl, ctx, inputs):
    """Run one operation; an exception makes a failed operation, not a crash."""
    t0 = time.perf_counter()
    try:
        out = wl.op(ctx, inputs)
    except Exception as exc:
        out = exc
    return out, time.perf_counter() - t0


def closed_loop(run_unit, seconds: float) -> None:
    """Start units until about `seconds` of them have run."""
    unit_times: list[float] = []
    while not unit_times or sum(unit_times) + statistics.median(unit_times) / 2 < seconds:
        unit_times.append(run_unit(len(unit_times)))


def setup_seconds(argv: list[str]) -> list[float]:
    """Process start to first op ready, once per fresh process."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, __file__, *argv, "--setup-only"],
                              stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline().strip() == "ready"
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if not ready or proc.returncode != 0:
            sys.exit(f"run.py: set-up process failed with exit code {proc.returncode}")
    return times


def check_op(wl, ctx, key: str, inputs, out, recorded: dict, later: list | None = None) -> list[str]:
    from workloads import run_checks

    if isinstance(out, Exception):
        return [f"{wl.name}[{key}]: raised {type(out).__name__}: {out}"]
    return run_checks(wl, ctx, key, inputs, out, recorded.get(key), later)


def percentiles(times: list[float]) -> dict[str, float]:
    """p50, plus each higher percentile that has at least ten samples above it."""
    out = {"op_s.p50": statistics.median(times)}
    cuts = statistics.quantiles(times, n=100) if len(times) >= 2 else []
    for p in (90, 99):
        if len(times) * (100 - p) / 100 >= 10:
            out[f"op_s.p{p}"] = cuts[p - 1]
    return out


def run_plain(wl, ctx, seconds: float, recorded: dict) -> tuple[dict, list[list[str]], list[str]]:
    """End-to-end metrics of an untraced run, and each operation's failures.

    Each output is checked, outside the timed span, before the next operation
    starts and then dropped, so peak RSS does not grow with the op count.
    Late checks, which allocate about as much as an operation, run after
    peak RSS is read, so it covers set-up, the operations and their other
    checks only.
    """
    times, keys, failures, later = [], [], [], []

    def unit(u: int) -> float:
        spent = 0.0
        for key, inputs in wl.unit(ctx, u):
            out, dt = timed_op(wl, ctx, inputs)
            failures.append(check_op(wl, ctx, key, inputs, out, recorded, later))
            times.append(dt)
            keys.append(key)
            spent += dt
        return spent

    closed_loop(unit, seconds)
    metrics = percentiles(times)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    for run_late in later:
        run_late()
    metrics["ops_per_min"] = 60.0 * len(times) / sum(times)
    metrics["success_rate"] = sum(1 for f in failures if not f) / len(times)
    print(f"op_s of {len(times)} ops: " + " ".join(f"{k}={t:.4f}" for k, t in zip(keys, times)))
    return metrics, failures, []


def run_traced(wl, ctx, seconds: float, recorded: dict, tracer) -> tuple[dict, list[list[str]], list[str]]:
    """Per-layer metrics from traced copies of every operation."""
    from spans import layer_metrics, reconcile

    plain_times, traced_times, failures = [], [], []

    def unit(u: int) -> float:
        spent = 0.0
        for key, inputs in wl.unit(ctx, u):
            outs = {}
            traced_first = len(failures) % 2 == 1
            for traced in (traced_first, not traced_first):
                if traced:
                    tracer.install()
                    try:
                        with tracer.root("op"):
                            outs[True], dt = timed_op(wl, ctx, inputs)
                    finally:
                        tracer.uninstall()
                    traced_times.append(dt)
                else:
                    outs[False], dt = timed_op(wl, ctx, inputs)
                    plain_times.append(dt)
                spent += dt
            fails = check_op(wl, ctx, key, inputs, outs[False], recorded)
            if not fails and (isinstance(outs[True], Exception) or wl.digest(outs[True]) != wl.digest(outs[False])):
                fails = [f"{wl.name}[{key}]: traced output differs from the untraced one"]
            failures.append(fails)
        return spent

    value_calls_setup = tracer.value_calls
    closed_loop(unit, seconds)
    overhead_pct = 100.0 * (sum(traced_times) - sum(plain_times)) / sum(plain_times)
    metrics = layer_metrics(tracer, overhead_pct, tracer.value_calls - value_calls_setup)
    return metrics, failures, reconcile(tracer, wl.solves)


def run_all(args, names: list[str]) -> int:
    """Each workload in its own process, then one table of every metric."""
    results = {}
    for name in names:
        argv = ["--workload", name, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        argv += ["--seed", str(args.seed)] * (args.seed is not None) + ["--smoke"] * args.smoke
        proc = subprocess.run([sys.executable, __file__, *argv], stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(f"{'workload':<20} {'metric':<34} {'value':>16} unit")
    for name, result in results.items():
        for metric, m in (result or {"metrics": {}})["metrics"].items():
            print(f"{name:<20} {metric:<34} {m['value']:>16.6g} {m['unit']}")
    done = [r for r in results.values() if r is not None]
    correct = len(done) == len(names) and all(r["correct"] for r in done)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "metrics": {f"{name}/{metric}": m for name, r in results.items() if r for metric, m in r["metrics"].items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import spans as layer_trace
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(workloads.WORKLOADS)}")
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    wl = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    recorded = {} if args.smoke or args.seed != workloads.DEFAULT_SEED else workloads.recorded_values(wl.name)

    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORKDIR)
    try:
        if args.setup_only:
            wl.setup(args.seed, workdir)
            print("ready", flush=True)
            return 0
        print("env " + json.dumps(environment(args), sort_keys=True))
        if args.trace:
            tracer = layer_trace.Tracer()
            tracer.install()
            try:
                with tracer.root("setup"):
                    ctx = wl.setup(args.seed, workdir)
            finally:
                tracer.uninstall()
            values, failures, problems = run_traced(wl, ctx, args.seconds, recorded, tracer)
            print(layer_trace.render(tracer, values))
        else:
            setup_times = setup_seconds(["--workload", wl.name, "--seed", str(args.seed)]
                                        + ["--smoke"] * args.smoke)
            ctx = wl.setup(args.seed, workdir)
            values, failures, problems = run_plain(wl, ctx, args.seconds, recorded)
            values["setup_s"] = statistics.median(setup_times)
            print(f"setup_s of {SETUP_REPEATS} processes: " + " ".join(f"{t:.4f}" for t in setup_times))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = metric_units("per_layer" if args.trace else "end_to_end")
    missing = [name for name in units if name not in values]
    if missing:
        sys.exit(f"run.py: BENCHMARK.json metrics not measured: {', '.join(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    if not args.trace:
        for name, m in metrics.items():
            print(f"{name:<34} {m['value']:>16.6g} {m['unit']}")
        for name in sorted(set(values) - set(units)):
            print(f"{name:<34} {values[name]:>16.6g} s")
    for message in [m for fails in failures for m in fails] + problems:
        print(f"FAILED {message}", file=sys.stderr)
    failed = sum(1 for fails in failures if fails)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": len(failures), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
