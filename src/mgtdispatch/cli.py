"""Command line interface.

Subcommands:
    solve     one dispatch problem -> report JSON + schedule CSV
    compare   benchmark/nominal/box/mixed on realized days, table + JSON
    bench     runtime scaling study on the synthetic turbine model
    validate  sanity-check model/tariff/demand files

Exit codes: 0 success, 1 bad arguments or unreadable/invalid input files,
2 problem proven infeasible, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from functools import partial

from .bench import render_scaling_table, run_scaling
from .demand import (
    bias_profile,
    box_set,
    forecast_from_history,
    load_demand,
    load_history,
    mixed_set,
    worst_corner,
)
from .graph import _check_tariff, build_graph
from .model import load_model, validate_model
from .packs import _repeats, load_pack_manifest
from .schedule import DEFAULT_WIDTHS, ComparisonReport, build_schedule, compare_day, save_schedule
from .solvers import _solve_mixed, solve_box, solve_nominal
from .tariff import check_convexity, check_monotone, load_tariff

# --algo mixed-<mode> and --mixed <mode> to the sweep modes of _solve_mixed
MIXED_MODES = {"exact": "exact", "add": "additive", "mul": "multiplicative"}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is taken by "infeasible" here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="mgtdispatch", description="Robust dispatch of a discrete-state CHP turbine.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # flags solve and compare share; unset widths fall back to a pack's, then to DEFAULT_WIDTHS
    robust = argparse.ArgumentParser(add_help=False)
    robust.add_argument("--history", help="directory of history day CSVs")
    for flag, what in (("alpha", "box width in sigmas"), ("alpha1", "mixed bias width in sigmas"),
                       ("alpha2", "mixed spike budget")):
        robust.add_argument(f"--{flag}", type=float, help=f"{what} (default {DEFAULT_WIDTHS[flag]})")
    robust.add_argument("--eps", type=float, help="additive grid spacing")
    robust.add_argument("--grid-n", type=int, help="number of additive grid budgets")
    robust.add_argument("--mu", type=float, help="multiplicative grid ratio - 1")
    robust.add_argument("--initial-state", default="any")
    robust.add_argument("--final-state", default="any")

    ps = sub.add_parser("solve", parents=[robust], help="solve one dispatch problem")
    ps.add_argument("--model", required=True)
    ps.add_argument("--tariff", required=True)
    ps.add_argument("--algo", default="nominal",
                    choices=["nominal", "box", *(f"mixed-{m}" for m in MIXED_MODES)])
    ps.add_argument("--demand", help="demand CSV (nominal algo)")
    ps.add_argument("--out-report")
    ps.add_argument("--out-schedule")

    pc = sub.add_parser("compare", parents=[robust], help="compare strategies against realized demand")
    pc.add_argument("--pack", help="pack directory (four-season layout)")
    pc.add_argument("--season", action="append", help="restrict pack compare to these seasons")
    pc.add_argument("--model")
    pc.add_argument("--tariff")
    pc.add_argument("--realized")
    pc.add_argument("--mixed", choices=[*MIXED_MODES, "none"])
    pc.add_argument("--out")

    pb = sub.add_parser("bench", help="runtime scaling study")
    pb.add_argument("--horizons", default="1440,2880,5760")
    pb.add_argument("--n-speeds", type=int, default=30)
    pb.add_argument("--n-valves", type=int, default=50)
    pb.add_argument("--step-seconds", type=float, default=15.0)
    pb.add_argument("--grid-n", type=int, help="add a mixed solve with this grid at the largest horizon")
    pb.add_argument("--seed", type=int, default=7)
    pb.add_argument("--out")

    pv = sub.add_parser("validate", help="check input files")
    pv.add_argument("--model", required=True)
    pv.add_argument("--tariff")
    pv.add_argument("--demand")
    pv.add_argument("--history")
    return p


def _widths(args, fallback: dict) -> dict:
    """alpha, alpha1 and alpha2 from the flags, else from `fallback`, else DEFAULT_WIDTHS."""
    return {k: getattr(args, k) if getattr(args, k) is not None else fallback.get(k, v)
            for k, v in DEFAULT_WIDTHS.items()}


def _finite_or_null(obj):
    """obj with every non-finite float (an infeasible cost) replaced by None, which JSON writes as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _write_json(obj, path: str) -> None:
    """Write a report as strict JSON: infinities and NaN become null."""
    with open(path, "w") as fh:
        json.dump(_finite_or_null(obj), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _cmd_solve(args) -> int:
    model = load_model(args.model)
    tariff = load_tariff(args.tariff)

    source = "demand" if args.algo == "nominal" else "history"
    if not getattr(args, source):
        print(f"--{source} is required for --algo {args.algo}", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    if args.algo == "nominal":
        uset = load_demand(args.demand)
        eval_profile, profile_name, solve = uset, "nominal", solve_nominal
    else:
        forecast = forecast_from_history(load_history(args.history))
        widths = _widths(args, {})
        if args.algo == "box":
            uset = box_set(forecast, widths["alpha"])
            eval_profile, profile_name, solve = worst_corner(uset), "box-corner", solve_box
        else:
            uset = mixed_set(forecast, widths["alpha1"], widths["alpha2"])
            eval_profile, profile_name = bias_profile(uset), "bias"
            solve = partial(_solve_mixed, mode=MIXED_MODES[args.algo.removeprefix("mixed-")],
                            epsilon=args.eps, grid_n=args.grid_n, mu=args.mu)
    graph = build_graph(model, uset.n_steps + 1, initial=args.initial_state, final=args.final_state)
    solution = solve(graph, uset, tariff)
    runtime = time.perf_counter() - t0

    schedule = None
    if solution.feasible:
        schedule = build_schedule(graph, solution.path, eval_profile, tariff)
        if args.out_schedule:
            save_schedule(schedule, args.out_schedule)

    report = {
        "algorithm": solution.algorithm,
        **solution.report_fields(),
        "schedule_cost": schedule.total_cost if schedule else None,
        "evaluation_profile": profile_name,
        "runtime_s": runtime,
        "horizon": graph.horizon,
        "n_states": graph.n_states,
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "initial_states": graph.initial_states(),
        "final_states": graph.final_states(),
    }
    if args.out_report:
        _write_json(report, args.out_report)

    if not solution.feasible:
        print(f"algorithm={solution.algorithm} infeasible: no admissible path "
              f"from {{{', '.join(graph.initial_states())}}} to {{{', '.join(graph.final_states())}}}")
        return 2
    print(f"algorithm={solution.algorithm} worst_case_cost={solution.worst_case_cost:.6f} "
          f"worst_scenario={solution.worst_scenario} runtime_s={runtime:.3f}")
    return 0


def _cmd_compare(args) -> int:
    mode = args.mixed or ("mul" if args.mu is not None
                          else "add" if args.eps is not None or args.grid_n is not None else "exact")
    days = []  # (name, tariff, history, realized)
    if args.pack:
        manifest = load_pack_manifest(args.pack)
        model = load_model(os.path.join(args.pack, manifest["model"]))
        seasons = args.season or manifest["seasons"]
        unknown = set(seasons) - set(manifest["seasons"])
        if unknown:
            raise ValueError(f"pack has no season(s): {', '.join(sorted(unknown))}")
        if repeated := _repeats(seasons):
            raise ValueError(f"--season gives {repeated} more than once")
        widths = _widths(args, manifest)
        for season in seasons:
            sdir = os.path.join(args.pack, season)
            days.append((season, load_tariff(os.path.join(sdir, "tariff.json")),
                         load_history(os.path.join(sdir, "history")),
                         load_demand(os.path.join(sdir, "realized.csv"))))
    else:
        if args.season:
            raise ValueError("--season needs --pack")
        missing = [f for f in ("model", "tariff", "history", "realized") if getattr(args, f) is None]
        if missing:
            print("compare needs --pack or all of --model/--tariff/--history/--realized "
                  f"(missing: {', '.join('--' + m for m in missing)})", file=sys.stderr)
            return 1
        model = load_model(args.model)
        widths = _widths(args, {})
        days.append((os.path.splitext(os.path.basename(args.realized))[0], load_tariff(args.tariff),
                     load_history(args.history), load_demand(args.realized)))

    cases = [compare_day(model, tariff, history, realized, **widths, mixed=MIXED_MODES.get(mode),
                         epsilon=args.eps, grid_n=args.grid_n, mu=args.mu,
                         initial=args.initial_state, final=args.final_state, name=name)
             for name, tariff, history, realized in days]
    report = ComparisonReport(cases=tuple(cases))
    sys.stdout.write(report.render_table())
    if args.out:
        _write_json(report.to_dict(), args.out)
    if any(not case.entry("benchmark").feasible for case in cases):
        return 2
    return 0


def _cmd_bench(args) -> int:
    try:
        horizons = [int(h) for h in args.horizons.split(",") if h.strip()]
    except ValueError:
        print(f"cannot parse --horizons {args.horizons!r}", file=sys.stderr)
        return 1
    if not horizons or min(horizons) < 2:
        print("--horizons needs integers >= 2", file=sys.stderr)
        return 1
    rows = run_scaling(
        horizons,
        n_speeds=args.n_speeds,
        n_valves=args.n_valves,
        step_seconds=args.step_seconds,
        mixed_grid_n=args.grid_n,
        seed=args.seed,
    )
    sys.stdout.write(render_scaling_table(rows))
    if args.out:
        _write_json(rows, args.out)
    return 0


def _cmd_validate(args) -> int:
    failed = False
    model = load_model(args.model)
    problems = validate_model(model)
    if problems:
        failed = True
        for msg in problems:
            print(f"model: {msg}")
    else:
        print(f"model: ok ({len(model.states)} states, {len(model.transitions)} transitions)")

    if args.tariff:
        tariff = load_tariff(args.tariff)
        notes, falls = check_convexity(tariff), check_monotone(tariff)
        if falls:
            print(f"tariff: ok, but cost falls as demand rises ({len(falls)} step(s), first {falls[0]}); "
                  "box and mixed solvers will refuse a day that prices one of them")
        if notes:
            print(f"tariff: ok, but non-convex ({len(notes)} step(s)); "
                  "mixed solvers will refuse a day that prices one of them")
        if not (falls or notes):
            print(f"tariff: ok ({tariff.horizon_steps} steps, convex)")

    n_steps = []  # solve's tariff checks need the longest given day
    if args.demand:
        demand = load_demand(args.demand)
        print(f"demand: ok ({demand.n_steps} steps)")
        n_steps.append(demand.n_steps)

    if args.history:
        days = load_history(args.history)
        n_steps.append(days[0].n_steps)
        try:
            forecast_from_history(days)
        except ValueError as exc:
            failed = True
            print(f"history: {exc}")
        else:
            print(f"history: ok ({len(days)} days of {days[0].n_steps} steps)")

    if args.tariff and n_steps and not problems:
        _check_tariff(build_graph(model, max(n_steps) + 1), tariff)

    return 1 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_validate(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
