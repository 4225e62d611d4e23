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
import os
import sys
import time

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
from .graph import build_graph
from .model import load_model, validate_model
from .packs import load_pack_manifest
from .schedule import ComparisonReport, build_schedule, compare_day, save_schedule
from .solvers import (
    solve_box,
    solve_mixed_additive,
    solve_mixed_exact,
    solve_mixed_multiplicative,
    solve_nominal,
)
from .tariff import check_convexity, check_monotone, convexify, load_tariff

INF = float("inf")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is taken by "infeasible" here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="mgtdispatch", description="Robust dispatch of a discrete-state CHP turbine.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ps = sub.add_parser("solve", help="solve one dispatch problem")
    ps.add_argument("--model", required=True)
    ps.add_argument("--tariff", required=True)
    ps.add_argument("--algo", default="nominal",
                    choices=["nominal", "box", "mixed-exact", "mixed-add", "mixed-mul"])
    ps.add_argument("--demand", help="demand CSV (nominal algo)")
    ps.add_argument("--history", help="directory of history day CSVs (box/mixed algos)")
    ps.add_argument("--alpha", type=float, default=0.13, help="box width in sigmas")
    ps.add_argument("--alpha1", type=float, default=0.03, help="mixed bias width in sigmas")
    ps.add_argument("--alpha2", type=float, default=40.0, help="mixed spike budget")
    ps.add_argument("--eps", type=float, help="additive grid spacing (mixed-add)")
    ps.add_argument("--grid-n", type=int, help="number of grid budgets (mixed-add)")
    ps.add_argument("--mu", type=float, help="geometric grid ratio - 1 (mixed-mul)")
    ps.add_argument("--convexify", action="store_true", help="replace the tariff by its convex envelope")
    ps.add_argument("--initial-state", default="any")
    ps.add_argument("--final-state", default="any")
    ps.add_argument("--out-report")
    ps.add_argument("--out-schedule")

    pc = sub.add_parser("compare", help="compare strategies against realized demand")
    pc.add_argument("--pack", help="pack directory (four-season layout)")
    pc.add_argument("--season", action="append", help="restrict pack compare to these seasons")
    pc.add_argument("--model")
    pc.add_argument("--tariff")
    pc.add_argument("--history")
    pc.add_argument("--realized")
    pc.add_argument("--alpha", type=float)
    pc.add_argument("--alpha1", type=float)
    pc.add_argument("--alpha2", type=float)
    pc.add_argument("--mixed", choices=["exact", "add", "mul", "none"])
    pc.add_argument("--eps", type=float)
    pc.add_argument("--grid-n", type=int)
    pc.add_argument("--mu", type=float)
    pc.add_argument("--convexify", action="store_true")
    pc.add_argument("--initial-state", default="any")
    pc.add_argument("--final-state", default="any")
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


def _load_tariff(path: str, envelope: bool):
    tariff = load_tariff(path)
    return convexify(tariff) if envelope else tariff


def _cmd_solve(args) -> int:
    model = load_model(args.model)
    tariff = _load_tariff(args.tariff, args.convexify)

    needs_history = args.algo != "nominal"
    if needs_history and not args.history:
        print(f"--history is required for --algo {args.algo}", file=sys.stderr)
        return 1
    if not needs_history and not args.demand:
        print("--demand is required for --algo nominal", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    if args.algo == "nominal":
        demand = load_demand(args.demand)
        eval_profile, profile_name = demand, "nominal"
        n_steps = demand.n_steps
    else:
        forecast = forecast_from_history(load_history(args.history))
        n_steps = len(forecast.mu_power)
        if args.algo == "box":
            uset = box_set(forecast, args.alpha)
            eval_profile, profile_name = worst_corner(uset), "box-corner"
        else:
            uset = mixed_set(forecast, args.alpha1, args.alpha2)
            eval_profile, profile_name = bias_profile(uset), "bias"

    graph = build_graph(model, n_steps + 1, initial=args.initial_state, final=args.final_state)
    if args.algo == "nominal":
        solution = solve_nominal(graph, demand, tariff)
    elif args.algo == "box":
        solution = solve_box(graph, uset, tariff)
    elif args.algo == "mixed-exact":
        solution = solve_mixed_exact(graph, uset, tariff)
    elif args.algo == "mixed-add":
        if (args.eps is None) == (args.grid_n is None):
            print("mixed-add needs exactly one of --eps or --grid-n", file=sys.stderr)
            return 1
        solution = solve_mixed_additive(graph, uset, tariff, epsilon=args.eps, grid_n=args.grid_n)
    else:
        if args.mu is None:
            print("mixed-mul needs --mu", file=sys.stderr)
            return 1
        solution = solve_mixed_multiplicative(graph, uset, tariff, args.mu)
    runtime = time.perf_counter() - t0

    schedule = None
    if solution.feasible:
        schedule = build_schedule(graph, solution.path, eval_profile, tariff)
        if args.out_schedule:
            save_schedule(schedule, args.out_schedule)

    report = {
        "algorithm": solution.algorithm,
        "feasible": solution.feasible,
        "worst_case_cost": solution.worst_case_cost if solution.feasible else None,
        "worst_scenario": solution.worst_scenario,
        "threshold": solution.threshold,
        "thresholds_evaluated": solution.thresholds_evaluated,
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
        with open(args.out_report, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")

    if not solution.feasible:
        print(f"algorithm={solution.algorithm} infeasible: no admissible path "
              f"from {{{', '.join(graph.initial_states())}}} to {{{', '.join(graph.final_states())}}}")
        return 2
    print(f"algorithm={solution.algorithm} worst_case_cost={solution.worst_case_cost:.6f} "
          f"worst_scenario={solution.worst_scenario} runtime_s={runtime:.3f}")
    return 0


def _mixed_mode(args) -> tuple[str | None, dict]:
    kw = {}
    mode = args.mixed
    if mode is None:
        if args.mu is not None:
            mode = "mul"
        elif args.eps is not None or args.grid_n is not None:
            mode = "add"
        else:
            mode = "exact"
    if mode == "none":
        return None, kw
    if mode == "add":
        if (args.eps is None) == (args.grid_n is None):
            raise ValueError("additive mixed compare needs exactly one of --eps or --grid-n")
        kw = {"epsilon": args.eps, "grid_n": args.grid_n}
        return "additive", kw
    if mode == "mul":
        if args.mu is None:
            raise ValueError("multiplicative mixed compare needs --mu")
        return "multiplicative", {"mu": args.mu}
    return "exact", kw


def _cmd_compare(args) -> int:
    mixed, mixed_kw = _mixed_mode(args)
    cases = []
    if args.pack:
        manifest = load_pack_manifest(args.pack)
        model = load_model(os.path.join(args.pack, manifest["model"]))
        seasons = args.season or manifest["seasons"]
        unknown = set(seasons) - set(manifest["seasons"])
        if unknown:
            raise ValueError(f"pack has no season(s): {', '.join(sorted(unknown))}")
        alpha = args.alpha if args.alpha is not None else manifest.get("alpha", 0.13)
        alpha1 = args.alpha1 if args.alpha1 is not None else manifest.get("alpha1", 0.03)
        alpha2 = args.alpha2 if args.alpha2 is not None else manifest.get("alpha2", 40.0)
        for season in seasons:
            sdir = os.path.join(args.pack, season)
            tariff = _load_tariff(os.path.join(sdir, "tariff.json"), args.convexify)
            cases.append(
                compare_day(
                    model, tariff,
                    load_history(os.path.join(sdir, "history")),
                    load_demand(os.path.join(sdir, "realized.csv")),
                    alpha=alpha, alpha1=alpha1, alpha2=alpha2,
                    mixed=mixed, **mixed_kw,
                    initial=args.initial_state, final=args.final_state,
                    name=season,
                )
            )
    else:
        missing = [f for f in ("model", "tariff", "history", "realized") if getattr(args, f) is None]
        if missing:
            print("compare needs --pack or all of --model/--tariff/--history/--realized "
                  f"(missing: {', '.join('--' + m for m in missing)})", file=sys.stderr)
            return 1
        model = load_model(args.model)
        tariff = _load_tariff(args.tariff, args.convexify)
        kw = {k: getattr(args, k) for k in ("alpha", "alpha1", "alpha2") if getattr(args, k) is not None}
        cases.append(
            compare_day(
                model, tariff,
                load_history(args.history),
                load_demand(args.realized),
                mixed=mixed, **mixed_kw, **kw,
                initial=args.initial_state, final=args.final_state,
                name=os.path.splitext(os.path.basename(args.realized))[0],
            )
        )

    report = ComparisonReport(cases=tuple(cases))
    sys.stdout.write(report.render_table())
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
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
        with open(args.out, "w") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
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
                  "box and mixed solvers will refuse it")
        if notes:
            print(f"tariff: ok, but non-convex ({len(notes)} step(s)); "
                  "mixed solvers will refuse it without --convexify")
        if not (falls or notes):
            print(f"tariff: ok ({tariff.horizon_steps} steps, convex)")

    if args.demand:
        demand = load_demand(args.demand)
        print(f"demand: ok ({demand.n_steps} steps)")

    if args.history:
        days = load_history(args.history)
        lengths = {d.n_steps for d in days}
        if len(lengths) > 1:
            failed = True
            print(f"history: day lengths differ: {sorted(lengths)}")
        else:
            print(f"history: ok ({len(days)} days of {lengths.pop()} steps)")

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
