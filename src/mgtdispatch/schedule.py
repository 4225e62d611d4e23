"""Dispatch schedules and day comparisons.

A schedule expands a solved path into one row per priced step: unit state,
applied control, generated power/heat, the utility make-up (demand minus
generation, negative when selling), and the step's cost with the
transition's operating cost spread evenly over its span. Summed step costs
reproduce the path cost up to float rounding.

compare_day replays one day the way an operator would: forecast from
history, solve nominal/box/mixed on the forecast, then price every schedule
against the realized demand. The hindsight benchmark (nominal solve on the
realized profile itself) anchors the reduction metric

    reduction % = 100 * (nominal - algo) / (nominal - benchmark)

so 0 means no better than ignoring uncertainty and 100 means as good as
knowing the day in advance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

from .demand import DemandProfile, box_set, forecast_from_history, mixed_set
from .graph import DispatchGraph, _path_steps, build_graph
from .shortest_path import PathResult
from .solvers import RobustSolution, _solve_mixed, path_cost_at, solve_box, solve_nominal

INF = float("inf")

# default uncertainty widths in forecast sigmas: box alpha, mixed bias alpha1, mixed spike budget alpha2
DEFAULT_WIDTHS = {"alpha": 0.13, "alpha1": 0.03, "alpha2": 40.0}

SCHEDULE_HEADER = ["t", "state", "control", "p_mgt_kw", "h_mgt_kw", "p_util_kw", "h_util_kw", "step_cost"]


@dataclass(frozen=True)
class ScheduleRow:
    t: int
    state: str
    control: str
    p_mgt_kw: float
    h_mgt_kw: float
    p_util_kw: float
    h_util_kw: float
    step_cost: float


@dataclass(frozen=True)
class Schedule:
    rows: tuple[ScheduleRow, ...]

    @property
    def total_cost(self) -> float:
        total = 0.0
        for row in self.rows:
            total += row.step_cost
        return total

    @property
    def n_steps(self) -> int:
        return len(self.rows)


def build_schedule(graph: DispatchGraph, path: PathResult, demand: DemandProfile, tariff) -> Schedule:
    """Expand a path into per-step rows priced against `demand`.

    Pass the profile the path should be accounted against: the realized or
    nominal demand for plain solves, the box corner or the bias profile for
    robust ones.
    """
    if not path.feasible:
        raise ValueError("cannot build a schedule from an infeasible result")
    steps, p_util, h_util, p_cost, h_cost = _path_steps(graph, path, demand, tariff)
    # the operating cost spread evenly over the span, then power, then heat
    cost = graph.op_cost[steps] / graph.dur[steps] + p_cost + h_cost
    trs = graph.model.transitions
    rows = [ScheduleRow(t=j, state=trs[k].from_state, control=trs[k].control,
                        p_mgt_kw=trs[k].power_kw, h_mgt_kw=trs[k].heat_kw,
                        p_util_kw=p, h_util_kw=h, step_cost=c)
            for j, (k, p, h, c) in enumerate(zip(steps.tolist(), p_util.tolist(), h_util.tolist(),
                                                  cost.tolist()))]
    return Schedule(rows=tuple(rows))


def save_schedule(schedule: Schedule, path: str) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCHEDULE_HEADER)
        for r in schedule.rows:
            writer.writerow(
                [r.t, r.state, r.control, repr(r.p_mgt_kw), repr(r.h_mgt_kw),
                 repr(r.p_util_kw), repr(r.h_util_kw), repr(r.step_cost)]
            )


@dataclass(frozen=True)
class AlgoResult:
    """One algorithm's line in a comparison: solve-time objective vs reality."""

    name: str
    solution: RobustSolution
    realized_cost: float
    runtime_s: float
    reduction_pct: float | None = None

    @property
    def feasible(self) -> bool:
        return self.solution.feasible


@dataclass(frozen=True)
class CaseComparison:
    name: str
    entries: tuple[AlgoResult, ...]

    def entry(self, name: str) -> AlgoResult:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


@dataclass(frozen=True)
class ComparisonReport:
    cases: tuple[CaseComparison, ...] = field(default_factory=tuple)

    def mean_reduction(self) -> dict[str, float]:
        """Mean reduction per algorithm over cases where it is defined."""
        sums: dict[str, list[float]] = {}
        for case in self.cases:
            for e in case.entries:
                if e.reduction_pct is not None:
                    sums.setdefault(e.name, []).append(e.reduction_pct)
        return {name: sum(v) / len(v) for name, v in sums.items() if v}

    def render_table(self) -> str:
        lines = []
        fmt = "{:<12} {:>14} {:>14} {:>12} {:>10}"
        for case in self.cases:
            lines.append(f"== {case.name} ==")
            lines.append(fmt.format("algorithm", "worst_case", "realized", "reduction_%", "time_s"))
            for e in case.entries:
                wc = f"{e.solution.worst_case_cost:.2f}" if e.feasible else "inf"
                rc = f"{e.realized_cost:.2f}" if e.realized_cost != INF else "inf"
                red = "n/a" if e.reduction_pct is None else f"{e.reduction_pct:.1f}"
                lines.append(fmt.format(e.name, wc, rc, red, f"{e.runtime_s:.3f}"))
            lines.append("")
        means = self.mean_reduction()
        if len(self.cases) > 1 and means:
            lines.append("mean reduction %: " + ", ".join(f"{k}={v:.1f}" for k, v in sorted(means.items())))
        return "\n".join(lines).rstrip() + "\n"

    def to_dict(self) -> dict:
        return {
            "cases": [
                {
                    "name": case.name,
                    "algorithms": [
                        {"name": e.name, **e.solution.report_fields(), "realized_cost": e.realized_cost,
                         "reduction_pct": e.reduction_pct, "runtime_s": e.runtime_s}
                        for e in case.entries
                    ],
                }
                for case in self.cases
            ],
            "mean_reduction_pct": self.mean_reduction(),
        }


def compare_day(
    model,
    tariff,
    history: list[DemandProfile],
    realized: DemandProfile,
    *,
    alpha: float = DEFAULT_WIDTHS["alpha"],
    alpha1: float = DEFAULT_WIDTHS["alpha1"],
    alpha2: float = DEFAULT_WIDTHS["alpha2"],
    mixed: str | None = "exact",
    epsilon: float | None = None,
    grid_n: int | None = None,
    mu: float | None = None,
    initial="any",
    final="any",
    name: str = "day",
) -> CaseComparison:
    """Solve one day with every strategy and price each against `realized`.

    history feeds the forecast (mean and spread); `mixed` picks the budget
    sweep flavor ("exact", "additive", "multiplicative", or None to skip),
    and the sweep's own solver checks epsilon, grid_n or mu.
    """
    forecast = forecast_from_history(history)
    graph = build_graph(model, realized.n_steps + 1, initial=initial, final=final)
    # (label, solver, demand or set to solve against); sets are built here so the timers cover solves only
    plans = [("benchmark", solve_nominal, realized), ("nominal", solve_nominal, forecast.mean_profile()),
             ("box", solve_box, box_set(forecast, alpha))]
    if mixed is not None:
        plans.append(("mixed", partial(_solve_mixed, mode=mixed, epsilon=epsilon, grid_n=grid_n, mu=mu),
                      mixed_set(forecast, alpha1, alpha2)))
    scored = []  # (label, solution, realized cost, runtime)
    for label, solve, demand in plans:
        t0 = time.perf_counter()
        sol = solve(graph, demand, tariff)
        runtime = time.perf_counter() - t0
        scored.append((label, sol, path_cost_at(graph, sol.path, realized, tariff), runtime))
    benchmark, nominal = scored[0][2], scored[1][2]
    margin = nominal - benchmark
    return CaseComparison(name=name, entries=tuple(
        AlgoResult(label, sol, cost, runtime,
                   100.0 * (nominal - cost) / margin if margin > 0 and cost != INF and nominal != INF else None)
        for label, sol, cost, runtime in scored))
