"""Scaling benchmark for the dispatch solvers.

Times graph construction and the nominal/box solves on the synthetic
high-resolution turbine model over a list of horizons, optionally adding a
grid-limited mixed solve at the largest horizon. Demands are synthetic days
resampled to each horizon; the point is how runtime grows with the horizon,
not the cost numbers. Each nominal and box solve runs _REPEATS times and
reports its fastest run, so a core shared with another process for one run
does not bend the growth curve; graph builds and the mixed solve run once.
"""

from __future__ import annotations

import time

import numpy as np

from .demand import Forecast, box_set, mixed_set, synthetic_day
from .graph import build_graph
from .model import SynthConfig, synth_c65_like
from .solvers import solve_box, solve_mixed_additive, solve_nominal
from .tariff import TouConfig, tou_tariff

_REPEATS = 3


def _timed(fn, *args, **kw):
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    return out, time.perf_counter() - t0


def _fastest(fn, *args):
    """(result, fastest of _REPEATS timed calls)."""
    runs = [_timed(fn, *args) for _ in range(_REPEATS)]
    return runs[-1][0], min(t for _, t in runs)


def run_scaling(
    horizons: list[int],
    *,
    n_speeds: int = 30,
    n_valves: int = 50,
    step_seconds: float = 15.0,
    mixed_grid_n: int | None = None,
    seed: int = 7,
) -> list[dict]:
    """One row of sizes and solve times per horizon, ascending.

    mixed_grid_n, if set, adds a budget-sweep mixed solve at the largest
    horizon only (it dominates the runtime otherwise).
    """
    model = synth_c65_like(n_speeds, n_valves, SynthConfig(step_seconds=step_seconds))
    rng = np.random.default_rng(seed)
    rows = []
    for horizon in sorted(horizons):
        n_steps = horizon - 1
        day = synthetic_day(rng, n_steps, step_seconds)
        sigma_p = np.maximum(0.08 * day.power_kw, 0.5)
        sigma_h = np.maximum(0.08 * day.heat_kw, 0.5)
        forecast = Forecast(day.power_kw, day.heat_kw, sigma_p, sigma_h)
        tariff = tou_tariff(
            TouConfig(
                step_seconds=step_seconds,
                horizon_steps=n_steps,
                buy_peak_per_kwh=0.30,
                buy_offpeak_per_kwh=0.12,
                sell_per_kwh=0.05,
                heat_buy_per_kwh=0.0725,
            )
        )
        graph, build_s = _timed(build_graph, model, horizon)
        nominal, nominal_s = _fastest(solve_nominal, graph, day, tariff)
        box, box_s = _fastest(solve_box, graph, box_set(forecast, 1.0), tariff)
        row = {
            "horizon": horizon,
            "n_states": graph.n_states,
            "n_nodes": graph.n_nodes,
            "n_edges": graph.n_edges,
            "build_s": build_s,
            "nominal_s": nominal_s,
            "nominal_cost": nominal.worst_case_cost,
            "box_s": box_s,
            "box_cost": box.worst_case_cost,
        }
        if mixed_grid_n is not None and horizon == max(horizons):
            mset = mixed_set(forecast, 0.5, 2.0)
            mx, mixed_s = _timed(solve_mixed_additive, graph, mset, tariff, grid_n=mixed_grid_n)
            row["mixed_grid_n"] = mixed_grid_n
            row["mixed_s"] = mixed_s
            row["mixed_cost"] = mx.worst_case_cost
        rows.append(row)
    return rows


def render_scaling_table(rows: list[dict]) -> str:
    lines = ["{:>8} {:>10} {:>12} {:>9} {:>10} {:>10} {:>10}".format(
        "horizon", "nodes", "edges", "build_s", "nominal_s", "box_s", "mixed_s")]
    for r in rows:
        lines.append(
            "{:>8} {:>10} {:>12} {:>9.2f} {:>10.2f} {:>10.2f} {:>10}".format(
                r["horizon"], r["n_nodes"], r["n_edges"], r["build_s"],
                r["nominal_s"], r["box_s"],
                f"{r['mixed_s']:.2f}" if "mixed_s" in r else "-",
            )
        )
    return "\n".join(lines) + "\n"
