"""Robust economic dispatch for a discrete-state CHP micro gas turbine.

The unit is modeled as a finite automaton whose transitions generate power
and heat over one or more pricing steps; dispatch over a day becomes a
shortest-path problem on a time-expanded graph. Demand uncertainty is
handled robustly: per-step intervals reduce to a single corner solve, and
interval-plus-one-spike ("budgeted") sets reduce to a sweep of spike-budget
restricted shortest paths that is exact on the full threshold set and
approximate with guaranteed gap on thinned grids.
"""

from .bench import render_scaling_table, run_scaling
from .demand import (
    BoxSet,
    DemandProfile,
    Forecast,
    MixedSet,
    bias_profile,
    box_set,
    forecast_from_history,
    load_demand,
    load_history,
    mixed_set,
    save_demand,
    synthetic_day,
    worst_corner,
)
from .graph import (
    DispatchGraph,
    Edge,
    EdgeCosts,
    bias_spike_costs,
    build_graph,
    dump_graph,
    scenario_weights,
)
from .model import (
    SynthConfig,
    Transition,
    TurbineModel,
    cooldown_example,
    load_model,
    model_from_dict,
    save_model,
    synth_c65_like,
    validate_model,
)
from .packs import build_four_season_pack, load_pack_manifest
from .schedule import (
    ComparisonReport,
    Schedule,
    build_schedule,
    compare_day,
    save_schedule,
)
from .shortest_path import PathResult, shortest_path_dag, shortest_path_restricted
from .solvers import (
    RobustSolution,
    path_cost_at,
    path_worstcase_cost,
    solve_box,
    solve_mixed_additive,
    solve_mixed_exact,
    solve_mixed_multiplicative,
    solve_nominal,
)
from .tariff import (
    PiecewiseLinearCost,
    Tariff,
    TouConfig,
    check_convexity,
    flat_tariff,
    load_tariff,
    save_tariff,
    tariff_from_dict,
    tariff_to_dict,
    tou_tariff,
)

__version__ = "0.1.0"

__all__ = [
    "BoxSet",
    "ComparisonReport",
    "DemandProfile",
    "DispatchGraph",
    "Edge",
    "EdgeCosts",
    "Forecast",
    "MixedSet",
    "PathResult",
    "PiecewiseLinearCost",
    "RobustSolution",
    "Schedule",
    "SynthConfig",
    "Tariff",
    "TouConfig",
    "Transition",
    "TurbineModel",
    "bias_profile",
    "bias_spike_costs",
    "box_set",
    "build_four_season_pack",
    "build_graph",
    "build_schedule",
    "check_convexity",
    "compare_day",
    "cooldown_example",
    "dump_graph",
    "flat_tariff",
    "forecast_from_history",
    "load_demand",
    "load_history",
    "load_model",
    "load_pack_manifest",
    "load_tariff",
    "mixed_set",
    "model_from_dict",
    "path_cost_at",
    "path_worstcase_cost",
    "render_scaling_table",
    "run_scaling",
    "save_demand",
    "save_model",
    "save_schedule",
    "save_tariff",
    "scenario_weights",
    "shortest_path_dag",
    "shortest_path_restricted",
    "solve_box",
    "solve_mixed_additive",
    "solve_mixed_exact",
    "solve_mixed_multiplicative",
    "solve_nominal",
    "synth_c65_like",
    "synthetic_day",
    "tariff_from_dict",
    "tariff_to_dict",
    "tou_tariff",
    "validate_model",
    "worst_corner",
]
