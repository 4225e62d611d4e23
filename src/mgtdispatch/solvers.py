"""Robust dispatch solvers.

solve_nominal prices one fixed demand. solve_box handles per-step interval
("box") uncertainty: edge costs never decrease when demand grows
(graph._set_corners refuses a negative slope, for edge weights and plan
worst cases alike), so the robust optimum is the plain shortest path at
the upper corner. Forbidden selling is the one exception: an edge that
must export at the set's lower corner costs +inf there, so it is unusable
whatever the upper corner charges; spikes only add demand, so a mixed set
shares its box part's lower corner.

The mixed solvers handle box-plus-budget uncertainty where on top of the
interval deviation at most one scaled spike can land on a single step and
commodity. The worst case of a path then decomposes into the sum of its
bias-corner edge costs plus the largest single-edge spike increment, and the
optimum is found by sweeping a spike budget alpha over candidate thresholds:
a solve at alpha is a shortest path restricted to edges with spike cost
<= alpha, scored as bias total + max spike, and the best (score, max spike,
alpha) wins. Sweeping every distinct edge spike value is exact; the additive
and multiplicative variants thin the grid and give V* + eps and (1 + mu) * V*
guarantees.

The sweep (_sweep) walks down the grid in a chain of one-pass restricted
solves and breaks bias ties itself, solving again below a path's max
spike while the bias holds. A settled path covers every threshold from
its max spike up, so the next solve is just below that, and the walk
stops once no lower threshold can win. It returns what a tie-broken solve
at every threshold would. thresholds_candidates is the size of the grid,
thresholds_evaluated the restricted solves run, tie probes included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .demand import BoxSet, DemandProfile, MixedSet, worst_corner
from .graph import (
    DispatchGraph,
    EdgeCosts,
    _path_steps,
    _set_corners,
    _spike_increments,
    bias_spike_costs,
    scenario_weights,
)
from .shortest_path import PathResult, shortest_path_dag, shortest_path_restricted

INF = float("inf")
# a thinned grid may always hold this many budgets: it builds in
# milliseconds, so a small plant keeps a fine grid over few spike values
_RUNG_FLOOR = 10_000


@dataclass(frozen=True)
class RobustSolution:
    """A solved dispatch problem.

    worst_case_cost is the path's cost under its worst admissible demand and
    worst_scenario names that demand ("nominal", "box-corner", "bias-only",
    or "power-spike@t"/"heat-spike@t"). Sweep-based solvers also report how
    many candidate budgets their grid held, how many restricted solves they
    ran and which budget won.
    """

    algorithm: str
    path: PathResult
    worst_case_cost: float
    worst_scenario: str
    thresholds_evaluated: int | None = None
    threshold: float | None = None
    thresholds_candidates: int | None = None

    @property
    def feasible(self) -> bool:
        return self.path.feasible

    def report_fields(self) -> dict:
        """The fields a solve report and a comparison entry share, in report order."""
        return {"feasible": self.feasible, "worst_case_cost": self.worst_case_cost,
                "worst_scenario": self.worst_scenario, "threshold": self.threshold,
                "thresholds_evaluated": self.thresholds_evaluated,
                "thresholds_candidates": self.thresholds_candidates}


def _infeasible(algorithm: str) -> RobustSolution:
    return RobustSolution(algorithm, PathResult(False), INF, "infeasible")


def _fold_edges(graph: DispatchGraph, path: PathResult, step_cost: np.ndarray) -> float:
    """Right-to-left sum of edge weights, each op_cost plus its step costs left to right."""
    costs = step_cost.tolist()
    total = 0.0
    for e in reversed(path.edges):
        w = float(graph.op_cost[e.template])
        for c in costs[e.time:e.time + int(graph.dur[e.template])]:
            w = w + c
        total = w + total
    return total


def path_cost_at(graph: DispatchGraph, path: PathResult, demand: DemandProfile, tariff) -> float:
    """Cost of a fixed path under a fixed demand (right-to-left edge fold)."""
    if not path.feasible:
        return INF
    _, _, _, p_cost, h_cost = _path_steps(graph, path, demand, tariff)
    return _fold_edges(graph, path, p_cost + h_cost)


def _worstcase_parts(graph: DispatchGraph, path: PathResult, uset, tariff) -> tuple[float, float, str]:
    """(fold total, max spike, scenario) of a path; spike is 0 off mixed sets.

    Spike ties keep the earliest step, power first.
    """
    if isinstance(uset, DemandProfile):
        return path_cost_at(graph, path, uset, tariff), 0.0, "fixed"
    if not isinstance(uset, (BoxSet, MixedSet)):
        raise TypeError(f"cannot evaluate worst case over {type(uset).__name__}")
    lower = _set_corners(graph, uset, tariff)
    _, p_x, h_x, p_cost, h_cost = _path_steps(graph, path, uset.upper(), tariff)
    total = _fold_edges(graph, path, p_cost + h_cost)
    best_spike, label = 0.0, "box-corner"
    if isinstance(uset, MixedSet):
        # (step, commodity) order, power first, so argmax keeps the earliest
        gains = np.stack(_spike_increments(tariff, uset, p_x[None], h_x[None], 0), axis=-1).ravel()
        label = "bias-only"
        if gains.size and gains.max() > 0.0:
            i = int(np.argmax(gains))
            best_spike, label = float(gains[i]), f"{('power', 'heat')[i % 2]}-spike@{i // 2}"
    if lower is not None and path_cost_at(graph, path, lower, tariff) == INF:
        total = INF
    return float(total), float(best_spike), label


def path_worstcase_cost(graph: DispatchGraph, path: PathResult, uset, tariff) -> tuple[float, str]:
    """Worst-case cost of a fixed path over an uncertainty set.

    Returns (cost, scenario). For a bare DemandProfile the set is that single
    profile ("fixed"); for a BoxSet the upper corner; for a MixedSet the sum
    of bias costs plus the largest spike increment, naming the earliest step
    and commodity that attains it. Over either set the cost is +inf when the
    path must export at the lower corner on a forbidden-sell step.
    """
    if not path.feasible:
        return INF, "infeasible"
    total, spike, label = _worstcase_parts(graph, path, uset, tariff)
    return float(total + spike), label


def _solve_fixed(graph: DispatchGraph, weights: np.ndarray, demand: DemandProfile, tariff,
                 algorithm: str, scenario: str) -> RobustSolution:
    path = shortest_path_dag(graph, weights)
    if not path.feasible:
        return _infeasible(algorithm)
    return RobustSolution(algorithm, path, path_cost_at(graph, path, demand, tariff), scenario)


def solve_nominal(graph: DispatchGraph, demand: DemandProfile, tariff) -> RobustSolution:
    """Min-cost dispatch against one fixed demand profile."""
    return _solve_fixed(graph, scenario_weights(graph, demand, tariff), demand, tariff, "nominal", "nominal")


def solve_box(graph: DispatchGraph, bset: BoxSet, tariff) -> RobustSolution:
    """Robust dispatch for interval uncertainty: nominal solve at the upper corner.

    When a priced step forbids selling, edges that are +inf at the lower
    corner are dropped too.
    """
    corner = worst_corner(bset)
    return _solve_fixed(graph, scenario_weights(graph, bset, tariff), corner, tariff, "box", "box-corner")


def _sweep(graph: DispatchGraph, costs: EdgeCosts, thresholds: np.ndarray):
    """Best restricted solve by (score, max spike, alpha) over ascending thresholds.

    Returns ((key, path, alpha) or None when every threshold is infeasible,
    restricted solves run). The result is the one a tie-broken solve at
    every threshold would give (tests/test_sweep.py keeps that loop as the
    oracle), but most thresholds are never solved. Bias ties go to the
    smallest max spike S by Hansen's bicriterion method: solve again at the
    float below S while the bias stays bit for bit the same (each such path
    keys below the last), so the DP keeps one objective, and S = 0 ends the
    ties. The driver walks down from the top threshold, using three facts:

    - a solve at a_i giving the path P with (B, S) returns P itself on
      every threshold in [S, a_i]: P stays feasible there and fewer edges
      never lower B. Once the probe below S changes the bias, the smallest
      threshold a_m >= S has the best key of them, (B + S, S, a_m), and the
      probe is the solve at a_(m-1) unless its max spike is above a_(m-1);
    - no lower threshold has a bias below B and spikes are never negative,
      so the walk stops once the incumbent key is below (B, 0, inf);
    - an infeasible solve makes every lower threshold infeasible.

    So the winner's path is the one from the solve that settled its budget.
    """
    best = None
    res = shortest_path_restricted(graph, costs, float(thresholds[-1]))
    solves = 1
    while res.feasible:
        m = int(np.searchsorted(thresholds, res.aux_max))
        key = (res.total + res.aux_max, res.aux_max, float(thresholds[m]))
        if best is None or key < best[0]:
            best = (key, res, key[2])
        if best[0] < (res.total, 0.0, INF) or res.aux_max == 0.0:
            break
        probe = shortest_path_restricted(graph, costs, float(np.nextafter(res.aux_max, -INF)))
        solves += 1
        if probe.total != res.total:
            if m == 0 or not probe.feasible:
                break
            if probe.aux_max > thresholds[m - 1]:
                probe = shortest_path_restricted(graph, costs, float(thresholds[m - 1]))
                solves += 1
        res = probe
    return best, solves


def _finish_mixed(graph, mset, tariff, costs: EdgeCosts, thresholds: np.ndarray,
                  algorithm: str) -> RobustSolution:
    best, solves = _sweep(graph, costs, thresholds)
    _, path, alpha = best or (None, PathResult(False), None)
    cost, scenario = path_worstcase_cost(graph, path, mset, tariff)
    return RobustSolution(algorithm, path, cost, scenario, solves, alpha, len(thresholds))


def _check_grid_size(costs: EdgeCosts, size: float, asked: str) -> None:
    """Refuse a thinned grid of more budgets than both _RUNG_FLOOR and the usable edges.

    The exact sweep never needs more budgets than there are usable edges,
    so a larger grid only costs memory and time.
    """
    if size > _RUNG_FLOOR:
        n_spikes = int(np.count_nonzero(np.isfinite(costs.w_bias)))
        if size > n_spikes:
            raise ValueError(f"{asked} asks for {size:.0f} budget rungs, more than the {n_spikes} edge "
                             "spike values the exact sweep would try; use a coarser grid or the exact sweep")


def solve_mixed_exact(graph: DispatchGraph, mset: MixedSet, tariff) -> RobustSolution:
    """Exact mixed-set solve: sweep every distinct edge spike cost.

    Zero is always a candidate: the last layer holds no edge, and an absent
    edge carries spike 0.
    """
    costs = bias_spike_costs(graph, mset, tariff)
    thresholds = np.unique(costs.w_spike)
    return _finish_mixed(graph, mset, tariff, costs, thresholds, "mixed-exact")


def solve_mixed_additive(
    graph: DispatchGraph,
    mset: MixedSet,
    tariff,
    epsilon: float | None = None,
    grid_n: int | None = None,
) -> RobustSolution:
    """Mixed-set solve on an evenly spaced budget grid.

    With epsilon the grid is {0, eps, 2 eps, ...} up to and including the max
    spike value, guaranteeing a cost within +epsilon of the exact optimum.
    With grid_n it is exactly grid_n evenly spaced budgets instead. A grid
    larger than the exact sweep's (and than _RUNG_FLOOR) is refused.
    """
    if (epsilon is None) == (grid_n is None):
        raise ValueError("the additive sweep needs exactly one of epsilon or grid_n")
    if grid_n is not None and grid_n < 1:
        raise ValueError(f"grid_n must be >= 1, got {grid_n}")
    if epsilon is not None and not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon!r}")
    costs = bias_spike_costs(graph, mset, tariff)
    hi = float(costs.w_spike.max())
    if grid_n is not None:
        _check_grid_size(costs, grid_n, f"grid_n={grid_n!r}")
        thresholds = np.unique(np.linspace(0.0, hi, grid_n)) if grid_n > 1 else np.array([hi])
    else:
        _check_grid_size(costs, np.ceil(hi / epsilon) + 1, f"epsilon={epsilon!r}")
        thresholds = np.unique(np.append(np.arange(0.0, hi, epsilon), hi))
    return _finish_mixed(graph, mset, tariff, costs, thresholds, "mixed-additive")


def solve_mixed_multiplicative(graph: DispatchGraph, mset: MixedSet, tariff, mu: float) -> RobustSolution:
    """Mixed-set solve on a geometric budget grid with ratio 1 + mu.

    Guarantees a cost within factor 1 + mu of the exact optimum. Budget 0 is
    always included; the geometric ladder starts at the smallest positive
    spike value and is capped by the largest. A mu whose ladder would have
    more rungs than the exact sweep has budgets (and than _RUNG_FLOOR) is
    refused, since the ladder is built one rung at a time.
    """
    if mu is None or not mu > 0:
        raise ValueError(f"the multiplicative sweep needs mu > 0, got {mu!r}")
    if 1.0 + mu == 1.0:
        raise ValueError(f"the multiplicative sweep needs 1 + mu > 1, got mu={mu!r}")
    costs = bias_spike_costs(graph, mset, tariff)
    spikes = costs.w_spike
    hi = float(spikes.max())
    if hi == 0.0:
        thresholds = np.array([0.0])
    else:
        lo = float(spikes.min(where=spikes > 0.0, initial=INF))
        rungs = math.ceil((math.log(hi) - math.log(lo)) / math.log1p(mu))
        _check_grid_size(costs, rungs, f"mu={mu!r}")
        ladder = [lo]
        while ladder[-1] < hi:
            ladder.append(ladder[-1] * (1.0 + mu))
        thresholds = np.unique(np.array([0.0] + ladder + [hi]))
    return _finish_mixed(graph, mset, tariff, costs, thresholds, "mixed-multiplicative")


def _solve_mixed(graph: DispatchGraph, mset: MixedSet, tariff, mode: str, *,
                 epsilon: float | None = None, grid_n: int | None = None,
                 mu: float | None = None) -> RobustSolution:
    """Mixed-set solve by sweep mode: "exact", "additive" or "multiplicative".

    Each solver checks its own grid parameter; the others are ignored.
    """
    if mode == "exact":
        return solve_mixed_exact(graph, mset, tariff)
    if mode == "additive":
        return solve_mixed_additive(graph, mset, tariff, epsilon=epsilon, grid_n=grid_n)
    if mode == "multiplicative":
        return solve_mixed_multiplicative(graph, mset, tariff, mu)
    raise ValueError(f"unknown mixed mode {mode!r}")

