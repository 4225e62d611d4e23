"""Robust dispatch solvers.

solve_nominal prices one fixed demand. solve_box handles per-step interval
("box") uncertainty: edge costs never decrease when demand grows (tariffs
with a negative slope are refused), so the robust optimum is the plain
shortest path at the upper corner. Forbidden selling is the one exception:
an edge that must export at the lower corner costs +inf there, so it is
unusable whatever the upper corner charges. The same holds at the lower
corner of a mixed set's box component, since spikes only add demand.

The mixed solvers handle box-plus-budget uncertainty where on top of the
interval deviation at most one scaled spike can land on a single step and
commodity. The worst case of a path then decomposes into the sum of its
bias-corner edge costs plus the largest single-edge spike increment, and the
optimum is found by sweeping a spike budget alpha over candidate thresholds:
for each alpha solve a shortest path restricted to edges with spike cost
<= alpha, score the result as bias total + max spike, and keep the best.
Sweeping every distinct edge spike value is exact; the additive and
multiplicative variants thin the grid and give V* + eps and (1 + mu) * V*
guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demand import BoxSet, DemandProfile, MixedSet, bias_profile, worst_corner
from .graph import (
    DispatchGraph,
    Edge,
    EdgeCosts,
    _check_mixed_tariff,
    _drop_forced_export,
    _lower_corner,
    _sell_forbidden,
    _spike_gain,
    bias_spike_costs,
    edge_weight,
    scenario_weights,
)
from .shortest_path import PathResult, shortest_path_dag, shortest_path_restricted
from .tariff import require_monotone

INF = float("inf")


@dataclass(frozen=True)
class RobustSolution:
    """A solved dispatch problem.

    worst_case_cost is the path's cost under its worst admissible demand and
    worst_scenario names that demand ("nominal", "box-corner", "bias-only",
    or "power-spike@t"/"heat-spike@t"). Sweep-based solvers also report how
    many thresholds they tried and which budget won.
    """

    algorithm: str
    path: PathResult
    worst_case_cost: float
    worst_scenario: str
    thresholds_evaluated: int | None = None
    threshold: float | None = None

    @property
    def feasible(self) -> bool:
        return self.path.feasible


def _infeasible(algorithm: str, n_thresh: int | None = None) -> RobustSolution:
    return RobustSolution(algorithm, PathResult(False), INF, "infeasible", n_thresh, None)


def path_cost_at(graph: DispatchGraph, path: PathResult, demand: DemandProfile, tariff) -> float:
    """Cost of a fixed path under a fixed demand (right-to-left edge fold)."""
    if not path.feasible:
        return INF
    total = 0.0
    for e in reversed(path.edges):
        total = edge_weight(graph, e, demand, tariff) + total
    return float(total)


def _worstcase_parts(graph: DispatchGraph, path: PathResult, uset, tariff) -> tuple[float, float, str]:
    """(fold total, max spike, scenario) of a path; spike is 0 off mixed sets."""
    if isinstance(uset, DemandProfile):
        return path_cost_at(graph, path, uset, tariff), 0.0, "fixed"
    if isinstance(uset, BoxSet):
        total = path_cost_at(graph, path, worst_corner(uset), tariff)
        best_spike, label = 0.0, "box-corner"
    elif isinstance(uset, MixedSet):
        _check_mixed_tariff(tariff)
        bias = bias_profile(uset)
        total = path_cost_at(graph, path, bias, tariff)
        best_spike = 0.0
        label = "bias-only"
        for e in path.edges:
            gain, step, what = _spike_gain(graph, e, bias, uset, tariff)
            if gain > best_spike:
                best_spike, label = gain, f"{what}-spike@{step}"
    else:
        raise TypeError(f"cannot evaluate worst case over {type(uset).__name__}")
    if _sell_forbidden(graph, tariff) and path_cost_at(graph, path, _lower_corner(uset), tariff) == INF:
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
    require_monotone(tariff)
    corner = worst_corner(bset)
    weights = _drop_forced_export(graph, scenario_weights(graph, corner, tariff), bset, tariff)
    return _solve_fixed(graph, weights, corner, tariff, "box", "box-corner")


def _sweep(graph: DispatchGraph, costs: EdgeCosts, thresholds: np.ndarray):
    """Restricted solve per threshold; best by (score, max spike, alpha)."""
    best = None
    for alpha in thresholds:
        res = shortest_path_restricted(graph, costs, float(alpha))
        if not res.feasible:
            continue
        key = (res.total + res.aux_max, res.aux_max, float(alpha))
        if best is None or key < best[0]:
            best = (key, res, float(alpha))
    return best


def _finish_mixed(graph, mset, tariff, best, algorithm: str, n_thresh: int) -> RobustSolution:
    if best is None:
        return _infeasible(algorithm, n_thresh)
    _, path, alpha = best
    cost, scenario = path_worstcase_cost(graph, path, mset, tariff)
    return RobustSolution(algorithm, path, cost, scenario, n_thresh, alpha)


def solve_mixed_exact(graph: DispatchGraph, mset: MixedSet, tariff) -> RobustSolution:
    """Exact mixed-set solve: sweep every distinct edge spike cost.

    Zero is always swept (the zero-weight terminal hops make it a valid
    budget).
    """
    costs = bias_spike_costs(graph, mset, tariff)
    thresholds = np.unique(np.append(costs.finite_spike_values(), 0.0))
    best = _sweep(graph, costs, thresholds)
    return _finish_mixed(graph, mset, tariff, best, "mixed-exact", len(thresholds))


def solve_mixed_additive(
    graph: DispatchGraph,
    mset: MixedSet,
    tariff,
    epsilon: float | None = None,
    grid_n: int | None = None,
) -> RobustSolution:
    """Mixed-set solve on an evenly spaced budget grid.

    With epsilon the grid is {min, min+eps, ...} up to and including the max
    spike value, guaranteeing a cost within +epsilon of the exact optimum.
    With grid_n it is exactly grid_n evenly spaced budgets instead.
    """
    if (epsilon is None) == (grid_n is None):
        raise ValueError("the additive sweep needs exactly one of epsilon or grid_n")
    if grid_n is not None and grid_n < 1:
        raise ValueError(f"grid_n must be >= 1, got {grid_n}")
    if epsilon is not None and not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon!r}")
    costs = bias_spike_costs(graph, mset, tariff)
    vals = np.append(costs.finite_spike_values(), 0.0)
    lo = float(vals.min())
    hi = float(vals.max())
    if grid_n is not None:
        thresholds = np.linspace(lo, hi, grid_n) if grid_n > 1 else np.array([hi])
    else:
        thresholds = np.unique(np.append(np.arange(lo, hi, epsilon), hi))
    best = _sweep(graph, costs, thresholds)
    return _finish_mixed(graph, mset, tariff, best, "mixed-additive", len(thresholds))


def solve_mixed_multiplicative(graph: DispatchGraph, mset: MixedSet, tariff, mu: float) -> RobustSolution:
    """Mixed-set solve on a geometric budget grid with ratio 1 + mu.

    Guarantees a cost within factor 1 + mu of the exact optimum. Budget 0 is
    always included; the geometric ladder starts at the smallest positive
    spike value and is capped by the largest.
    """
    if mu is None or not mu > 0:
        raise ValueError(f"the multiplicative sweep needs mu > 0, got {mu!r}")
    if 1.0 + mu == 1.0:
        raise ValueError(f"the multiplicative sweep needs 1 + mu > 1, got mu={mu!r}")
    costs = bias_spike_costs(graph, mset, tariff)
    vals = costs.finite_spike_values()
    positive = vals[vals > 0]
    if positive.size == 0:
        thresholds = np.array([0.0])
    else:
        lo = float(positive.min())
        hi = float(positive.max())
        ladder = [lo]
        while ladder[-1] < hi:
            ladder.append(ladder[-1] * (1.0 + mu))
        thresholds = np.unique(np.array([0.0] + ladder + [hi]))
    best = _sweep(graph, costs, thresholds)
    return _finish_mixed(graph, mset, tariff, best, "mixed-multiplicative", len(thresholds))


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


def enumerate_paths(graph: DispatchGraph, limit: int = 200_000):
    """Yield (start state index, edge list) for every s->q path.

    Paths come out in lexicographic node-sequence order. The edge list is
    empty for the horizon-1 degenerate paths.
    """
    last = graph.horizon - 1
    count = 0

    def successors(t: int, x: int):
        out = []
        for k in graph.templates_by_tail[x]:
            d = int(graph.dur[k])
            if t + d <= last:
                out.append((t + d, int(graph.head[k]), int(k)))
        out.sort()
        return out

    def walk(start: int, t: int, x: int, acc: list[Edge]):
        nonlocal count
        if t == last:
            if graph.final_mask[x]:
                count += 1
                if count > limit:
                    raise ValueError(f"more than {limit} paths; raise the limit or shrink the instance")
                yield start, list(acc)
            return
        for t2, x2, k in successors(t, x):
            acc.append(Edge(t, k))
            yield from walk(start, t2, x2, acc)
            acc.pop()

    for x in np.nonzero(graph.initial_mask)[0]:
        yield from walk(int(x), 0, int(x), [])


def _path_result_from_edges(graph: DispatchGraph, edges: list[Edge], start_state: int) -> PathResult:
    nodes = [(0, graph.model.states[start_state])]
    for e in edges:
        nodes.append(graph.head_node(e))
    return PathResult(True, tuple(edges), tuple(nodes), 0.0, 0.0)


def brute_force_oracle(graph: DispatchGraph, uset, tariff, limit: int = 200_000) -> RobustSolution:
    """Exhaustive reference solver: evaluate every path's worst case.

    Only for small instances; raises once `limit` paths are exceeded. Ties
    keep the first (lexicographically smallest) path.
    """
    best = None
    for start, edges in enumerate_paths(graph, limit):
        pr = _path_result_from_edges(graph, edges, start)
        total, spike, scenario = _worstcase_parts(graph, pr, uset, tariff)
        cost = float(total + spike)
        if best is None or cost < best[0]:
            best = (cost, pr, total, spike, scenario)
    algorithm = "brute-force"
    if best is None or best[0] == INF:
        return _infeasible(algorithm)
    cost, pr, total, spike, scenario = best
    pr = PathResult(True, pr.edges, pr.nodes, total, spike)
    return RobustSolution(algorithm, pr, cost, scenario)
