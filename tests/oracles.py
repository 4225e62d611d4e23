"""Exhaustive and scalar oracles that reuse the package's pricing.

Unlike reference.py, these call into mgtdispatch: brute_force_oracle
enumerates every s->q path of a built graph and prices each with the
solvers' own worst-case evaluator, so it checks the search (the
decomposition, the sweep and the DP), not the pricing. full_sweep is the
unpruned budget loop that solvers._sweep must reproduce, and
bertsimas_sim_value the mixed optimum by a dual route that needs neither
the restricted kernel nor the sweep.

The scalar oracles price one edge step by step with
PiecewiseLinearCost.value, in the block route's operation order:
edge_weight is the scalar twin of scenario_weights, spike_gain of the
spike gains, and edge_bias_spike of bias_spike_costs. path_cost_oracle and
path_worstcase_oracle fold them over a path, the twins of
solvers.path_cost_at and solvers._worstcase_parts, and schedule_rows_oracle
is the twin of schedule.build_schedule. lower_corner and
check_mixed_tariff restate the set rules the package applies where a set
is priced, so the oracles do not borrow them.
"""

from __future__ import annotations

import numpy as np

from mgtdispatch import (
    BoxSet,
    DemandProfile,
    Edge,
    PathResult,
    RobustSolution,
    bias_profile,
    check_convexity,
    shortest_path_dag,
    shortest_path_restricted,
    worst_corner,
)
from mgtdispatch.graph import _check_tariff, _demand_steps
from mgtdispatch.solvers import _infeasible, _worstcase_parts
from mgtdispatch.tariff import require_monotone

INF = float("inf")


def enumerate_paths(graph, limit: int = 200_000):
    """Yield (start state index, edge list) for every s->q path.

    Paths come out in lexicographic node-sequence order. The edge list is
    empty for the horizon-1 degenerate paths.
    """
    last = graph.horizon - 1
    count = 0

    def successors(t: int, x: int):
        out = []
        for k in np.nonzero(graph.tail == x)[0]:
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


def path_from_edges(graph, edges: list[Edge], start_state: int) -> PathResult:
    nodes = [(0, graph.model.states[start_state])]
    for e in edges:
        nodes.append(graph.head_node(e))
    return PathResult(True, tuple(edges), tuple(nodes), 0.0, 0.0)


def brute_force_oracle(graph, uset, tariff, limit: int = 200_000) -> RobustSolution:
    """Exhaustive reference solver: evaluate every path's worst case.

    Only for small instances; raises once `limit` paths are exceeded. Ties
    keep the first (lexicographically smallest) path.
    """
    best = None
    for start, edges in enumerate_paths(graph, limit):
        pr = path_from_edges(graph, edges, start)
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


def full_sweep(graph, costs, thresholds):
    """Restricted solve per threshold; best (key, path, alpha) or None."""
    best = None
    for alpha in thresholds:
        res = shortest_path_restricted(graph, costs, float(alpha))
        if not res.feasible:
            continue
        key = (res.total + res.aux_max, res.aux_max, float(alpha))
        if best is None or key < best[0]:
            best = (key, res, float(alpha))
    return best


def lower_corner(uset) -> DemandProfile:
    """Lowest demand of a box or mixed set: mean minus half-width, clamped at zero; spikes only add."""
    return DemandProfile(np.maximum(uset.p0 - uset.dp, 0.0), np.maximum(uset.h0 - uset.dh, 0.0))


def check_mixed_tariff(tariff) -> None:
    """Refuse costs that fall as demand rises, then non-convex costs, as mixed-set pricing must."""
    require_monotone(tariff)
    bends = check_convexity(tariff)
    if bends:
        raise ValueError(f"mixed-set costs need a convex tariff; {len(bends)} step(s) are not, first {bends[0]}")


def edge_weight(graph, edge: Edge, demand: DemandProfile, tariff) -> float:
    """Weight of one edge under a fixed demand; +inf when unusable.

    op_cost plus, step by step, the power cost plus the heat cost.
    """
    if not graph.template_exists_at(edge.template, edge.time):
        raise ValueError(f"edge {edge} does not exist in a {graph.horizon}-layer graph")
    p_dem, h_dem = _demand_steps(graph, demand)
    _check_tariff(graph, tariff)
    k, t = edge.template, edge.time
    w = float(graph.op_cost[k])
    for j in range(t, t + int(graph.dur[k])):
        s = tariff.power_fn(j).value(float(p_dem[j] - graph.power[k]))
        s = s + tariff.heat_fn(j).value(float(h_dem[j] - graph.heat[k]))
        w = w + s
    return w


def spike_gain(graph, edge: Edge, bias: DemandProfile, mset, tariff) -> tuple[float, int, str]:
    """(gain, step, commodity) of the worst single spike in an edge's span over the bias corner.

    (0.0, -1, "") when no spike raises the cost; ties keep the earliest step, power first.
    """
    k, t = edge.template, edge.time
    best, step, what = 0.0, -1, ""
    for j in range(t, t + int(graph.dur[k])):
        if mset.spike_power[j]:
            fn = tariff.power_fn(j)
            x = float(bias.power_kw[j] - graph.power[k])
            gain = fn.value(x + mset.mu1 / mset.delta_p[j]) - fn.value(x)
            if gain > best:
                best, step, what = gain, j, "power"
        if mset.spike_heat[j]:
            fn = tariff.heat_fn(j)
            x = float(bias.heat_kw[j] - graph.heat[k])
            gain = fn.value(x + mset.mu1 / mset.delta_h[j]) - fn.value(x)
            if gain > best:
                best, step, what = gain, j, "heat"
    return best, step, what


def edge_bias_spike(graph, edge: Edge, mset, tariff) -> tuple[float, float]:
    """(w_bias, w_spike) of one edge under a mixed uncertainty set.

    w_bias prices the spikeless bias corner; w_spike is the largest cost
    increment any single in-span spike can add on top of it, 0 when no
    enabled spike falls inside the span. An edge that is unusable at the
    bias corner, or that must export at the lower corner on a forbidden-sell
    step, gives (inf, 0). Prices are finite, so only a forbidden export
    prices the lower corner at +inf.
    """
    check_mixed_tariff(tariff)
    bias = bias_profile(mset)
    w_bias = edge_weight(graph, edge, bias, tariff)
    if w_bias == INF or edge_weight(graph, edge, lower_corner(mset), tariff) == INF:
        return INF, 0.0
    return w_bias, spike_gain(graph, edge, bias, mset, tariff)[0]


def path_cost_oracle(graph, path: PathResult, demand: DemandProfile, tariff) -> float:
    """Right-to-left fold of edge_weight over a feasible path."""
    total = 0.0
    for e in reversed(path.edges):
        total = edge_weight(graph, e, demand, tariff) + total
    return total


def path_worstcase_oracle(graph, path: PathResult, uset, tariff) -> tuple[float, float, str]:
    """(fold total, max spike, scenario) of a feasible path over a box or mixed set, by edge.

    The max spike is the first edge's largest spike_gain, so ties keep the
    earliest step, power first.
    """
    if isinstance(uset, BoxSet):
        total = path_cost_oracle(graph, path, worst_corner(uset), tariff)
        best, label = 0.0, "box-corner"
    else:
        bias = bias_profile(uset)
        total = path_cost_oracle(graph, path, bias, tariff)
        best, label = 0.0, "bias-only"
        for e in path.edges:
            gain, step, what = spike_gain(graph, e, bias, uset, tariff)
            if gain > best:
                best, label = gain, f"{what}-spike@{step}"
    if path_cost_oracle(graph, path, lower_corner(uset), tariff) == INF:
        total = INF
    return float(total), float(best), label


def schedule_rows_oracle(graph, path: PathResult, demand: DemandProfile, tariff) -> list[tuple]:
    """build_schedule's rows as tuples, priced step by step.

    A step costs its share of the operating cost, op_cost / duration, plus
    the power cost plus the heat cost.
    """
    rows = []
    for e in path.edges:
        tr = graph.model.transitions[e.template]
        d = int(graph.dur[e.template])
        for j in range(e.time, e.time + d):
            p_util = float(demand.power_kw[j]) - tr.power_kw
            h_util = float(demand.heat_kw[j]) - tr.heat_kw
            cost = float(graph.op_cost[e.template]) / d
            cost += tariff.power_fn(j).value(p_util)
            cost += tariff.heat_fn(j).value(h_util)
            rows.append((j, tr.from_state, tr.control, tr.power_kw, tr.heat_kw, p_util, h_util, cost))
    return rows


def bertsimas_sim_value(graph, costs) -> float:
    """Mixed-set optimum over EdgeCosts by the Bertsimas-Sim dual of the single-spike worst case.

    A path's largest edge spike is min over theta >= 0 of theta plus the sum
    of max(w_spike - theta, 0) over its edges, and theta can be limited to 0
    and the spike values. So V* = min over those theta of theta plus the
    shortest path under w_bias + max(w_spike - theta, 0): one plain DP per
    theta, with no restricted kernel and no budget sweep. +inf when no path
    is usable.
    """
    best = INF
    for theta in np.unique(np.append(costs.finite_spike_values(), 0.0)).tolist():
        res = shortest_path_dag(graph, costs.w_bias + np.maximum(costs.w_spike - theta, 0.0))
        if res.feasible:
            best = min(best, theta + res.total)
    return best
