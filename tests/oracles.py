"""Exhaustive and scalar oracles that reuse the package's pricing.

Unlike reference.py, these call into mgtdispatch: brute_force_oracle
enumerates every s->q path of a built graph and prices each with the
solvers' own worst-case evaluator, so it checks the search (the
decomposition, the sweep and the DP), not the pricing. full_sweep is the
unpruned budget loop that solvers._sweep must reproduce. edge_bias_spike
prices one edge step by step, the scalar twin of graph.bias_spike_costs.
"""

from __future__ import annotations

import numpy as np

from mgtdispatch import Edge, PathResult, RobustSolution, bias_profile, edge_weight, shortest_path_restricted
from mgtdispatch.graph import _check_mixed_tariff, _lower_corner, _sell_forbidden, _spike_gain
from mgtdispatch.solvers import _infeasible, _worstcase_parts

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


def _path_result_from_edges(graph, edges: list[Edge], start_state: int) -> PathResult:
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


def edge_bias_spike(graph, edge: Edge, mset, tariff) -> tuple[float, float]:
    """(w_bias, w_spike) of one edge under a mixed uncertainty set.

    w_bias prices the spikeless bias corner; w_spike is the largest cost
    increment any single in-span spike can add on top of it, 0 when no
    enabled spike falls inside the span. An edge that is unusable at the
    bias corner, or that must export at the lower corner on a forbidden-sell
    step, gives (inf, 0).
    """
    _check_mixed_tariff(tariff)
    bias = bias_profile(mset)
    w_bias = edge_weight(graph, edge, bias, tariff)
    if w_bias == INF or (_sell_forbidden(graph, tariff)
                         and edge_weight(graph, edge, _lower_corner(mset), tariff) == INF):
        return INF, 0.0
    return w_bias, _spike_gain(graph, edge, bias, mset, tariff)[0]
