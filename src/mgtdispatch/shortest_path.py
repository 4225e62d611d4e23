"""Shortest-path kernels on the time-expanded dispatch graph.

Both solvers run a backward induction over time layers and then walk
forward, always stepping to the smallest (head time, head state, template)
successor whose candidate value reproduces the stored optimum exactly, so
the returned path is the lexicographically smallest node sequence among the
optimal ones and its right-fold cost equals the DP value bit for bit.
Template k has no edge at layer t when t + dur[k] > horizon - 1; both
solvers read that slot as +inf whatever the weight array holds.

The restricted variant drops every edge whose spike cost exceeds a budget
alpha and optimizes the pair (sum of bias costs, max spike along the path)
lexicographically; it is the inner solve of the threshold sweep in
solvers.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import DispatchGraph, Edge, EdgeCosts

INF = float("inf")


@dataclass(frozen=True)
class PathResult:
    """An s->q dispatch path.

    nodes lists the visited (time, state) pairs including both endpoints of
    every edge; edges has one entry per in-horizon edge. total is the summed
    edge cost (bias cost for restricted solves) and aux_max the largest
    spike cost along the path (0 when spikes play no role).
    """

    feasible: bool
    edges: tuple[Edge, ...] = ()
    nodes: tuple[tuple[int, str], ...] = ()
    total: float = INF
    aux_max: float = field(default=0.0)

    def state_at(self, t: int) -> str | None:
        for tt, name in self.nodes:
            if tt == t:
                return name
        return None


_INFEASIBLE = PathResult(False, (), (), INF, INF)


def _gather_index(graph: DispatchGraph, t: int) -> np.ndarray:
    # flat index of each template's head node at start time t; the clamp only
    # keeps templates that do not exist at t (masked by _drop_absent) in bounds
    s = graph.n_states
    idx = t * s + graph.head_offsets
    return np.minimum(idx, graph.horizon * s - 1)


def _drop_absent(graph: DispatchGraph, wcol: np.ndarray, t: int) -> np.ndarray:
    # +inf for templates with no edge at layer t (head past the last layer),
    # whatever the caller's slot holds; only the last max(dur) layers have any
    last = graph.horizon - 1
    if t + graph.duration_groups[-1][0] <= last:
        return wcol
    return np.where(graph.dur > last - t, INF, wcol)


def shortest_path_dag(graph: DispatchGraph, weights: np.ndarray) -> PathResult:
    """Min-cost s->q path for a (templates, horizon) weight array."""
    if weights.shape != (graph.n_templates, graph.horizon):
        raise ValueError(
            f"weights shape {weights.shape} does not match "
            f"({graph.n_templates}, {graph.horizon})"
        )
    s = graph.n_states
    last = graph.horizon - 1
    order, starts, out_states, _ = graph.tail_groups

    b = np.full((graph.horizon, s), INF, dtype=np.float64)
    b[last, graph.final_mask] = 0.0
    b_flat = b.reshape(-1)
    for t in range(last - 1, -1, -1):
        cand = _drop_absent(graph, weights[:, t], t) + b_flat[_gather_index(graph, t)]
        b[t, out_states] = np.minimum.reduceat(cand[order], starts)

    init = np.nonzero(graph.initial_mask)[0]
    x = int(init[np.argmin(b[0, init])])
    total = float(b[0, x])
    if total == INF:
        return _INFEASIBLE

    t = 0
    edges: list[Edge] = []
    nodes = [(0, graph.model.states[x])]
    while t < last:
        target = b[t, x]
        for d, head, k in graph.successors[x]:
            if t + d <= last and weights[k, t] + b[t + d, head] == target:
                break
        else:
            raise RuntimeError(f"walk lost the optimum at layer {t}, state {x}")
        edges.append(Edge(t, k))
        t, x = t + d, head
        nodes.append((t, graph.model.states[x]))
    return PathResult(True, tuple(edges), tuple(nodes), total, 0.0)


def shortest_path_restricted(graph: DispatchGraph, costs: EdgeCosts, alpha: float) -> PathResult:
    """Min bias-cost path using only edges with spike cost <= alpha.

    Ties on bias cost are broken by the smallest achievable max-spike along
    the path, then by node sequence. aux_max reports that max-spike.
    """
    alpha = float(alpha)
    if not alpha >= 0.0:
        raise ValueError(f"spike budget alpha must be >= 0, got {alpha!r}")
    wb, ws = costs.w_bias, costs.w_spike
    if wb.shape != (graph.n_templates, graph.horizon):
        raise ValueError("edge costs do not match this graph")
    s = graph.n_states
    last = graph.horizon - 1
    order, starts, out_states, tails_sorted = graph.tail_groups

    b_cost = np.full((graph.horizon, s), INF, dtype=np.float64)
    b_aux = np.full((graph.horizon, s), INF, dtype=np.float64)
    b_cost[last, graph.final_mask] = 0.0
    b_aux[last, graph.final_mask] = 0.0
    bc_flat = b_cost.reshape(-1)
    ba_flat = b_aux.reshape(-1)
    for t in range(last - 1, -1, -1):
        idx = _gather_index(graph, t)
        wcol = _drop_absent(graph, np.where(ws[:, t] > alpha, INF, wb[:, t]), t)
        cand_cost = wcol + bc_flat[idx]
        cs = cand_cost[order]
        b_cost[t, out_states] = np.minimum.reduceat(cs, starts)
        # second pass: min max-spike among cost-optimal continuations
        cand_aux = np.maximum(ws[:, t], ba_flat[idx])[order]
        on_opt = cs == b_cost[t, tails_sorted]
        b_aux[t, out_states] = np.minimum.reduceat(np.where(on_opt, cand_aux, INF), starts)

    init = np.nonzero(graph.initial_mask)[0]
    total, target_aux, x = min((b_cost[0, x], b_aux[0, x], int(x)) for x in init)
    if total == INF:
        return _INFEASIBLE

    t = 0
    prefix_max = 0.0
    edges: list[Edge] = []
    nodes = [(0, graph.model.states[x])]
    while t < last:
        target = b_cost[t, x]
        for d, head, k in graph.successors[x]:
            if t + d > last:
                continue
            spike = ws[k, t]
            w = INF if spike > alpha else wb[k, t]
            if w + b_cost[t + d, head] == target and not max(prefix_max, spike, b_aux[t + d, head]) > target_aux:
                break
        else:
            raise RuntimeError(f"walk lost the optimum at layer {t}, state {x}")
        prefix_max = max(prefix_max, float(spike))
        edges.append(Edge(t, k))
        t, x = t + d, head
        nodes.append((t, graph.model.states[x]))
    return PathResult(True, tuple(edges), tuple(nodes), float(total), float(target_aux))
