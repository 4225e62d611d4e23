"""Shortest-path kernels on the time-expanded dispatch graph.

The plain problem is the spike-restricted one with zero spikes and no
budget, and both kernels share its two halves: one backward layer
relaxation (_relax) and one forward walk (_walk). Template k has no edge at
layer t when t + dur[k] > horizon - 1; the relaxation reads that slot as
+inf whatever the weight array holds. The walk starts at the initial state
with the smallest (value, max spike, index) and always steps to the
smallest (head time, head state, template) successor whose candidate value
reproduces the stored optimum exactly without exceeding the start's max
spike, so the returned path is the lexicographically smallest node sequence
among the optimal ones and its right-fold cost equals the DP value bit for
bit.

The restricted kernel drops every edge whose spike cost exceeds a budget
alpha and optimizes the pair (sum of bias costs, max spike along the path)
lexicographically; it is the inner solve of the threshold sweep in
solvers.py. The plain kernel keeps a cost-only backward loop and walks with
zero spikes.
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


_INFEASIBLE = PathResult(False, (), (), INF, INF)


def _relax(graph: DispatchGraph, wcol: np.ndarray, b: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Set b[t] to each state's min over its templates of wcol + b[head].

    Templates with no edge at layer t read +inf. Returns each template's
    flat head index into b and the candidates in tail order.
    """
    s = graph.n_states
    last = graph.horizon - 1
    # the clamp only keeps absent templates in bounds
    idx = np.minimum(t * s + graph.head_offsets, graph.horizon * s - 1)
    if t + graph.duration_groups[-1][0] > last:
        wcol = np.where(graph.dur > last - t, INF, wcol)
    order, starts, out_states, _ = graph.tail_groups
    cand = (wcol + b.reshape(-1)[idx])[order]
    b[t, out_states] = np.minimum.reduceat(cand, starts)
    return idx, cand


def _walk(graph: DispatchGraph, b: np.ndarray, b_aux: np.ndarray, w: np.ndarray,
          spike: np.ndarray, alpha: float) -> PathResult:
    """Forward walk along the backward values b (cost) and b_aux (max spike)."""
    last = graph.horizon - 1
    total, target_aux, x = min((b[0, x], b_aux[0, x], int(x)) for x in np.nonzero(graph.initial_mask)[0])
    if total == INF:
        return _INFEASIBLE

    t = 0
    edges: list[Edge] = []
    nodes = [(0, graph.model.states[x])]
    while t < last:
        target = b[t, x]
        for d, head, k in graph.successors[x]:
            if t + d > last or spike[k, t] > alpha:
                continue
            # each accepted spike is <= target_aux, so the path's max spike is target_aux
            if w[k, t] + b[t + d, head] == target and not max(spike[k, t], b_aux[t + d, head]) > target_aux:
                break
        else:
            raise RuntimeError(f"walk lost the optimum at layer {t}, state {x}")
        edges.append(Edge(t, k))
        t, x = t + d, head
        nodes.append((t, graph.model.states[x]))
    return PathResult(True, tuple(edges), tuple(nodes), float(total), float(target_aux))


def shortest_path_dag(graph: DispatchGraph, weights: np.ndarray) -> PathResult:
    """Min-cost s->q path for a (templates, horizon) weight array."""
    if weights.shape != (graph.n_templates, graph.horizon):
        raise ValueError(
            f"weights shape {weights.shape} does not match "
            f"({graph.n_templates}, {graph.horizon})"
        )
    last = graph.horizon - 1
    b = np.full((graph.horizon, graph.n_states), INF, dtype=np.float64)
    b[last, graph.final_mask] = 0.0
    for t in range(last - 1, -1, -1):
        _relax(graph, weights[:, t], b, t)
    # zero spikes and no budget, as read-only views that allocate nothing
    return _walk(graph, b, np.broadcast_to(0.0, b.shape), weights, np.broadcast_to(0.0, weights.shape), INF)


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
    last = graph.horizon - 1
    order, starts, out_states, tails_sorted = graph.tail_groups

    b_cost = np.full((graph.horizon, graph.n_states), INF, dtype=np.float64)
    b_aux = np.full((graph.horizon, graph.n_states), INF, dtype=np.float64)
    b_cost[last, graph.final_mask] = 0.0
    b_aux[last, graph.final_mask] = 0.0
    ba_flat = b_aux.reshape(-1)
    for t in range(last - 1, -1, -1):
        idx, cs = _relax(graph, np.where(ws[:, t] > alpha, INF, wb[:, t]), b_cost, t)
        # second pass: min max-spike among cost-optimal continuations
        cand_aux = np.maximum(ws[:, t], ba_flat[idx])[order]
        on_opt = cs == b_cost[t, tails_sorted]
        b_aux[t, out_states] = np.minimum.reduceat(np.where(on_opt, cand_aux, INF), starts)
    return _walk(graph, b_cost, b_aux, wb, ws, alpha)
