"""Shortest-path kernel on the time-expanded dispatch graph.

The plain problem is the spike-restricted one with zero spikes and no
budget, so one kernel (_solve) serves both: a backward DP, then a forward
walk (_walk). Edge costs are (horizon, templates) arrays in template
order. Each layer gathers its row into the graph's tail_slots matrix (a
column per state, +inf in pad slots) and takes one min down the columns.
Value arrays carry max-duration +inf rows past the horizon, so head
indices need no clamp. Template k has no edge at layer t when
t + dur[k] > horizon - 1; the relaxation reads that slot as +inf whatever
the weight array holds. The walk starts at the initial state with the
smallest (value, max spike, index) and scans the state's slot column,
which lists its templates by (duration, head, template). It steps to the
first successor whose candidate value reproduces the stored optimum
exactly without exceeding the start's max spike; a head past the horizon
reads +inf and never matches. So the returned path is the
lexicographically smallest node sequence among the optimal ones and its
right-fold cost equals the DP value bit for bit.

Given spikes (the threshold sweep in solvers.py), the kernel drops every
edge whose spike exceeds a budget alpha and minimizes (sum of bias costs,
max spike along the path) lexicographically, with a second pass per layer
for the max spike. Without spikes the mask and that pass are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    aux_max: float = 0.0


_INFEASIBLE = PathResult(False, (), (), INF, INF)


def _walk(graph: DispatchGraph, b: np.ndarray, b_aux: np.ndarray, w: np.ndarray,
          spike: np.ndarray, alpha: float) -> PathResult:
    """Forward walk along the backward values b (cost) and b_aux (max spike)."""
    last = graph.horizon - 1
    total, target_aux, x = min((b[0, x], b_aux[0, x], int(x)) for x in np.nonzero(graph.initial_mask)[0])
    if total == INF:
        return _INFEASIBLE

    s, n = graph.n_states, graph.n_templates
    tmpl, offsets = graph.tail_slots
    b_flat, aux_flat = b.reshape(-1), b_aux.reshape(-1)
    t = 0
    edges: list[Edge] = []
    nodes = [(0, graph.model.states[x])]
    while t < last:
        target = b[t, x]
        base = t * s
        for k, j in zip(tmpl[:, x].tolist(), offsets[:, x].tolist()):
            j += base
            # each accepted spike is <= target_aux, so the path's max spike is target_aux
            if (k < n and not spike[t, k] > alpha and w[t, k] + b_flat[j] == target
                    and not max(spike[t, k], aux_flat[j]) > target_aux):
                break
        else:
            raise RuntimeError(f"walk lost the optimum at layer {t}, state {x}")
        edges.append(Edge(t, k))
        t, x = divmod(j, s)
        nodes.append((t, graph.model.states[x]))
    return PathResult(True, tuple(edges), tuple(nodes), float(total), float(target_aux))


def _solve(graph: DispatchGraph, w: np.ndarray, spike: np.ndarray | None, alpha: float) -> PathResult:
    """Backward DP, then _walk; spikes switch on the budget mask and the max-spike pass."""
    restricted = spike is not None
    for a in (w, spike) if restricted else (w,):
        if a.shape != (graph.horizon, graph.n_templates):
            raise ValueError(f"edge cost shape {a.shape} does not match ({graph.horizon}, {graph.n_templates})")
    last = graph.horizon - 1
    s = graph.n_states
    tmpl, heads = graph.tail_slots
    b = np.full((graph.horizon + graph.duration_groups[-1][0], s), INF)
    b[last, graph.final_mask] = 0.0
    # without spikes the walk reads zeros, as read-only views that allocate nothing
    b_aux = b.copy() if restricted else np.broadcast_to(0.0, b.shape)
    spike = spike if restricted else np.broadcast_to(0.0, w.shape)
    b_flat, ba_flat = b.reshape(-1), b_aux.reshape(-1)
    for t in range(last - 1, -1, -1):
        wrow = np.where(spike[t] > alpha, INF, w[t]) if restricted else w[t]
        if t + graph.duration_groups[-1][0] > last:
            wrow = np.where(graph.dur > last - t, INF, wrow)
        cand = np.append(wrow, INF)[tmpl]
        cand += b_flat[t * s:][heads]
        b[t] = cand.min(axis=0)
        if restricted:
            aux = np.append(spike[t], INF)[tmpl]
            np.maximum(aux, ba_flat[t * s:][heads], out=aux)
            aux[cand != b[t]] = INF
            b_aux[t] = aux.min(axis=0)
    # held through the walk, the last layer's candidates raised peak RSS by 16 MB (bench plant, T = 1440)
    cand = aux = None
    return _walk(graph, b, b_aux, w, spike, alpha)


def shortest_path_dag(graph: DispatchGraph, weights: np.ndarray) -> PathResult:
    """Min-cost s->q path for a (horizon, templates) weight array."""
    return _solve(graph, weights, None, INF)


def shortest_path_restricted(graph: DispatchGraph, costs: EdgeCosts, alpha: float) -> PathResult:
    """Min bias-cost path using only edges with spike cost <= alpha.

    Ties on bias cost are broken by the smallest achievable max-spike along
    the path, then by node sequence. aux_max reports that max-spike.
    """
    alpha = float(alpha)
    if not alpha >= 0.0:
        raise ValueError(f"spike budget alpha must be >= 0, got {alpha!r}")
    return _solve(graph, costs.w_bias, costs.w_spike, alpha)
