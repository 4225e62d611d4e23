"""Shortest-path kernel on the time-expanded dispatch graph.

One kernel (_solve) serves both public solves: a backward DP over the
edges whose spike is at most a budget alpha (every edge in a plain
solve), then a forward walk (_walk). Edge costs are (horizon, templates)
arrays in template order. Each layer gathers its row into the graph's
tail_slots matrix (a column per state, whose pad slots repeat its first
template) and takes one min down the columns. Weights are finite or
+inf. Value arrays carry +inf rows past the horizon, one per step of the
longest duration (at most one horizon, where build_graph clamps it), so
head indices need no clamp: template k has no edge at layer t when
t + dur[k] > horizon - 1, and that slot reads +inf through its head
whatever its weight. The walk starts at the initial state with the
smallest (value, index) and scans the state's slot column, which lists
its templates by (duration, head, template). It steps to the first
usable successor whose candidate value reproduces the stored optimum
exactly; a head past the horizon reads +inf and never matches.
So the returned path is the lexicographically smallest node sequence
among the optimal ones, its right-fold cost equals the DP value bit for
bit, and its max spike is read off the edges it takes.
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


def _walk(graph: DispatchGraph, b: np.ndarray, w: np.ndarray, spike: np.ndarray, alpha: float) -> PathResult:
    """Forward walk along the backward values b over the edges with spike <= alpha."""
    last = graph.horizon - 1
    total, x = min((b[0, x], int(x)) for x in np.nonzero(graph.initial_mask)[0])
    if total == INF:
        return _INFEASIBLE

    s = graph.n_states
    tmpl, offsets = graph.tail_slots
    b_flat = b.reshape(-1)
    t, aux_max = 0, 0.0
    edges: list[Edge] = []
    nodes = [(0, graph.model.states[x])]
    while t < last:
        target = b[t, x]
        base = t * s
        for k, j in zip(tmpl[:, x].tolist(), offsets[:, x].tolist()):
            j += base
            if not spike[t, k] > alpha and w[t, k] + b_flat[j] == target:
                break
        else:
            raise RuntimeError(f"walk lost the optimum at layer {t}, state {x}")
        aux_max = max(aux_max, spike[t, k])
        edges.append(Edge(t, k))
        t, x = divmod(j, s)
        nodes.append((t, graph.model.states[x]))
    return PathResult(True, tuple(edges), tuple(nodes), float(total), float(aux_max))


def _solve(graph: DispatchGraph, w: np.ndarray, spike: np.ndarray | None, alpha: float) -> np.ndarray:
    """Backward values b[t, x] over the edges with spike <= alpha (every edge without spikes): one pass."""
    restricted = spike is not None
    for a in (w, spike) if restricted else (w,):
        if a.shape != (graph.horizon, graph.n_templates):
            raise ValueError(f"edge cost shape {a.shape} does not match ({graph.horizon}, {graph.n_templates})")
    last = graph.horizon - 1
    s = graph.n_states
    tmpl, heads = graph.tail_slots
    b = np.full((graph.horizon + graph.duration_groups[-1][0], s), INF)
    b[last, graph.final_mask] = 0.0
    b_flat = b.reshape(-1)
    for t in range(last - 1, -1, -1):
        wrow = np.where(spike[t] > alpha, INF, w[t]) if restricted else w[t]
        cand = wrow[tmpl]
        cand += b_flat[t * s:][heads]
        b[t] = cand.min(axis=0)
    # returning frees the last layer's candidates before a walk; held, they cost 16 MB RSS (bench plant, T = 1440)
    return b


def shortest_path_dag(graph: DispatchGraph, weights: np.ndarray) -> PathResult:
    """Min-cost s->q path for a (horizon, templates) weight array."""
    # the walk reads zero spikes from a view that allocates nothing
    return _walk(graph, _solve(graph, weights, None, INF), weights, np.broadcast_to(0.0, weights.shape), INF)


def shortest_path_restricted(graph: DispatchGraph, costs: EdgeCosts, alpha: float) -> PathResult:
    """Min bias-cost path using only edges with spike cost <= alpha: one pass.

    Ties on bias cost go to the node sequence, as in shortest_path_dag;
    aux_max reports the path's max spike. The budget sweep (solvers._sweep)
    breaks bias ties by max spike.
    """
    alpha = float(alpha)
    if not alpha >= 0.0:
        raise ValueError(f"spike budget alpha must be >= 0, got {alpha!r}")
    w, spike = costs.w_bias, costs.w_spike
    return _walk(graph, _solve(graph, w, spike, alpha), w, spike, alpha)
