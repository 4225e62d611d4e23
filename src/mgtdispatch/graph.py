"""Time-expanded dispatch graph and edge cost evaluation.

Nodes are (t, x) for layers t = 0..horizon-1 and model states x, plus a
source s and sink q. Applying control u in state x at time t gives the edge
(t, x) -> (t + c, f(x, u)) whenever the head layer still exists; the edge
covers the half-open step span [t, t + c). s connects to every allowed
initial state at layer 0 and every allowed final state at layer horizon-1
connects to q, all at zero cost, so a horizon of T layers prices exactly
T - 1 demand steps.

Because every time layer repeats the same transition table, edges are stored
as (template, start time) pairs: template k is the k-th model transition and
exists at time t iff t + duration(k) <= horizon - 1. Edge costs are
layer-major (horizon x templates) arrays indexed [t, k], so the backward DP
reads one contiguous row per layer. A step's utility cost depends only on
the step and on the template's power and heat output, so a scenario is
priced once per distinct output level and step, a block of layers at a
time, and each edge folds its template's entries of those tables over its
span. The calling thread prices the blocks and a worker thread folds
them, one block in flight: block i is folded while block i + 1 is priced.
The last block folds on the caller, so a one-block call starts no thread,
and everything but the folds' numpy calls, the pricing included, runs on
the caller. A fixed path is priced by the same block evaluators on its own
steps (_path_steps), so paths, worst cases and schedules have one pricing
route; tests/oracles.py keeps the per-edge scalar twins as oracles. Edge
weights and plan worst cases over a set pass one gate, _set_corners, for
its tariff rules on the priced steps and its lower corner.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .demand import BoxSet, DemandProfile, MixedSet
from .model import TurbineModel, validate_model
from .tariff import Tariff, _bend, _fall, _flag_steps

INF = float("inf")


class Edge(NamedTuple):
    """One graph edge: model transition `template` starting at layer `time`."""

    time: int
    template: int


@dataclass(frozen=True, eq=False)
class DispatchGraph:
    model: TurbineModel
    horizon: int
    initial_mask: np.ndarray
    final_mask: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    dur: np.ndarray
    power: np.ndarray
    heat: np.ndarray
    op_cost: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.model.states)

    @property
    def n_templates(self) -> int:
        return len(self.tail)

    @property
    def n_priced_steps(self) -> int:
        """Number of demand steps any s->q path covers: horizon - 1."""
        return self.horizon - 1

    @property
    def n_nodes(self) -> int:
        return self.horizon * self.n_states + 2

    @property
    def n_edges(self) -> int:
        in_horizon = int(np.maximum(0, self.horizon - self.dur).sum())
        return in_horizon + int(self.initial_mask.sum()) + int(self.final_mask.sum())

    @cached_property
    def duration_groups(self) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """(duration, templates, their power level, their heat level) per duration, ascending.

        The levels index the distinct outputs of output_levels.
        """
        (_, p_of), (_, h_of) = self.output_levels
        groups = [np.nonzero(self.dur == d)[0] for d in np.unique(self.dur)]
        return [(int(self.dur[k[0]]), k, p_of[k], h_of[k]) for k in groups]

    @cached_property
    def output_levels(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """(distinct outputs, each template's index into them) for power, then heat."""
        return np.unique(self.power, return_inverse=True), np.unique(self.heat, return_inverse=True)

    @cached_property
    def tail_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """(templates, head offsets) as (max out-degree, n_states) slot matrices.

        Column x lists x's templates in the walk's tie-break order (duration,
        head, template), then repeats its first one in the pad slots; the
        head offset of a template is dur * n_states + head, the flat index of
        its head node relative to layer 0.
        """
        # lexsort is stable, so equal (tail, duration, head) keep template order
        order = np.lexsort((self.head, self.dur, self.tail))
        tails = self.tail[order]
        counts = np.bincount(self.tail, minlength=self.n_states)
        first = np.cumsum(counts) - counts
        # a repeat adds its column's slot-0 candidate again, which moves no min and no walk
        tmpl = np.tile(order[first], (counts.max(), 1))
        tmpl[np.arange(self.n_templates) - first[tails], tails] = order
        return tmpl, (self.dur.astype(np.intp) * self.n_states + self.head)[tmpl]

    def template_exists_at(self, k: int, t: int) -> bool:
        return 0 <= t and t + int(self.dur[k]) <= self.horizon - 1

    def edges(self):
        """All in-horizon edges, time-major then template order."""
        last = self.horizon - 1
        for t in range(last):
            for k in range(self.n_templates):
                if t + self.dur[k] <= last:
                    yield Edge(t, int(k))

    def tail_node(self, e: Edge) -> tuple[int, str]:
        return (e.time, self.model.states[self.tail[e.template]])

    def head_node(self, e: Edge) -> tuple[int, str]:
        return (e.time + int(self.dur[e.template]), self.model.states[self.head[e.template]])

    def control(self, e: Edge) -> str:
        return self.model.transitions[e.template].control

    def initial_states(self) -> list[str]:
        return [s for s, m in zip(self.model.states, self.initial_mask) if m]

    def final_states(self) -> list[str]:
        return [s for s, m in zip(self.model.states, self.final_mask) if m]


def _state_mask(model: TurbineModel, which, what: str) -> np.ndarray:
    if isinstance(which, str) and which == "any":
        return np.ones(len(model.states), dtype=bool)
    names = [which] if isinstance(which, str) else list(which)
    mask = np.zeros(len(model.states), dtype=bool)
    for name in names:
        if name not in model.state_index:
            raise ValueError(f"unknown {what} state {name!r}")
        mask[model.state_index[name]] = True
    if not mask.any():
        raise ValueError(f"no {what} states selected")
    return mask


def build_graph(model: TurbineModel, horizon: int, initial="any", final="any") -> DispatchGraph:
    """Compile the time-expanded graph for a model over `horizon` layers.

    initial/final are "any", a state name, or an iterable of state names.
    A duration longer than the horizon is clamped to `horizon`: such a
    template has no edge in any layer, so it never runs.
    Only the per-template arrays are built here. Nodes no path can touch
    are kept; the kernels' backward values are +inf at every node that
    cannot reach q.
    """
    problems = validate_model(model)
    if problems:
        raise ValueError("invalid model: " + "; ".join(problems[:5]))
    if not (isinstance(horizon, int) and horizon >= 1):
        raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
    initial_mask = _state_mask(model, initial, "initial")
    final_mask = _state_mask(model, final, "final")

    idx = model.state_index
    k = len(model.transitions)
    tail = np.fromiter((idx[tr.from_state] for tr in model.transitions), dtype=np.int32, count=k)
    head = np.fromiter((idx[tr.to_state] for tr in model.transitions), dtype=np.int32, count=k)
    dur = np.fromiter((min(tr.duration_steps, horizon) for tr in model.transitions), dtype=np.int32, count=k)
    power = np.fromiter((tr.power_kw for tr in model.transitions), dtype=np.float64, count=k)
    heat = np.fromiter((tr.heat_kw for tr in model.transitions), dtype=np.float64, count=k)
    op_cost = np.fromiter((tr.op_cost for tr in model.transitions), dtype=np.float64, count=k)
    return DispatchGraph(
        model=model,
        horizon=horizon,
        initial_mask=initial_mask,
        final_mask=final_mask,
        tail=tail,
        head=head,
        dur=dur,
        power=power,
        heat=heat,
        op_cost=op_cost,
    )


def _demand_steps(graph: DispatchGraph, demand: DemandProfile) -> tuple[np.ndarray, np.ndarray]:
    n = graph.n_priced_steps
    if demand.n_steps not in (n, n + 1):
        raise ValueError(
            f"demand length {demand.n_steps} does not cover the {n} steps priced "
            f"by a {graph.horizon}-layer graph (expected {n} or {n + 1})"
        )
    return demand.power_kw[:n], demand.heat_kw[:n]


def _check_tariff(graph: DispatchGraph, tariff: Tariff) -> None:
    if tariff.horizon_steps < graph.n_priced_steps:
        raise ValueError(
            f"tariff covers {tariff.horizon_steps} steps but the graph prices {graph.n_priced_steps}"
        )
    if tariff.step_seconds != graph.model.step_seconds:
        raise ValueError(
            f"tariff step ({tariff.step_seconds}s) differs from model step ({graph.model.step_seconds}s)"
        )


_BLOCK_CELLS = 1 << 18


def _fold_layers(graph: DispatchGraph, level_values, fold, seed: np.ndarray, absent: float) -> np.ndarray:
    """(horizon, templates) array of per-step values folded over each edge's span.

    level_values(a, b) returns the (b - a, levels) power and heat tables of
    steps [a, b) over the distinct output levels; a template's value at a
    step is fold(power entry, heat entry) of its two levels. Entry [t, k] is
    fold(...fold(seed[k], v[t])..., v[t + d - 1]) for a template of duration
    d, left to right, and `absent` where template k has no edge at t.
    Layers go in blocks of about _BLOCK_CELLS output cells, and each block
    prices only the steps the blocks before it did not, so everything but
    the output stays a few MB.

    The calling thread prices and a worker thread folds: while a _Fold
    thread folds block i into the output (_fold_block), the caller prices
    block i + 1, and it joins that thread before it hands off the next
    block, so at most one block is in flight. The last block folds on the
    caller, so a one-block call starts no thread. level_values, and every
    function it calls, runs on the calling thread, so a tracer that keeps one
    span stack still nests its spans; the worker runs numpy calls only. Each
    output cell is written once, by the same ops as on one thread, and an
    error on either side reaches the caller once no fold is running.
    """
    n = graph.n_priced_steps
    # a template longer than the n priced steps has no edge, so it sets no look-ahead
    span = max((d for d, *_ in graph.duration_groups if d <= n), default=1)
    rows = max(1, _BLOCK_CELLS // graph.n_templates)
    out = np.empty((graph.horizon, graph.n_templates), dtype=np.float64)
    out[n] = absent
    (p_lvl, _), (h_lvl, _) = graph.output_levels
    # the tables hold steps [t0, priced) at the top of each block
    p_tab, h_tab = np.empty((0, len(p_lvl))), np.empty((0, len(h_lvl)))
    priced = 0
    folding = None  # the worker folding the previous block
    try:
        for t0 in range(0, n, rows):
            t1 = min(t0 + rows, n)
            end = min(t1 + span - 1, n)
            if end > priced:
                p_new, h_new = level_values(priced, end)
                p_tab, h_tab = np.concatenate((p_tab, p_new)), np.concatenate((h_tab, h_new))
                priced = end
            block = (graph, p_tab, h_tab, fold, seed, absent, out, t0, t1)
            if folding is not None:
                folding.finish()
            if t1 < n:
                folding = _Fold(block)
            else:
                _fold_block(*block)
            p_tab, h_tab = p_tab[t1 - t0:], h_tab[t1 - t0:]
    finally:
        if folding is not None:
            folding.join()
    return out


def _fold_block(graph: DispatchGraph, p_tab: np.ndarray, h_tab: np.ndarray, fold, seed: np.ndarray,
                absent: float, out: np.ndarray, t0: int, t1: int) -> None:
    """Write layers [t0, t1) of _fold_layers' output from level tables whose row 0 is step t0."""
    n = graph.n_priced_steps
    for d, cols, p_of, h_of in graph.duration_groups:
        # layers t < n - d + 1 hold an edge of this duration
        live = max(0, min(t1, n - d + 1) - t0)
        if live:
            step = np.take(p_tab[:live + d - 1], p_of, axis=1)
            acc = np.take(h_tab[:live + d - 1], h_of, axis=1)
            fold(step, acc, out=step)
            acc = fold(seed[cols], step[:live], out=acc[:live])
            for shift in range(1, d):
                fold(acc, step[shift:shift + live], out=acc)
            out[t0:t0 + live, cols] = acc
        if t0 + live < t1:
            out[t0 + live:t1, cols] = absent


class _Fold(threading.Thread):
    """_fold_block(*block) on a thread of its own; finish() joins it and raises the fold's error."""

    def __init__(self, block: tuple):
        super().__init__()
        self.block, self.error = block, None
        self.start()

    def run(self) -> None:
        try:
            _fold_block(*self.block)
        except BaseException as exc:
            self.error = exc

    def finish(self) -> None:
        self.join()
        if self.error is not None:
            raise self.error


def scenario_weights(graph: DispatchGraph, demand, tariff: Tariff) -> np.ndarray:
    """Edge weights under one demand, as a (horizon, templates) array.

    demand is a DemandProfile, or a box or mixed set priced at its upper
    corner (for a mixed set, the spikeless bias corner). Entry [t, k] is
    +inf where template k has no edge at time t (head layer past the
    horizon) or where the scenario makes the edge unusable (forbidden
    selling). Weight = op_cost + sum over covered steps of the power and
    heat purchase costs. Over a set, _set_corners refuses a tariff the
    upper corner cannot price the worst case under, and an edge that must
    export at the set's lower corner on a forbidden-sell step is +inf.
    """
    lower = None
    if isinstance(demand, (BoxSet, MixedSet)):
        lower = _set_corners(graph, demand, tariff)
        demand = demand.upper()
    elif not isinstance(demand, DemandProfile):
        raise TypeError(f"scenario_weights needs a DemandProfile, BoxSet or MixedSet, got {type(demand).__name__}")
    p_dem, h_dem = _demand_steps(graph, demand)
    if lower is not None:
        p_low, h_low = _demand_steps(graph, lower)
    _check_tariff(graph, tariff)
    (p_lvl, _), (h_lvl, _) = graph.output_levels

    def step_costs(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        p = tariff.power_cost_block(p_dem[None, a:b] - p_lvl[:, None], a)
        h = tariff.heat_cost_block(h_dem[None, a:b] - h_lvl[:, None], a)
        if lower is not None:
            p[tariff.power_cost_block(p_low[None, a:b] - p_lvl[:, None], a) == INF] = INF
            h[tariff.heat_cost_block(h_low[None, a:b] - h_lvl[:, None], a) == INF] = INF
        return p.T, h.T

    return _fold_layers(graph, step_costs, np.add, graph.op_cost, INF)


def _set_corners(graph: DispatchGraph, uset, tariff: Tariff) -> DemandProfile | None:
    """Refuse a tariff a set's corner pricing does not hold for; the lower corner when it binds.

    Reads the n priced steps only. Costs that fall as demand rises move the
    worst case off the upper corner, and a mixed set's bias/spike
    decomposition also needs convex costs. Returns the set's lower corner
    when a step forbids selling (prices a negative exchange at +inf).
    """
    n = graph.n_priced_steps
    falls = _flag_steps(tariff, _fall, n)
    if falls:
        raise ValueError(f"box and mixed solvers need costs that never fall as demand rises; "
                         f"{len(falls)} step(s) do, first {falls[0]}")
    bends = _flag_steps(tariff, _bend, n) if isinstance(uset, MixedSet) else []
    if bends:
        raise ValueError(f"mixed-set costs need a convex tariff; {len(bends)} step(s) are not, first {bends[0]}")
    forbids = any(functions[i].neg_slope is None
                  for functions, index in ((tariff.power_functions, tariff.power_index),
                                           (tariff.heat_functions, tariff.heat_index))
                  for i in np.unique(index[:n]).tolist())
    return uset.lower() if forbids else None


@dataclass(frozen=True, eq=False)
class EdgeCosts:
    """Per-edge robust cost pair for a mixed uncertainty set.

    Both are (horizon, templates) arrays. w_bias[t, k] is the edge weight at
    the spikeless bias corner (+inf where the edge does not exist or cannot
    be used, including an edge that must export at the lower corner on a
    forbidden-sell step); w_spike[t, k] >= 0 is the worst single-spike
    increment over the edge's span. Edges with infinite bias get
    w_spike = 0, so w_spike holds exactly the usable edges' spike values
    and 0, and the budget grids are read off it whole.
    """

    w_bias: np.ndarray
    w_spike: np.ndarray

    def finite_spike_values(self) -> np.ndarray:
        """Spike values of every usable edge (finite bias), flattened."""
        return self.w_spike[np.isfinite(self.w_bias)]


def bias_spike_costs(graph: DispatchGraph, mset: MixedSet, tariff: Tariff) -> EdgeCosts:
    """Vectorized bias/spike decomposition for every edge under a mixed set."""
    if not isinstance(mset, MixedSet):
        raise TypeError(f"bias_spike_costs needs a MixedSet, got {type(mset).__name__}")
    w_bias = scenario_weights(graph, mset, tariff)
    p_dem, h_dem = _demand_steps(graph, mset.upper())
    (p_lvl, _), (h_lvl, _) = graph.output_levels

    def step_gains(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        return tuple(g.T for g in _spike_increments(tariff, mset, p_dem[None, a:b] - p_lvl[:, None],
                                                    h_dem[None, a:b] - h_lvl[:, None], a))

    w_spike = _fold_layers(graph, step_gains, np.maximum, np.zeros(graph.n_templates), 0.0)
    w_spike[~np.isfinite(w_bias)] = 0.0
    return EdgeCosts(w_bias=w_bias, w_spike=w_spike)


def _spike_increments(tariff: Tariff, mset: MixedSet, p_x: np.ndarray, h_x: np.ndarray,
                      t0: int) -> tuple[np.ndarray, np.ndarray]:
    """Cost increase of a power and of a heat spike on (rows, width) exchanges of steps [t0, t0 + width).

    0 on steps that admit no such spike (delta = +inf adds a spike of
    exactly 0), and where a cost is infinite (a forbidden export, which puts
    +inf on the edge's bias and gives a NaN or -inf gain). A +inf gain
    arises only from overflow, and is refused.
    """
    t1 = t0 + p_x.shape[-1]
    gains = []
    for cost_block, x, delta in ((tariff.power_cost_block, p_x, mset.delta_p),
                                 (tariff.heat_cost_block, h_x, mset.delta_h)):
        with np.errstate(invalid="ignore", over="ignore"):
            g = cost_block(x + mset.mu1 / delta[t0:t1], t0)
            g -= cost_block(x, t0)
        if (g == INF).any():
            raise ValueError(f"spike budget mu1 = {mset.mu1!r} overflows the cost of a spike")
        g[~np.isfinite(g)] = 0.0
        gains.append(g)
    return tuple(gains)


def _path_steps(graph: DispatchGraph, path, demand: DemandProfile, tariff: Tariff):
    """(template, power exchange, heat exchange, power cost, heat cost) of each priced step.

    `path` is a feasible s->q path, whose edges cover steps 0..n-1 in order.
    Each commodity is priced by one block call over the whole path.
    """
    p_dem, h_dem = _demand_steps(graph, demand)
    _check_tariff(graph, tariff)
    k = np.array([e.template for e in path.edges], dtype=np.intp)
    dur = graph.dur[k]
    if [e.time for e in path.edges] != (np.cumsum(dur) - dur).tolist() or dur.sum() != graph.n_priced_steps:
        raise ValueError(f"path edges do not cover the {graph.n_priced_steps} priced steps in order")
    steps = np.repeat(k, dur)
    p_x = p_dem - graph.power[steps]
    h_x = h_dem - graph.heat[steps]
    return steps, p_x, h_x, tariff.power_cost_block(p_x[None], 0)[0], tariff.heat_cost_block(h_x[None], 0)[0]


def dump_graph(graph: DispatchGraph, path: str) -> None:
    """Write the edge list as text for debugging: one row per edge."""
    states = graph.model.states
    with open(path, "w") as fh:
        fh.write("tail_t,tail_state,head_t,head_state,control\n")
        for s, m in zip(states, graph.initial_mask):
            if m:
                fh.write(f",s,0,{s},\n")
        for e in graph.edges():
            (t1, x1), (t2, x2) = graph.tail_node(e), graph.head_node(e)
            fh.write(f"{t1},{x1},{t2},{x2},{graph.control(e)}\n")
        for s, m in zip(states, graph.final_mask):
            if m:
                fh.write(f"{graph.horizon - 1},{s},,q,\n")

