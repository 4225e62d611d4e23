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
exists at time t iff t + duration(k) <= horizon - 1. A step's utility cost
depends only on the step and on the template's power and heat output, so a
scenario is priced once per distinct output level and step, and each edge
folds its template's rows of those tables over its span into a (templates x
horizon) array. The scalar evaluators below follow the exact same operation
order, so both routes produce bit-identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .demand import DemandProfile, MixedSet, bias_profile
from .model import TurbineModel, validate_model
from .tariff import Tariff, is_convex, require_monotone

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
    def duration_groups(self) -> list[tuple[int, np.ndarray]]:
        """Template rows grouped by duration, ascending durations."""
        return [(int(d), np.nonzero(self.dur == d)[0]) for d in np.unique(self.dur)]

    @cached_property
    def output_levels(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """(distinct outputs, each template's index into them) for power, then heat."""
        return np.unique(self.power, return_inverse=True), np.unique(self.heat, return_inverse=True)

    @cached_property
    def templates_by_tail(self) -> list[np.ndarray]:
        return [np.nonzero(self.tail == s)[0] for s in range(self.n_states)]

    @cached_property
    def head_offsets(self) -> np.ndarray:
        """Per-template flat offset of the head node relative to layer 0."""
        return self.dur.astype(np.int64) * self.n_states + self.head

    @cached_property
    def tail_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Templates stably sorted by tail state, with reduceat segment starts.

        Returns (order, starts, out_states, tails_sorted): out_states[i] is
        the tail of the segment beginning at starts[i] in the sorted order.
        """
        order = np.argsort(self.tail, kind="stable")
        tails_sorted = self.tail[order]
        starts = np.nonzero(np.r_[True, tails_sorted[1:] != tails_sorted[:-1]])[0]
        return order, starts, tails_sorted[starts], tails_sorted

    @cached_property
    def successors(self) -> list[list[tuple[int, int, int]]]:
        """Per tail state, (duration, head, template) triples in the walk's tie-break order."""
        return [sorted(zip(self.dur[r].tolist(), self.head[r].tolist(), r.tolist()))
                for r in self.templates_by_tail]

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
    dur = np.fromiter((tr.duration_steps for tr in model.transitions), dtype=np.int32, count=k)
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


def _fold_spans(graph: DispatchGraph, step_values, fold, seed: np.ndarray, absent: float) -> np.ndarray:
    """(templates, horizon) array of per-step values folded over each edge's span.

    step_values(rows) returns the (len(rows), priced steps) values of those
    template rows. Entry [k, t] is fold(...fold(seed[k], v[t])..., v[t + d - 1])
    for a template of duration d, left to right, and `absent` where template
    k has no edge at t. Rows go in blocks of 4096 so the gathered values of
    one block stay small (one-step templates at T = 1440 would take ~100 MB).
    """
    out = np.full((graph.n_templates, graph.horizon), absent, dtype=np.float64)
    for d, rows in graph.duration_groups:
        maxt = graph.horizon - d
        if maxt <= 0:
            continue
        for r0 in range(0, len(rows), 4096):
            rr = rows[r0:r0 + 4096]
            step = step_values(rr)
            acc = fold(seed[rr][:, None], step[:, :maxt])
            for shift in range(1, d):
                fold(acc, step[:, shift:shift + maxt], out=acc)
            out[rr, :maxt] = acc
    return out


def scenario_weights(graph: DispatchGraph, demand: DemandProfile, tariff: Tariff) -> np.ndarray:
    """Edge weights under one fixed demand, as a (templates, horizon) array.

    Entry [k, t] is +inf where template k has no edge at time t (head layer
    past the horizon) or where the scenario makes the edge unusable
    (forbidden selling). Weight = op_cost + sum over covered steps of the
    power and heat purchase costs.
    """
    p_dem, h_dem = _demand_steps(graph, demand)
    _check_tariff(graph, tariff)
    (p_lvl, p_of), (h_lvl, h_of) = graph.output_levels
    p_cost = tariff.power_cost_block(p_dem[None, :] - p_lvl[:, None], 0)
    h_cost = tariff.heat_cost_block(h_dem[None, :] - h_lvl[:, None], 0)

    def step_cost(rows: np.ndarray) -> np.ndarray:
        cost = p_cost[p_of[rows]]
        cost += h_cost[h_of[rows]]
        return cost

    return _fold_spans(graph, step_cost, np.add, graph.op_cost, INF)


def _sell_forbidden(graph: DispatchGraph, tariff: Tariff) -> bool:
    """True when some priced step prices a negative exchange at +inf (forbidden selling)."""
    n = graph.n_priced_steps
    return any(functions[i].neg_slope is None
               for functions, index in ((tariff.power_functions, tariff.power_index),
                                        (tariff.heat_functions, tariff.heat_index))
               for i in np.unique(index[:n]))


def _lower_corner(uset) -> DemandProfile:
    """Lowest demand of a box or mixed set; spikes only add, and demand stops at zero."""
    return DemandProfile(np.maximum(uset.p0 - uset.dp, 0.0), np.maximum(uset.h0 - uset.dh, 0.0))


def _drop_forced_export(graph: DispatchGraph, weights: np.ndarray, uset, tariff: Tariff) -> np.ndarray:
    """Set +inf on edges that must export at the set's lower corner on a forbidden-sell step.

    Costs never fall as demand rises, so the upper corner prices every
    other edge's worst case; tariffs that sell everywhere skip the pass.
    """
    if _sell_forbidden(graph, tariff):
        weights[scenario_weights(graph, _lower_corner(uset), tariff) == INF] = INF
    return weights


@dataclass(frozen=True, eq=False)
class EdgeCosts:
    """Per-edge robust cost pair for a mixed uncertainty set.

    w_bias[k, t] is the edge weight at the spikeless bias corner (+inf where
    the edge does not exist or cannot be used, including an edge that must
    export at the lower corner on a forbidden-sell step); w_spike[k, t] >= 0
    is the worst single-spike increment over the edge's span. Edges with
    infinite bias get w_spike = 0 and are skipped when threshold grids are
    built.
    """

    w_bias: np.ndarray
    w_spike: np.ndarray

    def bias_of(self, e: Edge) -> float:
        return float(self.w_bias[e.template, e.time])

    def spike_of(self, e: Edge) -> float:
        return float(self.w_spike[e.template, e.time])

    def finite_spike_values(self) -> np.ndarray:
        """Spike values of every usable edge (finite bias), flattened."""
        return self.w_spike[np.isfinite(self.w_bias)]


def bias_spike_costs(graph: DispatchGraph, mset: MixedSet, tariff: Tariff) -> EdgeCosts:
    """Vectorized bias/spike decomposition for every edge under a mixed set."""
    if not isinstance(mset, MixedSet):
        raise TypeError(f"bias_spike_costs needs a MixedSet, got {type(mset).__name__}")
    _check_mixed_tariff(tariff)
    bias = bias_profile(mset)
    w_bias = _drop_forced_export(graph, scenario_weights(graph, bias, tariff), mset, tariff)

    p_dem, h_dem = _demand_steps(graph, bias)
    n = graph.n_priced_steps
    (p_lvl, p_of), (h_lvl, h_of) = graph.output_levels
    with np.errstate(divide="ignore", invalid="ignore"):
        spike_p = np.where(mset.spike_power[:n], mset.mu1 / mset.delta_p[:n], 0.0)
        spike_h = np.where(mset.spike_heat[:n], mset.mu1 / mset.delta_h[:n], 0.0)
        xp = p_dem[None, :] - p_lvl[:, None]
        p_gain = tariff.power_cost_block(xp + spike_p[None, :], 0)
        p_gain -= tariff.power_cost_block(xp, 0)
        p_gain[:, ~mset.spike_power[:n]] = 0.0
        xh = h_dem[None, :] - h_lvl[:, None]
        h_gain = tariff.heat_cost_block(xh + spike_h[None, :], 0)
        h_gain -= tariff.heat_cost_block(xh, 0)
        h_gain[:, ~mset.spike_heat[:n]] = 0.0

    def step_gain(rows: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            gain = np.maximum(p_gain[p_of[rows]], h_gain[h_of[rows]])
        # forbidden-sell steps price as inf - inf; those edges are dead anyway
        gain[~np.isfinite(gain)] = 0.0
        return gain

    w_spike = _fold_spans(graph, step_gain, np.maximum, np.zeros(graph.n_templates), 0.0)
    w_spike[~np.isfinite(w_bias)] = 0.0
    return EdgeCosts(w_bias=w_bias, w_spike=w_spike)


def edge_weight(graph: DispatchGraph, edge: Edge, demand: DemandProfile, tariff: Tariff) -> float:
    """Weight of one edge under a fixed demand; +inf when unusable.

    Matches Σ over the covered steps of the utility make-up costs plus the
    transition's own operating cost, evaluated in the same order as the
    vectorized builder.
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


def _check_mixed_tariff(tariff: Tariff) -> None:
    # the bias/spike decomposition needs convex costs that never fall as demand rises
    if not is_convex(tariff):
        raise ValueError("mixed-set costs need a convex tariff; run convexify() to opt into the envelope")
    require_monotone(tariff)


def _spike_gain(graph: DispatchGraph, edge: Edge, bias: DemandProfile, mset: MixedSet,
                tariff: Tariff) -> tuple[float, int, str]:
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


def edge_bias_spike(graph: DispatchGraph, edge: Edge, mset: MixedSet, tariff: Tariff) -> tuple[float, float]:
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


def dump_graph(graph: DispatchGraph, path: str, costs: EdgeCosts | None = None) -> None:
    """Write the edge list as text for debugging: one row per edge."""
    states = graph.model.states
    with open(path, "w") as fh:
        fh.write("tail_t,tail_state,head_t,head_state,control,w_bias,w_spike\n")
        for s, m in zip(states, graph.initial_mask):
            if m:
                fh.write(f",s,0,{s},,0.0,0.0\n")
        for e in graph.edges():
            (t1, x1), (t2, x2) = graph.tail_node(e), graph.head_node(e)
            w = "," if costs is None else f"{costs.bias_of(e)!r},{costs.spike_of(e)!r}"
            fh.write(f"{t1},{x1},{t2},{x2},{graph.control(e)},{w}\n")
        for s, m in zip(states, graph.final_mask):
            if m:
                fh.write(f"{graph.horizon - 1},{s},,q,,0.0,0.0\n")

