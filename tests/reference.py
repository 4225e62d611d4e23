"""Independent reference implementations used to check the solvers.

Everything here recomputes results from first principles with plain Python
dicts and loops: walks are enumerated from the transition table directly,
costs are summed step by step with a separate piecewise evaluator, and mixed
worst cases are taken by evaluating every extreme scenario as a full demand
profile (bias corner plus each single spike), not via the bias/spike edge
decomposition the library uses. Agreement between the two routes is the
point of these tests, so nothing below may call into mgtdispatch solver or
graph code.
"""

from __future__ import annotations

import math

INF = float("inf")


def ref_pw_value(fn, x: float) -> float:
    """Evaluate a PiecewiseLinearCost from its raw fields."""
    if x < 0:
        if fn.neg_slope is None:
            return INF
        return fn.neg_slope * x
    total = 0.0
    bps = list(fn.breakpoints) + [INF]
    for i, slope in enumerate(fn.slopes):
        lo, hi = bps[i], bps[i + 1]
        if x <= lo:
            break
        total += slope * (min(x, hi) - lo)
    return total


def ref_step_cost(tariff, t: int, p_util: float, h_util: float) -> float:
    return ref_pw_value(tariff.power_fn(t), p_util) + ref_pw_value(tariff.heat_fn(t), h_util)


def ref_walks(model, horizon: int, initial=None, final=None):
    """Yield every feasible walk as a list of (start_time, Transition).

    A walk starts at layer 0 in an allowed initial state and ends exactly at
    layer horizon-1 in an allowed final state. initial/final are collections
    of state names; None means all states.
    """
    initial = set(model.states) if initial is None else set(initial)
    final = set(model.states) if final is None else set(final)
    by_state: dict[str, list] = {s: [] for s in model.states}
    for tr in model.transitions:
        by_state[tr.from_state].append(tr)
    last = horizon - 1

    def go(t, state, acc):
        if t == last:
            if state in final:
                yield list(acc)
            return
        for tr in by_state[state]:
            if t + tr.duration_steps <= last:
                acc.append((t, tr))
                yield from go(t + tr.duration_steps, tr.to_state, acc)
                acc.pop()

    for s in model.states:
        if s in initial:
            yield from go(0, s, [])


def ref_count_nodes_edges(model, horizon: int, initial=None, final=None) -> tuple[int, int]:
    """Count graph nodes and edges by definition: every (t, x) plus s and q."""
    initial = set(model.states) if initial is None else set(initial)
    final = set(model.states) if final is None else set(final)
    nodes = horizon * len(model.states) + 2
    edges = 0
    for t in range(horizon):
        for tr in model.transitions:
            if t + tr.duration_steps <= horizon - 1:
                edges += 1
    edges += len(initial) + len(final)
    return nodes, edges


def ref_count_paths(model, horizon: int, initial=None, final=None) -> int:
    return sum(1 for _ in ref_walks(model, horizon, initial, final))


def ref_walk_cost(model, tariff, walk, power, heat) -> float:
    """Total cost of a walk against fixed demand arrays (plain left sum)."""
    total = 0.0
    for t, tr in walk:
        total += tr.op_cost
        for j in range(t, t + tr.duration_steps):
            total += ref_step_cost(tariff, j, power[j] - tr.power_kw, heat[j] - tr.heat_kw)
    return total


def ref_mixed_scenarios(mset, n_steps: int):
    """All extreme demand profiles of a mixed set, as (label, power, heat).

    Built directly from the set's fields: the bias corner, then for each
    step one profile per commodity with a finite delta, with mu1/delta
    added on that step only.
    """
    base_p = [mset.p0[t] + mset.dp[t] for t in range(n_steps)]
    base_h = [mset.h0[t] + mset.dh[t] for t in range(n_steps)]
    out = [("bias-only", list(base_p), list(base_h))]
    if mset.mu1 == 0:
        return out
    for t in range(n_steps):
        if math.isfinite(mset.delta_p[t]):
            p = list(base_p)
            p[t] += mset.mu1 / mset.delta_p[t]
            out.append((f"power-spike@{t}", p, list(base_h)))
        if math.isfinite(mset.delta_h[t]):
            h = list(base_h)
            h[t] += mset.mu1 / mset.delta_h[t]
            out.append((f"heat-spike@{t}", list(base_p), h))
    return out


def ref_spread_scenario(mset, n_steps: int, spikes):
    """("spread", power, heat) of the bias corner plus several spikes at once.

    spikes lists (step, commodity, size) triples, commodity "power" or
    "heat"; the caller keeps the sum of delta * size within mu1.
    """
    _, p, h = ref_mixed_scenarios(mset, n_steps)[0]
    for t, what, size in spikes:
        (p if what == "power" else h)[t] += size
    return "spread", p, h


def ref_lower_corner(uset, n_steps: int):
    """("lower-corner", power, heat) of a box or mixed set, clamped at zero demand."""
    p = [max(uset.p0[t] - uset.dp[t], 0.0) for t in range(n_steps)]
    h = [max(uset.h0[t] - uset.dh[t], 0.0) for t in range(n_steps)]
    return "lower-corner", p, h


def ref_walk_worstcase(model, tariff, walk, uset, n_steps: int) -> tuple[float, str]:
    """Worst-case walk cost by exhaustive scenario evaluation.

    Box and mixed sets also price their lower corner, so a walk that must
    export there on a forbidden-sell step costs +inf; under costs that never
    fall as demand rises a finite lower corner never beats the upper one.
    """
    from mgtdispatch.demand import BoxSet, DemandProfile, MixedSet

    if isinstance(uset, DemandProfile):
        return ref_walk_cost(model, tariff, walk, uset.power_kw, uset.heat_kw), "fixed"
    if isinstance(uset, BoxSet):
        p = [uset.p0[t] + uset.dp[t] for t in range(n_steps)]
        h = [uset.h0[t] + uset.dh[t] for t in range(n_steps)]
        scenarios = [("box-corner", p, h)]
    else:
        assert isinstance(uset, MixedSet)
        scenarios = ref_mixed_scenarios(uset, n_steps)
    worst, label = -INF, scenarios[0][0]
    for name, p, h in scenarios + [ref_lower_corner(uset, n_steps)]:
        c = ref_walk_cost(model, tariff, walk, p, h)
        if c > worst:
            worst, label = c, name
    return worst, label


def ref_solve(model, tariff, uset, horizon: int, initial=None, final=None) -> tuple[float, str]:
    """Exhaustive robust solve: min over walks of max over scenarios.

    Returns (cost, scenario); (inf, "infeasible") when no walk exists.
    """
    best, best_label = INF, "infeasible"
    for walk in ref_walks(model, horizon, initial, final):
        c, label = ref_walk_worstcase(model, tariff, walk, uset, horizon - 1)
        if c < best:
            best, best_label = c, label
    return best, best_label
