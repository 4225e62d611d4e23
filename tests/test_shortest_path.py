"""DP solvers on the layered graph: plain and spike-restricted."""

import numpy as np
import pytest

from mgtdispatch import (
    DemandProfile,
    EdgeCosts,
    Transition,
    TurbineModel,
    build_graph,
    cooldown_example,
    scenario_weights,
    shortest_path_dag,
    shortest_path_restricted,
    synth_c65_like,
)
from instances import random_instance
from reference import ref_walks

INF = float("inf")


def _ref_nodes(walk, horizon):
    t0, tr0 = walk[0]
    nodes = [(t0, tr0.from_state)]
    for t, tr in walk:
        nodes.append((t + tr.duration_steps, tr.to_state))
    return nodes


def test_nominal_all_on_frozen(tiny_graph, tiny_tariff, tiny_demand):
    w = scenario_weights(tiny_graph, tiny_demand, tiny_tariff)
    res = shortest_path_dag(tiny_graph, w)
    assert res.feasible
    # 4 steps of (run 2 + 0.5 * 4 kW purchase); staying on beats cycling
    assert res.total == 16.0
    assert res.nodes == tuple((t, "x_on") for t in range(5))
    assert [tiny_graph.control(e) for e in res.edges] == ["keep"] * 4


def test_infeasible_when_final_unreachable(tiny_tariff, tiny_demand):
    g = build_graph(cooldown_example(), 2, initial="x_on", final="x_off2")
    w = scenario_weights(g, DemandProfile([14.0], [20.0]), tiny_tariff)
    res = shortest_path_dag(g, w)
    assert not res.feasible
    assert res.total == INF
    assert res.edges == () and res.nodes == ()


def test_total_is_exact_right_fold():
    # the reported total must be bit-identical to folding the edge weights
    # back-to-front, which is exactly the order the DP adds them in
    rng = np.random.default_rng(41)
    n_feasible = 0
    for _ in range(40):
        inst = random_instance(rng)
        g = build_graph(inst["model"], inst["horizon"],
                        initial=inst["initial"], final=inst["final"])
        d = inst["forecast"].mean_profile()
        w = scenario_weights(g, d, inst["tariff"])
        res = shortest_path_dag(g, w)
        if not res.feasible:
            continue
        n_feasible += 1
        total = 0.0
        for e in reversed(res.edges):
            total = w[e.template, e.time] + total
        assert res.total == total
    assert n_feasible >= 20


def test_ties_break_to_lexicographically_smallest_nodes():
    rng = np.random.default_rng(43)
    for _ in range(20):
        inst = random_instance(rng)
        g = build_graph(inst["model"], inst["horizon"],
                        initial=inst["initial"], final=inst["final"])
        w = np.full((g.n_templates, g.horizon), INF)
        for e in g.edges():
            w[e.template, e.time] = 0.0
        res = shortest_path_dag(g, w)
        init = None if inst["initial"] == "any" else [inst["initial"]]
        fin = None if inst["final"] == "any" else [inst["final"]]
        walks = list(ref_walks(inst["model"], inst["horizon"], init, fin))
        if not walks:
            assert not res.feasible
            continue
        best = min(_ref_nodes(wk, inst["horizon"]) for wk in walks)
        assert list(res.nodes) == best


def _two_arm_graph():
    m = TurbineModel(15.0, ("a", "b", "c"), (
        Transition("a", "u0", "b", 1, 0.0, 0.0, 0.0),
        Transition("a", "u1", "c", 1, 0.0, 0.0, 0.0),
        Transition("b", "keep", "b", 1, 0.0, 0.0, 0.0),
        Transition("c", "keep", "c", 1, 0.0, 0.0, 0.0),
    ))
    return build_graph(m, 2, initial="a")


def test_restricted_hand_case():
    g = _two_arm_graph()
    w_bias = np.full((4, 2), INF)
    w_spike = np.zeros((4, 2))
    w_bias[0, 0] = 5.0
    w_bias[1, 0] = 5.0
    w_spike[0, 0] = 3.0
    w_spike[1, 0] = 1.0
    costs = EdgeCosts(w_bias, w_spike)

    # equal bias: the smaller spike must win the tie even though the b-arm
    # comes first lexicographically
    res = shortest_path_restricted(g, costs, 3.0)
    assert res.feasible and res.total == 5.0
    assert res.aux_max == 1.0
    assert res.nodes == ((0, "a"), (1, "c"))

    # threshold between the two spikes: only the c-arm survives
    res = shortest_path_restricted(g, costs, 1.0)
    assert res.feasible and res.nodes == ((0, "a"), (1, "c"))

    # threshold below both spikes: nothing left
    res = shortest_path_restricted(g, costs, 0.5)
    assert not res.feasible and res.total == INF

    with pytest.raises(ValueError, match="alpha"):
        shortest_path_restricted(g, costs, -1.0)


def _check_restricted(rng, edge_costs, budget) -> tuple[bool, bool]:
    """Compare one restricted solve with enumeration; return (checked, tied).

    edge_costs(rng) draws one edge's (bias, spike) pair, budget(rng) the
    alpha. The path must reach the optimal (total, max spike) pair and be
    the lexicographically smallest node sequence among the walks that do.
    """
    inst = random_instance(rng, max_horizon=6, max_states=4)
    g = build_graph(inst["model"], inst["horizon"],
                    initial=inst["initial"], final=inst["final"])
    shape = (g.n_templates, g.horizon)
    w_bias = np.full(shape, INF)
    w_spike = np.zeros(shape)
    for e in g.edges():
        w_bias[e.template, e.time], w_spike[e.template, e.time] = edge_costs(rng)
    alpha = budget(rng)
    res = shortest_path_restricted(g, EdgeCosts(w_bias, w_spike), alpha)

    init = None if inst["initial"] == "any" else [inst["initial"]]
    fin = None if inst["final"] == "any" else [inst["final"]]
    best, n_best = None, 0
    for wk in ref_walks(inst["model"], inst["horizon"], init, fin):
        idx = [(g.model.transitions.index(tr), t) for t, tr in wk]
        if any(w_spike[k, t] > alpha for k, t in idx):
            continue
        total = 0.0
        for k, t in reversed(idx):
            total = w_bias[k, t] + total
        aux = max((w_spike[k, t] for k, t in idx), default=0.0)
        key = (total, aux, _ref_nodes(wk, inst["horizon"]))
        if best is None or key[:2] < best[:2]:
            n_best = 0
        if best is None or key < best:
            best = key
        n_best += key[:2] == best[:2]
    if best is None:
        assert not res.feasible
        return False, False
    assert res.feasible
    assert res.total == best[0]
    assert res.aux_max == best[1]
    assert list(res.nodes) == best[2]
    assert all(w_spike[e.template, e.time] <= alpha for e in res.edges)
    return True, n_best > 1


def test_restricted_matches_enumeration():
    rng = np.random.default_rng(47)
    checked = [_check_restricted(rng, lambda r: (float(r.uniform(-2.0, 6.0)), float(r.uniform(0.0, 4.0))),
                                 lambda r: float(r.uniform(0.0, 4.0)))
               for _ in range(40)]
    assert sum(c for c, _ in checked) >= 15
    # integer-valued costs and budgets tie often, which pins the tie-break
    rng = np.random.default_rng(53)
    checked = [_check_restricted(rng, lambda r: (float(r.integers(0, 4)), float(r.integers(0, 4))),
                                 lambda r: float(r.integers(0, 4)))
               for _ in range(150)]
    assert sum(c for c, _ in checked) >= 80
    assert sum(t for _, t in checked) >= 5


def test_dag_is_restricted_without_spikes():
    # the plain kernel solves the restricted problem with zero spikes and no
    # budget: same path, same tie-break, on tie-heavy integer weights
    rng = np.random.default_rng(59)
    n_feasible = 0
    for _ in range(300):
        inst = random_instance(rng)
        g = build_graph(inst["model"], inst["horizon"],
                        initial=inst["initial"], final=inst["final"])
        shape = (g.n_templates, g.horizon)
        w = np.where(rng.random(shape) < 0.2, INF, rng.integers(0, 3, shape).astype(float))
        res = shortest_path_dag(g, w)
        assert res == shortest_path_restricted(g, EdgeCosts(w, np.zeros(shape)), INF)
        n_feasible += res.feasible
    assert n_feasible >= 200


def test_single_layer_path_is_empty():
    g = build_graph(cooldown_example(), 1)
    res = shortest_path_dag(g, np.zeros((6, 1)))
    assert res.feasible
    assert res.total == 0.0
    assert res.edges == ()
    assert res.nodes == ((0, "x_on"),)


def test_weight_shape_is_checked(tiny_graph):
    with pytest.raises(ValueError, match="shape"):
        shortest_path_dag(tiny_graph, np.zeros((6, 4)))


def test_kernels_ignore_weights_of_absent_edges():
    # a template whose head layer lies past the horizon has no edge; both
    # kernels must treat it as +inf whatever the caller's array holds there
    model = synth_c65_like(3, 4)
    for horizon in (5, 12, 41):
        g = build_graph(model, horizon)
        absent = np.arange(horizon)[None, :] + g.dur[:, None] > horizon - 1
        assert absent.any()
        for seed in range(50):
            rng = np.random.default_rng(seed)
            w = rng.uniform(0.0, 10.0, absent.shape)
            spike = rng.uniform(0.0, 4.0, absent.shape)
            alpha = float(rng.uniform(1.0, 4.0))
            w_inf = np.where(absent, INF, w)
            assert shortest_path_dag(g, w) == shortest_path_dag(g, w_inf)
            got = shortest_path_restricted(g, EdgeCosts(w, spike), alpha)
            want = shortest_path_restricted(g, EdgeCosts(w_inf, np.where(absent, 0.0, spike)), alpha)
            assert got == want
