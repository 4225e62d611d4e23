"""DP solvers on the layered graph: plain and spike-restricted.

A restricted solve is one pass whose bias ties go by node order; the
budget sweep breaks them by max spike. So the tie-break tests run a
one-budget sweep (_tiebroken).
"""

import numpy as np
import pytest

import mgtdispatch.shortest_path as shortest_path
import mgtdispatch.solvers as solvers
from mgtdispatch import (
    DemandProfile,
    EdgeCosts,
    PathResult,
    Transition,
    TurbineModel,
    bias_spike_costs,
    build_graph,
    cooldown_example,
    mixed_set,
    scenario_weights,
    shortest_path_dag,
    shortest_path_restricted,
    synth_c65_like,
)
from instances import pack_season, random_instance, random_model, synth_plant
from oracles import enumerate_paths, two_pass_restricted
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
            total = w[e.time, e.template] + total
        assert res.total == total
    assert n_feasible >= 20


def test_ties_break_to_lexicographically_smallest_nodes():
    rng = np.random.default_rng(43)
    for _ in range(20):
        inst = random_instance(rng)
        g = build_graph(inst["model"], inst["horizon"],
                        initial=inst["initial"], final=inst["final"])
        w = np.full((g.horizon, g.n_templates), INF)
        for e in g.edges():
            w[e.time, e.template] = 0.0
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


def _tiebroken(g, costs, alpha: float) -> PathResult:
    """The path of a one-budget sweep: min bias, then min max spike, then node order."""
    best, _ = solvers._sweep(g, costs, np.array([alpha]))
    return best[1] if best else PathResult(False, (), (), INF, INF)


def test_restricted_hand_case():
    g = _two_arm_graph()
    w_bias = np.full((2, 4), INF)
    w_spike = np.zeros((2, 4))
    w_bias[0, 0] = 5.0
    w_bias[0, 1] = 5.0
    w_spike[0, 0] = 3.0
    w_spike[0, 1] = 1.0
    costs = EdgeCosts(w_bias, w_spike)

    # equal bias: one pass takes the b-arm, which comes first
    # lexicographically, and the sweep takes the c-arm's smaller spike
    res = shortest_path_restricted(g, costs, 3.0)
    assert res.feasible and res.total == 5.0
    assert res.aux_max == 3.0
    assert res.nodes == ((0, "a"), (1, "b"))
    res = _tiebroken(g, costs, 3.0)
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
    """Compare one one-budget sweep with enumeration; return (checked, tied).

    edge_costs(rng) draws one edge's (bias, spike) pair, budget(rng) the
    alpha. The path must reach the optimal (total, max spike) pair and be
    the lexicographically smallest node sequence among the walks that do.
    """
    inst = random_instance(rng, max_horizon=6, max_states=4)
    g = build_graph(inst["model"], inst["horizon"],
                    initial=inst["initial"], final=inst["final"])
    shape = (g.horizon, g.n_templates)
    w_bias = np.full(shape, INF)
    w_spike = np.zeros(shape)
    for e in g.edges():
        w_bias[e.time, e.template], w_spike[e.time, e.template] = edge_costs(rng)
    alpha = budget(rng)
    res = _tiebroken(g, EdgeCosts(w_bias, w_spike), alpha)

    init = None if inst["initial"] == "any" else [inst["initial"]]
    fin = None if inst["final"] == "any" else [inst["final"]]
    best, n_best = None, 0
    for wk in ref_walks(inst["model"], inst["horizon"], init, fin):
        idx = [(t, g.model.transitions.index(tr)) for t, tr in wk]
        if any(w_spike[t, k] > alpha for t, k in idx):
            continue
        total = 0.0
        for t, k in reversed(idx):
            total = w_bias[t, k] + total
        aux = max((w_spike[t, k] for t, k in idx), default=0.0)
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
    assert all(w_spike[e.time, e.template] <= alpha for e in res.edges)
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
        shape = (g.horizon, g.n_templates)
        w = np.where(rng.random(shape) < 0.2, INF, rng.integers(0, 3, shape).astype(float))
        res = shortest_path_dag(g, w)
        assert res == shortest_path_restricted(g, EdgeCosts(w, np.zeros(shape)), INF)
        n_feasible += res.feasible
    assert n_feasible >= 200


def test_single_layer_path_is_empty():
    g = build_graph(cooldown_example(), 1)
    res = shortest_path_dag(g, np.zeros((1, 6)))
    assert res.feasible
    assert res.total == 0.0
    assert res.edges == ()
    assert res.nodes == ((0, "x_on"),)


def test_weight_shape_is_checked(tiny_graph):
    # (templates, horizon) is the transposed layout
    with pytest.raises(ValueError, match="shape"):
        shortest_path_dag(tiny_graph, np.zeros((6, 5)))
    with pytest.raises(ValueError, match="shape"):
        shortest_path_restricted(tiny_graph, EdgeCosts(np.zeros((6, 5)), np.zeros((6, 5))), 1.0)
    # a spike array must match the weights, not just broadcast against them
    for shape in ((6, 6), (5, 6, 1), (5, 7)):
        with pytest.raises(ValueError, match="shape"):
            shortest_path_restricted(tiny_graph, EdgeCosts(np.zeros((5, 6)), np.zeros(shape)), 1.0)


def test_kernels_ignore_weights_of_absent_edges():
    # a template whose head layer lies past the horizon has no edge; both
    # kernels must treat it as +inf whatever the caller's array holds there
    model = synth_c65_like(3, 4)
    for horizon in (5, 12, 41):
        g = build_graph(model, horizon)
        absent = np.arange(horizon)[:, None] + g.dur[None, :] > horizon - 1
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


def _enumerated_optimum(g, w, spike, alpha):
    """(total, max spike, nodes) of the first enumerated path with the best (total, max spike).

    Enumeration runs in the walk's tie-break order, so that path is the one
    the plain kernel and a one-budget sweep must return. None when no path stays within alpha.
    """
    best = None
    for start, edges in enumerate_paths(g):
        if any(spike[e.time, e.template] > alpha for e in edges):
            continue
        total = 0.0
        for e in reversed(edges):
            total = w[e.time, e.template] + total
        aux = max((float(spike[e.time, e.template]) for e in edges), default=0.0)
        if total < INF and (best is None or (total, aux) < best[:2]):
            best = (total, aux, [(0, g.model.states[start])] + [g.head_node(e) for e in edges])
    return best


def _skewed_model(rng):
    """State x0 has 12 controls; every other state has one or two."""
    states = tuple(f"x{i}" for i in range(5))
    trs = [Transition("x0", f"u{c}", states[int(rng.integers(0, 5))], int(rng.integers(1, 4)), 0.0, 0.0, 0.0)
           for c in range(12)]
    for x in states[1:]:
        trs.append(Transition(x, "keep", x, 1, 0.0, 0.0, 0.0))
        if rng.random() < 0.5:
            trs.append(Transition(x, "back", "x0", int(rng.integers(1, 3)), 0.0, 0.0, 0.0))
    return TurbineModel(15.0, states, tuple(trs))


def test_kernels_match_enumeration_out_of_tail_order():
    # templates listed out of tail order, and out-degrees from 1 to 12, must
    # not change a path: the plain kernel and a one-budget sweep against
    # enumeration, and a shuffled copy of each model against the original
    n_feasible = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        model = random_model(rng) if seed % 2 else _skewed_model(rng)
        perm = rng.permutation(len(model.transitions))
        shuffled = TurbineModel(model.step_seconds, model.states, tuple(model.transitions[i] for i in perm))
        assert np.any(np.diff(build_graph(shuffled, 2).tail) < 0)
        horizon = int(rng.integers(3, 7))
        shape = (horizon, len(model.transitions))
        # integer costs tie often, which pins the tie-break
        w = np.where(rng.random(shape) < 0.15, INF, rng.integers(0, 3, shape).astype(float))
        spike = rng.integers(0, 4, shape).astype(float)
        alpha = float(rng.integers(1, 4))
        got = []
        for m, cols in ((model, slice(None)), (shuffled, perm)):
            g = build_graph(m, horizon)
            if m is model and not seed % 2:
                assert np.bincount(g.tail).max() == 12
            wc, sc = w[:, cols], spike[:, cols]
            runs = ((shortest_path_dag(g, wc), np.zeros(shape), INF),
                    (_tiebroken(g, EdgeCosts(wc, sc), alpha), sc, alpha))
            for res, sp, a in runs:
                want = _enumerated_optimum(g, wc, sp, a)
                if want is None:
                    assert not res.feasible
                    continue
                assert (res.total, res.aux_max, list(res.nodes)) == want
                n_feasible += 1
                got.append((res.total, res.aux_max, res.nodes))
        # the shuffled model gives the same totals and node sequences
        assert got[:len(got) // 2] == got[len(got) // 2:]
    assert n_feasible >= 150


def test_slot_columns_list_their_templates_then_repeat_the_first():
    # every slot holds a real template, so the kernels need no pad sentinel:
    # a repeat of slot 0 adds the same candidate again and sits after every
    # real slot in the walk
    graphs = [build_graph(_skewed_model(np.random.default_rng(seed)), 5) for seed in range(0, 40, 2)]
    graphs.append(build_graph(synth_c65_like(30, 50), 361))
    for g in graphs:
        tmpl, offsets = g.tail_slots
        degree = np.bincount(g.tail, minlength=g.n_states)
        assert tmpl.shape == (degree.max(), g.n_states) and degree.min() < degree.max()
        for x in range(g.n_states):
            own = sorted(np.nonzero(g.tail == x)[0].tolist(), key=lambda k: (g.dur[k], g.head[k], k))
            assert tmpl[:, x].tolist() == own + own[:1] * (len(tmpl) - len(own))
        assert np.array_equal(offsets, g.dur[tmpl].astype(np.intp) * g.n_states + g.head[tmpl])


def _drawn_costs(rng, bias, spike):
    """A random graph with edge costs drawn by bias(rng, shape) and spike(rng, shape); absent edges +inf and 0."""
    inst = random_instance(rng, max_horizon=7, max_states=4)
    g = build_graph(inst["model"], inst["horizon"], initial=inst["initial"], final=inst["final"])
    shape = (g.horizon, g.n_templates)
    absent = np.arange(g.horizon)[:, None] + g.dur[None, :] > g.horizon - 1
    return g, EdgeCosts(np.where(absent, INF, bias(rng, shape)), np.where(absent, 0.0, spike(rng, shape)))


def _kernel_cases(rng):
    """(family, graph, EdgeCosts) on which a one-budget sweep must match the two-pass oracle."""
    for _ in range(40):
        inst = random_instance(rng, monotone=True)
        g = build_graph(inst["model"], inst["horizon"], initial=inst["initial"], final=inst["final"])
        mset = mixed_set(inst["forecast"], float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 2.5)))
        yield "package", g, bias_spike_costs(g, mset, inst["tariff"])
    for _ in range(60):
        yield "integer", *_drawn_costs(rng, lambda r, sh: r.integers(0, 4, sh).astype(float),
                                       lambda r, sh: r.integers(0, 5, sh).astype(float))
        # binary fractions tie exactly in sums; spikes run long-tailed
        yield "spiky", *_drawn_costs(rng, lambda r, sh: np.where(r.random(sh) < 0.6, r.choice([0.25, 0.5], sh),
                                                                   r.uniform(0.0, 0.2, sh)),
                                     lambda r, sh: r.exponential(3.0, sh))
    for horizon in (13, 25):
        g, fc, tariffs = synth_plant(horizon)
        for tariff in tariffs.values():
            yield "plant", g, bias_spike_costs(g, mixed_set(fc, 0.5, 2.0), tariff)
    g, mset, tariff = pack_season("summer")
    yield "pack", g, bias_spike_costs(g, mset, tariff)


def test_restricted_matches_two_pass_oracle(monkeypatch):
    # every exact threshold, plus budgets between and above them; repr
    # compares floats bit for bit, -0.0 included. The oracle keeps a tie in
    # bias only where each node's suffix sum equals its DP value; a path
    # whose suffix sum lies an ulp above it can still fold to the same bias
    # and have a smaller max spike. The re-solve finds that path, and it is
    # the oracle's own path at that smaller budget.
    rng = np.random.default_rng(61)
    passes = []

    def solve(*args, _orig=shortest_path._solve):
        passes[-1] += 1
        return _orig(*args)

    monkeypatch.setattr(shortest_path, "_solve", solve)
    seen = {}
    for family, g, costs in _kernel_cases(rng):
        grid = np.unique(costs.w_spike)
        budgets = np.concatenate((grid, (grid[:-1] + grid[1:])[::4] / 2.0, [grid[-1] * 1.5 + 1.0]))
        n = seen.setdefault(family, [0, 0, 0])
        for alpha in budgets.tolist():
            passes.append(0)
            got = _tiebroken(g, costs, alpha)
            want = two_pass_restricted(g, costs, alpha)
            if got.feasible and got.aux_max < want.aux_max:
                assert got.total == want.total, (family, alpha)
                want = two_pass_restricted(g, costs, got.aux_max)
                n[2] += 1
            assert repr(got) == repr(want), (family, alpha)
            n[0] += got.feasible
            # a third pass means a re-solve kept its bias and cut the max spike
            n[1] += passes[-1] > 2
    assert seen.keys() == {"package", "integer", "spiky", "plant", "pack"}
    assert all(feasible >= 100 for feasible, _, _ in seen.values()), seen
    assert sum(tied for _, tied, _ in seen.values()) >= 50, seen
    assert seen["plant"][2] >= 10, seen


def test_restricted_path_is_the_solve_at_every_budget_down_to_its_max_spike():
    # a solve at alpha whose path has max spike S returns that path, bit for
    # bit, at S and at every exact threshold in [S, alpha]: the path stays
    # feasible there, fewer edges never lower its suffix values, and a slot
    # the walk passed over only gets dearer. The budget sweep keeps that path
    # for its winning threshold and reuses a tie probe's path one level down.
    rng = np.random.default_rng(67)
    seen = {}
    for family, g, costs in _kernel_cases(rng):
        grid = np.unique(costs.w_spike)
        n = seen.setdefault(family, [0, 0])
        for alpha in [*grid[::3].tolist(), float(grid[-1]) * 1.5 + 1.0]:
            got = shortest_path_restricted(g, costs, alpha)
            if not got.feasible:
                continue
            level = grid[np.searchsorted(grid, got.aux_max):np.searchsorted(grid, alpha, "right")]
            # at most five thresholds per solve, the level's ends among them
            picks = level[np.unique(np.linspace(0, len(level) - 1, min(len(level), 5)).astype(int))]
            for beta in [got.aux_max, *picks.tolist()]:
                assert repr(shortest_path_restricted(g, costs, beta)) == repr(got), (family, alpha, beta)
            n[0] += 1
            n[1] += len(picks) > 1
    assert seen.keys() == {"package", "integer", "spiky", "plant", "pack"}
    assert all(feasible >= 50 and wide >= 10 for feasible, wide in seen.values()), seen
