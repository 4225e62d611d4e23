"""The budget sweep's descending chain against a solve at every threshold.

`oracles.full_sweep` is the unpruned loop: one tie-broken restricted
solve per candidate, best by (score, max spike, alpha). Every mixed solver
must return what that loop returns on the grid it built (key, threshold,
path) while running no more restricted solves than that loop runs passes,
and on an exact grid no more than it has candidates. The chain walks down
from the top threshold: a solve whose path has max spike S probes just
below S, keeps the probe's path while the bias holds, and otherwise has
settled every threshold from S up; the probe is then the next solve, or
the solve at the threshold below S follows. The walk stops on an
infeasible solve or once no lower threshold can beat the best key.
`grid_oracle` builds each grid from a copy of the finite spike values;
the solvers must build the same bytes without that copy.
`oracles.bertsimas_sim_value` reaches the exact optimum by plain DPs only,
so it checks the sweep's value on instances too large to enumerate.
"""

import time
import tracemalloc

import numpy as np
import pytest

import mgtdispatch.shortest_path as shortest_path
import mgtdispatch.solvers as solvers
from mgtdispatch import (
    EdgeCosts,
    bias_spike_costs,
    build_graph,
    cooldown_example,
    mixed_set,
    shortest_path_dag,
    shortest_path_restricted,
    solve_mixed_additive,
    solve_mixed_exact,
    solve_mixed_multiplicative,
)
import oracles
from instances import pack_season, random_instance, synth_plant
from oracles import bertsimas_sim_value, full_sweep

INF = float("inf")


def grid_oracle(costs, epsilon=None, grid_n=None, mu=None):
    """A mixed solver's budget grid, built from the finite spike values plus 0."""
    vals = np.append(costs.finite_spike_values(), 0.0)
    if grid_n is not None:
        return np.unique(np.linspace(vals.min(), vals.max(), grid_n)) if grid_n > 1 else np.array([vals.max()])
    if epsilon is not None:
        return np.unique(np.append(np.arange(vals.min(), vals.max(), epsilon), vals.max()))
    if mu is None:
        return np.unique(vals)
    positive = vals[vals > 0]
    if positive.size == 0:
        return np.array([0.0])
    ladder = [float(positive.min())]
    while ladder[-1] < positive.max():
        ladder.append(ladder[-1] * (1.0 + mu))
    return np.unique(np.array([0.0] + ladder + [float(positive.max())]))


@pytest.fixture()
def spy(monkeypatch):
    """Record each sweep's edge costs and grid, and count its restricted solves and the full loop's."""
    seen = {"calls": 0, "full_calls": 0, "sweeps": []}

    def restricted(*args):
        seen["calls"] += 1
        return shortest_path_restricted(*args)

    def full_restricted(*args):
        seen["full_calls"] += 1
        return shortest_path_restricted(*args)

    def sweep(graph, costs, thresholds, _orig=solvers._sweep):
        seen["sweeps"].append((costs, thresholds))
        return _orig(graph, costs, thresholds)

    monkeypatch.setattr(solvers, "shortest_path_restricted", restricted)
    monkeypatch.setattr(oracles, "shortest_path_restricted", full_restricted)
    monkeypatch.setattr(solvers, "_sweep", sweep)
    return seen


# every mixed solver, with the grid parameters the tests run it at
_RUNS = ((solve_mixed_exact, {}),
         (solve_mixed_additive, {"grid_n": 1}),
         (solve_mixed_additive, {"grid_n": 5}),
         (solve_mixed_additive, {"grid_n": 30}),
         (solve_mixed_additive, {"epsilon": 0.7}),
         (solve_mixed_multiplicative, {"mu": 0.3}))


def _check_against_full(graph, mset, tariff, spy) -> tuple[int, int]:
    """Every mixed solver against the full loop; (feasible solves, solves saved)."""
    n_feasible = n_saved = 0
    for solve, params in _RUNS:
        spy["calls"], spy["full_calls"], spy["sweeps"] = 0, 0, []
        got = solve(graph, mset, tariff, **params)
        (costs, thresholds), = spy["sweeps"]
        grid = grid_oracle(costs, **params)
        assert thresholds.dtype == grid.dtype and thresholds.tobytes() == grid.tobytes()
        assert got.thresholds_candidates == len(thresholds)
        want = full_sweep(graph, costs, thresholds)
        # tie probes count as solves, so a thinned grid may run more solves than it has budgets
        assert got.thresholds_evaluated == spy["calls"] <= spy["full_calls"]
        if not params:
            assert got.thresholds_evaluated <= got.thresholds_candidates
        n_saved += got.thresholds_evaluated < got.thresholds_candidates
        if want is None:
            assert not got.feasible and got.threshold is None
            continue
        n_feasible += 1
        key, path, alpha = want
        assert got.threshold == alpha
        assert (got.path.total + got.path.aux_max, got.path.aux_max, got.threshold) == key
        assert got.path.edges == path.edges
        assert got.path.nodes == path.nodes
    return n_feasible, n_saved


def test_pruned_matches_full_on_random_instances(spy):
    rng = np.random.default_rng(211)
    n_feasible = n_saved = 0
    for _ in range(60):
        inst = random_instance(rng, monotone=True)
        g = build_graph(inst["model"], inst["horizon"], initial=inst["initial"], final=inst["final"])
        mset = mixed_set(inst["forecast"], float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 2.5)))
        feasible, saved = _check_against_full(g, mset, inst["tariff"], spy)
        n_feasible += feasible
        n_saved += saved
    assert n_feasible >= 150
    assert n_saved >= 100


def test_pruned_matches_full_on_tied_integer_costs(spy):
    # integer bias and spike costs tie often, so keys differ only in the
    # max spike or the threshold, which pins both tie-breaks
    rng = np.random.default_rng(223)
    n_feasible = n_saved = 0
    for _ in range(150):
        inst = random_instance(rng, max_horizon=7, max_states=4)
        g = build_graph(inst["model"], inst["horizon"], initial=inst["initial"], final=inst["final"])
        shape = (g.horizon, g.n_templates)
        w_bias = np.full(shape, INF)
        w_spike = np.zeros(shape)
        for e in g.edges():
            w_bias[e.time, e.template] = float(rng.integers(0, 4))
            w_spike[e.time, e.template] = float(rng.integers(0, 5))
        costs = EdgeCosts(w_bias, w_spike)
        for thresholds in (np.unique(np.append(costs.finite_spike_values(), 0.0)),
                           np.linspace(0.0, 4.0, 9), np.linspace(0.0, 4.0, 4)):
            spy["full_calls"] = 0
            want = full_sweep(g, costs, thresholds)
            got, solves = solvers._sweep(g, costs, thresholds)
            assert solves <= spy["full_calls"]
            n_saved += solves < len(thresholds)
            if want is None:
                assert got is None
                continue
            n_feasible += 1
            assert got[0] == want[0] and got[2] == want[2]
            assert got[1] == want[1]
    assert n_feasible >= 200
    assert n_saved >= 100


def _one_step_costs(edges):
    """Edge costs of a one-step graph holding only the given (template, bias, spike) edges."""
    g = build_graph(cooldown_example(), 2)
    shape = (g.horizon, g.n_templates)
    w_bias = np.full(shape, INF)
    w_spike = np.zeros(shape)
    for k, bias, spike in edges:
        w_bias[0, k], w_spike[0, k] = bias, spike
    return g, EdgeCosts(w_bias, w_spike)


def test_grid_winner_with_spike_between_grid_points():
    # One step, grid budgets 0, 3, 6, three single-edge paths:
    #   A: bias 9,   spike 5  -> best at budget 6, key (14, 5, 6)
    #   W: bias 9.5, spike 1  -> best at budget 3, key (10.5, 1, 3)
    #   C: bias 11,  spike 0  -> best at budget 0, key (11, 0, 0)
    # The chain solves 6 (A, which settles only budget 6), then probes
    # below 5 (W, a new bias whose spike 1 lies between the grid points 0
    # and 3, so the probe is the solve at 3 and settles budget 3 alone),
    # then probes below 1 (C, the solve at 0). W's score 10.5 is not below
    # the stop bound B(3) = 9.5, so the walk reaches the bottom, and W wins
    # where it was solved.
    g, costs = _one_step_costs(((0, 9.0, 5.0), (2, 9.5, 1.0), (3, 11.0, 0.0)))
    thresholds = np.array([0.0, 3.0, 6.0])
    want = full_sweep(g, costs, thresholds)
    got, solves = solvers._sweep(g, costs, thresholds)
    assert want[0] == (10.5, 1.0, 3.0)
    assert got[0] == want[0] and got[1] == want[1] and got[2] == 3.0
    assert solves == 3


def test_stop_bound_ends_the_chain_above_the_bottom(monkeypatch):
    # One step, grid budgets 0..4, three single-edge paths:
    #   A: bias 5, spike 2  -> key (7, 2, 2) for every budget from 2 up
    #   C: bias 8, spike 1  -> key (9, 1, 1)
    #   D: bias 9, spike 0  -> key (9, 0, 0)
    # The solve at 4 takes A; the probe below 2 takes C with bias 8, so A
    # has settled budgets 2..4, and C's spike 1 makes the probe the solve at
    # 1. A's score 7 is below (8, 0, inf), so budget 0 is never solved. A's
    # budget 2 wins with the path the solve at 4 returned, which a solve at
    # 2 would return too, so it is not solved again.
    g, costs = _one_step_costs(((0, 5.0, 2.0), (2, 8.0, 1.0), (3, 9.0, 0.0)))
    thresholds = np.arange(5.0)
    solved = []

    def restricted(graph, costs, alpha):
        solved.append(alpha)
        return shortest_path_restricted(graph, costs, alpha)

    monkeypatch.setattr(solvers, "shortest_path_restricted", restricted)
    want = full_sweep(g, costs, thresholds)
    got, solves = solvers._sweep(g, costs, thresholds)
    assert want[0] == (7.0, 2.0, 2.0)
    assert got[0] == want[0] and got[1] == want[1] and got[2] == 2.0
    assert solved == [4.0, np.nextafter(2.0, -INF)] and solves == 2


@pytest.mark.parametrize("season", ["winter", "spring", "summer", "autumn"])
def test_pruned_matches_full_on_pack(season, spy):
    g, mset, tariff = pack_season(season)
    n_feasible, _ = _check_against_full(g, mset, tariff, spy)
    assert n_feasible == 6
    exact = solve_mixed_exact(g, mset, tariff)
    # hundreds of candidates, a handful of solves
    assert exact.thresholds_candidates > 500
    assert exact.thresholds_evaluated == {"winter": 6, "spring": 2, "summer": 2, "autumn": 5}[season]


def test_restricted_solves_take_one_pass_on_pack(monkeypatch):
    # a restricted solve is one DP pass; the sweep's tie probes are solves
    # of their own, and on the exact grid a probe is also the next level's
    # solve, so the 24 pack sweeps run 123 passes
    passes = []

    def solve(*args, _orig=shortest_path._solve):
        passes[-1] += 1
        return _orig(*args)

    def restricted(*args):
        passes.append(0)
        return shortest_path_restricted(*args)

    monkeypatch.setattr(shortest_path, "_solve", solve)
    monkeypatch.setattr(solvers, "shortest_path_restricted", restricted)
    evaluated = 0
    for season in ("winter", "spring", "summer", "autumn"):
        for alpha2 in (None, 40.0):
            g, mset, tariff = pack_season(season, alpha2)
            for sol in (solve_mixed_exact(g, mset, tariff), solve_mixed_additive(g, mset, tariff, grid_n=30),
                        solve_mixed_multiplicative(g, mset, tariff, mu=0.25)):
                assert sol.feasible
                evaluated += sol.thresholds_evaluated
    assert len(passes) == evaluated == 123
    assert set(passes) == {1}


def _check_bertsimas_sim(g, mset, tariff, epsilon: float, mu: float) -> bool:
    """The exact sweep equals the Bertsimas-Sim optimum V*, and the grids keep
    V_add <= V* + epsilon and V_mul <= (1 + mu) V*; False when infeasible.

    The multiplicative bound needs V* >= 0, which the callers' instances give.
    """
    v_star = bertsimas_sim_value(g, bias_spike_costs(g, mset, tariff))
    exact = solve_mixed_exact(g, mset, tariff)
    assert exact.feasible == (v_star < INF)
    if not exact.feasible:
        return False
    assert v_star >= 0.0
    slack = 1e-12 * max(1.0, v_star)
    assert abs(exact.worst_case_cost - v_star) <= slack
    v_add = solve_mixed_additive(g, mset, tariff, epsilon=epsilon).worst_case_cost
    assert v_star - slack <= v_add <= v_star + epsilon + slack
    v_mul = solve_mixed_multiplicative(g, mset, tariff, mu=mu).worst_case_cost
    assert v_star - slack <= v_mul <= (1.0 + mu) * v_star + slack
    return True


@pytest.mark.parametrize("season", ["winter", "spring", "summer", "autumn"])
def test_exact_matches_bertsimas_sim_on_pack(season):
    g, mset, tariff = pack_season(season)
    assert _check_bertsimas_sim(g, mset, tariff, epsilon=0.5, mu=0.05)


@pytest.mark.parametrize("season", ["winter", "autumn"])
def test_spike_moves_the_pack_plan_at_wide_budget(season):
    # at alpha2 = 40, the CLI's default spike width, the exact plan gives up
    # the cheapest bias path to dodge a spike, so a sweep that ignored the
    # spike in its score would miss V* here
    g, mset, tariff = pack_season(season, alpha2=40.0)
    costs = bias_spike_costs(g, mset, tariff)
    exact = solve_mixed_exact(g, mset, tariff)
    assert exact.worst_case_cost == bertsimas_sim_value(g, costs)
    assert exact.path.edges != shortest_path_dag(g, costs.w_bias).edges


def test_exact_matches_bertsimas_sim_beyond_brute_force():
    # horizons up to 40 layers, far past what enumerate_paths can visit
    rng = np.random.default_rng(227)
    n_feasible = 0
    for _ in range(20):
        inst = random_instance(rng, monotone=True, max_horizon=40)
        g = build_graph(inst["model"], inst["horizon"], initial=inst["initial"], final=inst["final"])
        mset = mixed_set(inst["forecast"], float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 2.5)))
        n_feasible += _check_bertsimas_sim(g, mset, inst["tariff"], epsilon=0.3, mu=0.1)
    # the synthetic plant with selling forbidden, and with a sell price
    g, fc, tariffs = synth_plant(41, peak_hours=(0.05, 0.1))
    for tariff in tariffs.values():
        n_feasible += _check_bertsimas_sim(g, mixed_set(fc, 0.5, 2.0), tariff, epsilon=0.01, mu=0.1)
    assert n_feasible >= 18


def test_sweep_matches_bertsimas_sim_on_spiky_integer_costs():
    # spikes up to three times the largest bias, so the optimum often gives
    # up the cheapest bias path to dodge a spike
    rng = np.random.default_rng(229)
    n_feasible = n_dodged = 0
    for _ in range(100):
        inst = random_instance(rng, max_horizon=30)
        g = build_graph(inst["model"], inst["horizon"], initial=inst["initial"], final=inst["final"])
        last = np.arange(g.horizon)[:, None] + g.dur[None, :] > g.horizon - 1
        w_bias = np.where(last, INF, rng.integers(0, 4, (g.horizon, g.n_templates)).astype(float))
        w_spike = np.where(last, 0.0, rng.integers(0, 10, (g.horizon, g.n_templates)).astype(float))
        costs = EdgeCosts(w_bias, w_spike)
        v_star = bertsimas_sim_value(g, costs)
        got, _ = solvers._sweep(g, costs, np.unique(w_spike))
        assert (got is None) == (v_star == INF)
        if got is None:
            continue
        n_feasible += 1
        assert got[0][0] == v_star
        n_dodged += got[1].total > shortest_path_dag(g, w_bias).total
    assert n_feasible >= 90 and n_dodged >= 30


def test_tiny_multiplicative_ratio_is_refused_fast():
    # about 2.7e9 rungs against some 20,000 edge spike values
    g, mset, tariff = pack_season("autumn")
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="rungs"):
        solve_mixed_multiplicative(g, mset, tariff, mu=1e-9)
    assert time.perf_counter() - t0 < 10.0


def test_additive_solve_peak_memory():
    # the 30x50 bench plant at T = 361 gives two 37.6 MB cost arrays; the
    # grid is read off the spike array in place, so they are nearly the peak
    g, fc, tariffs = synth_plant(361, 30, 50)
    mset = mixed_set(fc, 0.5, 2.0)
    tracemalloc.start()
    try:
        sol = solve_mixed_additive(g, mset, tariffs[0.05], grid_n=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = 2 * 8 * g.horizon * g.n_templates
    assert sol.feasible and sol.thresholds_candidates == 5
    assert peak <= 1.25 * arrays + 4e6, f"peak {peak / 1e6:.1f} MB for {arrays / 1e6:.1f} MB of cost arrays"
