"""Robust solver behaviour: exact sweep, grid variants, oracle agreement."""

import dataclasses

import numpy as np
import pytest

from mgtdispatch import (
    BoxSet,
    DemandProfile,
    Forecast,
    PiecewiseLinearCost,
    Tariff,
    box_set,
    build_graph,
    build_schedule,
    cooldown_example,
    flat_tariff,
    mixed_set,
    path_cost_at,
    path_worstcase_cost,
    solve_box,
    solve_mixed_additive,
    solve_mixed_exact,
    solve_mixed_multiplicative,
    solve_nominal,
    worst_corner,
)
from mgtdispatch.demand import bias_profile
from mgtdispatch.solvers import _solve_mixed
from instances import random_instance, synth_plant
from oracles import brute_force_oracle, enumerate_paths
from reference import ref_solve

INF = float("inf")


@pytest.fixture()
def smoke():
    g = build_graph(cooldown_example(), 5)
    tariff = flat_tariff(4, 15.0, 0.5, None, 0.1)
    fc = Forecast([14.0] * 4, [20.0] * 4, [2.0] * 4, [1.0] * 4)
    return g, tariff, fc


def test_frozen_smoke_values(smoke):
    g, tariff, fc = smoke

    nom = solve_nominal(g, fc.mean_profile(), tariff)
    assert nom.feasible and nom.algorithm == "nominal"
    assert nom.worst_case_cost == 16.0
    assert nom.worst_scenario == "nominal"
    assert nom.threshold is None and nom.thresholds_evaluated is None

    box = solve_box(g, box_set(fc, 1.0), tariff)
    assert box.worst_case_cost == 20.4
    assert box.worst_scenario == "box-corner"
    assert box.path.nodes == tuple((t, "x_on") for t in range(5))

    mset = mixed_set(fc, 1.0, 2.0)
    ex = solve_mixed_exact(g, mset, tariff)
    assert ex.algorithm == "mixed-exact"
    # staying on: bias corner 20.4 plus one 4 kW power spike priced at 0.5
    assert ex.worst_case_cost == 22.4
    assert ex.threshold == 2.0
    assert ex.thresholds_evaluated == 2
    assert ex.worst_scenario == "power-spike@0"
    assert ex.path.total == 20.4 and ex.path.aux_max == 2.0


def test_additive_grid_controls(smoke):
    g, tariff, fc = smoke
    mset = mixed_set(fc, 1.0, 2.0)
    res = solve_mixed_additive(g, mset, tariff, grid_n=30)
    assert res.thresholds_candidates == 30
    assert res.thresholds_evaluated <= res.thresholds_candidates
    assert res.worst_case_cost == 22.4
    res = solve_mixed_additive(g, mset, tariff, grid_n=1)
    assert res.thresholds_evaluated == 1
    res = solve_mixed_additive(g, mset, tariff, epsilon=0.5)
    assert res.worst_case_cost <= 22.4 + 0.5 + 1e-12

    with pytest.raises(ValueError, match="exactly one"):
        solve_mixed_additive(g, mset, tariff)
    with pytest.raises(ValueError, match="exactly one"):
        solve_mixed_additive(g, mset, tariff, epsilon=0.5, grid_n=3)
    with pytest.raises(ValueError, match="epsilon"):
        solve_mixed_additive(g, mset, tariff, epsilon=0.0)
    with pytest.raises(ValueError, match="grid_n"):
        solve_mixed_additive(g, mset, tariff, grid_n=0)
    # refused before the edge costs are built: no set is read
    with pytest.raises(ValueError, match="grid_n"):
        solve_mixed_additive(g, None, tariff, grid_n=0)
    with pytest.raises(ValueError, match="epsilon"):
        solve_mixed_additive(g, None, tariff, epsilon=-1.0)


def test_grids_count_one_budget_when_every_spike_is_zero():
    # alpha2 = 0 zeroes every spike, so each grid collapses to the budget 0
    g, fc, tariffs = synth_plant(41)
    mset = mixed_set(fc, 0.5, 0.0)
    exact = solve_mixed_exact(g, mset, tariffs[0.05])
    for res in (exact,
                solve_mixed_additive(g, mset, tariffs[0.05], grid_n=30),
                solve_mixed_additive(g, mset, tariffs[0.05], grid_n=1),
                solve_mixed_additive(g, mset, tariffs[0.05], epsilon=0.5),
                solve_mixed_multiplicative(g, mset, tariffs[0.05], mu=0.5)):
        assert res.thresholds_candidates == res.thresholds_evaluated == 1
        assert (res.worst_case_cost, res.threshold, res.path) == (exact.worst_case_cost, 0.0, exact.path)


def test_multiplicative_grid(smoke):
    g, tariff, fc = smoke
    mset = mixed_set(fc, 1.0, 2.0)
    res = solve_mixed_multiplicative(g, mset, tariff, mu=0.5)
    assert res.worst_case_cost <= 1.5 * 22.4 + 1e-12
    assert res.worst_case_cost >= 22.4  # never better than exact
    with pytest.raises(ValueError, match="mu"):
        solve_mixed_multiplicative(g, mset, tariff, mu=0.0)
    with pytest.raises(ValueError, match="mu"):
        solve_mixed_multiplicative(g, mset, tariff, mu=None)
    # 1 + 1e-17 == 1.0, so the budget ladder would never grow
    with pytest.raises(ValueError, match=r"1 \+ mu > 1"):
        solve_mixed_multiplicative(g, mset, tariff, mu=1e-17)


def test_solve_mixed_dispatches_by_mode(smoke):
    g, tariff, fc = smoke
    mset = mixed_set(fc, 1.0, 2.0)
    for mode, direct in (("exact", solve_mixed_exact(g, mset, tariff)),
                         ("additive", solve_mixed_additive(g, mset, tariff, grid_n=4)),
                         ("multiplicative", solve_mixed_multiplicative(g, mset, tariff, 0.5))):
        res = _solve_mixed(g, mset, tariff, mode, epsilon=None, grid_n=4, mu=0.5)
        assert (res.algorithm, res.worst_case_cost, res.threshold) == \
            (direct.algorithm, direct.worst_case_cost, direct.threshold)
        assert res.path.nodes == direct.path.nodes
    with pytest.raises(ValueError, match="exactly one"):
        _solve_mixed(g, mset, tariff, "additive")
    with pytest.raises(ValueError, match="mu"):
        _solve_mixed(g, mset, tariff, "multiplicative")
    with pytest.raises(ValueError, match="unknown mixed mode"):
        _solve_mixed(g, mset, tariff, "add")


def test_oracle_agreement_sample():
    rng = np.random.default_rng(53)
    n_ok = 0
    for _ in range(25):
        inst = random_instance(rng, max_horizon=6, max_states=4)
        g = build_graph(inst["model"], inst["horizon"],
                        initial=inst["initial"], final=inst["final"])
        mset = mixed_set(inst["forecast"], float(rng.uniform(0.0, 1.5)),
                         float(rng.uniform(0.0, 2.5)))
        tariff = inst["tariff"]
        ex = solve_mixed_exact(g, mset, tariff)
        bf = brute_force_oracle(g, mset, tariff)
        assert ex.feasible == bf.feasible
        if not ex.feasible:
            continue
        n_ok += 1
        assert ex.worst_case_cost == pytest.approx(bf.worst_case_cost, rel=1e-9, abs=1e-12)
    assert n_ok >= 10


def test_robust_dominance_sample():
    rng = np.random.default_rng(59)
    for _ in range(15):
        inst = random_instance(rng, max_horizon=6, max_states=4)
        g = build_graph(inst["model"], inst["horizon"],
                        initial=inst["initial"], final=inst["final"])
        tariff = inst["tariff"]
        mset = mixed_set(inst["forecast"], 0.5, 1.0)
        ex = solve_mixed_exact(g, mset, tariff)
        nom = solve_nominal(g, inst["forecast"].mean_profile(), tariff)
        if not (ex.feasible and nom.feasible):
            continue
        nom_wc, _ = path_worstcase_cost(g, nom.path, mset, tariff)
        assert ex.worst_case_cost <= nom_wc + 1e-12


def test_worstcase_cost_is_reproducible(smoke):
    g, tariff, fc = smoke
    mset = mixed_set(fc, 1.0, 2.0)
    ex = solve_mixed_exact(g, mset, tariff)
    cost, label = path_worstcase_cost(g, ex.path, mset, tariff)
    assert cost == ex.worst_case_cost
    assert label == ex.worst_scenario
    # box worst case re-evaluates as a plain fixed-demand cost
    box = solve_box(g, box_set(fc, 1.0), tariff)
    corner = worst_corner(box_set(fc, 1.0))
    assert path_cost_at(g, box.path, corner, tariff) == box.worst_case_cost


def test_path_cost_at_matches_solver_total(smoke):
    g, tariff, fc = smoke
    nom = solve_nominal(g, fc.mean_profile(), tariff)
    assert path_cost_at(g, nom.path, fc.mean_profile(), tariff) == nom.path.total
    # a path that skips priced steps is refused, not priced in part
    edges = nom.path.edges
    for broken in (edges[:-1], edges[1:], edges[:1] + edges[2:] + edges[1:2]):
        path = dataclasses.replace(nom.path, edges=broken)
        with pytest.raises(ValueError, match="priced steps"):
            path_cost_at(g, path, fc.mean_profile(), tariff)
        with pytest.raises(ValueError, match="priced steps"):
            build_schedule(g, path, fc.mean_profile(), tariff)


def test_forced_shutdown_when_selling_forbidden(smoke):
    # demand below the turbine's output with selling forbidden kills every
    # generating edge; the chosen path must produce nothing at all
    g, tariff, _ = smoke
    d = DemandProfile([5.0] * 4, [20.0] * 4)
    res = solve_nominal(g, d, tariff)
    assert res.feasible
    for e in res.path.edges:
        tr = g.model.transitions[e.template]
        assert tr.power_kw == 0.0 and tr.heat_kw == 0.0
    # every step buys 5 kW power and 20 kW heat
    assert res.worst_case_cost == 4 * (0.5 * 5.0 + 0.1 * 20.0)


def test_infeasible_everywhere_propagates():
    g = build_graph(cooldown_example(), 2, initial="x_on", final="x_off2")
    tariff = flat_tariff(1, 15.0, 0.5, None, 0.1)
    fc = Forecast([14.0], [20.0], [2.0], [1.0])
    nom = solve_nominal(g, fc.mean_profile(), tariff)
    box = solve_box(g, box_set(fc, 1.0), tariff)
    ex = solve_mixed_exact(g, mixed_set(fc, 1.0, 2.0), tariff)
    for res in (nom, box, ex):
        assert not res.feasible
        assert res.worst_case_cost == INF
        assert not res.path.feasible
    assert ex.worst_scenario == "infeasible"


def test_box_prices_forced_export_under_forbidden_selling(smoke):
    # the lower corner (8 kW) sits below the running turbine's 10 kW, so
    # staying on must export on a forbidden-sell step: its worst case is
    # +inf, and the robust plan shuts down, cools down and restarts
    g, tariff, _ = smoke
    bset = box_set(Forecast([14.0] * 4, [10.0] * 4, [2.0] * 4, [2.0] * 4), 3.0)
    box = solve_box(g, bset, tariff)
    assert box.worst_case_cost == pytest.approx(46.4)
    assert [g.control(e) for e in box.path.edges] == ["shutdown", "keep", "keep", "start"]
    assert path_worstcase_cost(g, box.path, bset, tariff) == (box.worst_case_cost, "box-corner")
    all_on = solve_nominal(g, worst_corner(bset), tariff)
    assert all_on.worst_case_cost == 28.0
    assert path_worstcase_cost(g, all_on.path, bset, tariff) == (INF, "box-corner")
    assert brute_force_oracle(g, bset, tariff).worst_case_cost == box.worst_case_cost


def test_mixed_prices_forced_export_under_forbidden_selling(smoke):
    # the box repro under a mixed set: the lower bias corner (8 kW) forces
    # the running turbine's 10 kW to export, so staying on is +inf
    g, tariff, _ = smoke
    mset = mixed_set(Forecast([14.0] * 4, [10.0] * 4, [2.0] * 4, [2.0] * 4), 3.0, 1.0)
    ex = solve_mixed_exact(g, mset, tariff)
    assert ex.worst_case_cost == pytest.approx(47.4)
    assert [g.control(e) for e in ex.path.edges] == ["shutdown", "keep", "keep", "start"]
    all_on = solve_nominal(g, bias_profile(mset), tariff)
    assert [g.control(e) for e in all_on.path.edges] == ["keep"] * 4
    assert path_worstcase_cost(g, all_on.path, mset, tariff)[0] == INF
    assert brute_force_oracle(g, mset, tariff).worst_case_cost == ex.worst_case_cost
    assert ref_solve(g.model, tariff, mset, g.horizon)[0] == pytest.approx(ex.worst_case_cost, rel=1e-12)
    for res in (solve_mixed_additive(g, mset, tariff, grid_n=5),
                solve_mixed_multiplicative(g, mset, tariff, 0.5)):
        assert res.worst_case_cost == ex.worst_case_cost


def test_solvers_match_independent_reference():
    # ref_solve enumerates walks and scenarios with none of the library's
    # graph, weight or worst-case code
    rng = np.random.default_rng(7)
    n_feasible = 0
    for _ in range(120):
        inst = random_instance(rng, max_horizon=6, max_states=4)
        g = build_graph(inst["model"], inst["horizon"],
                        initial=inst["initial"], final=inst["final"])
        tariff, fc = inst["tariff"], inst["forecast"]
        ends = [None if which == "any" else [which] for which in (inst["initial"], inst["final"])]
        for uset, solve in ((fc.mean_profile(), solve_nominal),
                            (box_set(fc, float(rng.uniform(0.0, 2.0))), solve_box),
                            (mixed_set(fc, float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.0, 2.5))),
                             solve_mixed_exact)):
            ref_cost, _ = ref_solve(inst["model"], tariff, uset, inst["horizon"], *ends)
            res = solve(g, uset, tariff)
            assert res.feasible == (ref_cost < INF)
            if res.feasible:
                n_feasible += 1
                assert res.worst_case_cost == pytest.approx(ref_cost, rel=1e-9, abs=1e-12)
    assert n_feasible >= 300


def test_robust_solvers_refuse_falling_costs(smoke):
    # a negative buy or sell slope moves the worst case off the upper
    # corner, so the corner reductions would report a wrong worst case
    g, _, fc = smoke
    # the third tariff also bends; the fall is checked first, so it is named
    steps = np.zeros(4, dtype=np.int32)
    falls_and_bends = Tariff(15.0, 4, (PiecewiseLinearCost(None, (0.0, 10.0), (1.0, -0.5)),), steps,
                             (PiecewiseLinearCost(0.0, (0.0,), (0.1,)),), steps)
    for tariff in (flat_tariff(4, 15.0, -5.0, None, 0.1), flat_tariff(4, 15.0, 0.5, -0.2, 0.1), falls_and_bends):
        assert solve_nominal(g, fc.mean_profile(), tariff).feasible
        with pytest.raises(ValueError, match="never fall"):
            solve_box(g, box_set(fc, 1.0), tariff)
        mset = mixed_set(fc, 1.0, 2.0)
        for solve in (solve_mixed_exact,
                      lambda *a: solve_mixed_additive(*a, grid_n=3),
                      lambda *a: solve_mixed_multiplicative(*a, mu=0.5)):
            with pytest.raises(ValueError, match="never fall"):
                solve(g, mset, tariff)


def test_box_worst_case_refuses_falling_costs(smoke):
    # a falling buy slope makes the lower corner the worst case: the nominal
    # path prices -4.8 there, not the upper corner's -9.6
    g, _, _ = smoke
    steps = np.zeros(4, dtype=np.int32)
    tariff = Tariff(15.0, 4, (PiecewiseLinearCost(0.5, (0.0,), (-0.2,)),), steps,
                    (PiecewiseLinearCost(0.0, (0.0,), (0.1,)),), steps)
    fc = Forecast([14.0] * 4, [10.0] * 4, [2.0] * 4, [2.0] * 4)
    nom = solve_nominal(g, fc.mean_profile(), tariff)
    assert nom.feasible
    with pytest.raises(ValueError, match="never fall"):
        path_worstcase_cost(g, nom.path, box_set(fc, 3.0), tariff)
    # a negative width swaps the corners the same way (solve_box would price
    # the all-on plan at 10 kW, 8.0, while it costs 24.0 at 18 kW), and a
    # negative spike budget lowers the worst case, so both sets refuse them
    with pytest.raises(ValueError, match="dp must be non-negative"):
        BoxSet(*(np.full(4, v) for v in (14.0, 20.0, -4.0, 0.0)))
    with pytest.raises(ValueError, match="mu1"):
        dataclasses.replace(mixed_set(fc, 0.5, 2.0), mu1=-2.0)


def test_enumerate_paths_counts_and_limit(tiny_graph):
    paths = list(enumerate_paths(tiny_graph))
    assert len(paths) == 28
    starts = [s for s, _ in paths]
    assert starts == sorted(starts)
    with pytest.raises(ValueError, match="limit"):
        list(enumerate_paths(tiny_graph, limit=5))


def test_exact_beats_or_ties_every_grid(smoke):
    g, tariff, fc = smoke
    mset = mixed_set(fc, 1.0, 2.0)
    v_star = solve_mixed_exact(g, mset, tariff).worst_case_cost
    for res in (
        solve_mixed_additive(g, mset, tariff, epsilon=0.3),
        solve_mixed_additive(g, mset, tariff, grid_n=7),
        solve_mixed_multiplicative(g, mset, tariff, mu=0.25),
    ):
        assert res.worst_case_cost >= v_star - 1e-12
