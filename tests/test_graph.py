"""Time-expanded graph construction and edge-cost evaluation."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from mgtdispatch import graph as graph_module
from mgtdispatch import solvers as solvers_module
from mgtdispatch import (
    DemandProfile,
    Edge,
    Forecast,
    PiecewiseLinearCost,
    Tariff,
    bias_profile,
    bias_spike_costs,
    box_set,
    build_graph,
    build_schedule,
    cooldown_example,
    dump_graph,
    flat_tariff,
    mixed_set,
    path_cost_at,
    scenario_weights,
    solve_box,
    solve_mixed_additive,
    solve_mixed_exact,
    solve_mixed_multiplicative,
    solve_nominal,
    worst_corner,
)
from mgtdispatch.solvers import _worstcase_parts
from instances import random_forecast, random_instance, synth_plant
from oracles import (
    edge_bias_spike,
    edge_weight,
    enumerate_paths,
    path_cost_oracle,
    path_from_edges,
    path_worstcase_oracle,
    schedule_rows_oracle,
)
from reference import ref_count_nodes_edges

INF = float("inf")


def test_cooldown_counts_frozen(tiny_graph):
    g = tiny_graph
    assert g.n_states == 4
    assert g.n_templates == 6
    assert g.horizon == 5
    assert g.n_priced_steps == 4
    # 4*5 layer nodes plus the two terminals
    assert g.n_nodes == 22
    # 6 templates * 4 slots + 4 source + 4 sink arcs
    assert g.n_edges == 32
    assert (g.n_nodes, g.n_edges) == ref_count_nodes_edges(g.model, 5)
    assert len(list(g.edges())) == 24


def test_edges_time_major_and_exist(tiny_graph):
    es = list(tiny_graph.edges())
    assert es[0] == Edge(0, 0)
    assert es[6] == Edge(1, 0)
    times = [e.time for e in es]
    assert times == sorted(times)
    for e in es:
        assert tiny_graph.template_exists_at(e.template, e.time)
    assert not tiny_graph.template_exists_at(0, 4)
    assert not tiny_graph.template_exists_at(0, -1)


def test_node_and_span_helpers(tiny_graph):
    g = tiny_graph
    e = Edge(2, 0)  # x_on keep
    assert g.tail_node(e) == (2, "x_on")
    assert g.head_node(e) == (3, "x_on")
    assert g.control(e) == "keep"
    i_on = g.model.state_index["x_on"]
    outs = [e for e in g.edges() if e.time == 0 and g.tail[e.template] == i_on]
    assert {g.control(e) for e in outs} == {"keep", "shutdown"}
    assert not [e for e in g.edges() if e.time == 4]


def test_boundary_state_selection():
    m = cooldown_example()
    g = build_graph(m, 5, initial="x_on")
    assert g.initial_states() == ["x_on"]
    assert g.final_states() == ["x_on", "x_off1", "x_off2", "x_off3+"]
    g2 = build_graph(m, 5, final="x_off2")
    assert g2.final_states() == ["x_off2"]


def test_build_graph_errors():
    m = cooldown_example()
    with pytest.raises(ValueError, match="unknown"):
        build_graph(m, 5, initial="nope")
    with pytest.raises(ValueError, match="horizon"):
        build_graph(m, 0)
    with pytest.raises(ValueError, match="invalid model"):
        build_graph(m.__class__(m.step_seconds, m.states, m.transitions[:1]), 5)


def test_single_layer_graph_is_degenerate():
    g = build_graph(cooldown_example(), 1)
    assert g.n_priced_steps == 0
    assert list(g.edges()) == []
    assert g.n_edges == 8


def test_random_counts_match_reference():
    rng = np.random.default_rng(11)
    for _ in range(30):
        inst = random_instance(rng)
        m, T = inst["model"], inst["horizon"]
        init, fin = inst["initial"], inst["final"]
        g = build_graph(m, T, initial=init, final=fin)
        ref_init = None if init == "any" else [init]
        ref_fin = None if fin == "any" else [fin]
        assert (g.n_nodes, g.n_edges) == ref_count_nodes_edges(m, T, ref_init, ref_fin)


def test_edge_weight_frozen_values(tiny_graph, tiny_tariff):
    g = tiny_graph
    on_keep = Edge(0, 0)
    d = DemandProfile([14.0] * 4, [20.0] * 4)
    # op 2 + 0.5*(14-10) + heat surplus
    assert edge_weight(g, on_keep, d, tiny_tariff) == 4.0
    d = DemandProfile([10.0] * 4, [20.0] * 4)
    assert edge_weight(g, on_keep, d, tiny_tariff) == 2.0
    # selling forbidden: P below the turbine output kills the edge
    d = DemandProfile([8.0] * 4, [20.0] * 4)
    assert edge_weight(g, on_keep, d, tiny_tariff) == INF
    # heat deficit is priced, surplus is free
    d = DemandProfile([10.0] * 4, [30.0] * 4)
    assert edge_weight(g, on_keep, d, tiny_tariff) == 2.0 + 0.1 * 10.0


def test_demand_length_contract(tiny_graph, tiny_tariff):
    for n in (4, 5):
        d = DemandProfile([14.0] * n, [20.0] * n)
        w = scenario_weights(tiny_graph, d, tiny_tariff)
        assert w.shape == (5, 6)
        assert (w[4] == INF).all()  # no edge may start on the last layer
    with pytest.raises(ValueError, match="demand"):
        scenario_weights(tiny_graph, DemandProfile([14.0] * 3, [20.0] * 3), tiny_tariff)
    # a forecast is neither a profile nor a set
    with pytest.raises(TypeError, match="got Forecast"):
        scenario_weights(tiny_graph, Forecast([14.0] * 4, [20.0] * 4, [1.0] * 4, [1.0] * 4), tiny_tariff)


def test_tariff_shape_contract(tiny_graph):
    d = DemandProfile([14.0] * 4, [20.0] * 4)
    with pytest.raises(ValueError, match="tariff"):
        scenario_weights(tiny_graph, d, flat_tariff(3, 15.0, 0.5, None, 0.1))
    with pytest.raises(ValueError, match="tariff"):
        scenario_weights(tiny_graph, d, flat_tariff(4, 900.0, 0.5, None, 0.1))


def _random_cases(rng, n: int):
    """(graph, forecast, tariff) for n random instances, then the small synthetic plant.

    Random models share output levels mostly at 0.0; the synthetic plant's
    73 templates share 6 power and 24 heat levels, most of them non-zero,
    and its start and stop spans cover 12 and 24 steps. Its peak window
    covers steps 12..23, so the block evaluator splits at two time-of-use
    boundaries.
    """
    for _ in range(n):
        inst = random_instance(rng)
        g = build_graph(inst["model"], inst["horizon"], initial=inst["initial"], final=inst["final"])
        yield g, inst["forecast"], inst["tariff"]
    g, fc, tariffs = synth_plant(41, peak_hours=(0.05, 0.1))
    for tariff in tariffs.values():
        yield g, fc, tariff


def _check_weights(g, d, tariff) -> int:
    """Assert scenario_weights equals edge_weight on every edge; count the +inf ones."""
    w = scenario_weights(g, d, tariff)
    assert w.shape == (g.horizon, g.n_templates)
    n_inf = 0
    for e in g.edges():
        assert w[e.time, e.template] == edge_weight(g, e, d, tariff)
        n_inf += w[e.time, e.template] == INF
    return n_inf


def _check_bias_spike(g, mset, tariff) -> int:
    """Assert bias_spike_costs equals edge_bias_spike on every edge; count the dead ones."""
    costs = bias_spike_costs(g, mset, tariff)
    n_dead = 0
    for e in g.edges():
        wb, ws = edge_bias_spike(g, e, mset, tariff)
        assert costs.w_bias[e.time, e.template] == wb
        assert costs.w_spike[e.time, e.template] == ws
        assert ws >= 0.0
        if wb == INF:
            assert ws == 0.0
            n_dead += 1
    return n_dead


def test_block_weights_match_scalar_eval():
    checked_inf = 0
    for g, fc, tariff in _random_cases(np.random.default_rng(23), 25):
        checked_inf += _check_weights(g, DemandProfile(fc.mu_power, fc.mu_heat), tariff)
    assert checked_inf > 0


def test_bias_spike_block_matches_scalar():
    rng = np.random.default_rng(29)
    checked_inf = 0
    for g, fc, tariff in _random_cases(rng, 25):
        mset = mixed_set(fc, float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 3.0)))
        checked_inf += _check_bias_spike(g, mset, tariff)
    assert checked_inf > 0


def _paths(g, fc, tariff, sets):
    """The first 30 enumerated s->q paths, then the nominal, box and mixed solves' paths."""
    paths = [path_from_edges(g, edges, start) for start, edges in itertools.islice(enumerate_paths(g), 30)]
    d, bset, mset = sets
    for sol in (solve_nominal(g, d, tariff), solve_box(g, bset, tariff), solve_mixed_exact(g, mset, tariff)):
        if sol.feasible:
            paths.append(sol.path)
    return paths


def test_path_pricing_matches_scalar_oracles():
    # path_cost_at, the worst-case parts and the schedule rows price through
    # the block evaluators; each must equal its scalar twin bit for bit. In
    # the last case every step's power and heat spikes gain exactly 1.0, so
    # the labels pin the tie-break: earliest step, power first.
    rng = np.random.default_rng(37)
    ties = (build_graph(cooldown_example(), 5), Forecast([14.0] * 4, [30.0] * 4, [1.0] * 4, [1.0] * 4),
            flat_tariff(4, 15.0, 0.5, None, 0.5))
    n_paths = n_inf = n_spiked = 0
    for g, fc, tariff in itertools.chain(_random_cases(rng, 30), [ties]):
        sets = (fc.mean_profile(), box_set(fc, float(rng.uniform(0.0, 2.0))),
                mixed_set(fc, float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.5, 3.0))))
        d, bset, mset = sets
        for path in _paths(g, fc, tariff, sets):
            n_paths += 1
            for demand in (d, worst_corner(bset), bias_profile(mset)):
                assert repr(path_cost_at(g, path, demand, tariff)) == repr(path_cost_oracle(g, path, demand, tariff))
                rows = [dataclasses.astuple(r) for r in build_schedule(g, path, demand, tariff).rows]
                assert repr(rows) == repr(schedule_rows_oracle(g, path, demand, tariff))
            for uset in (bset, mset):
                got = _worstcase_parts(g, path, uset, tariff)
                assert repr(got) == repr(path_worstcase_oracle(g, path, uset, tariff))
                n_inf += got[0] == INF
                n_spiked += got[1] > 0.0
    assert n_paths >= 600 and n_inf >= 100 and n_spiked >= 500


def test_solves_and_schedules_make_no_scalar_calls(monkeypatch):
    calls = []
    scalar = PiecewiseLinearCost.value

    def counted(self, x):
        calls.append(x)
        return scalar(self, x)

    monkeypatch.setattr(PiecewiseLinearCost, "value", counted)
    g, fc, tariffs = synth_plant(41, peak_hours=(0.05, 0.1))
    d, bset, mset = fc.mean_profile(), box_set(fc, 1.0), mixed_set(fc, 0.5, 2.0)
    for tariff in tariffs.values():
        for sol, demand in ((solve_nominal(g, d, tariff), d), (solve_box(g, bset, tariff), worst_corner(bset)),
                            (solve_mixed_exact(g, mset, tariff), bias_profile(mset))):
            assert sol.feasible
            assert build_schedule(g, sol.path, demand, tariff).n_steps == g.n_priced_steps
    assert calls == []
    # the counter does see a scalar call
    assert tariffs[0.05].power_fn(0).value(1.0) > 0.0 and len(calls) == 1


def test_layer_blocks_split_edge_spans(monkeypatch):
    # blocks of 3 layers: the 12- and 24-step spans straddle many block
    # edges and the 40 priced steps end in a one-layer block
    g, fc, tariffs = synth_plant(41)
    monkeypatch.setattr(graph_module, "_BLOCK_CELLS", 3 * g.n_templates + 1)
    n_inf = n_dead = 0
    for tariff in tariffs.values():
        n_inf += _check_weights(g, DemandProfile(fc.mu_power, fc.mu_heat), tariff)
        n_dead += _check_bias_spike(g, mixed_set(fc, 0.5, 2.0), tariff)
    assert n_inf > 0 and n_dead > 0


@pytest.fixture(scope="module")
def bench_plant_361():
    return synth_plant(361, 30, 50)


def _peak_bytes(fn, *args):
    """(result, tracemalloc peak of the call)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scenario_weights_peak_memory(bench_plant_361):
    # the 30x50 bench plant at T = 361 gives a 37.6 MB weight array; pricing
    # and folding a block of layers at a time keeps the rest to a few MB
    g, fc, tariffs = bench_plant_361
    w, peak = _peak_bytes(scenario_weights, g, DemandProfile(fc.mu_power, fc.mu_heat), tariffs[0.05])
    assert w.nbytes >= 20e6
    assert peak <= 1.25 * w.nbytes + 4e6, f"peak {peak / 1e6:.1f} MB for a {w.nbytes / 1e6:.1f} MB array"


def test_forbidden_sell_box_prices_lower_corner_in_the_same_pass(bench_plant_361):
    # the lower corner marks forced exports in the level tables, so no
    # second weight array or mask is built
    g, fc, tariffs = bench_plant_361
    sol, peak = _peak_bytes(solve_box, g, box_set(fc, 1.0), tariffs["forbidden"])
    assert sol.feasible
    nbytes = g.horizon * g.n_templates * 8
    assert peak <= 1.25 * nbytes + 4e6, f"peak {peak / 1e6:.1f} MB for a {nbytes / 1e6:.1f} MB array"


def test_robust_solves_price_each_set_once(monkeypatch, tiny_graph, tiny_tariff):
    # selling forbidden: the lower corner must not cost a second scenario_weights call
    calls = []

    def counted(*args):
        calls.append(args[1])
        return scenario_weights(*args)

    monkeypatch.setattr(graph_module, "scenario_weights", counted)
    monkeypatch.setattr(solvers_module, "scenario_weights", counted)
    fc = Forecast([14.0] * 4, [10.0] * 4, [2.0] * 4, [2.0] * 4)
    mset = mixed_set(fc, 1.0, 2.0)
    for solve, uset, kw in ((solve_box, box_set(fc, 1.0), {}), (solve_mixed_exact, mset, {}),
                            (solve_mixed_additive, mset, {"grid_n": 3}),
                            (solve_mixed_multiplicative, mset, {"mu": 0.5})):
        calls.clear()
        assert solve(tiny_graph, uset, tiny_tariff, **kw).feasible
        assert calls == [uset], solve.__name__


def test_bias_spike_frozen_values():
    # single on/off plant, flat 0.5 buy (sell forbidden), 0.1 heat:
    # corner P=16 -> util 6 -> bias 2+3; power spike +4 -> 7, delta 2;
    # heat spike lands inside the surplus -> no change
    g = build_graph(cooldown_example(), 5)
    tariff = flat_tariff(4, 15.0, 0.5, None, 0.1)
    fc = Forecast([14.0] * 4, [10.0] * 4, [2.0] * 4, [2.0] * 4)
    mset = mixed_set(fc, 1.0, 2.0)
    assert mset.mu1 / mset.delta_p[0] == 4.0
    wb, ws = edge_bias_spike(g, Edge(0, 0), mset, tariff)
    assert wb == 5.0 and ws == 2.0
    # off-keep: bias 0.5*16 + 0.1*12; power spike again binds
    k_off = next(i for i, tr in enumerate(g.model.transitions)
                 if tr.from_state == "x_off3+" and tr.control == "keep")
    wb, ws = edge_bias_spike(g, Edge(0, k_off), mset, tariff)
    assert wb == pytest.approx(9.2) and ws == 2.0

    costs = bias_spike_costs(g, mset, tariff)
    assert costs.w_bias[0, 0] == 5.0
    assert costs.w_spike[0, 0] == 2.0


def test_zero_budget_means_zero_spikes(tiny_graph, tiny_tariff):
    fc = Forecast([14.0] * 4, [10.0] * 4, [2.0] * 4, [2.0] * 4)
    costs = bias_spike_costs(tiny_graph, mixed_set(fc, 1.0, 0.0), tiny_tariff)
    assert (costs.w_spike == 0.0).all()


def test_dead_edges_keep_zero_spike_and_drop_from_sweep(tiny_graph, tiny_tariff):
    # corner P=7 < 10 kW output with selling forbidden: on-keep is dead even
    # though the +4 spike alone would lift it back over the output level
    fc = Forecast([5.0] * 4, [10.0] * 4, [2.0] * 4, [2.0] * 4)
    costs = bias_spike_costs(tiny_graph, mixed_set(fc, 1.0, 2.0), tiny_tariff)
    assert costs.w_bias[0, 0] == INF
    assert costs.w_spike[0, 0] == 0.0
    finite = costs.finite_spike_values()
    assert finite.size > 0
    assert np.isfinite(finite).all()
    n_dead = sum(1 for e in tiny_graph.edges() if not np.isfinite(costs.w_bias[e.time, e.template]))
    assert n_dead == 4  # on-keep at each of the 4 slots
    assert finite.size == 24 - n_dead


def test_mixed_costs_reject_nonconvex_tariff(tiny_graph):
    bad_fn = PiecewiseLinearCost(None, (0.0, 10.0), (1.0, 0.2))
    heat = PiecewiseLinearCost(0.0, (0.0,), (0.1,))
    tariff = Tariff(15.0, 4, (bad_fn,), np.zeros(4, dtype=np.int32),
                    (heat,), np.zeros(4, dtype=np.int32))
    fc = Forecast([14.0] * 4, [10.0] * 4, [2.0] * 4, [2.0] * 4)
    mset = mixed_set(fc, 1.0, 2.0)
    # the message names the first step whose slopes drop
    first = r"4 step\(s\) are not, first t=0: power cost is non-convex \(slope drops from 1.0 to 0.2\)"
    for price in (bias_spike_costs, scenario_weights, lambda *a: edge_bias_spike(a[0], Edge(0, 0), *a[1:])):
        with pytest.raises(ValueError, match=first):
            price(tiny_graph, mset, tariff)
    # the box reduction needs only costs that never fall
    assert np.isfinite(scenario_weights(tiny_graph, box_set(fc, 1.0), tariff)).any()


def test_dump_graph_row_count(tiny_graph, tmp_path):
    out = tmp_path / "g.txt"
    dump_graph(tiny_graph, str(out))
    lines = [ln for ln in out.read_text().splitlines() if ln]
    assert lines[0] == "tail_t,tail_state,head_t,head_state,control"
    assert len(lines) == tiny_graph.n_edges + 1
    assert all(len(ln.split(",")) == 5 for ln in lines)


def test_spike_sizes_scale_with_sigma():
    rng = np.random.default_rng(31)
    fc = random_forecast(rng, 6)
    mset = mixed_set(fc, 0.5, 3.0)
    for t in range(6):
        if fc.sigma_power[t] > 0:
            assert mset.mu1 / mset.delta_p[t] == pytest.approx(3.0 * fc.sigma_power[t])
        else:
            assert not mset.spike_power[t]


def test_set_weights_refuse_falling_costs(tiny_graph):
    # a falling buy slope moves a set's worst case off its upper corner, so
    # pricing that corner would understate it
    steps = np.zeros(4, dtype=np.int32)
    tariff = Tariff(15.0, 4, (PiecewiseLinearCost(0.5, (0.0,), (-0.2,)),), steps,
                    (PiecewiseLinearCost(0.0, (0.0,), (0.1,)),), steps)
    fc = Forecast([14.0] * 4, [10.0] * 4, [2.0] * 4, [2.0] * 4)
    assert np.isfinite(scenario_weights(tiny_graph, fc.mean_profile(), tariff)).any()
    for uset in (box_set(fc, 1.0), mixed_set(fc, 1.0, 2.0)):
        with pytest.raises(ValueError, match="never fall"):
            scenario_weights(tiny_graph, uset, tariff)
