"""Time-expanded graph construction and edge-cost evaluation."""

import math

import numpy as np
import pytest

from mgtdispatch import (
    DemandProfile,
    Edge,
    Forecast,
    PiecewiseLinearCost,
    SynthConfig,
    Tariff,
    TouConfig,
    bias_spike_costs,
    build_graph,
    convexify,
    cooldown_example,
    dump_graph,
    edge_bias_spike,
    edge_weight,
    flat_tariff,
    mixed_set,
    scenario_weights,
    synth_c65_like,
    synthetic_day,
    tou_tariff,
)
from instances import random_forecast, random_instance
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
        assert w.shape == (6, 5)
        assert (w[:, 4] == INF).all()  # no edge may start on the last layer
    with pytest.raises(ValueError, match="demand"):
        scenario_weights(tiny_graph, DemandProfile([14.0] * 3, [20.0] * 3), tiny_tariff)


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
    and its start and stop spans cover 12 and 24 steps.
    """
    for _ in range(n):
        inst = random_instance(rng)
        g = build_graph(inst["model"], inst["horizon"], initial=inst["initial"], final=inst["final"])
        yield g, inst["forecast"], inst["tariff"]
    horizon, step_s = 41, 15.0
    day = synthetic_day(np.random.default_rng(7), horizon - 1, step_s)
    fc = Forecast(day.power_kw, day.heat_kw, np.maximum(0.08 * day.power_kw, 0.5),
                  np.maximum(0.08 * day.heat_kw, 0.5))
    g = build_graph(synth_c65_like(3, 4, SynthConfig(step_seconds=step_s)), horizon)
    for sell in (0.05, "forbidden"):
        yield g, fc, tou_tariff(TouConfig(step_seconds=step_s, horizon_steps=horizon - 1,
                                          buy_peak_per_kwh=0.30, buy_offpeak_per_kwh=0.12,
                                          sell_per_kwh=sell, heat_buy_per_kwh=0.0725))


def test_block_weights_match_scalar_eval():
    checked_inf = 0
    for g, fc, tariff in _random_cases(np.random.default_rng(23), 25):
        d = DemandProfile(fc.mu_power, fc.mu_heat)
        w = scenario_weights(g, d, tariff)
        for e in g.edges():
            assert w[e.template, e.time] == edge_weight(g, e, d, tariff)
            checked_inf += w[e.template, e.time] == INF
    assert checked_inf > 0


def test_bias_spike_block_matches_scalar():
    rng = np.random.default_rng(29)
    checked_inf = 0
    for g, fc, tariff in _random_cases(rng, 25):
        mset = mixed_set(fc, float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 3.0)))
        tariff = convexify(tariff)
        costs = bias_spike_costs(g, mset, tariff)
        for e in g.edges():
            wb, ws = edge_bias_spike(g, e, mset, tariff)
            assert costs.bias_of(e) == wb
            assert costs.spike_of(e) == ws
            assert ws >= 0.0
            if wb == INF:
                assert ws == 0.0
                checked_inf += 1
    assert checked_inf > 0


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
    assert costs.bias_of(Edge(0, 0)) == 5.0
    assert costs.spike_of(Edge(0, 0)) == 2.0


def test_zero_budget_means_zero_spikes(tiny_graph, tiny_tariff):
    fc = Forecast([14.0] * 4, [10.0] * 4, [2.0] * 4, [2.0] * 4)
    costs = bias_spike_costs(tiny_graph, mixed_set(fc, 1.0, 0.0), tiny_tariff)
    assert (costs.w_spike == 0.0).all()


def test_dead_edges_keep_zero_spike_and_drop_from_sweep(tiny_graph, tiny_tariff):
    # corner P=7 < 10 kW output with selling forbidden: on-keep is dead even
    # though the +4 spike alone would lift it back over the output level
    fc = Forecast([5.0] * 4, [10.0] * 4, [2.0] * 4, [2.0] * 4)
    costs = bias_spike_costs(tiny_graph, mixed_set(fc, 1.0, 2.0), tiny_tariff)
    assert costs.bias_of(Edge(0, 0)) == INF
    assert costs.spike_of(Edge(0, 0)) == 0.0
    finite = costs.finite_spike_values()
    assert finite.size > 0
    assert np.isfinite(finite).all()
    n_dead = sum(1 for e in tiny_graph.edges() if not np.isfinite(costs.bias_of(e)))
    assert n_dead == 4  # on-keep at each of the 4 slots
    assert finite.size == 24 - n_dead


def test_mixed_costs_reject_nonconvex_tariff(tiny_graph):
    bad_fn = PiecewiseLinearCost(None, (0.0, 10.0), (1.0, 0.2))
    heat = PiecewiseLinearCost(0.0, (0.0,), (0.1,))
    tariff = Tariff(15.0, 4, (bad_fn,), np.zeros(4, dtype=np.int32),
                    (heat,), np.zeros(4, dtype=np.int32))
    fc = Forecast([14.0] * 4, [10.0] * 4, [2.0] * 4, [2.0] * 4)
    mset = mixed_set(fc, 1.0, 2.0)
    with pytest.raises(ValueError, match="convexify"):
        bias_spike_costs(tiny_graph, mset, tariff)
    with pytest.raises(ValueError, match="convexify"):
        edge_bias_spike(tiny_graph, Edge(0, 0), mset, tariff)
    # the suggested opt-in actually unblocks the call
    bias_spike_costs(tiny_graph, mset, convexify(tariff))


def test_dump_graph_row_count(tiny_graph, tiny_tariff, tmp_path):
    fc = Forecast([14.0] * 4, [10.0] * 4, [2.0] * 4, [2.0] * 4)
    costs = bias_spike_costs(tiny_graph, mixed_set(fc, 1.0, 2.0), tiny_tariff)
    out = tmp_path / "g.txt"
    dump_graph(tiny_graph, str(out), costs)
    lines = [ln for ln in out.read_text().splitlines() if ln]
    assert lines[0].startswith("tail_t")
    assert len(lines) == tiny_graph.n_edges + 1


def test_spike_sizes_scale_with_sigma():
    rng = np.random.default_rng(31)
    fc = random_forecast(rng, 6)
    mset = mixed_set(fc, 0.5, 3.0)
    for t in range(6):
        if fc.sigma_power[t] > 0:
            assert mset.mu1 / mset.delta_p[t] == pytest.approx(3.0 * fc.sigma_power[t])
        else:
            assert not mset.spike_power[t]
