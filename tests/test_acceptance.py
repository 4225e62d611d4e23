"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured runtime against the stated budget.

Tolerances are part of the criteria and are stated inline; structural
counts are frozen numbers cross-checked against the independent reference
enumerator at run time.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from mgtdispatch import (
    DemandProfile,
    bias_spike_costs,
    box_set,
    build_graph,
    cooldown_example,
    mixed_set,
    path_cost_at,
    path_worstcase_cost,
    run_scaling,
    scenario_weights,
    solve_box,
    solve_mixed_additive,
    solve_mixed_exact,
    solve_mixed_multiplicative,
    solve_nominal,
    worst_corner,
)
from mgtdispatch.cli import main
from instances import random_instance
from oracles import brute_force_oracle, enumerate_paths
from reference import ref_count_nodes_edges, ref_count_paths

INF = float("inf")
REPO = Path(__file__).resolve().parent.parent


def _line(n, name, detail, elapsed, budget):
    print(f"criterion {n} ({name}): PASS - {detail} [{elapsed:.1f}s < {budget:.0f}s]")


def _build(inst):
    return build_graph(inst["model"], inst["horizon"],
                       initial=inst["initial"], final=inst["final"])


def test_criterion_1_oracle_equivalence():
    """Exact sweep == exhaustive path/scenario enumeration, 1e-9 relative."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n_feasible = 0
    for _ in range(200):
        inst = random_instance(rng, max_horizon=8, max_states=6)
        g = _build(inst)
        mset = mixed_set(inst["forecast"], float(rng.uniform(0.0, 1.5)),
                         float(rng.uniform(0.0, 3.0)))
        tariff = inst["tariff"]  # convex by construction
        ex = solve_mixed_exact(g, mset, tariff)
        bf = brute_force_oracle(g, mset, tariff)
        assert ex.feasible == bf.feasible
        if not ex.feasible:
            continue
        n_feasible += 1
        assert ex.worst_case_cost == pytest.approx(
            bf.worst_case_cost, rel=1e-9, abs=1e-12)
        ex_wc, _ = path_worstcase_cost(g, ex.path, mset, tariff)
        bf_wc, _ = path_worstcase_cost(g, bf.path, mset, tariff)
        assert ex_wc == pytest.approx(bf_wc, rel=1e-9, abs=1e-12)
    elapsed = time.perf_counter() - t0
    assert n_feasible >= 100
    assert elapsed < 60.0
    _line(1, "oracle equivalence", f"200 instances, {n_feasible} feasible, "
          "cost and path worst case within 1e-9", elapsed, 60)


def test_criterion_2_box_reduction():
    """Box solve == nominal at the corner; corner cost dominates the box."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    n_feasible = 0
    n_samples = 0
    for _ in range(200):
        # dominance relies on monotone costs, so selling is never forbidden
        inst = random_instance(rng, monotone=True)
        g = _build(inst)
        bset = box_set(inst["forecast"], float(rng.uniform(0.0, 2.0)))
        box = solve_box(g, bset, tariff := inst["tariff"])
        corner = worst_corner(bset)
        nom = solve_nominal(g, corner, tariff)
        assert box.feasible == nom.feasible
        if not box.feasible:
            continue
        n_feasible += 1
        assert box.path.nodes == nom.path.nodes
        assert box.worst_case_cost == nom.worst_case_cost
        n = corner.n_steps
        for _ in range(100):
            u_p = rng.uniform(-1.0, 1.0, n)
            u_h = rng.uniform(-1.0, 1.0, n)
            sample = DemandProfile(
                np.maximum(bset.p0[:n] + u_p * bset.dp[:n], 0.0),
                np.maximum(bset.h0[:n] + u_h * bset.dh[:n], 0.0),
            )
            # in-box demand never prices the chosen path above the corner
            assert path_cost_at(g, box.path, sample, tariff) <= box.worst_case_cost
            n_samples += 1
    elapsed = time.perf_counter() - t0
    assert n_feasible >= 100
    assert elapsed < 60.0
    _line(2, "box reduction", f"200 instances, {n_feasible} feasible, "
          f"{n_samples} in-box samples dominated", elapsed, 60)


def test_criterion_3_approximation_sandwiches():
    """V* <= V_add <= V*+eps and V* <= V_mul <= (1+mu)V*, zero violations."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    epsilons = (0.05, 0.5, 2.0)
    mus = (0.1, 0.5, 1.0)
    n_finite = 0
    for _ in range(100):
        # buy-only tariffs keep V* >= 0, which the multiplicative bound needs
        inst = random_instance(rng, nonneg=True)
        g = _build(inst)
        mset = mixed_set(inst["forecast"], float(rng.uniform(0.0, 1.0)),
                         float(rng.uniform(0.0, 2.5)))
        tariff = inst["tariff"]
        v_star = solve_mixed_exact(g, mset, tariff).worst_case_cost
        if np.isfinite(v_star):
            n_finite += 1
            assert v_star >= 0.0
        for eps in epsilons:
            v_add = solve_mixed_additive(g, mset, tariff, epsilon=eps).worst_case_cost
            assert v_star <= v_add <= v_star + eps + 1e-9 * max(1.0, abs(v_star))
        for mu in mus:
            v_mul = solve_mixed_multiplicative(g, mset, tariff, mu=mu).worst_case_cost
            assert v_star <= v_mul
            if np.isfinite(v_star):
                assert v_mul <= (1.0 + mu) * v_star + 1e-9 * max(1.0, v_star)
            else:
                assert v_mul == INF
    elapsed = time.perf_counter() - t0
    assert n_finite >= 50
    assert elapsed < 120.0
    _line(3, "approximation sandwiches", f"100 instances x {len(epsilons)} eps "
          f"x {len(mus)} mu, {n_finite} finite optima, zero violations",
          elapsed, 120)


def test_criterion_4_monotonicity_and_spikes():
    """w_e(xi1) <= w_e(xi2) on 10,000 on-domain pairs; every w_spike >= 0.

    A pair is on-domain when the lower scenario prices the edge finite;
    forbidden selling makes low demand infinite, which the invariant
    explicitly exempts. Comparisons carry no float slack: piecewise
    evaluation and summation are monotone operations.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    n_pairs = 0
    n_instances = 0
    n_spikes = 0
    while n_pairs < 10_000:
        inst = random_instance(rng)
        g = _build(inst)
        n_instances += 1
        n = g.n_priced_steps
        for _ in range(4):
            p1 = rng.uniform(0.0, 35.0, n)
            h1 = rng.uniform(0.0, 45.0, n)
            d1 = DemandProfile(p1, h1)
            d2 = DemandProfile(p1 + rng.uniform(0.0, 10.0, n),
                               h1 + rng.uniform(0.0, 10.0, n))
            w1 = scenario_weights(g, d1, inst["tariff"])
            w2 = scenario_weights(g, d2, inst["tariff"])
            mask = np.isfinite(w1)
            assert (w1[mask] <= w2[mask]).all()
            n_pairs += int(mask.sum())
        mset = mixed_set(inst["forecast"], float(rng.uniform(0.0, 1.0)),
                         float(rng.uniform(0.0, 2.0)))
        costs = bias_spike_costs(g, mset, inst["tariff"])
        assert (costs.w_spike >= 0.0).all()
        n_spikes += costs.w_spike.size
    elapsed = time.perf_counter() - t0
    assert n_instances >= 20
    assert elapsed < 30.0
    _line(4, "monotonicity and spikes", f"{n_pairs} on-domain (edge, xi1<=xi2) "
          f"pairs across {n_instances} instances, {n_spikes} spike costs >= 0",
          elapsed, 30)


def test_criterion_5_cooldown_structure():
    """Frozen node/edge/path counts for the 4-state cooldown plant at T=5."""
    t0 = time.perf_counter()
    model = cooldown_example()
    g = build_graph(model, 5)
    counts = (g.n_nodes, g.n_edges, len(list(enumerate_paths(g))))
    assert counts == (22, 32, 28)
    assert ref_count_nodes_edges(model, 5) == (22, 32)
    assert ref_count_paths(model, 5) == 28
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _line(5, "cooldown structure", "nodes/edges/paths = 22/32/28, reference "
          "enumeration agrees", elapsed, 1)


def test_criterion_6_scaling():
    """Per-doubling runtime ratio in [1.2, 3.5]; grid-30 mixed at T=5760."""
    t0 = time.perf_counter()
    rows = run_scaling([1440, 2880, 5760], mixed_grid_n=30)
    assert [r["horizon"] for r in rows] == [1440, 2880, 5760]
    assert rows[-1]["n_edges"] > 10**6
    ratios = []
    for kind in ("nominal_s", "box_s"):
        for a, b in zip(rows, rows[1:]):
            r = b[kind] / a[kind]
            ratios.append((kind, r))
            assert 1.2 <= r <= 3.5, f"{kind} doubling ratio {r:.2f} off band"
    assert "mixed_s" in rows[-1]
    assert rows[-1]["mixed_s"] < 600.0
    assert np.isfinite(rows[-1]["mixed_cost"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    detail = ", ".join(f"{k}x{r:.2f}" for k, r in ratios)
    _line(6, "scaling", f"{detail}; mixed grid-30 at 5760 in "
          f"{rows[-1]['mixed_s']:.1f}s", elapsed, 600)


def test_criterion_7_robust_dominance():
    """Exact mixed worst case never exceeds the nominal path's worst case."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(113)
    n_compared = 0
    for _ in range(200):
        inst = random_instance(rng)
        g = _build(inst)
        mset = mixed_set(inst["forecast"], float(rng.uniform(0.0, 1.5)),
                         float(rng.uniform(0.0, 3.0)))
        tariff = inst["tariff"]
        ex = solve_mixed_exact(g, mset, tariff)
        nom = solve_nominal(g, inst["forecast"].mean_profile(), tariff)
        if not nom.feasible:
            # no nominal path to dominate (possible under forbidden selling:
            # the mean is unservable while the higher bias corner is fine)
            continue
        nom_wc, _ = path_worstcase_cost(g, nom.path, mset, tariff)
        assert ex.worst_case_cost <= nom_wc
        n_compared += 1
    elapsed = time.perf_counter() - t0
    assert n_compared >= 100
    assert elapsed < 30.0
    _line(7, "robust dominance", f"{n_compared} instances, exact <= nominal "
          "path worst case throughout", elapsed, 30)


def test_criterion_8_four_season_report(tmp_path):
    """Shipped pack compare: benchmark floor and recomputable reductions."""
    t0 = time.perf_counter()
    pack = REPO / "data" / "four_season"
    assert pack.is_dir(), "shipped pack missing"
    out = tmp_path / "report.json"
    rc = main(["compare", "--pack", str(pack), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert [c["name"] for c in report["cases"]] == \
        ["winter", "spring", "summer", "autumn"]
    for case in report["cases"]:
        algos = {a["name"]: a for a in case["algorithms"]}
        assert set(algos) == {"benchmark", "nominal", "box", "mixed"}
        bench = algos["benchmark"]["realized_cost"]
        hedge = algos["nominal"]["realized_cost"]
        for a in case["algorithms"]:
            assert a["feasible"] is True
            assert a["realized_cost"] >= bench
        margin = hedge - bench
        assert margin >= 0.0
        for a in case["algorithms"]:
            red = a["reduction_pct"]
            if margin > 0.0:
                want = 100.0 * (hedge - a["realized_cost"]) / margin
                assert red == pytest.approx(want, rel=1e-9, abs=1e-9)
            else:
                assert red is None
    elapsed = time.perf_counter() - t0
    _line(8, "four-season report", "4 cases, benchmark floor holds, "
          "reductions recompute exactly", elapsed, 120)
    assert elapsed < 120.0
