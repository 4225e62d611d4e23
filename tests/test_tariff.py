import math

import numpy as np
import pytest

from mgtdispatch import (
    PiecewiseLinearCost,
    Tariff,
    TouConfig,
    check_convexity,
    convexify,
    flat_tariff,
    is_convex,
    load_tariff,
    save_tariff,
    tariff_from_dict,
    tariff_to_dict,
    tou_tariff,
)
from mgtdispatch.tariff import check_monotone, require_monotone
from instances import random_convex_fn

INF = float("inf")


def test_power_cost_examples():
    buy_only = flat_tariff(4, 15.0, 0.5, None, 0.1)
    assert buy_only.power_fn(0).value(4.0) == 2.0
    assert buy_only.power_fn(0).value(-1.0) == INF

    with_sell = flat_tariff(4, 15.0, 0.5, 0.5, 0.1)
    assert with_sell.power_fn(0).value(-4.0) == -2.0

    assert buy_only.heat_fn(0).value(10.0) == 1.0
    assert buy_only.heat_fn(0).value(-5.0) == 0.0
    assert buy_only.heat_fn(0).value(0.0) == 0.0


def test_piecewise_segments():
    fn = PiecewiseLinearCost(None, (0.0, 10.0), (1.0, 0.25))
    assert fn.value(0.0) == 0.0
    assert fn.value(10.0) == 10.0
    assert fn.value(14.0) == 11.0
    assert fn.value(5.0) == 5.0


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearCost(None, (1.0,), (0.5,))
    with pytest.raises(ValueError):
        PiecewiseLinearCost(None, (0.0, 5.0, 5.0), (0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        PiecewiseLinearCost(None, (0.0, 5.0), (0.1,))
    for bad in (math.nan, INF, -INF):
        with pytest.raises(ValueError, match="finite"):
            PiecewiseLinearCost(None, (0.0,), (bad,))
        with pytest.raises(ValueError, match="finite"):
            PiecewiseLinearCost(bad, (0.0,), (0.5,))
        with pytest.raises(ValueError, match="finite"):
            PiecewiseLinearCost(None, (0.0,), (0.5,), bad)
    with pytest.raises(ValueError, match="finite"):
        PiecewiseLinearCost(None, (0.0, INF), (0.1, 0.2))
    row = {"from_step": 0, "to_step": 2, "buy_per_kwh": math.nan, "sell_per_kwh": 0.1}
    with pytest.raises(ValueError, match="finite"):
        tariff_from_dict({"step_seconds": 900.0, "horizon_steps": 2, "power": [row],
                          "heat": {"buy_per_kwh": 0.07}})


def test_monotone_check_flags_negative_slopes():
    assert check_monotone(flat_tariff(3, 15.0, 0.5, 0.2, 0.1)) == []
    # forbidden selling is +inf below zero, but no slope is negative
    assert check_monotone(flat_tariff(3, 15.0, 0.5, None, 0.1)) == []
    report = check_monotone(flat_tariff(3, 15.0, 0.5, -0.2, 0.1))
    assert report == [f"t={t}: power cost falls as demand rises (slope -0.2)" for t in range(3)]
    neg_buy = flat_tariff(3, 15.0, -5.0, None, 0.1)
    assert is_convex(neg_buy) and len(check_monotone(neg_buy)) == 3
    with pytest.raises(ValueError, match="never fall"):
        require_monotone(neg_buy)
    require_monotone(flat_tariff(3, 15.0, 0.5, 0.0, 0.1))


def test_tou_peak_window():
    # 15 s steps: 10:00 is step 2400, peak holds through 19:59:45
    cfg = TouConfig(step_seconds=15.0, horizon_steps=5760, buy_peak_per_kwh=0.30,
                    buy_offpeak_per_kwh=0.12, heat_buy_per_kwh=0.0725)
    t = tou_tariff(cfg)
    per_step = 15.0 / 3600.0
    assert math.isclose(t.power_fn(2400).value(1.0), 0.30 * per_step)
    assert math.isclose(t.power_fn(2399).value(1.0), 0.12 * per_step)
    assert math.isclose(t.power_fn(4799).value(1.0), 0.30 * per_step)
    assert math.isclose(t.power_fn(4800).value(1.0), 0.12 * per_step)
    assert math.isclose(t.heat_fn(0).value(1.0), 0.0725 * per_step)


def test_tou_wrapping_window_and_heat_per_kg():
    cfg = TouConfig(step_seconds=3600.0, horizon_steps=24, buy_peak_per_kwh=0.4,
                    buy_offpeak_per_kwh=0.1, peak_start_hour=22.0, peak_end_hour=6.0,
                    sell_per_kwh="forbidden", heat_price_per_kg=13.1)
    t = tou_tariff(cfg)
    assert math.isclose(t.power_fn(23).value(1.0), 0.4)
    assert math.isclose(t.power_fn(3).value(1.0), 0.4)
    assert math.isclose(t.power_fn(12).value(1.0), 0.1)
    assert t.power_fn(12).value(-1.0) == INF
    # 13.1 $/kg at 13.1 kWh/kg -> 1 $/kWh -> 1 per kW-step at 1 h steps
    assert math.isclose(t.heat_fn(0).value(1.0), 1.0)


def test_vector_scalar_bit_parity():
    rng = np.random.default_rng(42)
    for _ in range(50):
        fn = random_convex_fn(rng)
        xs = np.concatenate([
            rng.uniform(-20.0, 50.0, 40),
            np.array([0.0, -0.0]),
            np.array(fn.breakpoints),
        ])
        va = fn.value_array(xs)
        for x, v in zip(xs, va):
            assert fn.value(float(x)) == v  # exact, not approx


def test_block_eval_matches_scalar():
    rng = np.random.default_rng(7)
    from instances import random_tariff

    for _ in range(20):
        n = int(rng.integers(2, 8))
        t = random_tariff(rng, n)
        x = rng.uniform(-10.0, 40.0, (5, n))
        pb = t.power_cost_block(x, 0)
        hb = t.heat_cost_block(x, 0)
        for r in range(5):
            for j in range(n):
                assert pb[r, j] == t.power_fn(j).value(float(x[r, j]))
                assert hb[r, j] == t.heat_fn(j).value(float(x[r, j]))


def test_monotone_for_nonnegative_slopes():
    # monotone holds on the finite domain; forbidden selling is +inf below 0,
    # so pairs for those functions are drawn from x >= 0 only
    rng = np.random.default_rng(3)
    for _ in range(200):
        fn = random_convex_fn(rng, nonneg=True)
        lo = 0.0 if fn.neg_slope is None else -5.0
        a, b = sorted(rng.uniform(lo, 45.0, 2))
        assert fn.value(float(a)) <= fn.value(float(b))


def test_convexity_check_and_report():
    good = flat_tariff(3, 15.0, 0.5, 0.2, 0.1)
    assert is_convex(good) and check_convexity(good) == []

    bad_fn = PiecewiseLinearCost(None, (0.0, 10.0), (1.0, 0.2))
    t = Tariff(15.0, 2, (bad_fn,), np.zeros(2, dtype=np.int32),
               (PiecewiseLinearCost(0.0),), np.zeros(2, dtype=np.int32))
    report = check_convexity(t)
    assert len(report) == 2
    assert report[0].startswith("t=0: power cost is non-convex")
    # selling above the buy rate is the classic non-convex case
    sell_high = flat_tariff(3, 15.0, 0.2, 0.5, 0.1)
    assert not is_convex(sell_high)


def test_convex_envelope_hand_case():
    fn = PiecewiseLinearCost(None, (0.0, 10.0), (1.0, 0.2))
    t = Tariff(15.0, 1, (fn,), np.zeros(1, dtype=np.int32),
               (PiecewiseLinearCost(0.0),), np.zeros(1, dtype=np.int32))
    env = convexify(t).power_functions[0]
    # the greatest convex minorant of (1.0 then 0.2) is the flat 0.2 line
    for x in (0.0, 3.0, 10.0, 25.0):
        assert math.isclose(env.value(x), 0.2 * x)
    assert env.value(-1.0) == INF
    assert is_convex(convexify(t))


def test_convex_envelope_properties():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(200):
        n_seg = int(rng.integers(2, 5))
        slopes = tuple(float(s) for s in rng.uniform(0.05, 1.0, n_seg))
        bps = (0.0, *sorted(float(b) for b in rng.uniform(1.0, 30.0, n_seg - 1)))
        neg = None if rng.random() < 0.5 else float(rng.uniform(0.0, 0.5))
        try:
            fn = PiecewiseLinearCost(neg, bps, slopes)
        except ValueError:
            continue
        t = Tariff(15.0, 1, (fn,), np.zeros(1, dtype=np.int32),
                   (PiecewiseLinearCost(0.0),), np.zeros(1, dtype=np.int32))
        if neg is not None and neg > slopes[-1]:
            with pytest.raises(ValueError, match="envelope"):
                convexify(t)
            continue
        env = convexify(t).power_functions[0]
        assert env.is_convex()
        for x in np.linspace(-5.0 if neg is not None else 0.0, 40.0, 60):
            assert env.value(float(x)) <= fn.value(float(x)) + 1e-9
        checked += 1
    assert checked > 50


def test_convexify_keeps_convex_functions():
    t = flat_tariff(3, 15.0, 0.5, 0.2, 0.1)
    assert convexify(t).power_functions[0] is t.power_functions[0]


def test_tariff_roundtrip(tmp_path):
    cfg = TouConfig(step_seconds=900.0, horizon_steps=96, buy_peak_per_kwh=0.3,
                    buy_offpeak_per_kwh=0.12, sell_per_kwh=0.05, heat_buy_per_kwh=0.0725)
    t = tou_tariff(cfg)
    path = tmp_path / "tariff.json"
    save_tariff(t, str(path))
    back = load_tariff(str(path))
    assert back.horizon_steps == t.horizon_steps
    for step in range(96):
        for x in (-3.0, 0.0, 2.5, 17.0):
            assert math.isclose(back.power_fn(step).value(x), t.power_fn(step).value(x))
        assert math.isclose(back.heat_fn(step).value(5.0), t.heat_fn(step).value(5.0))


def test_tariff_dict_validation():
    base = {"step_seconds": 900.0, "horizon_steps": 4,
            "power": [{"from_step": 0, "to_step": 4, "buy_per_kwh": 0.3, "sell_per_kwh": "forbidden"}],
            "heat": {"buy_per_kwh": 0.07}}
    t = tariff_from_dict(base)
    assert t.power_fn(0).value(-1.0) == INF

    gap = dict(base, power=[{"from_step": 0, "to_step": 2, "buy_per_kwh": 0.3, "sell_per_kwh": 0.1}])
    with pytest.raises(ValueError, match="unpriced"):
        tariff_from_dict(gap)
    overlap = dict(base, power=base["power"] + [{"from_step": 1, "to_step": 3, "buy_per_kwh": 0.2, "sell_per_kwh": 0.1}])
    with pytest.raises(ValueError, match="overlap"):
        tariff_from_dict(overlap)
    with pytest.raises(ValueError, match="malformed"):
        tariff_from_dict({"step_seconds": 900.0})

    multi = Tariff(900.0, 2,
                   (PiecewiseLinearCost(None, (0.0, 5.0), (0.1, 0.2)),), np.zeros(2, dtype=np.int32),
                   (PiecewiseLinearCost(0.0),), np.zeros(2, dtype=np.int32))
    with pytest.raises(ValueError, match="single-rate"):
        tariff_to_dict(multi)
