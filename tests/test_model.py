import math

import pytest

from mgtdispatch import (
    SynthConfig,
    Transition,
    TurbineModel,
    cooldown_example,
    load_model,
    model_from_dict,
    save_model,
    synth_c65_like,
    validate_model,
)


def test_cooldown_shape(tiny_model):
    assert tiny_model.states == ("x_on", "x_off1", "x_off2", "x_off3+")
    assert len(tiny_model.transitions) == 6
    def successors(state):
        return [(tr.control, tr.to_state, tr.duration_steps)
                for tr in tiny_model.transitions if tr.from_state == state]

    assert successors("x_off1") == [("keep", "x_off2", 1)]
    assert successors("x_on") == [("keep", "x_on", 1), ("shutdown", "x_off1", 1)]
    assert validate_model(tiny_model) == []


def test_cooldown_costs():
    m = cooldown_example(p=12.0, h=30.0, on_cost=1.5, start_cost=0.7)
    on = [tr for tr in m.transitions if tr.from_state == "x_on"][0]
    assert (on.power_kw, on.heat_kw, on.op_cost) == (12.0, 30.0, 1.5)
    start = [tr for tr in m.transitions if tr.from_state == "x_off3+" and tr.control == "start"][0]
    assert start.op_cost == 0.7
    assert start.power_kw == 0.0


def _broken(states, transitions, step_seconds=15.0):
    return TurbineModel(step_seconds, states, tuple(transitions))


def test_validate_flags_problems():
    t = Transition("a", "keep", "a", 1, 1.0, 1.0, 0.0)
    assert validate_model(_broken(("a",), [t], step_seconds=0.0))
    assert any("unknown to_state" in p for p in validate_model(
        _broken(("a",), [Transition("a", "go", "b", 1, 0.0, 0.0, 0.0)])))
    assert any("duplicate control" in p for p in validate_model(_broken(("a",), [t, t])))
    assert any("duration_steps" in p for p in validate_model(
        _broken(("a",), [Transition("a", "keep", "a", 0, 0.0, 0.0, 0.0)])))
    assert any("power_kw" in p for p in validate_model(
        _broken(("a",), [Transition("a", "keep", "a", 1, -2.0, 0.0, 0.0)])))
    assert any("no controls" in p for p in validate_model(
        _broken(("a", "b"), [t])))
    assert any("op_cost" in p for p in validate_model(
        _broken(("a",), [Transition("a", "keep", "a", 1, 0.0, 0.0, float("nan"))])))


def test_synth_state_counts():
    assert synth_c65_like(1, 1).n_states == 2
    assert synth_c65_like(3, 2).n_states == 7
    assert synth_c65_like(30, 50).n_states == 1501


def test_synth_output_ranges():
    m = synth_c65_like(30, 50)
    keeps = [tr for tr in m.transitions if tr.control == "keep" and tr.from_state != "off"]
    powers = sorted({tr.power_kw for tr in keeps})
    heats = [tr.heat_kw for tr in keeps]
    assert math.isclose(powers[0], 5.0) and math.isclose(powers[-1], 65.0)
    assert math.isclose(min(heats), 27.0) and math.isclose(max(heats), 216.0)
    assert validate_model(m) == []


def test_synth_cycling_and_off():
    m = synth_c65_like(3, 2)
    start = [tr for tr in m.transitions if tr.control == "start"][0]
    shutdown = [tr for tr in m.transitions if tr.control == "shutdown"][0]
    # 360 s / 15 s and 180 s / 15 s
    assert (start.from_state, start.to_state, start.duration_steps) == ("off", "s00v00", 24)
    assert (shutdown.from_state, shutdown.to_state, shutdown.duration_steps) == ("s00v00", "off", 12)
    assert start.op_cost == 3.75 and shutdown.op_cost == 3.75
    assert start.power_kw == 0.0 and shutdown.heat_kw == 0.0
    off_keep = [tr for tr in m.transitions if tr.from_state == "off" and tr.control == "keep"][0]
    assert (off_keep.power_kw, off_keep.heat_kw, off_keep.op_cost) == (0.0, 0.0, 0.0)


def test_synth_fuel_pricing():
    cfg = SynthConfig()
    m = synth_c65_like(3, 2, cfg)
    keep = [tr for tr in m.transitions if tr.from_state == "s00v00" and tr.control == "keep"][0]
    # lowest speed, open valve: P = 5, H = 27 + 189 * 0.5 * (0 + 1)
    assert math.isclose(keep.power_kw, 5.0)
    assert math.isclose(keep.heat_kw, 27.0 + 189.0 * 0.5)
    fuel_kw = cfg.fuel_kw_base + cfg.fuel_kw_per_kw_power * keep.power_kw + cfg.fuel_kw_per_kw_heat * keep.heat_kw
    expected = cfg.gas_price_per_kwh * fuel_kw * cfg.step_seconds / 3600.0
    assert math.isclose(keep.op_cost, expected)


def test_synth_moves():
    m = synth_c65_like(3, 2)
    up = [tr for tr in m.transitions if tr.from_state == "s00v00" and tr.control == "speed+1"][0]
    assert up.to_state == "s01v00" and up.duration_steps == 2
    keep0 = [tr for tr in m.transitions if tr.from_state == "s00v00" and tr.control == "keep"][0]
    keep1 = [tr for tr in m.transitions if tr.from_state == "s01v00" and tr.control == "keep"][0]
    assert math.isclose(up.power_kw, 0.5 * (keep0.power_kw + keep1.power_kw))
    assert math.isclose(up.heat_kw, 0.5 * (keep0.heat_kw + keep1.heat_kw))
    # op cost is duration * fuel at the averaged output
    cfg = SynthConfig()
    fuel_kw = cfg.fuel_kw_base + cfg.fuel_kw_per_kw_power * up.power_kw + cfg.fuel_kw_per_kw_heat * up.heat_kw
    assert math.isclose(up.op_cost, 2 * cfg.gas_price_per_kwh * fuel_kw * cfg.step_seconds / 3600.0)
    down = [tr for tr in m.transitions if tr.from_state == "s01v00" and tr.control == "speed-1"][0]
    assert down.duration_steps == 1

    diag = [tr for tr in m.transitions if tr.control == "speed+1/valve+1"]
    assert diag and diag[0].duration_steps == 2
    no_diag = synth_c65_like(3, 2, SynthConfig(diagonal_moves=False))
    assert not [tr for tr in no_diag.transitions if "/" in tr.control]


def test_model_roundtrip(tmp_path, tiny_model):
    path = tmp_path / "model.json"
    save_model(tiny_model, str(path))
    back = load_model(str(path))
    assert back == tiny_model


def test_model_from_dict_rejects_garbage():
    with pytest.raises(ValueError, match="malformed"):
        model_from_dict({"states": ["a"], "transitions": [{"from": "a"}]})
    with pytest.raises(ValueError, match="malformed"):
        model_from_dict({"step_seconds": 15.0, "states": ["a"],
                         "transitions": [{"from": "a", "control": "k", "to": "a",
                                          "duration_steps": "x", "power_kw": 0, "heat_kw": 0, "op_cost": 0}]})
