import dataclasses
import math

import numpy as np
import pytest

from mgtdispatch import (
    BoxSet,
    DemandProfile,
    Forecast,
    box_set,
    bias_profile,
    forecast_from_history,
    load_demand,
    load_history,
    mixed_set,
    save_demand,
    synthetic_day,
    worst_corner,
)


def _const_profile(p, h, n=3):
    return DemandProfile(np.full(n, float(p)), np.full(n, float(h)))


def test_forecast_mean_and_population_sigma():
    days = [_const_profile(10.0, 30.0), _const_profile(14.0, 30.0)]
    fc = forecast_from_history(days)
    assert np.allclose(fc.mu_power, 12.0)
    assert np.allclose(fc.sigma_power, 2.0)  # divide by n, not n-1
    assert np.allclose(fc.sigma_heat, 0.0)
    with pytest.raises(ValueError, match="two"):
        forecast_from_history([days[0]])
    with pytest.raises(ValueError, match="length"):
        forecast_from_history([days[0], _const_profile(1, 1, n=4)])


def test_forecast_validation():
    good = [14.0] * 4
    with pytest.raises(ValueError, match="non-negative"):
        Forecast(good, [10.0] * 4, [-2.0] * 4, [-2.0] * 4)
    with pytest.raises(ValueError, match="mu_heat must be non-negative"):
        Forecast(good, [10.0, -1.0, 10.0, 10.0], good, good)
    with pytest.raises(ValueError, match="differ in length"):
        Forecast(good, good, good, [1.0] * 3)
    with pytest.raises(ValueError, match="non-finite"):
        Forecast(good, good, [1.0, np.nan, 1.0, 1.0], good)
    with pytest.raises(ValueError, match="1-d"):
        Forecast(np.ones((2, 2)), good, good, good)
    fc = Forecast(good, good, [0.0] * 4, good)
    assert fc.n_steps == 4 and fc.sigma_power.dtype == np.float64


def test_box_halfwidth():
    fc = Forecast(np.full(2, 50.0), np.full(2, 60.0), np.full(2, 10.0), np.full(2, 4.0))
    b = box_set(fc, 0.13)
    assert np.allclose(b.dp, 1.3)
    assert np.allclose(b.dh, 0.52)
    corner = worst_corner(b)
    assert np.allclose(corner.power_kw, 51.3)
    with pytest.raises(ValueError):
        box_set(fc, -0.1)
    # a box built directly is checked as well: sequences become arrays, and
    # widths must be finite, non-negative and as long as the means
    assert (worst_corner(BoxSet([14.0] * 2, [20.0] * 2, [1.0] * 2, [0.0] * 2)).power_kw == 15.0).all()
    good = [np.full(2, v) for v in (14.0, 20.0, 2.0, 0.0)]
    for i, bad, match in ((2, [-4.0, 1.0], "dp must be non-negative"), (3, [0.0, -1.0], "dh must be non-negative"),
                          (2, [1.0, np.nan], "dp contains non-finite"), (3, [0.0], "differ in length")):
        with pytest.raises(ValueError, match=match):
            BoxSet(*good[:i], np.array(bad), *good[i + 1:])


def test_mixed_set_weights():
    fc = Forecast(np.full(2, 50.0), np.full(2, 60.0), np.full(2, 10.0), np.full(2, 4.0))
    m = mixed_set(fc, 0.03, 40.0)
    assert np.allclose(m.dp, 0.3)
    assert np.allclose(m.delta_p, 0.1)
    assert math.isclose(m.mu1 / m.delta_p[0], 400.0)  # mu1 / delta = mu1 * sigma
    assert math.isclose(m.mu1 / m.delta_h[1], 160.0)
    assert m.mu1 == 40.0
    # the box part is checked as for BoxSet, then the budget and its weights
    for field, bad, match in (("dp", np.array([-0.3, 0.3]), "dp must be non-negative"),
                              ("mu1", -2.0, "mu1 must be finite and >= 0"), ("mu1", np.nan, "mu1"),
                              ("delta_p", np.array([0.1, 0.0]), "delta_p must be > 0"),
                              ("delta_h", np.array([np.nan, 0.25]), "delta_h must be > 0"),
                              ("delta_p", np.full(3, 0.1), "one entry per step"),
                              ("delta_h", np.array([0.25]), "one entry per step")):
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(m, **{field: bad})
    assert dataclasses.replace(m, delta_h=[np.inf, 0.25]).delta_h.dtype == np.float64
    with pytest.raises(ValueError, match="alpha1"):
        mixed_set(fc, -1.0, 1.0)
    with pytest.raises(ValueError, match="mu1"):
        mixed_set(fc, 1.0, -1.0)


def test_sigma_zero_disables_spike():
    fc = Forecast(np.array([10.0, 10.0]), np.array([5.0, 5.0]),
                  np.array([0.0, 2.0]), np.array([1.0, 0.0]))
    m = mixed_set(fc, 1.0, 3.0)
    assert np.isinf(m.delta_p[0]) and np.isinf(m.delta_h[1])
    assert m.delta_p[1] == 0.5 and m.delta_h[0] == 1.0


def test_bias_corner_and_spike_sizes():
    fc = Forecast(np.array([20.0, 22.0]), np.array([30.0, 31.0]),
                  np.array([2.0, 10.0]), np.array([1.0, 1.0]))
    m = mixed_set(fc, 1.0, 4.0)
    bias = bias_profile(m)
    assert np.allclose(bias.power_kw, [22.0, 32.0])
    assert np.allclose(bias.heat_kw, [31.0, 32.0])
    # delta_p(1) = 0.1, so the step-1 power spike adds mu1/delta = 40
    assert math.isclose(m.mu1 / m.delta_p[1], 40.0)
    assert math.isclose(m.mu1 / m.delta_p[0], 8.0)


def test_zero_budget_means_bias_only():
    fc = Forecast(np.full(3, 10.0), np.full(3, 10.0), np.full(3, 1.0), np.full(3, 1.0))
    m = mixed_set(fc, 0.5, 0.0)
    assert m.mu1 == 0.0
    assert np.all(m.mu1 / m.delta_p == 0.0) and np.all(m.mu1 / m.delta_h == 0.0)
    assert np.allclose(bias_profile(m).power_kw, 10.5)


def test_type_guards():
    fc = Forecast(np.full(2, 10.0), np.full(2, 10.0), np.full(2, 1.0), np.full(2, 1.0))
    m = mixed_set(fc, 1.0, 1.0)
    with pytest.raises(TypeError):
        worst_corner(m)
    with pytest.raises(TypeError):
        bias_profile(box_set(fc, 1.0))


def test_profile_validation():
    with pytest.raises(ValueError, match="non-negative"):
        DemandProfile(np.array([1.0, -0.5]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="length"):
        DemandProfile(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="non-finite"):
        DemandProfile(np.array([1.0, np.nan]), np.array([1.0, 1.0]))


def test_demand_csv_roundtrip(tmp_path):
    d = DemandProfile(np.array([1.25, 0.0, 7.875]), np.array([3.5, 2.25, 0.125]))
    path = tmp_path / "day.csv"
    save_demand(d, str(path))
    text = path.read_text().splitlines()
    assert text[0] == "t,power_kw,heat_kw"
    assert text[1].startswith("0,")
    back = load_demand(str(path))
    assert (back.power_kw == d.power_kw).all()
    assert (back.heat_kw == d.heat_kw).all()


def test_demand_csv_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("time,p,h\n0,1,2\n")
    with pytest.raises(ValueError, match="header"):
        load_demand(str(bad_header))

    bad_seq = tmp_path / "b.csv"
    bad_seq.write_text("t,power_kw,heat_kw\n0,1,2\n2,1,2\n")
    with pytest.raises(ValueError, match="0,1,2"):
        load_demand(str(bad_seq))

    bad_field = tmp_path / "c.csv"
    bad_field.write_text("t,power_kw,heat_kw\n0,one,2\n")
    with pytest.raises(ValueError, match="row 2"):
        load_demand(str(bad_field))


def test_load_history_sorted(tmp_path):
    for i, val in ((2, 20.0), (1, 10.0)):
        save_demand(_const_profile(val, val), str(tmp_path / f"day0{i}.csv"))
    days = load_history(str(tmp_path))
    assert [d.power_kw[0] for d in days] == [10.0, 20.0]
    empty = tmp_path / "nope"
    empty.mkdir()
    with pytest.raises(ValueError, match="no .csv"):
        load_history(str(empty))


def test_synthetic_day_deterministic():
    a = synthetic_day(np.random.default_rng(5), 96, 900.0)
    b = synthetic_day(np.random.default_rng(5), 96, 900.0)
    assert a.n_steps == 96
    assert (a.power_kw == b.power_kw).all()
    assert (a.power_kw >= 0).all() and (a.heat_kw >= 0).all()
    c = synthetic_day(np.random.default_rng(6), 96, 900.0)
    assert not (a.power_kw == c.power_kw).all()
