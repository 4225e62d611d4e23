"""Random problem instances for property and acceptance tests.

Models get a one-step self-loop in every state so layer-exact feasibility is
common but not guaranteed (extra transitions have random durations, and
specific initial/final picks can still be unreachable). Tariffs are drawn
convex by construction; pass nonneg=True to exclude selling so all edge
costs stay non-negative, or monotone=True to keep every cost function
finite and non-decreasing on the whole real line (sell price >= 0, never
forbidden). synth_plant builds the synthetic plant on a seeded day with its
time-of-use tariffs, for the block and memory tests, and pack_season one
season of the committed four-season pack.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from mgtdispatch import (
    Forecast,
    PiecewiseLinearCost,
    SynthConfig,
    Tariff,
    TouConfig,
    Transition,
    TurbineModel,
    build_graph,
    forecast_from_history,
    load_history,
    load_model,
    load_pack_manifest,
    load_tariff,
    mixed_set,
    synth_c65_like,
    synthetic_day,
    tou_tariff,
)

PACK = Path(__file__).resolve().parents[1] / "data" / "four_season"


def random_convex_fn(rng, *, nonneg=False, monotone=False, heat=False) -> PiecewiseLinearCost:
    n_seg = int(rng.integers(1, 4))
    slopes = np.sort(rng.uniform(0.02, 1.0, n_seg))
    bps = [0.0]
    if n_seg > 1:
        bps += sorted(rng.uniform(1.0, 30.0, n_seg - 1).tolist())
    if heat:
        neg = 0.0
    elif monotone:
        neg = 0.0 if rng.random() < 0.3 else float(slopes[0] * rng.uniform(0.2, 1.0))
    elif nonneg:
        neg = None if rng.random() < 0.4 else 0.0
    else:
        r = rng.random()
        if r < 0.35:
            neg = None
        elif r < 0.55:
            neg = 0.0
        else:
            neg = float(slopes[0] * rng.uniform(0.2, 1.0))
    return PiecewiseLinearCost(neg, tuple(bps), tuple(float(s) for s in slopes))


def random_tariff(rng, n_steps: int, step_seconds: float = 15.0, *,
                  nonneg=False, monotone=False) -> Tariff:
    pfs = tuple(random_convex_fn(rng, nonneg=nonneg, monotone=monotone)
                for _ in range(int(rng.integers(1, 4))))
    hfs = tuple(random_convex_fn(rng, heat=True) for _ in range(int(rng.integers(1, 3))))
    p_idx = rng.integers(0, len(pfs), n_steps).astype(np.int32)
    h_idx = rng.integers(0, len(hfs), n_steps).astype(np.int32)
    return Tariff(step_seconds, n_steps, pfs, p_idx, hfs, h_idx)


def random_model(rng, *, max_states: int = 6, step_seconds: float = 15.0) -> TurbineModel:
    n = int(rng.integers(2, max_states + 1))
    states = tuple(f"x{i}" for i in range(n))

    def outputs():
        p = float(rng.uniform(0.0, 30.0)) if rng.random() > 0.2 else 0.0
        h = float(rng.uniform(0.0, 40.0)) if rng.random() > 0.2 else 0.0
        return p, h

    trs = []
    for i, s in enumerate(states):
        p, h = outputs()
        trs.append(Transition(s, "keep", s, 1, p, h, float(rng.uniform(0.0, 4.0))))
        for e in range(int(rng.integers(0, 3))):
            j = int(rng.integers(0, n))
            p, h = outputs()
            trs.append(
                Transition(s, f"u{e}", states[j], int(rng.integers(1, 4)), p, h,
                           float(rng.uniform(0.0, 4.0)))
            )
    return TurbineModel(step_seconds, states, tuple(trs))


def random_forecast(rng, n_steps: int) -> Forecast:
    mu_p = rng.uniform(5.0, 40.0, n_steps)
    mu_h = rng.uniform(5.0, 50.0, n_steps)
    sig_p = np.where(rng.random(n_steps) < 0.2, 0.0, rng.uniform(0.5, 6.0, n_steps))
    sig_h = np.where(rng.random(n_steps) < 0.2, 0.0, rng.uniform(0.5, 6.0, n_steps))
    return Forecast(mu_p, mu_h, sig_p, sig_h)


def random_instance(rng, *, nonneg=False, monotone=False,
                    max_horizon: int = 8, max_states: int = 6) -> dict:
    """One random dispatch problem: model, tariff, forecast, endpoint picks."""
    horizon = int(rng.integers(3, max_horizon + 1))
    model = random_model(rng, max_states=max_states)
    n_steps = horizon - 1
    tariff_steps = n_steps if rng.random() < 0.7 else n_steps + int(rng.integers(1, 4))
    tariff = random_tariff(rng, tariff_steps, model.step_seconds,
                           nonneg=nonneg, monotone=monotone)
    forecast = random_forecast(rng, n_steps)

    def pick_states():
        if rng.random() < 0.8:
            return "any"
        return model.states[int(rng.integers(0, len(model.states)))]

    return {
        "model": model,
        "tariff": tariff,
        "forecast": forecast,
        "horizon": horizon,
        "initial": pick_states(),
        "final": pick_states(),
    }


def synth_plant(horizon: int, n_speeds: int = 3, n_valves: int = 4, peak_hours=(10.0, 20.0)):
    """(graph, forecast, {sell option: tariff}) for the synthetic plant on a seeded day.

    The day starts at midnight, so a short horizon needs an early peak
    window (peak_hours) to cross a time-of-use boundary.
    """
    step_s = 15.0
    day = synthetic_day(np.random.default_rng(7), horizon - 1, step_s)
    fc = Forecast(day.power_kw, day.heat_kw, np.maximum(0.08 * day.power_kw, 0.5),
                  np.maximum(0.08 * day.heat_kw, 0.5))
    g = build_graph(synth_c65_like(n_speeds, n_valves, SynthConfig(step_seconds=step_s)), horizon)
    return g, fc, {sell: tou_tariff(TouConfig(step_seconds=step_s, horizon_steps=horizon - 1,
                                              buy_peak_per_kwh=0.30, buy_offpeak_per_kwh=0.12,
                                              sell_per_kwh=sell, heat_buy_per_kwh=0.0725,
                                              peak_start_hour=peak_hours[0], peak_end_hour=peak_hours[1]))
                   for sell in (0.05, "forbidden")}


def pack_season(season: str, alpha2: float | None = None):
    """(graph, mixed set, tariff) of one pack season at the manifest widths, or at another alpha2."""
    manifest = load_pack_manifest(str(PACK))
    model = load_model(str(PACK / manifest["model"]))
    tariff = load_tariff(str(PACK / season / "tariff.json"))
    forecast = forecast_from_history(load_history(str(PACK / season / "history")))
    graph = build_graph(model, forecast.n_steps + 1)
    alpha2 = manifest["alpha2"] if alpha2 is None else alpha2
    return graph, mixed_set(forecast, manifest["alpha1"], alpha2), tariff
