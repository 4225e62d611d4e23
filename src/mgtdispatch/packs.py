"""Builder for the bundled four-season evaluation pack.

A pack is a directory with one turbine model, a manifest, and one
subdirectory per season holding a tariff, two weeks of demand history, and
the realized day to score against:

    pack.json
    model.json
    <season>/tariff.json
    <season>/history/day01.csv ... day14.csv
    <season>/realized.csv

Seasons differ in heat load, price levels, and noise. Each realized day also
carries one unforecast demand spike inside the peak window, which is exactly
the event the budgeted uncertainty set is meant to absorb. Everything is
drawn from a seeded generator, so rebuilding a pack is reproducible.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from .demand import DemandProfile, save_demand, synthetic_day
from .model import SynthConfig, _number, save_model, synth_c65_like
from .tariff import TouConfig, save_tariff, tou_tariff

SEASONS = ("winter", "spring", "summer", "autumn")

_SEASON_SHAPE = {
    # heat_scale, power_scale, buy_peak, buy_offpeak, sell
    "winter": (1.5, 1.1, 0.34, 0.14, 0.06),
    "spring": (0.9, 1.0, 0.28, 0.12, 0.05),
    "summer": (0.45, 1.05, 0.26, 0.11, 0.04),
    "autumn": (1.1, 1.0, 0.30, 0.13, 0.05),
}


def _season_day(rng, season: str, n_steps: int, step_seconds: float) -> DemandProfile:
    heat_scale, power_scale, *_ = _SEASON_SHAPE[season]
    day = synthetic_day(rng, n_steps, step_seconds)
    return DemandProfile(day.power_kw * power_scale, day.heat_kw * heat_scale)


def build_four_season_pack(
    out_dir: str,
    *,
    n_steps: int = 96,
    step_seconds: float = 900.0,
    n_history_days: int = 14,
    seed: int = 20260816,
) -> dict:
    """Write the pack under out_dir and return its manifest."""
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)

    model = synth_c65_like(6, 5, SynthConfig(step_seconds=step_seconds))
    save_model(model, os.path.join(out_dir, "model.json"))

    for season in SEASONS:
        heat_scale, power_scale, peak, offpeak, sell = _SEASON_SHAPE[season]
        sdir = os.path.join(out_dir, season)
        hdir = os.path.join(sdir, "history")
        os.makedirs(hdir, exist_ok=True)

        tariff = tou_tariff(
            TouConfig(
                step_seconds=step_seconds,
                horizon_steps=n_steps,
                buy_peak_per_kwh=peak,
                buy_offpeak_per_kwh=offpeak,
                sell_per_kwh=sell,
                heat_buy_per_kwh=0.0725,
            )
        )
        save_tariff(tariff, os.path.join(sdir, "tariff.json"))

        for i in range(n_history_days):
            day = _season_day(rng, season, n_steps, step_seconds)
            save_demand(day, os.path.join(hdir, f"day{i + 1:02d}.csv"))

        realized = _season_day(rng, season, n_steps, step_seconds)
        # one unforecast surge inside the peak window
        peak_steps = [t for t in range(n_steps) if 10.0 <= (t * step_seconds / 3600.0) % 24 < 20.0]
        # short test packs may not reach the peak window; surge anywhere then
        hit = int(rng.choice(peak_steps if peak_steps else range(n_steps)))
        p = realized.power_kw.copy()
        h = realized.heat_kw.copy()
        p[hit] += 0.35 * p[hit] + 10.0
        h[hit] += 0.35 * h[hit] + 10.0
        save_demand(DemandProfile(p, h), os.path.join(sdir, "realized.csv"))

    manifest = {
        "format": "dispatch-pack-v1",
        "model": "model.json",
        "step_seconds": step_seconds,
        "n_steps": n_steps,
        "seasons": list(SEASONS),
        "alpha": 1.0,
        "alpha1": 0.5,
        "alpha2": 2.0,
        "seed": seed,
    }
    with open(os.path.join(out_dir, "pack.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest


def load_pack_manifest(pack_dir: str) -> dict:
    """Read pack_dir/pack.json, refusing a manifest that compare cannot replay."""
    path = os.path.join(pack_dir, "pack.json")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read pack manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != "dispatch-pack-v1":
        raise ValueError(f"{path} is not a dispatch pack manifest")
    if not isinstance(manifest.get("model"), str):
        raise ValueError(f"{path}: 'model' must be a file name string")
    seasons = manifest.get("seasons")
    if not (isinstance(seasons, list) and seasons and all(isinstance(s, str) for s in seasons)):
        raise ValueError(f"{path}: 'seasons' must be a non-empty list of season names")
    if repeated := _repeats(seasons):
        raise ValueError(f"{path}: 'seasons' lists {repeated} more than once")
    for key in ("alpha", "alpha1", "alpha2"):
        width = _number(manifest.get(key, 0.0), f"{path}: {key!r}")
        if not 0 <= width <= sys.float_info.max:
            raise ValueError(f"{path}: {key!r} must be a finite number >= 0, got {width!r}")
    return manifest


def _repeats(names: list[str]) -> str:
    """The names listed more than once, sorted and comma-separated; empty when none is."""
    return ", ".join(sorted({n for n in names if names.count(n) > 1}))


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else "data/four_season"
    m = build_four_season_pack(target)
    print(f"wrote pack with seasons {', '.join(m['seasons'])} to {target}")
