"""Demand profiles, day-ahead forecasts and demand uncertainty sets.

A demand profile holds one power and one heat trace (kW per step). Forecasts
reduce a stack of historical days to a per-step mean and population standard
deviation. Two uncertainty descriptions are supported:

* box: independent per-step intervals [mu - d, mu + d] around the forecast,
  with d = alpha * sigma;
* mixed: the box part plus a budgeted spike component. Spikes are weighted
  by delta = 1/sigma per step, and the total weighted spike mass is capped
  by a scalar budget mu1, so the adversary can concentrate mu1/delta(t) of
  extra demand on any single step t. Steps with sigma = 0 carry no spike at
  all (the forecaster is certain there).

Time step t of a profile covers wall-clock seconds
[t*step_seconds, (t+1)*step_seconds); files index steps from 0.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np


def _as_trace(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d sequence")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class DemandProfile:
    power_kw: np.ndarray
    heat_kw: np.ndarray

    def __post_init__(self):
        p = _as_trace(self.power_kw, "power_kw")
        h = _as_trace(self.heat_kw, "heat_kw")
        if len(p) != len(h):
            raise ValueError("power and heat traces differ in length")
        if (p < 0).any() or (h < 0).any():
            raise ValueError("demand must be non-negative")
        object.__setattr__(self, "power_kw", p)
        object.__setattr__(self, "heat_kw", h)

    @property
    def n_steps(self) -> int:
        return len(self.power_kw)


@dataclass(frozen=True, eq=False)
class Forecast:
    """Per-step mean and population sigma for both commodities."""

    mu_power: np.ndarray
    mu_heat: np.ndarray
    sigma_power: np.ndarray
    sigma_heat: np.ndarray

    def __post_init__(self):
        for name in ("mu_power", "mu_heat", "sigma_power", "sigma_heat"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))

    @property
    def n_steps(self) -> int:
        return len(self.mu_power)

    def mean_profile(self) -> DemandProfile:
        return DemandProfile(self.mu_power.copy(), self.mu_heat.copy())


@dataclass(frozen=True, eq=False)
class BoxSet:
    """Componentwise interval uncertainty: demand in [p0 - dp, p0 + dp] etc."""

    p0: np.ndarray
    h0: np.ndarray
    dp: np.ndarray
    dh: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.p0)


@dataclass(frozen=True, eq=False)
class MixedSet:
    """Box plus a budgeted single-commodity spike component.

    delta_p/delta_h are the budget weights (1/sigma); steps where the
    corresponding spike_power/spike_heat flag is False admit no spike and
    their delta is stored as +inf. mu1 is the shared spike budget, so an
    enabled step t can receive a spike of mu1 / delta(t) = mu1 * sigma(t).
    """

    p0: np.ndarray
    h0: np.ndarray
    dp: np.ndarray
    dh: np.ndarray
    delta_p: np.ndarray
    delta_h: np.ndarray
    mu1: float
    spike_power: np.ndarray
    spike_heat: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.p0)


def forecast_from_history(days: list[DemandProfile]) -> Forecast:
    """Mean/sigma per step over at least two equal-length historical days.

    Sigma is the population standard deviation (divide by n, not n-1).
    """
    if len(days) < 2:
        raise ValueError("need at least two historical days to forecast")
    n = days[0].n_steps
    if any(d.n_steps != n for d in days):
        raise ValueError("historical days differ in length")
    p = np.stack([d.power_kw for d in days])
    h = np.stack([d.heat_kw for d in days])
    return Forecast(
        mu_power=p.mean(axis=0),
        mu_heat=h.mean(axis=0),
        sigma_power=p.std(axis=0),
        sigma_heat=h.std(axis=0),
    )


def box_set(forecast: Forecast, alpha: float) -> BoxSet:
    """Box set with half-width alpha * sigma per step."""
    if not (alpha >= 0 and np.isfinite(alpha)):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha!r}")
    return BoxSet(
        p0=forecast.mu_power.copy(),
        h0=forecast.mu_heat.copy(),
        dp=alpha * forecast.sigma_power,
        dh=alpha * forecast.sigma_heat,
    )


def mixed_set(forecast: Forecast, alpha1: float, alpha2: float) -> MixedSet:
    """Mixed set: box half-width alpha1 * sigma, spike budget mu1 = alpha2.

    Budget weights are 1/sigma per step; sigma = 0 disables the spike for
    that step and commodity entirely (no scenario is generated there).
    """
    if not (alpha1 >= 0 and np.isfinite(alpha1)):
        raise ValueError(f"alpha1 must be finite and >= 0, got {alpha1!r}")
    if not (alpha2 >= 0 and np.isfinite(alpha2)):
        raise ValueError(f"alpha2 must be finite and >= 0, got {alpha2!r}")
    sp = forecast.sigma_power
    sh = forecast.sigma_heat
    with np.errstate(divide="ignore"):
        delta_p = np.where(sp > 0, 1.0 / np.where(sp > 0, sp, 1.0), np.inf)
        delta_h = np.where(sh > 0, 1.0 / np.where(sh > 0, sh, 1.0), np.inf)
    return MixedSet(
        p0=forecast.mu_power.copy(),
        h0=forecast.mu_heat.copy(),
        dp=alpha1 * sp,
        dh=alpha1 * sh,
        delta_p=delta_p,
        delta_h=delta_h,
        mu1=float(alpha2),
        spike_power=sp > 0,
        spike_heat=sh > 0,
    )


def worst_corner(box: BoxSet) -> DemandProfile:
    """Upper corner of a box set; the worst case under monotone edge costs."""
    if not isinstance(box, BoxSet):
        raise TypeError(f"worst_corner needs a BoxSet, got {type(box).__name__}")
    return DemandProfile(box.p0 + box.dp, box.h0 + box.dh)


def bias_profile(mset: MixedSet) -> DemandProfile:
    """Spikeless upper corner of the mixed set's box component."""
    if not isinstance(mset, MixedSet):
        raise TypeError(f"bias_profile needs a MixedSet, got {type(mset).__name__}")
    return DemandProfile(mset.p0 + mset.dp, mset.h0 + mset.dh)


DEMAND_HEADER = ["t", "power_kw", "heat_kw"]


def save_demand(profile: DemandProfile, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DEMAND_HEADER)
        for t in range(profile.n_steps):
            writer.writerow([t, repr(float(profile.power_kw[t])), repr(float(profile.heat_kw[t]))])


def load_demand(path: str) -> DemandProfile:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != DEMAND_HEADER:
            raise ValueError(f"{path}: expected header {','.join(DEMAND_HEADER)}")
        power, heat = [], []
        for i, row in enumerate(reader):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}: row {i + 2} has {len(row)} fields, expected 3")
            try:
                t, p, h = int(row[0]), float(row[1]), float(row[2])
            except ValueError as exc:
                raise ValueError(f"{path}: row {i + 2}: {exc}") from exc
            if t != len(power):
                raise ValueError(f"{path}: row {i + 2}: steps must run 0,1,2,... (got t={t})")
            power.append(p)
            heat.append(h)
    return DemandProfile(np.array(power), np.array(heat))


def load_history(dir_path: str) -> list[DemandProfile]:
    """Load every *.csv in a directory, in lexicographic filename order."""
    names = sorted(n for n in os.listdir(dir_path) if n.endswith(".csv"))
    if not names:
        raise ValueError(f"{dir_path}: no .csv files found")
    return [load_demand(os.path.join(dir_path, n)) for n in names]


def synthetic_day(
    rng: np.random.Generator,
    n_steps: int,
    step_seconds: float,
    power_base: float = 25.0,
    power_swing: float = 30.0,
    heat_base: float = 60.0,
    heat_swing: float = 90.0,
    noise_frac: float = 0.08,
) -> DemandProfile:
    """One plausible building day: morning and evening ridges plus noise."""
    hours = np.arange(n_steps) * step_seconds / 3600.0 % 24.0

    def bump(center, width):
        return np.exp(-0.5 * ((hours - center) / width) ** 2)

    power = power_base + power_swing * (0.6 * bump(8.5, 2.0) + bump(18.5, 2.5))
    heat = heat_base + heat_swing * (0.9 * bump(7.0, 2.0) + 0.7 * bump(20.0, 3.0))
    power = power + rng.normal(0.0, noise_frac * power_swing, n_steps)
    heat = heat + rng.normal(0.0, noise_frac * heat_swing, n_steps)
    return DemandProfile(np.maximum(power, 0.0), np.maximum(heat, 0.0))
