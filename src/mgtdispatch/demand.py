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

Every trace is checked when built: finite, non-negative and of one length;
a mixed set's weights must be > 0 and its budget finite and >= 0. Both
sets own their corners (upper, lower). Time step t of a profile covers
wall-clock seconds [t*step_seconds, (t+1)*step_seconds); files index steps
from 0.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np


def _check_traces(obj, what: str, names) -> None:
    """Store each named field of obj as a float64 trace: non-empty, 1-d, finite, non-negative, one length."""
    for name in names:
        arr = np.asarray(getattr(obj, name), dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"{name} must be a non-empty 1-d sequence")
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contains non-finite entries")
        if (arr < 0).any():
            raise ValueError(f"{name} must be non-negative")
        object.__setattr__(obj, name, arr)
    if len({len(getattr(obj, name)) for name in names}) != 1:
        raise ValueError(f"{what} traces differ in length")


@dataclass(frozen=True, eq=False)
class DemandProfile:
    power_kw: np.ndarray
    heat_kw: np.ndarray

    def __post_init__(self):
        _check_traces(self, "demand", ("power_kw", "heat_kw"))

    @property
    def n_steps(self) -> int:
        return len(self.power_kw)


@dataclass(frozen=True, eq=False)
class Forecast:
    """Per-step mean and population sigma for both commodities.

    All four traces are finite, non-negative and of one length.
    """

    mu_power: np.ndarray
    mu_heat: np.ndarray
    sigma_power: np.ndarray
    sigma_heat: np.ndarray

    def __post_init__(self):
        _check_traces(self, "forecast", ("mu_power", "mu_heat", "sigma_power", "sigma_heat"))

    @property
    def n_steps(self) -> int:
        return len(self.mu_power)

    def mean_profile(self) -> DemandProfile:
        return DemandProfile(self.mu_power.copy(), self.mu_heat.copy())


@dataclass(frozen=True, eq=False)
class _Box:
    """Per-step intervals [p0 - dp, p0 + dp] and [h0 - dh, h0 + dh], all four traces checked."""

    p0: np.ndarray
    h0: np.ndarray
    dp: np.ndarray
    dh: np.ndarray

    def __post_init__(self):
        _check_traces(self, "uncertainty set", ("p0", "h0", "dp", "dh"))

    @property
    def n_steps(self) -> int:
        return len(self.p0)

    def upper(self) -> DemandProfile:
        """Upper corner of the intervals; the worst case when costs never fall as demand rises."""
        return DemandProfile(self.p0 + self.dp, self.h0 + self.dh)

    def lower(self) -> DemandProfile:
        """Lower corner of the intervals; demand stops at zero."""
        return DemandProfile(np.maximum(self.p0 - self.dp, 0.0), np.maximum(self.h0 - self.dh, 0.0))


@dataclass(frozen=True, eq=False)
class BoxSet(_Box):
    """Componentwise interval uncertainty: demand in [p0 - dp, p0 + dp] etc."""


@dataclass(frozen=True, eq=False)
class MixedSet(_Box):
    """Box plus a budgeted single-commodity spike component.

    delta_p/delta_h are the budget weights (1/sigma), +inf on a step and
    commodity that admits no spike. mu1 is the shared spike budget, so step
    t can receive a spike of mu1 / delta(t) = mu1 * sigma(t), which is 0
    where delta is +inf. Spikes only add demand, so the box's lower corner
    is the set's.
    """

    delta_p: np.ndarray
    delta_h: np.ndarray
    mu1: float

    def __post_init__(self):
        super().__post_init__()
        for name in ("delta_p", "delta_h"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (self.n_steps,):
                raise ValueError(f"{name} must hold one entry per step ({self.n_steps}), got shape {arr.shape}")
            if not (arr > 0).all():
                raise ValueError(f"{name} must be > 0 (+inf where no spike lands)")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "mu1", float(self.mu1))
        if not (self.mu1 >= 0 and np.isfinite(self.mu1)):
            raise ValueError(f"mu1 must be finite and >= 0, got {self.mu1!r}")


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
    sp = forecast.sigma_power
    sh = forecast.sigma_heat
    return MixedSet(
        p0=forecast.mu_power.copy(),
        h0=forecast.mu_heat.copy(),
        dp=alpha1 * sp,
        dh=alpha1 * sh,
        delta_p=np.divide(1.0, sp, out=np.full_like(sp, np.inf), where=sp > 0),
        delta_h=np.divide(1.0, sh, out=np.full_like(sh, np.inf), where=sh > 0),
        mu1=alpha2,
    )


def worst_corner(box: BoxSet) -> DemandProfile:
    """Upper corner of a box set; the worst case under monotone edge costs."""
    if not isinstance(box, BoxSet):
        raise TypeError(f"worst_corner needs a BoxSet, got {type(box).__name__}")
    return box.upper()


def bias_profile(mset: MixedSet) -> DemandProfile:
    """Spikeless upper corner of the mixed set's box component."""
    if not isinstance(mset, MixedSet):
        raise TypeError(f"bias_profile needs a MixedSet, got {type(mset).__name__}")
    return mset.upper()


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


def synthetic_day(rng: np.random.Generator, n_steps: int, step_seconds: float) -> DemandProfile:
    """One plausible building day: morning and evening ridges plus noise."""
    hours = np.arange(n_steps) * step_seconds / 3600.0 % 24.0
    power_swing, heat_swing, noise_frac = 30.0, 90.0, 0.08

    def bump(center, width):
        return np.exp(-0.5 * ((hours - center) / width) ** 2)

    power = 25.0 + power_swing * (0.6 * bump(8.5, 2.0) + bump(18.5, 2.5))
    heat = 60.0 + heat_swing * (0.9 * bump(7.0, 2.0) + 0.7 * bump(20.0, 3.0))
    power = power + rng.normal(0.0, noise_frac * power_swing, n_steps)
    heat = heat + rng.normal(0.0, noise_frac * heat_swing, n_steps)
    return DemandProfile(np.maximum(power, 0.0), np.maximum(heat, 0.0))
