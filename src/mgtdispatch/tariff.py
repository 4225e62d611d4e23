"""Per-step utility pricing.

Purchases from the utility are priced per time step by piecewise-linear
functions of the exchanged amount x (kW held over the step, positive =
buying). Power steps may sell back (x < 0) at a dedicated rate, or forbid
selling, which prices x < 0 at +inf. Heat never earns anything: surplus heat
(x <= 0) is vented for free.

Slopes are stored in currency per kW-step; a $/kWh rate r converts as
r * step_seconds / 3600. Evaluations use a clamped segment-width sum so the
result is exactly non-decreasing in x whenever all slopes are non-negative,
which the robust machinery relies on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .model import _int_field

INF = float("inf")


@dataclass(frozen=True)
class PiecewiseLinearCost:
    """Continuous piecewise-linear cost of one step's exchange x.

    neg_slope prices x < 0 (None = forbidden, +inf). breakpoints must be
    ascending and start at 0.0; slopes[i] applies on
    [breakpoints[i], breakpoints[i+1]), the last slope extends to +inf.
    The cost at x = 0 is 0. All numbers must be finite.
    """

    neg_slope: float | None
    breakpoints: tuple[float, ...] = (0.0,)
    slopes: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if len(self.breakpoints) != len(self.slopes):
            raise ValueError("need one slope per breakpoint")
        if not self.breakpoints or self.breakpoints[0] != 0.0:
            raise ValueError("breakpoints must start at 0.0")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly ascending")
        if not all(math.isfinite(v) for v in (*self.slope_sequence(), *self.breakpoints)):
            raise ValueError(f"cost function needs finite numbers, got {self}")

    def value(self, x: float) -> float:
        if x < 0.0:
            return INF if self.neg_slope is None else self.neg_slope * x
        total = 0.0
        bps, sl = self.breakpoints, self.slopes
        for i, s in enumerate(sl):
            hi = bps[i + 1] if i + 1 < len(bps) else INF
            w = min(x, hi) - bps[i]
            if w <= 0.0:
                break
            total += s * w
        return total

    def value_array(self, x: np.ndarray) -> np.ndarray:
        """Vectorized value(); bit-identical to the scalar path per element."""
        x = np.asarray(x, dtype=np.float64)
        total = np.zeros(x.shape, dtype=np.float64)
        bps, sl = self.breakpoints, self.slopes
        w = np.empty_like(total)
        for i, s in enumerate(sl):
            hi = bps[i + 1] if i + 1 < len(bps) else INF
            np.minimum(x, hi, out=w)
            w -= bps[i]
            np.maximum(w, 0.0, out=w)
            w *= s
            total += w
        if self.neg_slope is None:
            return np.where(x < 0.0, INF, total)
        np.multiply(x, self.neg_slope, out=w)
        return np.where(x < 0.0, w, total)

    def slope_sequence(self) -> tuple[float, ...]:
        """Slopes left to right across the whole domain (sell branch first)."""
        if self.neg_slope is None:
            return self.slopes
        return (self.neg_slope,) + self.slopes


@dataclass(frozen=True, eq=False)
class Tariff:
    """Per-step power and heat cost functions over a fixed horizon.

    Functions are deduplicated: *_index maps each step to an entry of
    *_functions, so time-of-use tariffs stay cheap to store and evaluate.
    """

    step_seconds: float
    horizon_steps: int
    power_functions: tuple[PiecewiseLinearCost, ...]
    power_index: np.ndarray
    heat_functions: tuple[PiecewiseLinearCost, ...]
    heat_index: np.ndarray

    def __post_init__(self):
        for label, functions, index in (("power", self.power_functions, self.power_index),
                                        ("heat", self.heat_functions, self.heat_index)):
            index = np.asarray(index)
            if index.shape != (self.horizon_steps,):
                raise ValueError(f"{label} function index must have horizon_steps = {self.horizon_steps} entries")
            if index.dtype.kind not in "iu" or (index.size and not 0 <= index.min() <= index.max() < len(functions)):
                raise ValueError(f"{label} function index must hold integers in [0, {len(functions)})")
            object.__setattr__(self, f"{label}_index", index)

    def power_fn(self, t: int) -> PiecewiseLinearCost:
        return self.power_functions[self.power_index[t]]

    def heat_fn(self, t: int) -> PiecewiseLinearCost:
        return self.heat_functions[self.heat_index[t]]

    def power_cost_block(self, x: np.ndarray, t0: int) -> np.ndarray:
        """Evaluate power cost for a (rows, width) block of exchanges.

        Column j of x belongs to step t0 + j. Evaluates each run of steps
        sharing one cost function as a slice, so a TOU day costs an
        evaluation per peak or off-peak window.
        """
        return _eval_block(x, self.power_functions, self.power_index, t0)

    def heat_cost_block(self, x: np.ndarray, t0: int) -> np.ndarray:
        return _eval_block(x, self.heat_functions, self.heat_index, t0)


def _runs(idx: np.ndarray) -> list[tuple[int, int]]:
    """[start, stop) of each run of equal entries in a function index, in order."""
    starts = np.flatnonzero(np.diff(idx, prepend=-1)).tolist()
    return list(zip(starts, starts[1:] + [len(idx)]))


def _eval_block(x: np.ndarray, functions, index: np.ndarray, t0: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    idx = index[t0:t0 + x.shape[-1]]
    out = np.empty_like(x)
    for a, b in _runs(idx):
        out[..., a:b] = functions[idx[a]].value_array(x[..., a:b])
    return out


def _flag_steps(tariff: Tariff, flag) -> list[str]:
    """One line per step whose cost function flag(fn) describes (None when fine), power steps first."""
    report: list[str] = []
    for label, functions, index in (("power", tariff.power_functions, tariff.power_index),
                                    ("heat", tariff.heat_functions, tariff.heat_index)):
        notes = [flag(fn) for fn in functions]
        report += [f"t={t}: {label} cost {notes[fi]}" for t, fi in enumerate(index.tolist()) if notes[fi]]
    return report


def check_convexity(tariff: Tariff) -> list[str]:
    """Report every step whose cost function is not convex.

    A step is flagged when its slope sequence (sell slope first, then buy
    slopes in order) decreases anywhere; selling above the purchase rate is
    the common offender.
    """

    def bend(fn: PiecewiseLinearCost) -> str | None:
        seq = fn.slope_sequence()
        for a, b in zip(seq, seq[1:]):
            if b < a:
                return f"is non-convex (slope drops from {a} to {b})"
        return None

    return _flag_steps(tariff, bend)


def check_monotone(tariff: Tariff) -> list[str]:
    """Report every step whose cost falls as demand rises (any negative slope).

    The box and mixed solvers take the upper demand corner as the worst
    case; a flagged step can make that corner cheaper than another.
    """

    def fall(fn: PiecewiseLinearCost) -> str | None:
        low = min(fn.slope_sequence())
        return f"falls as demand rises (slope {low})" if low < 0.0 else None

    return _flag_steps(tariff, fall)


def require_monotone(tariff: Tariff) -> None:
    """Raise ValueError when check_monotone flags any step."""
    falls = check_monotone(tariff)
    if falls:
        raise ValueError(f"box and mixed solvers need costs that never fall as demand rises; "
                         f"{len(falls)} step(s) do, first {falls[0]}")


@dataclass(frozen=True)
class TouConfig:
    """Time-of-use tariff: one peak window per day, flat heat price.

    The peak window is [peak_start_hour, peak_end_hour) in hours of the day;
    step t covers wall-clock seconds [t*step_seconds, (t+1)*step_seconds).
    sell_per_kwh may be "same" (buy rate of the step), "forbidden", or a rate.
    """

    step_seconds: float
    horizon_steps: int
    buy_peak_per_kwh: float
    buy_offpeak_per_kwh: float
    heat_buy_per_kwh: float
    peak_start_hour: float = 10.0
    peak_end_hour: float = 20.0
    sell_per_kwh: float | str = "same"


def tou_tariff(config: TouConfig) -> Tariff:
    """Build the per-step tariff for a daily peak/off-peak price pair."""
    dt = config.step_seconds
    per_step = dt / 3600.0

    def sell_slope(buy_rate: float) -> float | None:
        if config.sell_per_kwh == "same":
            return buy_rate * per_step
        if config.sell_per_kwh == "forbidden":
            return None
        return float(config.sell_per_kwh) * per_step

    peak = PiecewiseLinearCost(sell_slope(config.buy_peak_per_kwh), (0.0,), (config.buy_peak_per_kwh * per_step,))
    off = PiecewiseLinearCost(sell_slope(config.buy_offpeak_per_kwh), (0.0,), (config.buy_offpeak_per_kwh * per_step,))

    hours = (np.arange(config.horizon_steps, dtype=np.float64) * dt / 3600.0) % 24.0
    if config.peak_start_hour <= config.peak_end_hour:
        in_peak = (hours >= config.peak_start_hour) & (hours < config.peak_end_hour)
    else:
        in_peak = (hours >= config.peak_start_hour) | (hours < config.peak_end_hour)
    power_index = np.where(in_peak, 0, 1).astype(np.int32)

    heat_fn = PiecewiseLinearCost(0.0, (0.0,), (config.heat_buy_per_kwh * per_step,))
    heat_index = np.zeros(config.horizon_steps, dtype=np.int32)
    return Tariff(dt, config.horizon_steps, (peak, off), power_index, (heat_fn,), heat_index)


def flat_tariff(
    horizon_steps: int,
    step_seconds: float,
    power_buy_slope: float,
    power_sell_slope: float | None,
    heat_buy_slope: float,
) -> Tariff:
    """Single-rate tariff given directly in currency per kW-step (test helper)."""
    pf = PiecewiseLinearCost(power_sell_slope, (0.0,), (power_buy_slope,))
    hf = PiecewiseLinearCost(0.0, (0.0,), (heat_buy_slope,))
    zeros = np.zeros(horizon_steps, dtype=np.int32)
    return Tariff(step_seconds, horizon_steps, (pf,), zeros, (hf,), zeros)


def tariff_to_dict(tariff: Tariff) -> dict:
    """Serialize to the range-list file form; single-rate steps only."""
    ranges = []
    per_kwh = 3600.0 / tariff.step_seconds
    for start, stop in _runs(tariff.power_index):
        fn = tariff.power_functions[tariff.power_index[start]]
        if len(fn.slopes) != 1:
            raise ValueError("tariff files carry single-rate ranges only")
        ranges.append(
            {
                "from_step": start,
                "to_step": stop,
                "buy_per_kwh": fn.slopes[0] * per_kwh,
                "sell_per_kwh": "forbidden" if fn.neg_slope is None else fn.neg_slope * per_kwh,
            }
        )
    hf = tariff.heat_functions[int(tariff.heat_index[0])]
    if len(tariff.heat_functions) != 1 or len(hf.slopes) != 1:
        raise ValueError("tariff files carry a single flat heat rate only")
    return {
        "step_seconds": tariff.step_seconds,
        "horizon_steps": tariff.horizon_steps,
        "power": ranges,
        "heat": {"buy_per_kwh": hf.slopes[0] * 3600.0 / tariff.step_seconds},
    }


def tariff_from_dict(data: dict) -> Tariff:
    try:
        dt = float(data["step_seconds"])
        horizon = _int_field(data["horizon_steps"], "horizon_steps")
        per_step = dt / 3600.0
        functions: list[PiecewiseLinearCost] = []
        index = np.full(horizon, -1, dtype=np.int32)
        for row in data["power"]:
            a, b = _int_field(row["from_step"], "from_step"), _int_field(row["to_step"], "to_step")
            if not (0 <= a < b <= horizon):
                raise ValueError(f"bad step range [{a}, {b})")
            sell = row["sell_per_kwh"]
            neg = None if sell == "forbidden" else float(sell) * per_step
            fn = PiecewiseLinearCost(neg, (0.0,), (float(row["buy_per_kwh"]) * per_step,))
            if (index[a:b] != -1).any():
                raise ValueError(f"overlapping power ranges at [{a}, {b})")
            functions.append(fn)
            index[a:b] = len(functions) - 1
        if (index == -1).any():
            gap = int(np.nonzero(index == -1)[0][0])
            raise ValueError(f"power ranges leave step {gap} unpriced")
        heat_fn = PiecewiseLinearCost(0.0, (0.0,), (float(data["heat"]["buy_per_kwh"]) * per_step,))
        return Tariff(dt, horizon, tuple(functions), index, (heat_fn,), np.zeros(horizon, dtype=np.int32))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed tariff description: {exc}") from exc


def save_tariff(tariff: Tariff, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(tariff_to_dict(tariff), fh, indent=1)
        fh.write("\n")


def load_tariff(path: str) -> Tariff:
    with open(path) as fh:
        return tariff_from_dict(json.load(fh))
