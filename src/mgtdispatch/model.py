"""Discrete-state turbine models.

A machine is a finite set of named operating states. In each state a finite
set of controls is available; applying control u in state x deterministically
moves the machine to a successor state after an integer number of time steps,
producing a fixed electric and thermal output (kW, held over every covered
step) at a fixed operating cost for the whole transition. Durations of one
step model ordinary moves; longer durations model slow actions such as
revving up, startup and shutdown.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Transition:
    """One allowed control application: from_state --control--> to_state."""

    from_state: str
    control: str
    to_state: str
    duration_steps: int
    power_kw: float
    heat_kw: float
    op_cost: float


@dataclass(frozen=True)
class TurbineModel:
    """Immutable turbine description: states plus the transition table.

    Transitions are kept in declaration order; every enumeration below is
    deterministic and repeatable.
    """

    step_seconds: float
    states: tuple[str, ...]
    transitions: tuple[Transition, ...]

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.states)}

    @property
    def n_states(self) -> int:
        return len(self.states)


def validate_model(model: TurbineModel) -> list[str]:
    """Check a model against the structural rules; return a violation report.

    An empty list means the model is usable. Checks: non-empty unique state
    names, positive step length, transitions referencing known states with
    integer durations >= 1, non-negative finite outputs, finite costs, no
    duplicate (state, control) pair, and no dead-end state (every state needs
    at least one control).
    """
    problems: list[str] = []
    if not model.states:
        problems.append("model has no states")
    if len(set(model.states)) != len(model.states):
        problems.append("duplicate state names")
    if not (isinstance(model.step_seconds, (int, float)) and math.isfinite(model.step_seconds) and model.step_seconds > 0):
        problems.append(f"step_seconds must be a positive finite number, got {model.step_seconds!r}")

    known = set(model.states)
    seen_pairs: set[tuple[str, str]] = set()
    for i, tr in enumerate(model.transitions):
        where = f"transition[{i}] {tr.from_state}/{tr.control}"
        if tr.from_state not in known:
            problems.append(f"{where}: unknown from_state {tr.from_state!r}")
        if tr.to_state not in known:
            problems.append(f"{where}: unknown to_state {tr.to_state!r}")
        if not (isinstance(tr.duration_steps, int) and tr.duration_steps >= 1):
            problems.append(f"{where}: duration_steps must be an integer >= 1, got {tr.duration_steps!r}")
        if not (math.isfinite(tr.power_kw) and tr.power_kw >= 0):
            problems.append(f"{where}: power_kw must be finite and >= 0, got {tr.power_kw!r}")
        if not (math.isfinite(tr.heat_kw) and tr.heat_kw >= 0):
            problems.append(f"{where}: heat_kw must be finite and >= 0, got {tr.heat_kw!r}")
        if not math.isfinite(tr.op_cost):
            problems.append(f"{where}: op_cost must be finite, got {tr.op_cost!r}")
        key = (tr.from_state, tr.control)
        if key in seen_pairs:
            problems.append(f"{where}: duplicate control for this state")
        seen_pairs.add(key)

    covered = {tr.from_state for tr in model.transitions}
    for s in model.states:
        if s not in covered:
            problems.append(f"state {s!r} has no controls")
    return problems


def cooldown_example(
    p: float = 10.0,
    h: float = 20.0,
    on_cost: float = 2.0,
    start_cost: float = 0.0,
    shutdown_cost: float = 0.0,
    step_seconds: float = 15.0,
) -> TurbineModel:
    """Four-state on/off machine with a three-step cooldown chain.

    Restarting is only allowed once the machine has been off for three steps:
    x_on -> x_off1 -> x_off2 -> x_off3+ (the absorbing cold state). While on,
    the machine produces (p, h) at op_cost per step; every off state produces
    nothing.
    """
    trs = [
        Transition("x_on", "keep", "x_on", 1, p, h, on_cost),
        Transition("x_on", "shutdown", "x_off1", 1, 0.0, 0.0, shutdown_cost),
        Transition("x_off1", "keep", "x_off2", 1, 0.0, 0.0, 0.0),
        Transition("x_off2", "keep", "x_off3+", 1, 0.0, 0.0, 0.0),
        Transition("x_off3+", "keep", "x_off3+", 1, 0.0, 0.0, 0.0),
        Transition("x_off3+", "start", "x_on", 1, 0.0, 0.0, start_cost),
    ]
    return TurbineModel(step_seconds, ("x_on", "x_off1", "x_off2", "x_off3+"), tuple(trs))


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic speed-by-valve turbine generator.

    Output ranges follow a 65 kWel recuperated machine: electric power spans
    power_range_kw across the speed levels; recoverable heat spans
    heat_range_kw, rising with speed and falling as the recuperator bypass
    valve closes. Fuel draw is affine in the two outputs and is priced per
    kWh of gas. Startup and shutdown produce nothing, take a fixed number of
    seconds and cost cycling_cost each (wear amortization per start/stop).
    """

    step_seconds: float = 15.0
    power_range_kw: tuple[float, float] = (5.0, 65.0)
    heat_range_kw: tuple[float, float] = (27.0, 216.0)
    cycling_cost: float = 3.75
    startup_seconds: float = 360.0
    shutdown_seconds: float = 180.0
    gas_price_per_kwh: float = 0.0725
    fuel_kw_base: float = 10.0
    fuel_kw_per_kw_power: float = 2.8
    fuel_kw_per_kw_heat: float = 0.15
    heat_speed_share: float = 0.5
    diagonal_moves: bool = True


def synth_c65_like(n_speeds: int = 30, n_valves: int = 50, config: SynthConfig | None = None) -> TurbineModel:
    """Build a synthetic n_speeds x n_valves grid turbine plus one off state.

    Operating states are indexed (speed level i, valve level j), named
    "siivjj". Allowed moves change speed and/or valve by one level; slowing
    down or moving the valve takes one step, any speed increase takes two.
    Shutdown leaves from the minimum operating point (i=0, j=0) and startup
    returns to it; both produce zero output for their whole duration and
    carry the cycling cost instead of fuel.

    Per-transition output is the average of the two endpoint states' steady
    outputs, held over each covered step; op_cost is the per-step fuel cost
    of that average output times the duration.
    """
    cfg = config or SynthConfig()
    if n_speeds < 1 or n_valves < 1:
        raise ValueError("need at least one speed and one valve level")

    p_lo, p_hi = cfg.power_range_kw
    h_lo, h_hi = cfg.heat_range_kw

    def frac(k: int, n: int) -> float:
        return k / (n - 1) if n > 1 else 1.0

    def power(i: int) -> float:
        return p_lo + (p_hi - p_lo) * frac(i, n_speeds)

    def heat(i: int, j: int) -> float:
        fs = frac(i, n_speeds)
        fv = frac(j, n_valves) if n_valves > 1 else 0.0
        mix = cfg.heat_speed_share * fs + (1.0 - cfg.heat_speed_share) * (1.0 - fv)
        return h_lo + (h_hi - h_lo) * mix

    def fuel_cost_per_step(p_kw: float, h_kw: float) -> float:
        fuel_kw = cfg.fuel_kw_base + cfg.fuel_kw_per_kw_power * p_kw + cfg.fuel_kw_per_kw_heat * h_kw
        return cfg.gas_price_per_kwh * fuel_kw * cfg.step_seconds / 3600.0

    def name(i: int, j: int) -> str:
        return f"s{i:02d}v{j:02d}"

    states = [name(i, j) for i in range(n_speeds) for j in range(n_valves)]
    states.append("off")

    # (label, di, dj); speed increases cost an extra step
    moves = [
        ("speed+1", 1, 0),
        ("speed-1", -1, 0),
        ("valve+1", 0, 1),
        ("valve-1", 0, -1),
    ]
    if cfg.diagonal_moves:
        moves += [
            ("speed+1/valve+1", 1, 1),
            ("speed+1/valve-1", 1, -1),
            ("speed-1/valve+1", -1, 1),
            ("speed-1/valve-1", -1, -1),
        ]

    startup_steps = max(1, math.ceil(cfg.startup_seconds / cfg.step_seconds))
    shutdown_steps = max(1, math.ceil(cfg.shutdown_seconds / cfg.step_seconds))

    trs: list[Transition] = []
    for i in range(n_speeds):
        for j in range(n_valves):
            src = name(i, j)
            p0, h0 = power(i), heat(i, j)
            trs.append(Transition(src, "keep", src, 1, p0, h0, fuel_cost_per_step(p0, h0)))
            for label, di, dj in moves:
                ii, jj = i + di, j + dj
                if not (0 <= ii < n_speeds and 0 <= jj < n_valves):
                    continue
                dur = 2 if di > 0 else 1
                pm = 0.5 * (p0 + power(ii))
                hm = 0.5 * (h0 + heat(ii, jj))
                trs.append(Transition(src, label, name(ii, jj), dur, pm, hm, dur * fuel_cost_per_step(pm, hm)))
    low = name(0, 0)
    trs.append(Transition(low, "shutdown", "off", shutdown_steps, 0.0, 0.0, cfg.cycling_cost))
    trs.append(Transition("off", "keep", "off", 1, 0.0, 0.0, 0.0))
    trs.append(Transition("off", "start", low, startup_steps, 0.0, 0.0, cfg.cycling_cost))

    return TurbineModel(cfg.step_seconds, tuple(states), tuple(trs))


def model_to_dict(model: TurbineModel) -> dict:
    return {
        "step_seconds": model.step_seconds,
        "states": list(model.states),
        "transitions": [
            {
                "from": tr.from_state,
                "control": tr.control,
                "to": tr.to_state,
                "duration_steps": tr.duration_steps,
                "power_kw": tr.power_kw,
                "heat_kw": tr.heat_kw,
                "op_cost": tr.op_cost,
            }
            for tr in model.transitions
        ],
    }


def _int_field(value, what: str) -> int:
    """A step count or index read from a file; 2.5, NaN and Infinity are refused, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def _name_field(value, what: str) -> str:
    """A state or control name read from a file; NaN, numbers, null and containers are refused."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def model_from_dict(data: dict) -> TurbineModel:
    try:
        trs = tuple(
            Transition(
                from_state=_name_field(row["from"], "from"),
                control=_name_field(row["control"], "control"),
                to_state=_name_field(row["to"], "to"),
                duration_steps=_int_field(row["duration_steps"], "duration_steps"),
                power_kw=float(row["power_kw"]),
                heat_kw=float(row["heat_kw"]),
                op_cost=float(row["op_cost"]),
            )
            for row in data["transitions"]
        )
        states = tuple(_name_field(s, "state name") for s in data["states"])
        return TurbineModel(float(data["step_seconds"]), states, trs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model description: {exc}") from exc


def save_model(model: TurbineModel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=1)
        fh.write("\n")


def load_model(path: str) -> TurbineModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
