"""The benchmark's three workloads.

Each workload builds its fixed inputs in `setup`, yields the generated input
of every operation from `unit`, runs one operation in `op` and checks its
output in `check`, which may return a late check (see `run_checks`). Library calls go through attributes of the `mgtdispatch`
package at call time, so the tracer's wrappers are the ones called.

synth-nominal-box: the 30x50 synthetic plant (1,501 states, 13,027
  templates, 15 s steps) at T = 1440; a fresh seeded day, graph, nominal and
  box (alpha = 1) solves, both schedules. Edge costs dominate and there is
  no sweep. Its 13,027 x 1,440 weight array (150 MB) fits in the 300 MiB L3
  of the machine the sizes were chosen on.
synth-mixed-grid30: the same plant at T = 361; a fresh seeded day, graph,
  grid-30 additive mixed solve (alpha1 = 0.5, alpha2 = 2), schedule at the
  bias profile. The restricted DP kernel on 13,027 x 361 arrays (38 MB).
pack-replay-exact: the four-season pack rebuilt from the seed; per season,
  load everything from disk, compare_day with the exact mixed sweep and
  price every plan against the realized day. Thousands of small restricted
  solves; per-call overhead dominates.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path

import mgtdispatch as md
import numpy as np

from checks import Gate, check_expected, close, not_above

DEFAULT_SEED = 20260816
EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"


def check_path(gate: Gate, graph, path, what: str) -> None:
    """The path is a chain of existing edges from an initial to a final node."""
    if not path.feasible:
        gate.expect(False, f"{what} path infeasible")
        return
    states = graph.model.state_index
    x = states.get(path.nodes[0][1]) if path.nodes else None
    ok = x is not None and path.nodes[0][0] == 0 and bool(graph.initial_mask[x])
    t = 0
    for e in path.edges:
        ok = ok and e.time == t and int(graph.tail[e.template]) == x \
            and graph.template_exists_at(e.template, e.time)
        if not ok:
            break
        t, x = e.time + int(graph.dur[e.template]), int(graph.head[e.template])
    ok = ok and t == graph.horizon - 1 and bool(graph.final_mask[x])
    gate.expect(ok, f"{what} path is not an s->q chain of graph edges")


class SynthWorkload:
    """Shared set-up for the two synthetic-plant workloads."""

    step_s = 15.0

    def __init__(self, smoke: bool = False):
        self.plant = (3, 4) if smoke else (30, 50)

    def setup(self, seed: int, workdir: str) -> dict:
        model = md.synth_c65_like(*self.plant, md.SynthConfig(step_seconds=self.step_s))
        tariff = md.tou_tariff(md.TouConfig(
            step_seconds=self.step_s,
            horizon_steps=self.horizon - 1,
            buy_peak_per_kwh=0.30,
            buy_offpeak_per_kwh=0.12,
            sell_per_kwh=0.05,
            heat_buy_per_kwh=0.0725,
        ))
        return {"seed": seed, "model": model, "tariff": tariff}

    def unit(self, ctx: dict, u: int) -> list[tuple[str, tuple]]:
        """One fresh seeded demand day and its forecast, as run_scaling makes them."""
        rng = np.random.default_rng([ctx["seed"], u])
        day = md.synthetic_day(rng, self.horizon - 1, self.step_s)
        forecast = md.Forecast(day.power_kw, day.heat_kw,
                               np.maximum(0.08 * day.power_kw, 0.5),
                               np.maximum(0.08 * day.heat_kw, 0.5))
        return [(str(u), (day, forecast))]


class NominalBox(SynthWorkload):
    name = "synth-nominal-box"

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.horizon = 41 if smoke else 1440
        # solves per op, for the trace reconciliation
        self.solves = {"solve_nominal": 1, "solve_box": 1}

    def op(self, ctx: dict, inputs: tuple) -> dict:
        day, forecast = inputs
        tariff = ctx["tariff"]
        graph = md.build_graph(ctx["model"], self.horizon)
        bset = md.box_set(forecast, 1.0)
        nominal = md.solve_nominal(graph, day, tariff)
        box = md.solve_box(graph, bset, tariff)
        return {
            "graph": graph,
            "bset": bset,
            "nominal": nominal,
            "box": box,
            "nominal_schedule": md.build_schedule(graph, nominal.path, day, tariff),
            "box_schedule": md.build_schedule(graph, box.path, md.worst_corner(bset), tariff),
        }

    def check(self, ctx: dict, inputs: tuple, out: dict, gate: Gate) -> None:
        day, _ = inputs
        graph, tariff = out["graph"], ctx["tariff"]
        nominal, box = out["nominal"], out["box"]
        corner = md.worst_corner(out["bset"])
        check_path(gate, graph, nominal.path, "nominal")
        check_path(gate, graph, box.path, "box")
        if not gate.ok:
            return
        gate.expect(close(out["nominal_schedule"].total_cost, nominal.worst_case_cost),
                    "nominal schedule total differs from its cost")
        gate.expect(close(out["box_schedule"].total_cost, box.worst_case_cost),
                    "box schedule total differs from its cost")
        gate.expect(close(nominal.path.total, nominal.worst_case_cost),
                    "nominal DP value differs from the path's re-priced cost")
        gate.expect(close(box.path.total, box.worst_case_cost),
                    "box DP value differs from the path's re-priced corner cost")
        gate.expect(not_above(box.worst_case_cost, md.path_cost_at(graph, nominal.path, corner, tariff)),
                    "box corner cost above the nominal path's corner cost")
        gate.expect(not_above(nominal.worst_case_cost, md.path_cost_at(graph, box.path, day, tariff)),
                    "nominal cost above the box path's cost on the nominal day")

    def values(self, out: dict) -> dict[str, float]:
        return {"nominal": out["nominal"].worst_case_cost, "box": out["box"].worst_case_cost}

    def digest(self, out: dict) -> tuple:
        return tuple((s.worst_case_cost, s.worst_scenario, s.path.edges, s.path.total)
                     for s in (out["nominal"], out["box"])) + (
            out["nominal_schedule"].total_cost, out["box_schedule"].total_cost)


class MixedGrid(SynthWorkload):
    name = "synth-mixed-grid30"
    alpha1, alpha2 = 0.5, 2.0

    def __init__(self, smoke: bool = False):
        super().__init__(smoke)
        self.horizon = 41 if smoke else 361
        self.grid_n = 5 if smoke else 30
        self.solves = {"solve_mixed_additive": 1}

    def op(self, ctx: dict, inputs: tuple) -> dict:
        _, forecast = inputs
        tariff = ctx["tariff"]
        graph = md.build_graph(ctx["model"], self.horizon)
        mset = md.mixed_set(forecast, self.alpha1, self.alpha2)
        mixed = md.solve_mixed_additive(graph, mset, tariff, grid_n=self.grid_n)
        schedule = md.build_schedule(graph, mixed.path, md.bias_profile(mset), tariff)
        return {"graph": graph, "mset": mset, "mixed": mixed, "schedule": schedule}

    def check(self, ctx: dict, inputs: tuple, out: dict, gate: Gate):
        _, forecast = inputs
        graph, tariff, mset, mixed = out["graph"], ctx["tariff"], out["mset"], out["mixed"]
        check_path(gate, graph, mixed.path, "mixed")
        if not gate.ok:
            return None
        bias = md.bias_profile(mset)
        gate.expect(close(out["schedule"].total_cost, mixed.path.total),
                    "bias-profile schedule total differs from the path's bias cost")
        gate.expect(close(md.path_cost_at(graph, mixed.path, bias, tariff), mixed.path.total),
                    "mixed path does not price at its bias cost")
        worst, _ = md.path_worstcase_cost(graph, mixed.path, mset, tariff)
        gate.expect(close(worst, mixed.worst_case_cost), "path worst case differs from the reported one")
        gate.expect(close(mixed.path.total + mixed.path.aux_max, mixed.worst_case_cost),
                    "bias cost plus max spike differs from the reported worst case")
        return lambda late: self.check_dominance(ctx, forecast, mixed, late)

    def check_dominance(self, ctx: dict, forecast, mixed, gate: Gate) -> None:
        """Mixed worst case at most the nominal path's plus one grid spacing.

        The grid holds a budget within one spacing above the nominal path's
        max spike, so its optimum is at most one spacing worse. This re-solves
        at the size of an operation, so it is a late check: the loop runs it
        after reading peak RSS, on a graph built again from the model.
        """
        tariff = ctx["tariff"]
        graph = md.build_graph(ctx["model"], self.horizon)
        mset = md.mixed_set(forecast, self.alpha1, self.alpha2)
        nominal = md.solve_nominal(graph, forecast.mean_profile(), tariff)
        nominal_worst, _ = md.path_worstcase_cost(graph, nominal.path, mset, tariff)
        spikes = np.append(md.bias_spike_costs(graph, mset, tariff).finite_spike_values(), 0.0)
        spacing = (spikes.max() - spikes.min()) / max(self.grid_n - 1, 1)
        gate.expect(not_above(mixed.worst_case_cost, nominal_worst, slack=float(spacing)),
                    "mixed worst case above the nominal path's worst case plus one grid spacing")

    def values(self, out: dict) -> dict[str, float]:
        return {"mixed": out["mixed"].worst_case_cost, "bias": out["mixed"].path.total}

    def digest(self, out: dict) -> tuple:
        s = out["mixed"]
        return (s.worst_case_cost, s.worst_scenario, s.threshold, s.thresholds_evaluated,
                s.path.edges, s.path.total, s.path.aux_max, out["schedule"].total_cost)


class PackReplay:
    name = "pack-replay-exact"

    def __init__(self, smoke: bool = False):
        self.pack_kw = {"n_steps": 24, "n_history_days": 3} if smoke else {}
        self.solves = {"solve_nominal": 2, "solve_box": 1, "solve_mixed_exact": 1}

    def setup(self, seed: int, workdir: str) -> dict:
        pack = os.path.join(workdir, "pack")
        manifest = md.build_four_season_pack(pack, seed=seed, **self.pack_kw)
        return {"pack": pack, "seasons": list(manifest["seasons"])}

    def unit(self, ctx: dict, u: int) -> list[tuple[str, str]]:
        """One pass over the pack: an operation per season."""
        return [(season, season) for season in ctx["seasons"]]

    def op(self, ctx: dict, season: str) -> dict:
        pack = ctx["pack"]
        manifest = md.load_pack_manifest(pack)
        model = md.load_model(os.path.join(pack, manifest["model"]))
        sdir = os.path.join(pack, season)
        tariff = md.load_tariff(os.path.join(sdir, "tariff.json"))
        history = md.load_history(os.path.join(sdir, "history"))
        realized = md.load_demand(os.path.join(sdir, "realized.csv"))
        case = md.compare_day(model, tariff, history, realized,
                              alpha=manifest["alpha"], alpha1=manifest["alpha1"],
                              alpha2=manifest["alpha2"], mixed="exact", name=season)
        return {"manifest": manifest, "model": model, "tariff": tariff,
                "history": history, "realized": realized, "case": case}

    def check(self, ctx: dict, season: str, out: dict, gate: Gate) -> None:
        manifest, tariff, realized = out["manifest"], out["tariff"], out["realized"]
        entries = {e.name: e for e in out["case"].entries}
        if set(entries) != {"benchmark", "nominal", "box", "mixed"}:
            gate.expect(False, f"unexpected plans {sorted(entries)}")
            return
        graph = md.build_graph(out["model"], realized.n_steps + 1)
        for name, e in entries.items():
            check_path(gate, graph, e.solution.path, name)
        if not gate.ok:
            return
        forecast = md.forecast_from_history(out["history"])
        corner = md.worst_corner(md.box_set(forecast, manifest["alpha"]))
        mset = md.mixed_set(forecast, manifest["alpha1"], manifest["alpha2"])
        bench, nominal, box, mixed = (entries[n] for n in ("benchmark", "nominal", "box", "mixed"))

        for name, e in entries.items():
            priced = md.build_schedule(graph, e.solution.path, realized, tariff).total_cost
            gate.expect(close(priced, e.realized_cost), f"{name} realized schedule differs from its cost")
            gate.expect(not_above(bench.realized_cost, e.realized_cost),
                        f"{name} realized cost below the hindsight benchmark")
        for e, demand in ((bench, realized), (nominal, forecast.mean_profile()), (box, corner)):
            priced = md.build_schedule(graph, e.solution.path, demand, tariff).total_cost
            gate.expect(close(priced, e.solution.worst_case_cost), f"{e.name} schedule differs from its cost")
            gate.expect(close(e.solution.path.total, e.solution.worst_case_cost),
                        f"{e.name} DP value differs from the path's re-priced cost")
        gate.expect(close(md.build_schedule(graph, mixed.solution.path, md.bias_profile(mset), tariff).total_cost,
                          mixed.solution.path.total),
                    "mixed bias-profile schedule differs from the path's bias cost")
        worst, _ = md.path_worstcase_cost(graph, mixed.solution.path, mset, tariff)
        gate.expect(close(worst, mixed.solution.worst_case_cost), "mixed worst case differs from the reported one")

        gate.expect(not_above(box.solution.worst_case_cost,
                              md.path_cost_at(graph, nominal.solution.path, corner, tariff)),
                    "box corner cost above the nominal path's corner cost")
        gate.expect(not_above(nominal.solution.worst_case_cost,
                              md.path_cost_at(graph, box.solution.path, forecast.mean_profile(), tariff)),
                    "nominal cost above the box path's cost at the forecast mean")
        nominal_worst, _ = md.path_worstcase_cost(graph, nominal.solution.path, mset, tariff)
        gate.expect(not_above(mixed.solution.worst_case_cost, nominal_worst),
                    "exact mixed worst case above the nominal path's worst case")

        margin = nominal.realized_cost - bench.realized_cost
        for name, e in entries.items():
            if margin > 0:
                want = 100.0 * (nominal.realized_cost - e.realized_cost) / margin
                ok = e.reduction_pct is not None and close(e.reduction_pct, want)
            else:
                ok = e.reduction_pct is None
            gate.expect(ok, f"{name} reduction {e.reduction_pct!r} does not recompute")

    def values(self, out: dict) -> dict[str, float]:
        vals = {}
        for e in out["case"].entries:
            vals[f"{e.name}.worst_case"] = e.solution.worst_case_cost
            vals[f"{e.name}.realized"] = e.realized_cost
        return vals

    def digest(self, out: dict) -> tuple:
        return tuple((e.name, e.solution.worst_case_cost, e.solution.worst_scenario, e.solution.threshold,
                      e.solution.thresholds_evaluated, e.solution.path.edges, e.realized_cost, e.reduction_pct)
                     for e in out["case"].entries)


WORKLOADS = {w.name: w for w in (NominalBox, MixedGrid, PackReplay)}


def recorded_values(workload: str) -> dict[str, dict[str, float]]:
    """Optimum values recorded at DEFAULT_SEED, keyed by operation."""
    with open(EXPECTED_FILE) as fh:
        return json.load(fh).get(workload, {})


def _run_late(check, gate: Gate) -> None:
    try:
        check(gate)
    except Exception as exc:  # a check that cannot run is a failed check
        gate.expect(False, f"late check raised {type(exc).__name__}: {exc}")


def run_checks(wl, ctx: dict, key: str, inputs, out, recorded: dict | None,
               later: list | None = None) -> list[str]:
    """The failed checks of one operation.

    A workload's check may return a late check, one that allocates about as
    much as an operation. It runs here, unless `later` is given: then a
    callable that runs it is appended to `later`, and calling that adds the
    late failures to the list returned now.
    """
    gate = Gate(f"{wl.name}[{key}]")
    late = None
    try:
        late = wl.check(ctx, inputs, out, gate)
        if gate.ok:
            check_expected(gate, wl.values(out), recorded)
    except Exception as exc:  # a check that cannot run is a failed check
        gate.expect(False, f"check raised {type(exc).__name__}: {exc}")
    if late is not None:
        run_late = functools.partial(_run_late, late, gate)
        if later is None:
            run_late()
        else:
            later.append(run_late)
    return gate.failures
