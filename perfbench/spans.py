"""Outside-in layer trace for the dispatch benchmark.

The tracer wraps the public functions of each package module (the layers)
from outside, without touching the package source. `solvers`, `schedule`,
`graph` and `cli` import their callees by name, so a wrapper is bound into
every package namespace that holds the original, and `install` fails if any
original is left behind. Each call records a span (name, parent, start,
end, info); a span's self time is its duration minus its children's.

Spans only nest correctly on one thread, so the trace refuses to run with
the sweep's thread pool enabled (DISPATCH_THREADS > 1).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager

PACKAGE = "mgtdispatch"
LAYERS = ("model", "tariff", "demand", "graph", "shortest_path", "solvers", "schedule", "packs")
# private functions that are layers of their own: the budget sweep loop
PRIVATE = {"solvers": ("_sweep",)}
# namespaces that import their callees by name and so must be rebound
MUST_REBIND = ("graph", "solvers", "schedule", "cli")
SOLVES = ("solve_nominal", "solve_box", "solve_mixed_additive", "solve_mixed_exact",
          "solve_mixed_multiplicative")

# The end-to-end metric each per-layer metric should move. BENCHMARK.json
# lists the metrics that every workload reports; the rest are printed only
# where their layer runs.
TARGETS = {
    "graph.build_graph_s": "op_s.p50 on synth-nominal-box, barely on synth-mixed-grid30",
    "graph.scenario_weights_s": "op_s.p50 and peak_rss_mb on synth-nominal-box",
    "graph.scenario_weights_calls": "op_s.p50 on synth-nominal-box",
    "graph.bias_spike_costs_s": "op_s.p50 on synth-mixed-grid30, not on pack-replay-exact",
    "graph.bias_spike_costs_calls": "op_s.p50 on synth-mixed-grid30",
    "graph.weight_bytes_computed": "peak_rss_mb on synth-nominal-box",
    "graph.bias_spike_costs_peak_mb": "peak_rss_mb on synth-mixed-grid30",
    "tariff.cost_block_s": "op_s.p50 on synth-nominal-box",
    "tariff.cost_block_calls": "op_s.p50 on synth-nominal-box",
    "tariff.cost_block_cells": "op_s.p50 on synth-nominal-box",
    "tariff.scalar_value_calls": "op_s.p50 on pack-replay-exact",
    "shortest_path.dag_s": "op_s.p50 on synth-nominal-box only",
    "shortest_path.dag_calls": "op_s.p50 on synth-nominal-box",
    "shortest_path.restricted_s": "op_s.p50 on synth-mixed-grid30 and pack-replay-exact",
    "shortest_path.restricted_calls": "op_s.p50 on pack-replay-exact and synth-mixed-grid30",
    "shortest_path.edges_relaxed": "op_s.p50 on synth-mixed-grid30 and pack-replay-exact",
    "shortest_path.edges_per_s": "op_s.p50 on synth-mixed-grid30 and pack-replay-exact",
    "solvers.solve_s": "op_s.p50 on every workload",
    **{f"solvers.{s}_s": "op_s.p50 of the workloads that run it" for s in SOLVES},
    "solvers.sweep_self_s": "op_s.p50 on pack-replay-exact",
    "solvers.thresholds_evaluated": "op_s.p50 on pack-replay-exact",
    "solvers.sweep_useful_ratio": "op_s.p50 on pack-replay-exact",
    "solvers.path_cost_at_s": "op_s.p50 on pack-replay-exact (scalar re-pricing)",
    "solvers.path_worstcase_cost_s": "op_s.p50 on pack-replay-exact (scalar re-pricing)",
    "schedule.build_schedule_s": "op_s.p50, small everywhere",
    "schedule.compare_day_self_s": "op_s.p50 on pack-replay-exact",
    "model.load_model_s": "load share of pack-replay-exact ops",
    "tariff.load_tariff_s": "load share of pack-replay-exact ops",
    "demand.load_history_s": "load share of pack-replay-exact ops",
    "demand.forecast_from_history_s": "load share of pack-replay-exact ops",
    "packs.build_four_season_pack_s": "setup_s on pack-replay-exact",
    "model.self_s": "setup_s and pack-replay-exact load share",
    "tariff.self_s": "op_s.p50 on synth-nominal-box",
    "demand.self_s": "pack-replay-exact load share",
    "graph.self_s": "op_s.p50 on synth-nominal-box and synth-mixed-grid30",
    "shortest_path.self_s": "op_s.p50 on synth-mixed-grid30 and pack-replay-exact",
    "solvers.self_s": "op_s.p50 on pack-replay-exact",
    "schedule.self_s": "op_s.p50 on pack-replay-exact",
    "trace.overhead_pct": "none: cost of tracing itself",
}


class TraceError(RuntimeError):
    """The trace could not be installed or removed cleanly."""


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, info]
        self._stack: list[int] = []
        self.value_calls = 0
        self.rebound: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """A top-level span; the per-layer numbers are reported per root."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if info is not None:
                rec[4] = info(args, out)
            return out

        return traced

    # -- patching ------------------------------------------------------
    def _modules(self) -> dict:
        return {n: m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))}

    def install(self) -> None:
        """Bind a wrapper for every layer function into every package namespace."""
        if self._patches:
            raise TraceError("trace already installed")
        if int(os.environ.get("DISPATCH_THREADS") or 1) > 1:
            raise TraceError("spans need one thread; unset DISPATCH_THREADS to trace")
        mods = self._modules()
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = mods[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._layer_wrapper(layer, attr, obj))
        self._originals = {k: orig for k, (orig, _) in wrappers.items()}
        self.rebound = {}
        for mname, mod in mods.items():
            short = mname[len(PACKAGE) + 1:] or PACKAGE
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
                    if obj.__module__ != mname:
                        self.rebound[short] = self.rebound.get(short, 0) + 1

        tariff_mod = mods[f"{PACKAGE}.tariff"]
        for meth in ("power_cost_block", "heat_cost_block"):
            fn = vars(tariff_mod.Tariff)[meth]
            self._patch(tariff_mod.Tariff, meth,
                        self._wrap("tariff.cost_block", fn, lambda a, out: int(out.size)))
        value = vars(tariff_mod.PiecewiseLinearCost)["value"]

        @functools.wraps(value)
        def counted(*args):
            self.value_calls += 1
            return value(*args)

        self._patch(tariff_mod.PiecewiseLinearCost, "value", counted)

        left = [f"{mname}.{attr}" for mname, mod in mods.items()
                for attr, obj in vars(mod).items() if self._originals.get(id(obj)) is obj]
        missing = [m for m in MUST_REBIND if not self.rebound.get(m)]
        if left or missing:
            self.uninstall()
            raise TraceError(f"trace self-test failed: originals still bound at {left}; "
                             f"no imported name rebound in {missing}")

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _layer_wrapper(self, layer: str, attr: str, fn):
        """Wrapper recording what a span needs besides its times."""
        name = f"{layer}.{attr}"
        if name == "graph.scenario_weights":
            return self._wrap(name, fn, lambda a, out: int(out.nbytes))
        if name == "graph.bias_spike_costs":
            # allocation peak inside the call; the span includes tracemalloc's cost
            peak = [0]

            @functools.wraps(fn)
            def measured(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak[0] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()

            return self._wrap(name, measured, lambda a, out: (int(out.w_spike.nbytes), peak[0]))
        if name == "shortest_path.shortest_path_restricted":
            return self._wrap(name, fn, lambda a, out: (
                a[0].n_templates * (a[0].horizon - 1), out.total, out.aux_max))
        if layer == "solvers" and attr.startswith("solve_mixed"):
            return self._wrap(name, fn, lambda a, out: out.thresholds_evaluated)
        return self._wrap(name, fn)

    # -- aggregation -----------------------------------------------------
    def table(self, root: str) -> tuple[int, dict[str, list]]:
        """(roots, {name: [calls, total_s, self_s, infos]}) under roots named `root`."""
        spans = self.spans
        root_of = [0] * len(spans)
        child = [0.0] * len(spans)
        for i, (name, parent, t0, t1, _) in enumerate(spans):
            root_of[i] = i if parent < 0 else root_of[parent]
            if parent >= 0:
                child[parent] += t1 - t0
        n_roots = sum(1 for s in spans if s[1] < 0 and s[0] == root)
        out: dict[str, list] = {}
        for i, (name, parent, t0, t1, info) in enumerate(spans):
            if parent < 0 or spans[root_of[i]][0] != root:
                continue
            row = out.setdefault(name, [0, 0.0, 0.0, []])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += (t1 - t0) - child[i]
            if info is not None:
                row[3].append(info)
        return n_roots, out

    def sweep_results(self) -> tuple[int, int]:
        """(distinct (bias total, max spike) results, restricted calls) over all sweeps."""
        distinct = calls = 0
        per_sweep: dict[int, set] = {}
        for name, parent, _, _, info in self.spans:
            if name == "shortest_path.shortest_path_restricted":
                calls += 1
                if parent >= 0 and self.spans[parent][0] == "solvers._sweep":
                    per_sweep.setdefault(parent, set()).add(info[1:])
        for results in per_sweep.values():
            distinct += len(results)
        return distinct, calls



def layer_metrics(tracer: Tracer, overhead_pct: float, value_calls: int) -> dict[str, float]:
    """Every per-layer number, per traced operation.

    Times are inclusive unless named *_self_s. A time, peak or ratio appears
    only on workloads where its function ran; counts are always reported,
    so a layer that never ran reads 0 calls.
    """
    n, rows = tracer.table("op")
    _, setup_rows = tracer.table("setup")
    empty = [0, 0.0, 0.0, []]

    def row(name: str) -> list:
        return rows.get(name, empty)

    m: dict[str, float] = {}

    def add_time(metric: str, name: str, col: int = 1) -> None:
        if row(name)[0]:
            m[metric] = row(name)[col] / n

    for metric, name in (
        ("graph.build_graph_s", "graph.build_graph"),
        ("graph.scenario_weights_s", "graph.scenario_weights"),
        ("graph.bias_spike_costs_s", "graph.bias_spike_costs"),
        ("tariff.cost_block_s", "tariff.cost_block"),
        ("shortest_path.dag_s", "shortest_path.shortest_path_dag"),
        ("shortest_path.restricted_s", "shortest_path.shortest_path_restricted"),
        *((f"solvers.{s}_s", f"solvers.{s}") for s in SOLVES),
        ("solvers.path_cost_at_s", "solvers.path_cost_at"),
        ("solvers.path_worstcase_cost_s", "solvers.path_worstcase_cost"),
        ("schedule.build_schedule_s", "schedule.build_schedule"),
        ("model.load_model_s", "model.load_model"),
        ("tariff.load_tariff_s", "tariff.load_tariff"),
        ("demand.load_history_s", "demand.load_history"),
        ("demand.forecast_from_history_s", "demand.forecast_from_history"),
    ):
        add_time(metric, name)
    add_time("solvers.sweep_self_s", "solvers._sweep", col=2)
    add_time("schedule.compare_day_self_s", "schedule.compare_day", col=2)
    if setup_rows.get("packs.build_four_season_pack"):
        m["packs.build_four_season_pack_s"] = setup_rows["packs.build_four_season_pack"][1]

    bsc = row("graph.bias_spike_costs")[3]
    restricted = row("shortest_path.shortest_path_restricted")
    m["graph.scenario_weights_calls"] = row("graph.scenario_weights")[0] / n
    m["graph.bias_spike_costs_calls"] = len(bsc) / n
    m["graph.weight_bytes_computed"] = (sum(row("graph.scenario_weights")[3])
                                        + sum(b for b, _ in bsc)) / n
    if bsc:
        m["graph.bias_spike_costs_peak_mb"] = max(peak for _, peak in bsc) / 1e6
    m["tariff.cost_block_calls"] = row("tariff.cost_block")[0] / n
    m["tariff.cost_block_cells"] = sum(row("tariff.cost_block")[3]) / n
    m["tariff.scalar_value_calls"] = value_calls / n
    m["shortest_path.dag_calls"] = row("shortest_path.shortest_path_dag")[0] / n
    m["shortest_path.restricted_calls"] = restricted[0] / n
    edges = sum(info[0] for info in restricted[3])
    m["shortest_path.edges_relaxed"] = edges / n
    if restricted[0]:
        m["shortest_path.edges_per_s"] = edges / restricted[1]
    m["solvers.solve_s"] = sum(row(f"solvers.{s}")[1] for s in SOLVES) / n
    m["solvers.thresholds_evaluated"] = sum(
        sum(row(f"solvers.{s}")[3]) for s in SOLVES if s.startswith("solve_mixed")) / n
    distinct, calls = tracer.sweep_results()
    if calls:
        m["solvers.sweep_useful_ratio"] = distinct / calls
    for layer in LAYERS:
        layer_rows = [r for name, r in rows.items() if name.startswith(layer + ".")]
        if layer_rows:
            m[f"{layer}.self_s"] = sum(r[2] for r in layer_rows) / n
    m["trace.overhead_pct"] = overhead_pct
    m["trace.ops"] = n
    return m


def reconcile(tracer: Tracer, solves_per_op: dict[str, int]) -> list[str]:
    """Traced counts that must agree with each other and with the solves run."""
    n, rows = tracer.table("op")

    def calls(name: str) -> int:
        return rows[name][0] if name in rows else 0

    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"trace reconciliation: {what}")

    for s in SOLVES:
        expect(calls(f"solvers.{s}") == solves_per_op.get(s, 0) * n,
               f"{calls(f'solvers.{s}')} {s} calls in {n} ops, expected {solves_per_op.get(s, 0)} per op")
    mixed_rows = [rows[f"solvers.{s}"] for s in SOLVES if s.startswith("solve_mixed") and f"solvers.{s}" in rows]
    mixed = sum(r[0] for r in mixed_rows)
    thresholds = sum(sum(r[3]) for r in mixed_rows)
    plain = calls("solvers.solve_nominal") + calls("solvers.solve_box")
    expect(calls("shortest_path.shortest_path_restricted") == thresholds,
           f"restricted_calls {calls('shortest_path.shortest_path_restricted')} != thresholds evaluated {thresholds}")
    expect(calls("graph.bias_spike_costs") == mixed, "bias_spike_costs calls != mixed solves")
    expect(calls("graph.scenario_weights") == plain + mixed, "scenario_weights calls != solves run")
    expect(calls("shortest_path.shortest_path_dag") == plain, "dag calls != nominal and box solves")
    return problems


def render(tracer: Tracer, metrics: dict[str, float]) -> str:
    """Span table per traced operation, then every per-layer metric."""
    n, rows = tracer.table("op")
    lines = [f"spans per traced op ({n} ops): calls, inclusive s, self s"]
    for name, (count, total, self_s, _) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"  {name:<44} {count / n:>12.1f} {total / n:>12.6f} {self_s / n:>12.6f}")
    lines.append("per-layer metrics (per traced op):")
    for name, value in metrics.items():
        lines.append(f"  {name:<34} {value:>16.6g}  {TARGETS.get(name, '')}")
    return "\n".join(lines)
