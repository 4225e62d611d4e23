"""The benchmark's own tests: smoke runs, the gate's negative control, the trace.

    python3 -m pytest -q perfbench

Smoke runs push tiny sizes through every workload's code path, the
correctness gate and the trace reconciliation in seconds.
"""

import dataclasses
import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

md = run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run(workload, trace, capsys):
    rc = run.main(["--workload", workload, "--smoke", "--seconds", "0.3", "--trace", str(trace)])
    result = _last_json(capsys.readouterr().out)
    assert rc == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.metric_units("per_layer" if trace else "end_to_end"))


def test_one_command_runs_every_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke", "--seconds", "0.2"],
                          capture_output=True, text=True, timeout=300)
    result = _last_json(proc.stdout)
    assert proc.returncode == 0 and result["correct"] is True
    assert set(result["metrics"]) == {f"{w}/{m}" for w in workloads.WORKLOADS for m in run.metric_units("end_to_end")}


def _one_op(cls, workdir):
    wl = cls(smoke=True)
    ctx = wl.setup(workloads.DEFAULT_SEED, str(workdir))
    key, inputs = wl.unit(ctx, 0)[0]
    return wl, ctx, key, inputs, wl.op(ctx, inputs)


def _failures(wl, ctx, key, inputs, out):
    return run.check_op(wl, ctx, key, inputs, out, {})


def test_gate_rejects_perturbed_cost_and_wrong_path(tmp_path):
    wl, ctx, key, inputs, out = _one_op(workloads.NominalBox, tmp_path)
    assert _failures(wl, ctx, key, inputs, out) == []
    nominal = out["nominal"]

    perturbed = dataclasses.replace(nominal, worst_case_cost=nominal.worst_case_cost * (1 + 1e-6))
    assert _failures(wl, ctx, key, inputs, {**out, "nominal": perturbed})

    other_day = wl.unit(ctx, 1)[0][1][0]
    other = md.solve_nominal(out["graph"], other_day, ctx["tariff"]).path
    assert other.edges != nominal.path.edges
    assert _failures(wl, ctx, key, inputs, {**out, "nominal": dataclasses.replace(nominal, path=other)})

    truncated = dataclasses.replace(nominal.path, edges=nominal.path.edges[:-1])
    assert _failures(wl, ctx, key, inputs, {**out, "nominal": dataclasses.replace(nominal, path=truncated)})

    off_total = dataclasses.replace(nominal.path, total=nominal.path.total * (1 + 1e-6))
    assert _failures(wl, ctx, key, inputs, {**out, "nominal": dataclasses.replace(nominal, path=off_total)})

    # a valid but suboptimal path, reported consistently at its true cost
    day, graph, tariff = inputs[0], out["graph"], ctx["tariff"]
    cost = md.path_cost_at(graph, other, day, tariff)
    suboptimal = dataclasses.replace(nominal, path=dataclasses.replace(other, total=cost), worst_case_cost=cost)
    schedule = md.build_schedule(graph, other, day, tariff)
    assert _failures(wl, ctx, key, inputs, {**out, "nominal": suboptimal, "nominal_schedule": schedule})


def test_gate_rejects_perturbed_mixed_and_pack_costs(tmp_path):
    wl, ctx, key, inputs, out = _one_op(workloads.MixedGrid, tmp_path)
    assert _failures(wl, ctx, key, inputs, out) == []
    mixed = out["mixed"]
    bad = dataclasses.replace(mixed, worst_case_cost=mixed.worst_case_cost + 1e-3)
    assert _failures(wl, ctx, key, inputs, {**out, "mixed": bad})

    later = []
    assert workloads.run_checks(wl, ctx, key, inputs, out, None, later) == [] and len(later) == 1
    gate = workloads.Gate("late")
    wl.check_dominance(ctx, inputs[1], dataclasses.replace(mixed, worst_case_cost=mixed.worst_case_cost + 1e3), gate)
    assert not gate.ok

    wl, ctx, key, inputs, out = _one_op(workloads.PackReplay, tmp_path)
    assert _failures(wl, ctx, key, inputs, out) == []
    case = out["case"]
    entries = tuple(dataclasses.replace(e, realized_cost=e.realized_cost * 1.001) if e.name == "box" else e
                    for e in case.entries)
    assert _failures(wl, ctx, key, inputs, {**out, "case": dataclasses.replace(case, entries=entries)})


def test_gate_checks_recorded_values(tmp_path):
    wl, ctx, key, inputs, out = _one_op(workloads.NominalBox, tmp_path)
    values = wl.values(out)
    assert workloads.run_checks(wl, ctx, key, inputs, out, values) == []
    off = {name: v * (1 + 1e-8) for name, v in values.items()}
    assert workloads.run_checks(wl, ctx, key, inputs, out, off)


def test_trace_patches_every_namespace_and_restores():
    tracer = spans.Tracer()
    originals = {name: getattr(md.solvers, name) for name in ("shortest_path_restricted", "scenario_weights")}
    tracer.install()
    try:
        assert md.solvers.shortest_path_restricted is not originals["shortest_path_restricted"]
        assert md.schedule.solve_nominal is md.solvers.solve_nominal is md.solve_nominal
        assert md.cli.build_graph is md.graph.build_graph
        assert all(tracer.rebound.get(m) for m in spans.MUST_REBIND)
        with pytest.raises(spans.TraceError):
            tracer.install()
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        assert getattr(md.solvers, name) is fn
    assert not hasattr(md.schedule.compare_day, "__wrapped__")
    assert not hasattr(md.Tariff.power_cost_block, "__wrapped__")


def test_trace_reconciliation_flags_wrong_counts(tmp_path):
    wl, ctx, key, inputs, _ = _one_op(workloads.MixedGrid, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.root("op"):
            wl.op(ctx, inputs)
    finally:
        tracer.uninstall()
    assert spans.reconcile(tracer, wl.solves) == []
    assert spans.reconcile(tracer, {"solve_mixed_additive": 2})


def test_default_seed_pack_is_the_shipped_pack(tmp_path):
    shipped = HERE.parent / "data" / "four_season"
    if not shipped.is_dir():
        pytest.skip("no shipped pack in this checkout")
    md.build_four_season_pack(str(tmp_path), seed=workloads.DEFAULT_SEED)

    def same(cmp: filecmp.dircmp) -> bool:
        _, mismatch, errors = filecmp.cmpfiles(cmp.left, cmp.right, cmp.common_files, shallow=False)
        return not (cmp.left_only or cmp.right_only or mismatch or errors) and \
            all(same(sub) for sub in cmp.subdirs.values())

    assert same(filecmp.dircmp(str(shipped), str(tmp_path)))


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pack-replay-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
