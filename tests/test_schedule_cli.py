"""Schedule expansion, day comparison, and the command line front end."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from mgtdispatch import (
    DemandProfile,
    build_graph,
    build_four_season_pack,
    compare_day,
    ComparisonReport,
    cooldown_example,
    build_schedule,
    flat_tariff,
    save_demand,
    save_model,
    save_schedule,
    save_tariff,
    solve_nominal,
    synthetic_day,
    tou_tariff,
    TouConfig,
)
from mgtdispatch.cli import main
from instances import random_instance

INF = float("inf")


def test_schedule_rows_frozen(tiny_graph, tiny_tariff, tiny_demand):
    res = solve_nominal(tiny_graph, tiny_demand, tiny_tariff)
    sched = build_schedule(tiny_graph, res.path, tiny_demand, tiny_tariff)
    assert sched.n_steps == 4
    for t, row in enumerate(sched.rows):
        assert row.t == t
        assert row.state == "x_on" and row.control == "keep"
        assert row.p_mgt_kw == 10.0 and row.h_mgt_kw == 20.0
        assert row.p_util_kw == 4.0 and row.h_util_kw == 0.0
        assert row.step_cost == 4.0
    assert sched.total_cost == 16.0


def test_schedule_total_matches_path_cost():
    rng = np.random.default_rng(61)
    n_ok = 0
    for _ in range(20):
        inst = random_instance(rng)
        g = build_graph(inst["model"], inst["horizon"],
                        initial=inst["initial"], final=inst["final"])
        d = inst["forecast"].mean_profile()
        res = solve_nominal(g, d, inst["tariff"])
        if not res.feasible:
            continue
        n_ok += 1
        sched = build_schedule(g, res.path, d, inst["tariff"])
        assert sched.total_cost == pytest.approx(res.worst_case_cost, rel=1e-9)
        assert sched.n_steps == g.n_priced_steps
    assert n_ok >= 10


def test_schedule_rejects_infeasible(tiny_tariff, tiny_demand):
    g = build_graph(cooldown_example(), 2, initial="x_on", final="x_off2")
    res = solve_nominal(g, DemandProfile([14.0], [20.0]),
                        flat_tariff(1, 15.0, 0.5, None, 0.1))
    with pytest.raises(ValueError, match="infeasible"):
        build_schedule(g, res.path, DemandProfile([14.0], [20.0]),
                       flat_tariff(1, 15.0, 0.5, None, 0.1))


def test_save_schedule_csv(tiny_graph, tiny_tariff, tiny_demand, tmp_path):
    res = solve_nominal(tiny_graph, tiny_demand, tiny_tariff)
    sched = build_schedule(tiny_graph, res.path, tiny_demand, tiny_tariff)
    out = tmp_path / "sched.csv"
    save_schedule(sched, str(out))
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "state", "control", "p_mgt_kw", "h_mgt_kw",
                       "p_util_kw", "h_util_kw", "step_cost"]
    assert len(rows) == 5
    assert rows[1][0] == "0" and rows[1][1] == "x_on"
    assert float(rows[1][7]) == 4.0


def _history(rng, n_days, n_steps):
    base = synthetic_day(rng, n_steps, 900.0)
    days = []
    for _ in range(n_days):
        jitter = rng.normal(0.0, 1.0, n_steps)
        days.append(DemandProfile(np.maximum(base.power_kw + jitter, 0.0),
                                  np.maximum(base.heat_kw + np.abs(jitter), 0.0)))
    return days


def test_compare_day_shape_and_reductions():
    rng = np.random.default_rng(67)
    model = cooldown_example(step_seconds=900.0)
    n = 12
    tariff = flat_tariff(n, 900.0, 0.5, 0.1, 0.1)
    history = _history(rng, 5, n)
    realized = _history(rng, 1, n)[0]
    case = compare_day(model, tariff, history, realized,
                       alpha=1.0, alpha1=0.5, alpha2=2.0, name="testday")
    names = [e.name for e in case.entries]
    assert names == ["benchmark", "nominal", "box", "mixed"]
    bench = case.entry("benchmark")
    assert all(e.realized_cost >= bench.realized_cost - 1e-12 for e in case.entries)
    assert bench.reduction_pct is None or bench.reduction_pct == pytest.approx(100.0)
    nom = case.entry("nominal")
    if nom.reduction_pct is not None:
        assert nom.reduction_pct == pytest.approx(0.0, abs=1e-9)
    for e in case.entries:
        assert e.runtime_s >= 0.0


def test_compare_day_when_the_forecast_plans_cannot_run():
    # the forecast never drops below 13 kW, so every forecast plan keeps the
    # unit on; on the realized day it would export at step 2, where selling
    # is forbidden. Only the benchmark cycles the unit, so it alone is finite
    # and no reduction is defined.
    model = cooldown_example(p=10.0, h=20.0, on_cost=1.0, step_seconds=900.0)
    tariff = flat_tariff(6, 900.0, 0.5, None, 0.1)
    history = [DemandProfile(np.full(6, p), np.full(6, 20.0)) for p in (13.0, 14.0, 15.0)]
    realized = DemandProfile(np.array([14.0, 14.0, 6.0, 14.0, 14.0, 14.0]), np.full(6, 20.0))
    case = compare_day(model, tariff, history, realized, alpha=1.0, alpha1=0.5, alpha2=2.0)
    assert [(e.name, e.realized_cost, e.reduction_pct) for e in case.entries] == [
        ("benchmark", 32.0, None), ("nominal", INF, None), ("box", INF, None), ("mixed", INF, None)]
    assert all(e.feasible for e in case.entries)
    assert ComparisonReport(cases=(case,)).mean_reduction() == {}


def test_comparison_report_render_and_dict():
    rng = np.random.default_rng(71)
    model = cooldown_example(step_seconds=900.0)
    n = 8
    tariff = flat_tariff(n, 900.0, 0.5, 0.1, 0.1)
    case = compare_day(model, tariff, _history(rng, 4, n), _history(rng, 1, n)[0],
                       alpha=1.0, alpha1=0.5, alpha2=2.0, name="d1", mixed="additive",
                       grid_n=5)
    report = ComparisonReport(cases=(case,))
    text = report.render_table()
    assert "== d1 ==" in text
    assert "benchmark" in text and "mixed" in text
    d = report.to_dict()
    assert [a["name"] for a in d["cases"][0]["algorithms"]] == \
        ["benchmark", "nominal", "box", "mixed"]
    mixed = d["cases"][0]["algorithms"][3]
    assert mixed["thresholds_candidates"] == 5
    assert mixed["thresholds_evaluated"] <= mixed["thresholds_candidates"]


def _write_problem(tmp_path, n=6):
    rng = np.random.default_rng(73)
    model = cooldown_example(step_seconds=900.0)
    save_model(model, str(tmp_path / "model.json"))
    tariff = tou_tariff(TouConfig(
        step_seconds=900.0, horizon_steps=n, buy_peak_per_kwh=0.3,
        buy_offpeak_per_kwh=0.12, peak_start_hour=0.0, peak_end_hour=1.0,
        sell_per_kwh=0.05, heat_buy_per_kwh=0.07))
    save_tariff(tariff, str(tmp_path / "tariff.json"))
    day = synthetic_day(rng, n, 900.0)
    save_demand(day, str(tmp_path / "demand.csv"))
    hist = tmp_path / "hist"
    hist.mkdir()
    for i, d in enumerate(_history(rng, 4, n)):
        save_demand(d, str(hist / f"day{i:02d}.csv"))
    return tmp_path


def test_cli_solve_nominal(tmp_path, capsys):
    _write_problem(tmp_path)
    rc = main(["solve", "--model", str(tmp_path / "model.json"),
               "--tariff", str(tmp_path / "tariff.json"),
               "--demand", str(tmp_path / "demand.csv"),
               "--out-report", str(tmp_path / "report.json"),
               "--out-schedule", str(tmp_path / "sched.csv")])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert list(report) == ["algorithm", "feasible", "worst_case_cost", "worst_scenario", "threshold",
                            "thresholds_evaluated", "thresholds_candidates", "schedule_cost",
                            "evaluation_profile", "runtime_s", "horizon", "n_states", "n_nodes", "n_edges",
                            "initial_states", "final_states"]
    assert report["algorithm"] == "nominal"
    assert report["feasible"] is True
    assert report["horizon"] == 7
    assert report["evaluation_profile"] == "nominal"
    assert report["schedule_cost"] == pytest.approx(report["worst_case_cost"])
    with open(tmp_path / "sched.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 7  # header + one row per demand step
    out = capsys.readouterr().out
    assert "worst_case_cost=" in out


def test_cli_solve_box_and_mixed(tmp_path):
    _write_problem(tmp_path)
    base = ["solve", "--model", str(tmp_path / "model.json"),
            "--tariff", str(tmp_path / "tariff.json"),
            "--history", str(tmp_path / "hist")]
    rc = main(base + ["--algo", "box", "--alpha", "1.0",
                      "--out-report", str(tmp_path / "box.json")])
    assert rc == 0
    rep = json.loads((tmp_path / "box.json").read_text())
    assert rep["algorithm"] == "box-corner" or rep["algorithm"] == "box"
    assert rep["evaluation_profile"] == "box-corner"

    rc = main(base + ["--algo", "mixed-add", "--grid-n", "30",
                      "--alpha1", "0.5", "--alpha2", "2.0",
                      "--out-report", str(tmp_path / "mix.json")])
    assert rc == 0
    rep = json.loads((tmp_path / "mix.json").read_text())
    assert rep["thresholds_candidates"] == 30
    assert rep["thresholds_evaluated"] <= rep["thresholds_candidates"]
    assert rep["evaluation_profile"] == "bias"


def test_cli_solve_infeasible_exits_2(tmp_path):
    # a single step cannot bridge x_on -> x_off2
    _write_problem(tmp_path)
    save_demand(DemandProfile([20.0], [30.0]), str(tmp_path / "one.csv"))
    rc = main(["solve", "--model", str(tmp_path / "model.json"),
               "--tariff", str(tmp_path / "tariff.json"),
               "--demand", str(tmp_path / "one.csv"),
               "--initial-state", "x_on", "--final-state", "x_off2"])
    assert rc == 2


def test_cli_infeasible_reports_are_strict_json(tmp_path, capsys):
    # x_on cannot reach x_off3+ in two steps, so every cost is +inf; both
    # reports write it as null, and a strict parser reads them
    rng = np.random.default_rng(79)
    save_model(cooldown_example(step_seconds=900.0), str(tmp_path / "model.json"))
    save_tariff(flat_tariff(2, 900.0, 0.5, 0.1, 0.1), str(tmp_path / "tariff.json"))
    (tmp_path / "hist").mkdir()
    days = _history(rng, 3, 2)
    for i, d in enumerate(days):
        save_demand(d, str(tmp_path / "hist" / f"day{i}.csv"))
    save_demand(days[0], str(tmp_path / "realized.csv"))
    files = ["--model", str(tmp_path / "model.json"), "--tariff", str(tmp_path / "tariff.json"),
             "--history", str(tmp_path / "hist"), "--initial-state", "x_on", "--final-state", "x_off3+"]

    def strict(name):
        def refuse(token):
            raise ValueError(f"{token} is not JSON")
        return json.loads((tmp_path / name).read_text(), parse_constant=refuse)

    assert main(["compare", *files, "--realized", str(tmp_path / "realized.csv"),
                 "--out", str(tmp_path / "cmp.json")]) == 2
    algos = strict("cmp.json")["cases"][0]["algorithms"]
    assert [(a["worst_case_cost"], a["realized_cost"]) for a in algos] == [(None, None)] * 4
    assert " inf " in capsys.readouterr().out
    assert main(["solve", *files, "--algo", "box", "--out-report", str(tmp_path / "solve.json")]) == 2
    assert strict("solve.json")["worst_case_cost"] is None


def test_cli_validate(tmp_path, capsys):
    _write_problem(tmp_path)
    rc = main(["validate", "--model", str(tmp_path / "model.json"),
               "--tariff", str(tmp_path / "tariff.json"),
               "--demand", str(tmp_path / "demand.csv"),
               "--history", str(tmp_path / "hist")])
    assert rc == 0
    (tmp_path / "broken.json").write_text("{not json")
    rc = main(["validate", "--model", str(tmp_path / "broken.json")])
    assert rc == 1


PACK = Path(__file__).resolve().parents[1] / "data" / "four_season"


def _edited_winter(tmp_path, edit):
    data = json.loads((PACK / "winter" / "tariff.json").read_text())
    edit(data["power"])
    (tmp_path / "tariff.json").write_text(json.dumps(data))
    return (["--model", str(PACK / "model.json"), "--tariff", str(tmp_path / "tariff.json")],
            ["--history", str(PACK / "winter" / "history")])


def test_cli_nan_price_exits_1(tmp_path, capsys):
    files, hist = _edited_winter(tmp_path, lambda rows: rows[1].update(buy_per_kwh=float("nan")))
    assert main(["validate", *files]) == 1
    assert main(["solve", *files, *hist, "--algo", "box"]) == 1
    assert "finite" in capsys.readouterr().err


def test_cli_negative_price_is_refused(tmp_path, capsys):
    def negative(rows):
        for row in rows:
            row["buy_per_kwh"] = -5.0
    files, hist = _edited_winter(tmp_path, negative)
    assert main(["validate", *files]) == 0
    assert "cost falls as demand rises" in capsys.readouterr().out
    assert main(["solve", *files, *hist, "--algo", "box"]) == 1
    assert "never fall" in capsys.readouterr().err


def test_cli_missing_file_exits_1(tmp_path):
    rc = main(["solve", "--model", str(tmp_path / "missing.json"),
               "--tariff", str(tmp_path / "missing2.json"),
               "--demand", str(tmp_path / "nothing.csv")])
    assert rc == 1


def test_cli_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # --model/--tariff are required
    assert exc.value.code == 1


def test_cli_bench_tiny(tmp_path, capsys):
    rc = main(["bench", "--horizons", "6,12", "--n-speeds", "2",
               "--n-valves", "2", "--step-seconds", "900",
               "--out", str(tmp_path / "bench.json")])
    assert rc == 0
    rows = json.loads((tmp_path / "bench.json").read_text())
    assert [r["horizon"] for r in rows] == [6, 12]
    for r in rows:
        assert r["nominal_s"] >= 0.0 and np.isfinite(r["nominal_cost"])
    out = capsys.readouterr().out
    assert "horizon" in out


def test_cli_compare_pack(tmp_path, capsys):
    pack_dir = tmp_path / "pack"
    build_four_season_pack(str(pack_dir), n_steps=12, n_history_days=4, seed=5)
    rc = main(["compare", "--pack", str(pack_dir), "--season", "winter",
               "--mixed", "add", "--grid-n", "5",
               "--out", str(tmp_path / "cmp.json")])
    assert rc == 0
    data = json.loads((tmp_path / "cmp.json").read_text())
    assert len(data["cases"]) == 1
    algos = data["cases"][0]["algorithms"]
    assert [a["name"] for a in algos] == ["benchmark", "nominal", "box", "mixed"]
    assert list(algos[3]) == ["name", "feasible", "worst_case_cost", "worst_scenario", "threshold",
                              "thresholds_evaluated", "thresholds_candidates", "realized_cost",
                              "reduction_pct", "runtime_s"]
    bench = algos[0]["realized_cost"]
    assert all(a["realized_cost"] >= bench - 1e-12 for a in algos)
    out = capsys.readouterr().out
    assert "winter" in out
