"""Bad input files and flags reach the command line as exit 1, never as a traceback."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mgtdispatch import DemandProfile, build_four_season_pack, load_demand, save_demand
from mgtdispatch.cli import main

ROOT = Path(__file__).resolve().parents[1]
PACK = ROOT / "data" / "four_season"

BAD_VALUES = [float("nan"), float("inf"), -float("inf"), -1, -2.5, 2.5, 0, "x", None, [], {}]
BAD_CELLS = ["", "abc", "nan", "inf", "-inf", "-1", "2.5", "1e400", "None"]
DROP = object()  # remove the key instead of setting it


@pytest.fixture(scope="module")
def small_pack(tmp_path_factory):
    pack = tmp_path_factory.mktemp("pack") / "pack"
    build_four_season_pack(str(pack), n_steps=12, n_history_days=4, seed=5)
    return pack


def _commands(pack: Path) -> list[list[str]]:
    w = pack / "winter"
    files = ["--model", str(pack / "model.json"), "--tariff", str(w / "tariff.json")]
    hist = ["--history", str(w / "history")]
    return [
        ["validate", *files, "--demand", str(w / "realized.csv"), *hist],
        ["solve", *files, "--demand", str(w / "realized.csv")],
        ["solve", *files, *hist, "--algo", "box"],
        ["solve", *files, *hist, "--algo", "mixed-add", "--grid-n", "4"],
        ["compare", "--pack", str(pack), "--season", "winter", "--mixed", "add", "--grid-n", "4"],
    ]


def _exit_codes(pack: Path, capsys) -> list[int]:
    codes = [main(argv) for argv in _commands(pack)]
    capsys.readouterr()
    return codes


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))  # NaN and Infinity are written as JSON allows them


def _set(obj: dict, key: str, value) -> None:
    if value is DROP:
        obj.pop(key, None)
    else:
        obj[key] = value


def _mutate(rng, pack: Path) -> str:
    """Damage one field or cell of the pack's model, winter tariff or a demand file."""
    value = DROP if rng.random() < 0.2 else BAD_VALUES[int(rng.integers(len(BAD_VALUES)))]
    what = int(rng.integers(3))
    if what == 0:
        def edit(model):
            if rng.random() < 0.2:
                _set(model, ["step_seconds", "states", "transitions"][int(rng.integers(3))], value)
                return
            row = model["transitions"][int(rng.integers(len(model["transitions"])))]
            _set(row, list(row)[int(rng.integers(len(row)))], value)
        _edit_json(pack / "model.json", edit)
        return f"model {value!r}"
    if what == 1:
        def edit(tariff):
            r = rng.random()
            if r < 0.3:
                _set(tariff, ["step_seconds", "horizon_steps", "power", "heat"][int(rng.integers(4))], value)
            elif r < 0.9:
                row = tariff["power"][int(rng.integers(len(tariff["power"])))]
                _set(row, list(row)[int(rng.integers(len(row)))], value)
            else:
                _set(tariff["heat"], "buy_per_kwh", value)
        _edit_json(pack / "winter" / "tariff.json", edit)
        return f"tariff {value!r}"
    files = [pack / "winter" / "realized.csv", *sorted((pack / "winter" / "history").glob("*.csv"))]
    path = files[int(rng.integers(len(files)))]
    lines = path.read_text().splitlines()
    i = int(rng.integers(len(lines)))
    cells = lines[i].split(",")
    r = rng.random()
    if r < 0.1:
        del lines[i]
    elif r < 0.2:
        lines[i] += ",1.0"
    else:
        cells[int(rng.integers(len(cells)))] = BAD_CELLS[int(rng.integers(len(BAD_CELLS)))]
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return f"{path.name} line {i}"


def test_fuzzed_input_files_exit_0_1_or_2(small_pack, tmp_path, capsys):
    assert _exit_codes(small_pack, capsys) == [0] * 5
    rng = np.random.default_rng(83)
    seen = set()
    for case in range(300):
        pack = tmp_path / f"case{case}"
        shutil.copytree(small_pack, pack)
        label = _mutate(rng, pack)
        codes = _exit_codes(pack, capsys)
        assert set(codes) <= {0, 1, 2}, (label, codes)
        seen.update(codes)
        shutil.rmtree(pack)
    assert 1 in seen


@pytest.mark.parametrize("target, edit", [
    ("model.json", lambda d: d["transitions"][3].update(duration_steps=float("inf"))),
    ("model.json", lambda d: d["transitions"][3].update(duration_steps=2.5)),
    ("winter/tariff.json", lambda d: d.update(horizon_steps=float("inf"))),
    ("winter/tariff.json", lambda d: d["power"][0].update(from_step=float("inf"))),
    ("winter/tariff.json", lambda d: d["power"][0].update(to_step=2.5)),
], ids=["duration-inf", "duration-2.5", "horizon-inf", "from-step-inf", "to-step-2.5"])
def test_integer_fields_refuse_infinity_and_fractions(small_pack, tmp_path, capsys, target, edit):
    pack = tmp_path / "pack"
    shutil.copytree(small_pack, pack)
    _edit_json(pack / target, edit)
    for argv in _commands(pack):
        assert main(argv) == 1
        assert "whole number" in capsys.readouterr().err


@pytest.mark.parametrize("target, edit", [
    ("model.json", lambda d: d["transitions"][3].update(duration_steps=True)),
    ("model.json", lambda d: d["transitions"][3].update(power_kw="5")),
    ("model.json", lambda d: d.update(step_seconds="900")),
    ("model.json", lambda d: d["transitions"][3].update(op_cost=10 ** 400)),
    ("winter/tariff.json", lambda d: d["power"][0].update(buy_per_kwh=True)),
    ("winter/tariff.json", lambda d: d["power"][0].update(sell_per_kwh=False)),
    ("winter/tariff.json", lambda d: d.update(horizon_steps="12")),
    ("winter/tariff.json", lambda d: d.update(step_seconds="900")),
    ("winter/tariff.json", lambda d: d.update(step_seconds=10 ** 400)),
    ("winter/tariff.json", lambda d: d["heat"].update(buy_per_kwh=10 ** 400)),
], ids=["duration-true", "power-string", "model-step-string", "op-cost-huge", "buy-true", "sell-false",
        "horizon-string", "tariff-step-string", "tariff-step-huge", "heat-buy-huge"])
def test_numeric_fields_refuse_bools_strings_and_huge_integers(small_pack, tmp_path, capsys, target, edit):
    # float() read true as 1.0 and "5" as 5.0, and overflowed on an integer
    # literal beyond every float
    pack = tmp_path / "pack"
    shutil.copytree(small_pack, pack)
    _edit_json(pack / target, edit)
    for argv in _commands(pack):
        assert main(argv) == 1
        assert "must be a number" in capsys.readouterr().err


def test_validate_refuses_a_history_forecasting_refuses(small_pack, tmp_path, capsys):
    # one day gives no spread; solve and compare refuse it, so validate does too
    hist = tmp_path / "history"
    hist.mkdir()
    shutil.copy(small_pack / "winter" / "history" / "day01.csv", hist)
    assert main(["validate", "--model", str(small_pack / "model.json"), "--history", str(hist)]) == 1
    assert "history: need at least two historical days" in capsys.readouterr().out
    shutil.copy(small_pack / "winter" / "history" / "day02.csv", hist)
    assert main(["validate", "--model", str(small_pack / "model.json"), "--history", str(hist)]) == 0
    assert "history: ok (2 days of 12 steps)" in capsys.readouterr().out


@pytest.mark.parametrize("edit", [
    lambda d: d["transitions"][3].update(control=float("nan")),
    lambda d: d["transitions"][3].update(control={}),
    lambda d: d["transitions"][3].update(control=-2.5),
    lambda d: d["transitions"][3].update({"from": 0}),
    lambda d: d["transitions"][3].update(to=None),
    lambda d: d["states"].__setitem__(0, 7),
], ids=["control-nan", "control-dict", "control-negative", "from-int", "to-null", "state-int"])
def test_model_names_must_be_strings(small_pack, tmp_path, capsys, edit):
    pack = tmp_path / "pack"
    shutil.copytree(small_pack, pack)
    _edit_json(pack / "model.json", edit)
    for argv in _commands(pack):
        assert main(argv) == 1
        assert "must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("model"),
    lambda d: d.update(model=None),
    lambda d: d.pop("seasons"),
    lambda d: d.update(seasons="winter"),
    lambda d: d.update(seasons=[]),
    lambda d: d.update(seasons=["winter", "spring", "winter"]),
    lambda d: d.update(alpha="x"),
    lambda d: d.update(alpha=None),
    lambda d: d.update(alpha=[1]),
    lambda d: d.update(alpha=-1),
    lambda d: d.update(alpha=True),
    lambda d: d.update(alpha=float("nan")),
    lambda d: d.update(alpha1=float("inf")),
    lambda d: d.update(alpha1="0.5"),
    lambda d: d.update(alpha2=-2.0),
    lambda d: d.update(alpha2=False),
    lambda d: d.update(alpha2=10 ** 400),
], ids=["model-dropped", "model-null", "seasons-dropped", "seasons-string", "seasons-empty", "seasons-repeated",
        "alpha-string", "alpha-null", "alpha-list", "alpha-negative", "alpha-bool", "alpha-nan", "alpha1-inf",
        "alpha1-string", "alpha2-negative", "alpha2-bool", "alpha2-huge"])
def test_pack_manifest_is_checked_when_read(small_pack, tmp_path, capsys, edit):
    pack = tmp_path / "pack"
    shutil.copytree(small_pack, pack)
    _edit_json(pack / "pack.json", edit)
    assert main(["compare", "--pack", str(pack), "--mixed", "none"]) == 1
    assert "pack.json" in capsys.readouterr().err


def test_compare_refuses_a_repeated_season(small_pack, capsys):
    argv = ["compare", "--pack", str(small_pack), "--mixed", "none"]
    assert main(argv + ["--season", "winter", "--season", "summer", "--season", "winter"]) == 1
    captured = capsys.readouterr()
    assert "--season gives winter more than once" in captured.err
    assert captured.out == ""


def _compare_files(pack: Path) -> list[str]:
    w = pack / "winter"
    return ["compare", "--model", str(pack / "model.json"), "--tariff", str(w / "tariff.json"),
            "--history", str(w / "history"), "--mixed", "none"]


@pytest.mark.parametrize("n_steps", [11, 10])
def test_compare_refuses_a_realized_day_of_another_length(small_pack, tmp_path, capsys, n_steps):
    # the history's days have 12 steps; one step fewer used to drop the
    # forecast's last step without a word
    day = load_demand(str(small_pack / "winter" / "realized.csv"))
    realized = tmp_path / "realized.csv"
    save_demand(DemandProfile(day.power_kw[:n_steps], day.heat_kw[:n_steps]), str(realized))
    assert main(_compare_files(small_pack) + ["--realized", str(realized)]) == 1
    captured = capsys.readouterr()
    assert f"the forecast has 12 steps but the realized day has {n_steps}" in captured.err
    assert captured.out == ""


def test_compare_refuses_season_without_pack(small_pack, capsys):
    argv = _compare_files(small_pack) + ["--realized", str(small_pack / "winter" / "realized.csv")]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--season", "summer", "--season", "summer"]) == 1
    captured = capsys.readouterr()
    assert "--season needs --pack" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["solve", "compare"])
@pytest.mark.parametrize("mode, flags", [("add", []), ("add", ["--eps", "0.5", "--grid-n", "4"]), ("mul", [])])
def test_missing_grid_parameter_exits_1(small_pack, capsys, command, mode, flags):
    w = small_pack / "winter"
    if command == "solve":
        argv = ["solve", "--model", str(small_pack / "model.json"), "--tariff", str(w / "tariff.json"),
                "--history", str(w / "history"), "--algo", f"mixed-{mode}"]
    else:
        argv = ["compare", "--pack", str(small_pack), "--season", "winter", "--mixed", mode]
    assert main(argv + flags) == 1
    err = capsys.readouterr().err
    assert ("exactly one of epsilon or grid_n" if mode == "add" else "needs mu > 0") in err


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_tiny_mu_exits_1(small_pack, capsys, command):
    # about 1.1e9 ladder rungs: refused before any is built
    w = small_pack / "winter"
    if command == "solve":
        argv = ["solve", "--model", str(small_pack / "model.json"), "--tariff", str(w / "tariff.json"),
                "--history", str(w / "history"), "--algo", "mixed-mul", "--mu", "1e-9"]
    else:
        argv = ["compare", "--pack", str(small_pack), "--season", "winter", "--mu", "1e-9"]
    assert main(argv) == 1
    assert "budget rungs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "compare"])
@pytest.mark.parametrize("grid", [["--eps", "1e-9"], ["--grid-n", "1000000000"]])
def test_huge_additive_grid_exits_1(small_pack, capsys, command, grid):
    # about 4e8 and 1e9 budgets: refused before the grid is allocated
    w = small_pack / "winter"
    if command == "solve":
        argv = ["solve", "--model", str(small_pack / "model.json"), "--tariff", str(w / "tariff.json"),
                "--history", str(w / "history"), "--algo", "mixed-add", *grid]
    else:
        argv = ["compare", "--pack", str(small_pack), "--season", "winter", *grid]
    assert main(argv) == 1
    assert "budget rungs" in capsys.readouterr().err


@pytest.mark.parametrize("duration", [2**31, 10**30])
def test_transition_longer_than_the_day_never_runs(small_pack, tmp_path, capsys, duration):
    # such a transition has no edge in any layer, so the plan is the one without it
    pack = tmp_path / "pack"
    shutil.copytree(small_pack, pack)
    w = pack / "winter"

    def plan() -> bytes:
        out = tmp_path / "plan.csv"
        assert main(["solve", "--model", str(pack / "model.json"), "--tariff", str(w / "tariff.json"),
                     "--history", str(w / "history"), "--algo", "box", "--out-schedule", str(out)]) == 0
        return out.read_bytes()

    before = plan()
    _edit_json(pack / "model.json", lambda model: model["transitions"].append(
        dict(model["transitions"][0], control="linger", duration_steps=duration)))
    assert plan() == before
    capsys.readouterr()


def test_spike_budget_that_overflows_exits_1(capsys):
    w = PACK / "winter"
    argv = ["solve", "--model", str(PACK / "model.json"), "--tariff", str(w / "tariff.json"),
            "--history", str(w / "history"), "--algo", "mixed-exact", "--alpha2", "1e308"]
    assert main(argv) == 1
    assert "mu1 = 1e+308 overflows" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["0", "-15", "nan", "inf"])
def test_bench_refuses_bad_step(capsys, step):
    assert main(["bench", "--horizons", "6", "--n-speeds", "2", "--n-valves", "2", "--step-seconds", step]) == 1
    assert "error: step_seconds" in capsys.readouterr().err


def test_entry_point_exit_status(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "mgtdispatch", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    ok = run("validate", "--model", str(PACK / "model.json"),
             "--tariff", str(PACK / "winter" / "tariff.json"))
    assert ok.returncode == 0, ok.stderr
    assert "model: ok" in ok.stdout
    missing = run("solve", "--model", str(tmp_path / "missing.json"),
                  "--tariff", str(PACK / "winter" / "tariff.json"), "--demand", "nothing.csv")
    assert missing.returncode == 1
    assert missing.stderr.startswith("error:") and "Traceback" not in missing.stderr



def _long_tariff(pack: Path, path: Path, step: int, **odd) -> Path:
    """The pack's winter tariff stretched to 24 steps, with `odd` prices on `step` alone."""
    data = json.loads((pack / "winter" / "tariff.json").read_text())
    row = data["power"][0]
    data.update(horizon_steps=24, power=[dict(row, from_step=0, to_step=step),
                                         dict(row, from_step=step, to_step=step + 1, **odd),
                                         dict(row, from_step=step + 1, to_step=24)])
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("algo, flags", [("box", []), ("mixed-exact", []), ("mixed-add", ["--grid-n", "4"]),
                                         ("mixed-mul", ["--mu", "0.5"])])
def test_set_solves_check_tariff_rules_on_the_priced_steps(small_pack, tmp_path, capsys, algo, flags):
    # the 12-step day prices steps 0..11 of a 24-step tariff and no others
    w = small_pack / "winter"
    out = tmp_path / "report.json"

    def solve(tariff: Path) -> int:
        return main(["solve", "--model", str(small_pack / "model.json"), "--tariff", str(tariff),
                     "--history", str(w / "history"), "--algo", algo, *flags, "--out-report", str(out)])

    def report() -> dict:
        data = json.loads(out.read_text())
        data.pop("runtime_s")
        return data

    assert solve(w / "tariff.json") == 0
    expected = report()
    falls, bends = {"buy_per_kwh": -0.05}, {"sell_per_kwh": 0.3}
    for odd in (falls, bends):
        assert solve(_long_tariff(small_pack, tmp_path / "late.json", 20, **odd)) == 0
        assert report() == expected
    capsys.readouterr()
    assert solve(_long_tariff(small_pack, tmp_path / "priced.json", 11, **falls)) == 1
    assert "never fall as demand rises; 1 step(s) do, first t=11" in capsys.readouterr().err
    assert solve(_long_tariff(small_pack, tmp_path / "priced.json", 11, **bends)) == (0 if algo == "box" else 1)
    if algo != "box":
        assert "convex tariff; 1 step(s) are not, first t=11" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(step_seconds=60.0), "tariff step (60.0s) differs from model step (900.0s)"),
    (lambda d: d.update(horizon_steps=8, power=[dict(d["power"][0], to_step=8)]),
     "tariff covers 8 steps but the graph prices 12"),
], ids=["step", "coverage"])
@pytest.mark.parametrize("day", ["--demand", "--history"])
def test_validate_checks_the_tariff_against_the_day(small_pack, tmp_path, capsys, edit, message, day):
    # solve refuses these tariffs for a 12-step day, so validate does too once it is given a day
    w = small_pack / "winter"
    tariff = tmp_path / "tariff.json"
    tariff.write_text((w / "tariff.json").read_text())
    _edit_json(tariff, edit)
    files = ["--model", str(small_pack / "model.json"), "--tariff", str(tariff)]
    assert main(["validate", *files]) == 0
    assert capsys.readouterr().err == ""
    assert main(["validate", *files, day, str(w / ("realized.csv" if day == "--demand" else "history"))]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["solve", *files, "--demand", str(w / "realized.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_validate_refuses_a_negative_tariff_horizon(small_pack, tmp_path, capsys):
    tariff = tmp_path / "tariff.json"
    tariff.write_text((small_pack / "winter" / "tariff.json").read_text())
    _edit_json(tariff, lambda d: d.update(horizon_steps=-3))
    assert main(["validate", "--model", str(small_pack / "model.json"), "--tariff", str(tariff)]) == 1
    assert "error: horizon_steps must be >= 0, got -3" in capsys.readouterr().err


def test_compare_without_pack_names_each_missing_flag(small_pack, capsys):
    w = small_pack / "winter"
    given = {"model": str(small_pack / "model.json"), "tariff": str(w / "tariff.json"),
             "history": str(w / "history"), "realized": str(w / "realized.csv")}
    for missing in (["tariff"], ["model", "realized"], list(given)):
        argv = [a for k, v in given.items() if k not in missing for a in (f"--{k}", v)]
        assert main(["compare", *argv, "--mixed", "none"]) == 1
        captured = capsys.readouterr()
        assert f"(missing: {', '.join('--' + m for m in missing)})" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("horizons, message", [("abc", "cannot parse --horizons 'abc'"),
                                               ("1", "--horizons needs integers >= 2"),
                                               ("6,1", "--horizons needs integers >= 2")])
def test_bench_refuses_bad_horizons(capsys, horizons, message):
    assert main(["bench", "--horizons", horizons, "--n-speeds", "2", "--n-valves", "2"]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
