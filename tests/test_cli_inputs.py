"""Bad input files and flags reach the command line as exit 1, never as a traceback."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mgtdispatch import build_four_season_pack
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
