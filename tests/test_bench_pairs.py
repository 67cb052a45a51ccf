"""The paired comparison tool's run order, its refusal of cached checkouts and its summary."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs

BENCHMARK = {
    "run_seconds": 25,
    "end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "req_per_s", "better": "higher", "bound": 0.25},
    ],
}


def _stdout(wall_s: float, correct: bool = True) -> str:
    result = {
        "correct": correct,
        "attempted": 24,
        "failed": 0,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "req_per_s": {"value": 100.0 / wall_s, "unit": "1/s"},
            "peak_rss_mib": {"value": 30.0, "unit": "MiB"},
        },
    }
    return f"outputs sha256=abc jobs=8 passes=20\n{json.dumps(result)}\n"


def _checkouts(tmp_path):
    roots = {}
    for side in ("parent", "change"):
        root = roots[side] = tmp_path / side
        (root / "src" / "mmtsim").mkdir(parents=True)
        (root / "perfbench").mkdir()
        (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    return roots


def _fake_runs(monkeypatch, walls, correct=True):
    """Answer each run with the next wall time of its checkout's side; return the calls."""
    calls = []

    def fake_run(cmd, cwd, capture_output, text, env):
        side = Path(cwd).name
        calls.append((side, cmd, env))
        wall_s = walls[side][sum(s == side for s, _, _ in calls) - 1]
        return subprocess.CompletedProcess(cmd, 0, stdout=_stdout(wall_s, correct), stderr="")

    monkeypatch.setattr(bench_pairs.bench_record.subprocess, "run", fake_run)
    return calls


def test_pairs_alternate_which_side_runs_first_at_one_seed_per_pair(monkeypatch, tmp_path, capsys):
    roots = _checkouts(tmp_path)
    walls = {
        "parent": [1.0, 1.2, 1.1, 1.3, 1.05, 1.25, 1.15, 1.35, 1.0, 1.2],
        "change": [0.9, 1.0, 1.15, 0.95, 0.9, 1.0, 1.2, 1.0, 0.85, 0.95],
    }
    calls = _fake_runs(monkeypatch, walls)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")
    argv = ["--parent", str(roots["parent"]), "--change", str(roots["change"]), "--workload", "suite-cli"]
    assert bench_pairs.main([*argv, "--seed", "11"]) == 0
    assert [side for side, _, _ in calls] == ["parent", "change", "change", "parent"] * 5
    seeds = [int(cmd[cmd.index("--seed") + 1]) for _, cmd, _ in calls]
    assert seeds == [s for s in range(11, 21) for _ in range(2)]
    for side, cmd, env in calls:
        assert cmd[1] == str(roots[side] / "perfbench" / "run.py")
        assert cmd[cmd.index("--seconds") + 1] == "25" and cmd[cmd.index("--trace") + 1] == "0"
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    out = capsys.readouterr().out
    assert "peak_rss_mib" not in out  # only BENCHMARK.json's end-to-end metrics
    wall = next(line for line in out.splitlines() if " wall_s " in line)
    assert "parent 1.175 [IQR 0.175]" in wall and "change 0.975 [IQR 0.0875]" in wall
    assert "the change won 8 of 10" in wall and "differ by more than" in wall
    assert wall.endswith("worse than the parent by more than the 25% bound: no")


def test_the_summary_counts_wins_in_each_metrics_better_direction():
    c = bench_pairs.compare({"parent": [10.0, 20.0, 30.0], "change": [12.0, 19.0, 31.0]}, "higher", 0.25)
    assert c["wins"] == 2 and c["parent"]["median"] == 20.0 and c["parent"]["iqr"] == 10.0
    assert c["relative"] == pytest.approx(-0.05) and not c["beyond_parent_iqr"]
    assert bench_pairs.compare({"parent": [10.0, 20.0, 30.0], "change": [12.0, 19.0, 31.0]}, "lower", 0.25)["wins"] == 1


@pytest.mark.parametrize(
    ("better", "change", "beyond"),
    [
        ("lower", [11.9, 12.1, 12.2], False),  # +21%: worse, within 25%
        ("lower", [12.4, 12.6, 12.8], True),  # +26%
        ("lower", [5.0, 5.0, 5.0], False),  # −50%: better by any margin
        ("higher", [7.9, 8.1, 8.2], False),  # −19%
        ("higher", [7.3, 7.4, 7.6], True),  # −26%
        ("higher", [20.0, 20.0, 20.0], False),  # +100%
    ],
)
def test_the_summary_tells_whether_the_median_is_worse_by_more_than_the_bound(better, change, beyond):
    c = bench_pairs.compare({"parent": [9.0, 10.0, 11.0], "change": change}, better, 0.25)
    assert c["beyond_bound"] is beyond


def test_fewer_than_ten_pairs_are_refused(monkeypatch, tmp_path, capsys):
    roots = _checkouts(tmp_path)
    calls = _fake_runs(monkeypatch, {"parent": [1.0] * 9, "change": [1.0] * 9})
    argv = ["--parent", str(roots["parent"]), "--change", str(roots["change"]), "--workload", "suite-cli"]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([*argv, "--pairs", "9"])
    assert exc.value.code == 2 and calls == []
    assert "--pairs must be at least 10" in capsys.readouterr().err


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_checkout_holding_a_bytecode_cache_is_refused(monkeypatch, tmp_path, capsys, side):
    roots = _checkouts(tmp_path)
    (roots[side] / "src" / "mmtsim" / "__pycache__").mkdir()
    calls = _fake_runs(monkeypatch, {"parent": [1.0] * 10, "change": [1.0] * 10})
    argv = ["--parent", str(roots["parent"]), "--change", str(roots["change"]), "--workload", "suite-cli"]
    assert bench_pairs.main(argv) == 2
    assert calls == []
    assert f"refusing the {side} checkout" in capsys.readouterr().err


def test_an_incorrect_run_fails_the_comparison(monkeypatch, tmp_path, capsys):
    roots = _checkouts(tmp_path)
    _fake_runs(monkeypatch, {"parent": [1.0] * 10, "change": [1.0] * 10}, correct=False)
    argv = ["--parent", str(roots["parent"]), "--change", str(roots["change"]), "--workload", "preset-sweep"]
    assert bench_pairs.main(argv) == 1
    assert "every run correct with no failed operation: False" in capsys.readouterr().out


PARENT_WALLS = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]  # median 1.0, IQR 0.02


@pytest.mark.parametrize(
    ("change", "holds"),
    [
        # 9 of 10 won, the median 0.1 below: the gain holds
        ([0.90, 0.92, 0.88, 0.91, 0.89, 0.90, 0.93, 0.87, 0.91, 1.05], True),
        # 8 of 10 won, the median as far below: it does not
        ([0.90, 0.92, 0.88, 0.91, 0.89, 0.90, 0.93, 0.87, 1.05, 1.05], False),
        # 10 of 10 won, the median 0.01 below, inside the parent's IQR of 0.02: it does not
        ([0.99, 1.01, 0.97, 1.00, 0.98, 0.99, 1.02, 0.96, 1.00, 0.98], False),
    ],
    ids=["9-of-10", "8-of-10", "within-the-IQR"],
)
def test_the_summary_tells_whether_a_gain_holds(monkeypatch, tmp_path, capsys, change, holds):
    roots = _checkouts(tmp_path)
    _fake_runs(monkeypatch, {"parent": PARENT_WALLS, "change": change})
    argv = ["--parent", str(roots["parent"]), "--change", str(roots["change"]), "--workload", "suite-cli"]
    assert bench_pairs.main(argv) == 0
    lines = {line.split()[1]: line for line in capsys.readouterr().out.splitlines() if line.startswith("suite-cli ")}
    verdict = f"median better by more than the parent's IQR): {'yes' if holds else 'no'};"
    assert verdict in lines["wall_s"] and verdict in lines["req_per_s"]  # req_per_s is 100 / wall_s



def test_the_paired_median_shows_a_loss_that_the_two_medians_hide(monkeypatch, tmp_path, capsys):
    # seeds of different lengths; the change loses 8 pairs by 2 ms and wins 2 by more, near the
    # middle, so its unpaired median reads better than the parent's
    parent = [0.470, 0.440, 0.462, 0.490, 0.455, 0.465, 0.450, 0.480, 0.460, 0.475]
    change = [0.472, 0.442, 0.445, 0.492, 0.457, 0.448, 0.452, 0.482, 0.462, 0.477]
    roots = _checkouts(tmp_path)
    _fake_runs(monkeypatch, {"parent": parent, "change": change})
    argv = ["--parent", str(roots["parent"]), "--change", str(roots["change"]), "--workload", "preset-sweep"]
    assert bench_pairs.main(argv) == 0
    lines = {line.split()[1]: line for line in capsys.readouterr().out.splitlines() if line.startswith("preset-sweep ")}
    wall, rate = lines["wall_s"], lines["req_per_s"]
    assert "parent 0.4635 [IQR 0.0175] -> change 0.4595 [IQR 0.0267], -0.9%;" in wall
    assert "the median of the per-pair changes (change/parent - 1) is +0.4%;" in wall
    assert "+0.9%; the median of the per-pair changes (change/parent - 1) is -0.4%;" in rate  # 100 / wall_s
    assert "the change won 2 of 10" in wall and "the change won 2 of 10" in rate
