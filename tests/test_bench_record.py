"""The BENCH collector's parsing and summary, on the output format of perfbench/run.py."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _stdout(wall_s: float) -> str:
    result = {
        "correct": True,
        "attempted": 24,
        "failed": 0,
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"}, "peak_rss_mib": {"value": 40.0, "unit": "MiB"}},
    }
    return (
        "perfbench workload=suite-cli seed=7 seconds=25 trace=0 python=3.11.7 nproc=2 processes=1 threads=1\n"
        "outputs sha256=abc jobs=8 passes=20\n"
        "pass_s host=1.0 at_reference_speed=1.0\n"
        "counts vr-gaming: requests=9900 completed=9900 dropped=0 untriggered=0\n"
        f"metric wall_s = {wall_s!r} s (n=20)\n"
        f"{json.dumps(result)}\n"
    )


def test_the_result_and_the_digest_lines_are_read_from_a_run():
    stdout = _stdout(1.25)
    assert bench_record.result_of(stdout)["metrics"]["wall_s"]["value"] == 1.25
    assert bench_record.digest_lines(stdout) == [
        "outputs sha256=abc jobs=8 passes=20",
        "counts vr-gaming: requests=9900 completed=9900 dropped=0 untriggered=0",
    ]


def test_each_metric_is_summarized_by_its_median_and_iqr():
    runs = [bench_record.result_of(_stdout(w)) for w in (1.4, 1.0, 1.2, 1.1, 1.3)]
    wall = bench_record.summarize(runs)["wall_s"]
    assert wall["median"] == pytest.approx(1.2)
    assert wall["iqr"] == pytest.approx(1.3 - 1.1)
    assert wall["values"] == [1.4, 1.0, 1.2, 1.1, 1.3] and wall["unit"] == "s"


def test_every_run_starts_without_a_bytecode_cache(monkeypatch, tmp_path):
    calls = []

    def fake_run(cmd, cwd, capture_output, text, env):
        calls.append((cmd, env))
        return subprocess.CompletedProcess(cmd, 0, stdout=_stdout(1.0), stderr="")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "caches"))
    for seed in (7, 8):
        assert bench_record.result_of(bench_record.run_perfbench("suite-cli", seed, trace=0))["correct"]
    assert [cmd[cmd.index("--seed") + 1] for cmd, _ in calls] == ["7", "8"]
    for _, env in calls:
        # mmtsim compiles from source and writes no cache; the standard library keeps its own caches
        assert env["PYTHONDONTWRITEBYTECODE"] == "1" and "PYTHONPYCACHEPREFIX" not in env


def test_the_point_records_that_its_runs_had_no_bytecode_cache(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "git", lambda *args: "")
    monkeypatch.setattr(bench_record, "record_workload", lambda workload: {"correct": True})
    (tmp_path / "src" / "mmtsim").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    assert bench_record.main(["--pr", "0"]) == 0
    settings = json.loads((tmp_path / "BENCH_0.json").read_text())["settings"]
    assert settings["env"] == {"PYTHONDONTWRITEBYTECODE": "1"}
    assert settings["no_pycache_in"] == ["src", "perfbench"]


def test_the_point_records_each_workload_that_benchmark_json_names(monkeypatch, tmp_path):
    bench = json.loads((Path(bench_record.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "git", lambda *args: "")
    monkeypatch.setattr(bench_record, "record_workload", lambda workload: {"correct": True})
    assert bench_record.main(["--pr", "0"]) == 0
    recorded = json.loads((tmp_path / "BENCH_0.json").read_text())["workloads"]
    assert list(recorded) == [w["name"] for w in bench["workloads"]]
    assert bench_record.SECONDS == bench["run_seconds"]


@pytest.mark.parametrize("cache", ["src/mmtsim/__pycache__", "perfbench/__pycache__"])
def test_a_checkout_holding_a_bytecode_cache_is_refused(monkeypatch, tmp_path, capsys, cache):
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "git", lambda *args: "")
    recorded = []
    monkeypatch.setattr(bench_record, "record_workload", recorded.append)
    (tmp_path / cache).mkdir(parents=True)
    (tmp_path / "tests" / "__pycache__").mkdir(parents=True)  # outside src/ and perfbench/: allowed
    assert bench_record.main(["--pr", "0"]) == 2
    assert recorded == [] and not (tmp_path / "BENCH_0.json").exists()
    err = capsys.readouterr().err
    assert cache in err and "tests" not in err
