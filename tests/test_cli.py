import json
import math
import weakref

import pytest

from mmtsim import ConfigError, builtin_config, runtime
from mmtsim.cli import main
from mmtsim.costmodel import (
    CostTable,
    preset_system,
    synthetic_table,
    system_to_obj,
    table_to_obj,
)
from mmtsim.workload import config_to_obj


def test_run_builtin_suite(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--hw", "preset:J", "--synthetic", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["scenarios"]) == 7
    assert 0.0 <= report["overall"]["arithmetic"] <= 1.0
    assert (out / "summary.txt").exists()
    for sid in report["scenarios"]:
        assert (out / f"timeline_{sid}.csv").exists()
        assert (out / f"log_{sid}.json").exists()


def test_run_is_byte_deterministic(tmp_path):
    args = ["run", "--hw", "preset:B", "--synthetic", "--seed", "5", "--out"]
    assert main(args + [str(tmp_path / "a")]) == 0
    assert main(args + [str(tmp_path / "b")]) == 0
    assert (tmp_path / "a/report.json").read_bytes() == (tmp_path / "b/report.json").read_bytes()


def test_run_keeps_at_most_one_event_log_alive(tmp_path, monkeypatch):
    original = runtime.simulate
    refs, alive = [], []

    def simulate(*args, **kwargs):
        log = original(*args, **kwargs)
        refs.append(weakref.ref(log))
        alive.append(sum(ref() is not None for ref in refs))
        return log

    monkeypatch.setattr(runtime, "simulate", simulate)
    assert main(["run", "--hw", "preset:J", "--synthetic", "--out", str(tmp_path / "o")]) == 0
    assert alive == [1] * len(builtin_config().suite.scenarios)


def test_a_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    def log_to_csv(log, fh):
        fh.write("model,request_index\n")
        raise ConfigError("disk full")

    monkeypatch.setattr(runtime, "log_to_csv", log_to_csv)
    out = tmp_path / "o"
    assert main(["run", "--scenario", "vr-gaming", "--hw", "preset:J", "--synthetic", "--out", str(out)]) == 2
    assert list(out.iterdir()) == []


def test_missing_cost_entry_is_reported(tmp_path, capsys):
    config = builtin_config()
    hw = preset_system("A")
    table = synthetic_table(config.models, hw)
    partial = CostTable(
        [e for e in table.entries() if e.model != "HT"], e_max_mj=table.e_max_mj
    )
    costs_path = tmp_path / "costs.json"
    costs_path.write_text(json.dumps(table_to_obj(partial)))
    code = main(
        ["run", "--scenario", "vr-gaming", "--hw", "preset:A", "--costs", str(costs_path), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "HT" in err and "u0-ws" in err


def test_validate_builtin_ok(capsys):
    assert main(["validate"]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    obj = config_to_obj(builtin_config())
    # force an over-rate entry: HT at 90 Hz on a 60 FPS camera
    for scenario in obj["scenarios"]:
        if scenario["id"] == "vr-gaming":
            scenario["entries"][0]["target_rate"] = 90.0
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(obj))
    assert main(["validate", "--suite", str(suite_path)]) == 1
    assert "exceeds" in capsys.readouterr().out


def test_validate_checks_the_schedules_of_the_valid_scenarios(tmp_path, capsys, monkeypatch):
    obj = config_to_obj(builtin_config())
    for scenario in obj["scenarios"]:
        if scenario["id"] == "vr-gaming":
            scenario["entries"][0]["target_rate"] = 90.0  # over-rate: cannot be simulated
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(obj))
    checked = []
    original = runtime.validate_schedule

    def validate_schedule(log, scenario):
        checked.append(scenario.id)
        return original(log, scenario)

    monkeypatch.setattr(runtime, "validate_schedule", validate_schedule)
    assert main(["validate", "--suite", str(suite_path), "--hw", "preset:J", "--synthetic"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("vr-gaming: ") for line in lines)
    assert "exceeds" in lines[0]
    assert checked == [s["id"] for s in obj["scenarios"] if s["id"] != "vr-gaming"]


# (list in the suite file, id of the item, key, value): each breaks scoring or a source's frame order
SUITE_FAULTS = {
    "reported-inf": ("models", "HT", "reported_metric", math.inf),
    "reported-zero": ("models", "HT", "reported_metric", 0),
    "reported-negative": ("models", "HT", "reported_metric", -1),
    "lower-is-better-achieved-zero": ("models", "GE", "achieved_metric", 0),
    "jitter-20ms-at-60hz": ("input_sources", "camera", "max_jitter_ms", 20.0),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", SUITE_FAULTS)
def test_a_suite_fault_is_a_config_error_naming_its_item(tmp_path, capsys, case, command):
    items, item_id, key, value = SUITE_FAULTS[case]
    obj = config_to_obj(builtin_config())
    (item,) = (x for x in obj[items] if x["id"] == item_id)
    item[key] = value
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(obj))
    out = tmp_path / "o"
    argv = [command, "--suite", str(suite_path)]
    if command == "run":
        argv += ["--hw", "preset:J", "--synthetic", "--duration", "1", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "ok" not in captured.out
    assert captured.err.startswith("error: ") and repr(item_id) in captured.err and "Traceback" not in captured.err
    assert not list(tmp_path.glob("o/timeline_*"))


@pytest.mark.parametrize(
    "args, message",
    [
        (["--hw", "preset:J"], "--costs <file> or --synthetic"),
        (["--synthetic"], "--hw is required"),
        (["--costs", "missing.json"], "--hw is required"),
    ],
    ids=["hw-only", "synthetic-only", "costs-only"],
)
def test_validate_with_part_of_the_simulation_inputs_is_a_config_error(capsys, args, message):
    assert main(["validate", *args]) == 2
    captured = capsys.readouterr()
    assert "ok" not in captured.out
    assert captured.err.startswith("error: ") and message in captured.err


def test_export_suite_matches_builtin(tmp_path):
    out = tmp_path / "suite.json"
    assert main(["export-suite", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == config_to_obj(builtin_config())


def test_score_recomputes_run_report(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--scenario", "ar-gaming", "--hw", "preset:A", "--synthetic", "--emax", "8.0", "--out", str(out)]) == 0
    run_report = json.loads((out / "report.json").read_text())
    rescored = tmp_path / "rescored"
    assert (
        main(
            [
                "score",
                "--scenario",
                "ar-gaming",
                "--log",
                str(out / "timeline_ar-gaming.csv"),
                "--emax",
                "8.0",
                "--out",
                str(rescored),
            ]
        )
        == 0
    )
    score_report = json.loads((rescored / "report.json").read_text())
    assert score_report["scenarios"] == run_report["scenarios"]


def test_sweep_emits_one_row_per_value(tmp_path):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--scenario",
            "vr-gaming",
            "--edge",
            "ES->GE",
            "--values",
            "0,0.25,0.5,0.75,1.0",
            "--hw",
            "preset:A",
            "--synthetic",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 6  # header + 5 points
    zero_point = json.loads((out / "sweep_point_0.json").read_text())
    assert zero_point["counts"]["GE"]["n_processed"] == 0


def test_non_integer_preset_pes_is_a_config_error(tmp_path, capsys):
    code = main(["run", "--hw", "preset:J:abc", "--synthetic", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "preset:J:abc" in err


def test_unknown_scenario_is_a_config_error(tmp_path, capsys):
    code = main(["run", "--scenario", "nope", "--hw", "preset:J", "--synthetic", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'nope'" in err


def test_unknown_sweep_edge_fails(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--scenario",
            "ar-gaming",
            "--edge",
            "ES->GE",
            "--values",
            "0.5",
            "--hw",
            "preset:A",
            "--synthetic",
            "--out",
            str(tmp_path / "s"),
        ]
    )
    assert code == 2
    assert "no edge" in capsys.readouterr().err


def test_non_numeric_sweep_value_is_a_config_error(tmp_path, capsys):
    code = main(
        ["sweep", "--scenario", "vr-gaming", "--edge", "ES->GE", "--values", "a,b", "--hw", "preset:A",
         "--synthetic", "--out", str(tmp_path / "s")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'a,b'" in err


def test_out_of_range_sweep_value_fails_before_any_point(tmp_path, capsys):
    out = tmp_path / "s"
    code = main(
        ["sweep", "--scenario", "vr-gaming", "--edge", "ES->GE", "--values", "0.5,1.5", "--hw", "preset:A",
         "--synthetic", "--duration", "1", "--out", str(out)]
    )
    assert code == 2
    assert "trigger_probability must be in [0,1]" in capsys.readouterr().err
    assert list(out.iterdir()) == []  # every value is checked before the one stream is simulated


@pytest.mark.parametrize(
    "values, message",
    [
        ("0.1234567,0.1234568", "0.1234567 and 0.1234568 both name the point file sweep_point_0.123457.json"),
        ("0.2,0.5,0.5", "0.5 and 0.5 both name the point file sweep_point_0.5.json"),
    ],
    ids=["same-name", "same-value"],
)
def test_sweep_values_that_share_a_point_file_are_a_config_error(tmp_path, capsys, values, message):
    out = tmp_path / "s"
    code = main(
        ["sweep", "--scenario", "vr-gaming", "--edge", "ES->GE", "--values", values, "--hw", "preset:A",
         "--synthetic", "--duration", "1", "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()  # raised before any point is simulated


@pytest.mark.parametrize("value", [4096.9, True, "4096"], ids=["float", "bool", "string"])
def test_non_integer_hardware_pe_count_is_a_config_error(tmp_path, capsys, value):
    obj = system_to_obj(preset_system("J"))
    obj["units"][0]["pe_count"] = value
    path = tmp_path / "hw.json"
    path.write_text(json.dumps(obj))
    code = main(["run", "--hw", str(path), "--synthetic", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"pe_count must be an integer, not {value!r}" in err


# (file option, an edit of the file's object, message)
WRONGLY_TYPED_FIELDS = {
    "hw-unit-id": ("--hw", lambda o: o["units"][0].update(id=5), "unit id must be a string, not 5"),
    "hw-system-id": ("--hw", lambda o: o.update(id=5), "system id must be a string, not 5"),
    "suite-model-renamed": (
        "--suite",
        lambda o: o.update(json.loads(json.dumps(o).replace('"HT"', "5"))),
        "model id must be a string, not 5",
    ),
    "suite-scenario-id": ("--suite", lambda o: o["scenarios"][0].update(id=7), "scenario id must be a string, not 7"),
    "suite-source-id": ("--suite", lambda o: o["input_sources"][0].update(id=3), "input source id must be a string"),
    "suite-target-rate-true": (
        "--suite",
        lambda o: o["scenarios"][0]["entries"][0].update(target_rate=True),
        "target_rate must be a number, not True",
    ),
    "suite-flops-true": ("--suite", lambda o: o["models"][0].update(flops=True), "flops must be a number, not True"),
    "suite-rate-beyond-float": (
        "--suite",
        lambda o: o["input_sources"][0].update(streaming_rate=10**400),
        "streaming_rate is too large for a float",
    ),
    "hw-clock-string": ("--hw", lambda o: o["units"][0].update(clock_ghz="2"), "clock_ghz must be a number, not '2'"),
    "costs-emax-string": ("--costs", lambda o: o.update(e_max_mj="50"), "e_max_mj must be a number, not '50'"),
    "costs-latency-string": (
        "--costs",
        lambda o: o["entries"][0].update(latency_ms="0.5"),
        "latency_ms must be a number, not '0.5'",
    ),
    "hw-pe-count-beyond-float": (
        "--hw",
        lambda o: o["units"][0].update(pe_count=10**400),
        "pe_count is too large for a float",
    ),
    "hw-style-number": ("--hw", lambda o: o.update(style=7), "style must be one of FDA, SFDA, HDA, not 7"),
    "hw-style-unknown": ("--hw", lambda o: o.update(style="XYZ"), "style must be one of FDA, SFDA, HDA, not 'XYZ'"),
    "hw-dataflow-number": (
        "--hw",
        lambda o: o["units"][0].update(dataflow=7),
        "dataflow must be one of WS, OS, RS, not 7",
    ),
    "hw-dataflow-list": (
        "--hw",
        lambda o: o["units"][0].update(dataflow=["WS"]),
        "dataflow must be one of WS, OS, RS, not ['WS']",
    ),
}


@pytest.mark.parametrize("case", WRONGLY_TYPED_FIELDS)
def test_wrongly_typed_id_or_number_in_a_file_is_a_config_error(tmp_path, capsys, case):
    flag, edit, message = WRONGLY_TYPED_FIELDS[case]
    config, hw = builtin_config(), preset_system("J")
    obj = {
        "--costs": table_to_obj(synthetic_table(config.models, hw)),
        "--hw": system_to_obj(hw),
        "--suite": config_to_obj(config),
    }[flag]
    edit(obj)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    code = main(["run", "--hw", "preset:J", "--synthetic", "--duration", "1", flag, str(path),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--suite", "--hw", "--costs"])
def test_malformed_json_file_is_a_config_error(tmp_path, capsys, flag):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": "1",')
    args = {"--suite": ["--hw", "preset:A", "--synthetic"], "--hw": ["--synthetic"], "--costs": ["--hw", "preset:A"]}[flag]
    code = main(["run", flag, str(bad), *args, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.json" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b\n1,2\n", "lacks column(s) model"),
        (
            "model,request_index,frame_index,unit,t_req_ms,t_start_ms,t_end_ms,t_dl_ms,status,energy_mj\n"
            "HT,0,0,u0-ws,x,1.0,2.0,22.2,completed,0.1\n",
            "line 2",
        ),
        (
            "model,request_index,frame_index,unit,t_req_ms,t_start_ms,t_end_ms,t_dl_ms,status,energy_mj\n"
            "HT,0,0,u0-ws,0.0,1.0,2.0,22.2,completed,0.1\n"
            "HT,1,2,u0-ws,33.3,34.0,,55.5,completed,0.1\n",
            "line 3",
        ),
        (
            "model,request_index,frame_index,unit,t_req_ms,t_start_ms,t_end_ms,t_dl_ms,status,energy_mj\n"
            "HT,0,0,,0.0,,,22.2,bogus,0.0\n",
            "line 2",
        ),
        (
            "model,request_index,frame_index,unit,t_req_ms,t_start_ms,t_end_ms,t_dl_ms,status,energy_mj\n"
            "HT,0,0,u0-ws,0.0,1.0,2.0,22.2,completed,0.1\n"
            "HT,1,2,u0-ws,33.3,34.0,-16.7,55.5,completed,0.1\n",
            "line 3: a completed request needs t_req_ms <= t_start_ms <= t_end_ms",
        ),
        (
            "model,request_index,frame_index,unit,t_req_ms,t_start_ms,t_end_ms,t_dl_ms,status,energy_mj\n"
            "HT,0,0,u0-ws,0.0,1.0,2.0,22.2,completed,0.1\n"
            "HT,1,2,u0-ws,33.3,33.2,34.0,55.5,completed,0.1\n",
            "line 3: a completed request needs t_req_ms <= t_start_ms <= t_end_ms",
        ),
        (
            "model,request_index,frame_index,unit,t_req_ms,t_start_ms,t_end_ms,t_dl_ms,status,energy_mj\n"
            "ES,0,0,u0-ws,0.0,1.0,2.0,16.7,completed,0.1\n"
            "HT,0,0,u0-ws,0.0,2.0,3.0,33.3,completed,0.1\n"
            "ES,0,0,u0-ws,0.0,1.0,2.0,16.7,completed,0.1\n",
            "timeline CSV has more than one row for ES request_index 0",
        ),
        (
            "model,request_index,frame_index,unit,t_req_ms,t_start_ms,t_end_ms,t_dl_ms,status,energy_mj\n"
            "ES,0,0,u0-ws,0.0,1.0,2.0,16.7,completed,0.1\n"
            "HT,0,0,u0-ws,0.0,2.0,3.0,33.3,completed,0.1\n"
            "ES,2,2,u0-ws,33.3,34.0,35.0,50.0,completed,0.1\n",
            "timeline CSV has no row for ES request_index 1",
        ),
        (  # the first fault in model first-appearance order: ES's gap, then HT's repeat
            "model,request_index,frame_index,unit,t_req_ms,t_start_ms,t_end_ms,t_dl_ms,status,energy_mj\n"
            "ES,1,1,u0-ws,16.7,17.0,18.0,33.3,completed,0.1\n"
            "HT,0,0,u0-ws,0.0,2.0,3.0,33.3,completed,0.1\n"
            "HT,0,0,u0-ws,0.0,2.0,3.0,33.3,completed,0.1\n",
            "timeline CSV has no row for ES request_index 0",
        ),
        (
            "model,request_index,frame_index,unit,t_req_ms,t_start_ms,t_end_ms,t_dl_ms,status,energy_mj\n"
            "HT,0,0,u0-ws,0.0,1.0,2.0,22.2,completed,0.1\n"
            "HT,-1,2,,33.3,,,55.5,dropped,0.0\n",
            "line 3: request_index must be >= 0, not -1",
        ),
    ],
    ids=[
        "missing-column",
        "non-numeric-field",
        "completed-without-end",
        "unknown-status",
        "end-before-request",
        "start-before-request",
        "repeated-row",
        "missing-row",
        "gap-before-a-later-repeat",
        "negative-request-index",
    ],
)
def test_malformed_timeline_csv_is_a_config_error(tmp_path, capsys, text, message):
    log = tmp_path / "timeline.csv"
    log.write_text(text)
    code = main(["score", "--scenario", "vr-gaming", "--log", str(log), "--emax", "1.0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_model_without_requests_is_a_scoring_error(tmp_path, capsys):
    # at 0.1 s, KD's 3 Hz target rate gives it no requests
    code = main(["run", "--hw", "preset:J", "--synthetic", "--duration", "0.1", "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'KD'" in err


def test_score_with_another_scenarios_timeline_is_a_scoring_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", "ar-gaming", "--hw", "preset:A", "--synthetic", "--out", str(out)]) == 0
    capsys.readouterr()
    log = out / "timeline_ar-gaming.csv"
    code = main(["score", "--scenario", "vr-gaming", "--log", str(log), "--emax", "8.0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'ES'" in err


@pytest.mark.parametrize("flag", ["--suite", "--hw", "--costs", "--log"])
def test_directory_where_a_file_is_expected_is_a_config_error(tmp_path, capsys, flag):
    folder = tmp_path / "folder"
    folder.mkdir()
    if flag == "--log":
        argv = ["score", "--scenario", "vr-gaming", "--log", str(folder), "--emax", "1.0"]
    else:
        args = {"--suite": ["--hw", "preset:A", "--synthetic"], "--hw": ["--synthetic"], "--costs": ["--hw", "preset:A"]}[flag]
        argv = ["run", flag, str(folder), *args, "--out", str(tmp_path / "o")]
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(folder) in err


@pytest.mark.parametrize("command", ["run", "sweep", "score", "run-under-a-file"])
def test_unusable_out_is_a_typed_error(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    argv = {
        "run": ["run", "--scenario", "ar-gaming", "--hw", "preset:J", "--synthetic", "--out", str(taken)],
        "sweep": ["sweep", "--scenario", "vr-gaming", "--edge", "ES->GE", "--values", "0.5", "--hw", "preset:J",
                  "--synthetic", "--out", str(taken)],
        "score": ["score", "--scenario", "vr-gaming", "--log", str(tmp_path / "timeline.csv"), "--emax", "1.0",
                  "--out", str(taken)],
        "run-under-a-file": ["run", "--scenario", "ar-gaming", "--hw", "preset:J", "--synthetic",
                             "--out", str(taken / "sub")],
    }[command]
    if command == "score":
        assert main(["run", "--scenario", "vr-gaming", "--hw", "preset:J", "--synthetic", "--out", str(tmp_path)]) == 0
        (tmp_path / "timeline_vr-gaming.csv").rename(tmp_path / "timeline.csv")
        capsys.readouterr()
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err


NON_FINITE = {
    "duration-nan": ["--duration", "nan"],
    "duration-inf": ["--duration", "inf"],
    "k-nan": ["--k", "nan"],
    "emax-nan": ["--emax", "nan"],
    "emax-inf": ["--emax", "inf"],
    # (file option, list in the file, key of its first item, value)
    "cost-latency-nan": ("--costs", "entries", "latency_ms", math.nan),
    "cost-energy-nan": ("--costs", "entries", "energy_mj", math.nan),
    "hw-clock-nan": ("--hw", "units", "clock_ghz", math.nan),
    "suite-jitter-nan": ("--suite", "input_sources", "max_jitter_ms", math.nan),
    "suite-rate-inf": ("--suite", "input_sources", "streaming_rate", math.inf),
    "suite-achieved-nan": ("--suite", "models", "achieved_metric", math.nan),
    "suite-achieved-inf": ("--suite", "models", "achieved_metric", math.inf),
    "suite-achieved-str": ("--suite", "models", "achieved_metric", "abc"),
    "suite-achieved-numeric-str": ("--suite", "models", "achieved_metric", "1.5"),
    "suite-achieved-true": ("--suite", "models", "achieved_metric", True),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_number_is_a_typed_error(tmp_path, capsys, case):
    argv = ["run", "--hw", "preset:J", "--synthetic", "--out", str(tmp_path / "o")]
    spec = NON_FINITE[case]
    if isinstance(spec, list):
        argv += spec
    else:
        flag, items, key, value = spec
        config, hw = builtin_config(), preset_system("J")
        obj = {
            "--costs": table_to_obj(synthetic_table(config.models, hw)),
            "--hw": system_to_obj(hw),
            "--suite": config_to_obj(config),
        }[flag]
        obj[items][0][key] = value
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))  # NaN and Infinity as JSON's non-standard literals
        argv += [flag, str(path)]  # a repeated option's last value wins; --costs wins over --synthetic
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "--scenario", "vr-gaming", "--log", "timeline.csv", "--emax", "1.0", "--seed", "3"],
        ["validate", "--k", "1"],
        ["run", "--hw", "preset:J", "--synthetic", "--out", "o", "--scale", "percent"],
        ["score", "--scenario", "vr-gaming", "--log", "timeline.csv", "--emax", "1.0", "--scale", "percent"],
        ["run", "--hw", "preset:J", "--synthetic", "--out", "o", "--efficiency", "0.5"],
        ["validate", "--hw", "preset:J", "--synthetic", "--efficiency", "0.5"],
    ],
    ids=["score-seed", "validate-k", "run-scale", "score-scale", "run-efficiency", "validate-efficiency"],
)
def test_an_option_the_subcommand_ignores_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
