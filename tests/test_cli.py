import json
import math
import weakref

import pytest

from mmtsim import ConfigError, builtin_config, loadgen, runtime
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


def test_run_log_files_carry_the_run_identity_and_the_report_counts(tmp_path):
    hw_path = tmp_path / "hw.json"
    hw_path.write_text(json.dumps(dict(system_to_obj(preset_system("J")), id="lab-board")))
    out = tmp_path / "out"
    assert main(["run", "--hw", str(hw_path), "--synthetic", "--seed", "3", "--duration", "0.5", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    run_config = report["run_config"]
    assert (run_config["hardware"]["id"], run_config["seed"], run_config["duration_s"]) == ("lab-board", 3, 0.5)
    count_fields = list(runtime.ModelCounts._fields)
    for sid, srep in report["scenarios"].items():
        obj = json.loads((out / f"log_{sid}.json").read_text())
        assert obj["scenario"] == sid
        assert obj["hardware"] == run_config["hardware"]["id"]
        assert obj["seed"] == run_config["seed"]
        assert obj["duration_s"] == run_config["duration_s"]
        assert obj["counts"] == {mid: {f: m[f] for f in count_fields} for mid, m in srep["models"].items()}


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


def test_run_and_validate_share_one_arrivals_map_per_call_and_sweep_none(tmp_path, monkeypatch, capsys):
    original = loadgen.generate_requests
    maps = []

    def generate_requests(*args, **kwargs):
        maps.append(kwargs.get("arrivals"))
        return original(*args, **kwargs)

    monkeypatch.setattr(loadgen, "generate_requests", generate_requests)
    n = len(builtin_config().suite.scenarios)
    sim = ["--hw", "preset:J", "--synthetic", "--duration", "0.5"]
    for argv in (["run", *sim, "--out", str(tmp_path / "o")], ["validate", *sim]):
        maps.clear()
        assert main(argv) == 0
        assert len(maps) == n and isinstance(maps[0], dict) and all(m is maps[0] for m in maps)
        kept = maps[0]
    assert main(["run", *sim, "--out", str(tmp_path / "p")]) == 0
    assert maps[-1] is not kept  # a fresh map for every call
    maps.clear()
    sweep = ["sweep", "--scenario", "vr-gaming", "--edge", "ES->GE", "--values", "0.5"]
    assert main([*sweep, *sim, "--out", str(tmp_path / "s")]) == 0
    assert maps == [None]
    capsys.readouterr()


@pytest.mark.parametrize("command", ["run", "validate"])
def test_a_source_leaves_the_arrivals_map_after_the_last_scenario_that_samples_it(tmp_path, monkeypatch, command):
    config = builtin_config()
    scenarios = config.suite.scenarios
    sampled = [{sid for m in s.model_ids for sid in config.models[m].input_sources} for s in scenarios]
    original_generate, original_simulate = loadgen.generate_requests, runtime.simulate
    maps, held = [], []

    def generate_requests(*args, **kwargs):
        maps.append(kwargs["arrivals"])
        return original_generate(*args, **kwargs)

    def simulate(*args, **kwargs):
        held.append({source.id for source, _ in maps[-1]})
        return original_simulate(*args, **kwargs)

    monkeypatch.setattr(loadgen, "generate_requests", generate_requests)
    monkeypatch.setattr(runtime, "simulate", simulate)
    argv = [command, "--hw", "preset:J", "--synthetic", "--duration", "0.5"]
    assert main(argv + (["--out", str(tmp_path / "o")] if command == "run" else [])) == 0
    # while scenario i simulates, the map holds the sources sampled both up to i and after it
    assert held == [set().union(*sampled[: i + 1]) & set().union(*sampled[i + 1 :]) for i in range(len(scenarios))]
    assert maps[-1] == {}


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
    for spec in ("preset:J:abc", "preset:J:4096:9"):
        code = main(["run", "--hw", spec, "--synthetic", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and spec in err


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
    assert not (tmp_path / "s").exists()


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
    assert not out.exists()  # every value is checked before the one stream is built


@pytest.mark.parametrize(
    "values, message",
    [
        ("0.1234567,0.1234568", "0.1234567 and 0.1234568 both name the point file sweep_point_0.123457.json"),
        ("0.2,0.5,0.5", "0.5 and 0.5 both name the point file sweep_point_0.5.json"),
        ("0,-0", "0 and -0 both name the point file sweep_point_0.json"),
    ],
    ids=["same-name", "same-value", "signed-zero"],
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
    "suite-entry-not-an-object": (
        "--suite",
        lambda o: o["scenarios"][0]["entries"].__setitem__(0, ["HT", 30]),
        "malformed suite specification: ",
    ),
    "suite-input-source-list": (
        "--suite",
        lambda o: o["models"][0].update(input_sources=[["camera"]]),
        "input source id must be a string, not ['camera']",
    ),
    "suite-upstream-list": (
        "--suite",
        lambda o: o["scenarios"][0]["entries"][2].update(dependencies=[{"upstream": ["x"]}]),
        "upstream model id must be a string, not ['x']",
    ),
    "suite-flops-true": ("--suite", lambda o: o["models"][0].update(flops=True), "flops must be a number, not True"),
    "suite-rate-beyond-float": (
        "--suite",
        lambda o: o["input_sources"][0].update(streaming_rate=10**400),
        "streaming_rate is too large for a float",
    ),
    "suite-task-tag-object": (
        "--suite",
        lambda o: o["models"][0].update(task_tag={"a": [1]}),
        "model 'HT': task_tag must be a string, not {'a': [1]}",
    ),
    "suite-dataset-tag-number": (
        "--suite",
        lambda o: o["models"][0].update(dataset_tag=7),
        "model 'HT': dataset_tag must be a string, not 7",
    ),
    "suite-accuracy-metric-id-null": (
        "--suite",
        lambda o: o["models"][0].update(accuracy_metric_id=None),
        "model 'HT': accuracy_metric_id must be a string, not None",
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
    # a list field given as an object or a string: neither is read as its keys or its characters
    "suite-dependencies-object": (
        "--suite",
        lambda o: o["scenarios"][0]["entries"][2].update(dependencies={}),
        "malformed suite specification: scenarios[0].entries[2].dependencies must be a list, not {}",
    ),
    "suite-dependencies-string": (
        "--suite",
        lambda o: o["scenarios"][0]["entries"][2].update(dependencies="ES"),
        "scenarios[0].entries[2].dependencies must be a list, not 'ES'",
    ),
    "suite-input-sources-string": (
        "--suite",
        lambda o: o["models"][0].update(input_sources="camera"),
        "models[0].input_sources must be a list, not 'camera'",
    ),
    "suite-entries-object": (
        "--suite",
        lambda o: o["scenarios"][0].update(entries={"a": 1}),
        "scenarios[0].entries must be a list, not {'a': 1}",
    ),
    "suite-models-object": ("--suite", lambda o: o.update(models={}), "models must be a list, not {}"),
    "hw-units-object": (
        "--hw",
        lambda o: o.update(units={u["id"]: u for u in o["units"]}),
        "malformed hardware file: units must be a list, not {'u0-ws': ",
    ),
    "costs-entries-object": (
        "--costs",
        lambda o: o.update(entries={}),
        "malformed cost table: entries must be a list, not {}",
    ),
    # an entry no lookup reaches is refused, not left unused
    "costs-entry-model-int": (
        "--costs",
        lambda o: o["entries"].append({"model": 5, "unit": "u0-ws", "latency_ms": 1.0, "energy_mj": 0.1}),
        "cost entry model id must be a string, not 5",
    ),
    "costs-entry-unit-list": (
        "--costs",
        lambda o: o["entries"][0].update(unit=["u0-ws"]),
        "cost entry unit id must be a string, not ['u0-ws']",
    ),
    "suite-entry-model-list": (
        "--suite",
        lambda o: o["scenarios"][0]["entries"][0].update(model=["HT"]),
        "scenario entry model id must be a string, not ['HT']",
    ),
    "suite-achieved-string": (
        "--suite",
        lambda o: o["models"][0].update(achieved_metric="abc"),
        "achieved_metric must be a number, not 'abc'",
    ),
}


def _run_with_edited_file(tmp_path, flag, edit) -> int:
    """`run` on preset J with the synthetic costs, a second of every scenario,
    and the file that `flag` names: J's, the built-in one, `edit`ed."""
    config, hw = builtin_config(), preset_system("J")
    obj = {
        "--costs": table_to_obj(synthetic_table(config.models, hw)),
        "--hw": system_to_obj(hw),
        "--suite": config_to_obj(config),
    }[flag]
    edit(obj)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))  # NaN as JSON's non-standard literal
    return main(["run", "--hw", "preset:J", "--synthetic", "--duration", "1", flag, str(path),
                 "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("case", WRONGLY_TYPED_FIELDS)
def test_wrongly_typed_id_or_number_in_a_file_is_a_config_error(tmp_path, capsys, case):
    flag, edit, message = WRONGLY_TYPED_FIELDS[case]
    assert _run_with_edited_file(tmp_path, flag, edit) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


# (file option, an edit of the file's object, the error): a well-typed value the record refuses
REFUSED_VALUES = {
    "hw-pe-count-zero": ("--hw", lambda o: o["units"][0].update(pe_count=0), "unit 'u0-ws': pe_count must be > 0"),
    "hw-power-nan": (
        "--hw",
        lambda o: o["units"][1].update(power_watts=math.nan),
        "unit 'u1-os': power_watts must be finite",
    ),
    "hw-empty-unit-id": ("--hw", lambda o: o["units"][0].update(id=""), "unit id must not be empty"),
    "hw-duplicate-unit-id": ("--hw", lambda o: o["units"][1].update(id="u0-ws"), "system 'J-4k': duplicate unit ids"),
    "costs-duplicate-entry": (
        "--costs",
        lambda o: o["entries"].append(o["entries"][0]),
        "duplicate cost entry for ('AS', 'u0-ws')",
    ),
    "suite-init-latency-negative": (
        "--suite",
        lambda o: o["input_sources"][0].update(init_latency_ms=-1),
        "input source 'camera': init_latency must be finite and >= 0",
    ),
    "suite-flops-zero": (
        "--suite",
        lambda o: o["models"][0].update(flops=0),
        "model 'HT': flops must be positive when given",
    ),
    "suite-target-rate-zero": (
        "--suite",
        lambda o: o["scenarios"][0]["entries"][0].update(target_rate=0),
        "scenario entry 'HT': target_rate must be finite and > 0",
    ),
    "suite-duplicate-entry": (
        "--suite",
        lambda o: o["scenarios"][0]["entries"].append(o["scenarios"][0]["entries"][0]),
        "scenario 'social-interaction-a': duplicate model ids",
    ),
    "suite-duplicate-scenario": (
        "--suite",
        lambda o: o["scenarios"].append(o["scenarios"][0]),
        "benchmark suite: duplicate scenario ids",
    ),
    "suite-duplicate-source": (
        "--suite",
        lambda o: o["input_sources"].append(dict(o["input_sources"][0], streaming_rate=30.0)),
        "input_sources[3]: duplicate id 'camera'",
    ),
    "suite-duplicate-model": (
        "--suite",
        lambda o: o["models"].append(dict(o["models"][0], flops=1.0)),
        "models[11]: duplicate id 'HT'",
    ),
    "suite-achieved-beyond-float": (
        "--suite",
        lambda o: o["models"][0].update(achieved_metric=10**400),
        "malformed suite specification: achieved_metric is too large for a float",
    ),
}


@pytest.mark.parametrize("case", REFUSED_VALUES)
def test_a_value_a_record_refuses_in_a_file_is_one_error_line(tmp_path, capsys, case):
    flag, edit, message = REFUSED_VALUES[case]
    assert _run_with_edited_file(tmp_path, flag, edit) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "flag, key, kind",
    [
        ("--suite", "input_sources", "suite"),
        ("--suite", "models", "suite"),
        ("--suite", "scenarios", "suite"),
        ("--hw", "id", "hardware"),
        ("--hw", "style", "hardware"),
        ("--hw", "units", "hardware"),
        ("--costs", "e_max_mj", "cost"),
        ("--costs", "entries", "cost"),
    ],
)
def test_a_missing_top_level_key_is_named_like_a_nested_one(tmp_path, capsys, flag, key, kind):
    assert _run_with_edited_file(tmp_path, flag, lambda o: o.pop(key)) == 2
    assert capsys.readouterr().err == f"error: {kind} file: missing key {key!r}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_flops_that_is_not_finite_fails_validate(tmp_path, capsys, value):
    obj = config_to_obj(builtin_config())
    obj["models"][0]["flops"] = value
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(obj))  # NaN and Infinity as JSON's non-standard literals
    assert main(["validate", "--suite", str(path)]) == 2
    assert capsys.readouterr().err == "error: model 'HT': flops must be positive when given\n"


def test_an_achieved_metric_beyond_the_float_range_fails_validate(tmp_path, capsys):
    obj = config_to_obj(builtin_config())
    obj["models"][0]["achieved_metric"] = 10**400
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", "--suite", str(path)]) == 2
    assert capsys.readouterr().err == "error: malformed suite specification: achieved_metric is too large for a float\n"


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


_TIMELINE_HEADER = b"model,request_index,frame_index,unit,t_req_ms,t_start_ms,t_end_ms,t_dl_ms,status,energy_mj\n"
_TIMELINE_ROW = b"HT,0,0,u0-ws,0.0,1.0,2.0,22.2,completed,0.1\n"


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\xff" + _TIMELINE_HEADER + _TIMELINE_ROW, "timeline CSV is not UTF-8 text: 'utf-8' codec can't decode"),
        (_TIMELINE_HEADER + _TIMELINE_ROW + b"HT,1,2,u0-ws,33.3,34.0,35.0,55.5,completed,\xff\n",
         "timeline CSV is not UTF-8 text: 'utf-8' codec can't decode"),
        (_TIMELINE_HEADER + _TIMELINE_ROW + b"HT,1,2,u0-ws,33.3,34.0,35.0,55.5,completed,0.1," + b"x" * 200_000 + b"\n",
         "timeline CSV line 3: field larger than field limit"),
        (  # a bad row is still reported before an undecodable byte in a later chunk
            _TIMELINE_HEADER + b"HT,0,0,u0-ws,x,1.0,2.0,22.2,completed,0.1\n" + _TIMELINE_ROW * 400 + b"\xff\n",
            "timeline CSV line 2: could not convert string to float: 'x'",
        ),
    ],
    ids=["byte-0xff-in-the-header", "byte-0xff-on-line-3", "field-over-the-csv-limit", "bad-row-before-a-bad-byte"],
)
def test_unreadable_timeline_csv_is_a_config_error(tmp_path, capsys, data, message):
    log = tmp_path / "timeline.csv"
    log.write_bytes(data)
    code = main(["score", "--scenario", "vr-gaming", "--log", str(log), "--emax", "1.0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "row, message",
    [
        (b"HT,x,x,u0-ws,33.3,34.0,35.0,55.5,completed,0.1\n", "invalid literal for int() with base 10: 'x'"),
        (b"HT,-1,-1,u0-ws,33.3,34.0,35.0,55.5,completed,0.1\n", "request_index must be >= 0, not -1"),
        (b"HT,1,2,u0-ws,y,y,35.0,55.5,completed,0.1\n", "could not convert string to float: 'y'"),
        (b"HT,1,2,u0-ws,inf,inf,35.0,55.5,completed,0.1\n", "cannot convert float infinity to integer"),
        (b"HT,1,2,u0-ws,nan,nan,35.0,55.5,completed,0.1\n", "cannot convert float NaN to integer"),
        (b"HT,1,2,u0-ws,33.3,34.0,35.0,z,completed,z\n", "could not convert string to float: 'z'"),
    ],
    ids=["index-and-frame-x", "index-and-frame-negative", "request-and-start-y", "request-and-start-inf",
         "request-and-start-nan", "deadline-and-energy-z"],
)
def test_a_bad_text_repeated_in_another_column_reports_its_first_error(tmp_path, capsys, row, message):
    # A reader that reuses one column's parsed value for an equal text in
    # another must report what a reader parsing every field would.
    log = tmp_path / "timeline.csv"
    log.write_bytes(_TIMELINE_HEADER + _TIMELINE_ROW + row + _TIMELINE_ROW)
    code = main(["score", "--scenario", "vr-gaming", "--log", str(log), "--emax", "1.0"])
    assert code == 2
    assert capsys.readouterr().err == f"error: timeline CSV line 3: {message}\n"


def test_a_negative_zero_energy_is_written_and_scored_as_given(tmp_path, capsys):
    config = builtin_config()
    hw = preset_system("J", total_pes=96)
    costs = table_to_obj(synthetic_table(config.models, hw))
    for entry in costs["entries"]:
        if entry["model"] == "GE":
            entry["energy_mj"] = -0.0
    costs_path = tmp_path / "costs.json"
    costs_path.write_text(json.dumps(costs))
    assert '"energy_mj": -0.0' in costs_path.read_text()
    out = tmp_path / "o"
    argv = ["run", "--scenario", "vr-gaming", "--hw", "preset:J:96", "--costs", str(costs_path), "--duration", "2"]
    assert main([*argv, "--out", str(out)]) == 0
    timeline = out / "timeline_vr-gaming.csv"
    ge = [line.split(",") for line in timeline.read_text().splitlines() if line.startswith("GE,")]
    assert {(row[8], row[9]) for row in ge} == {("completed", "-0.0"), ("dropped", "0.0")}
    report = json.loads((out / "report.json").read_text())
    emax = report["run_config"]["scoring"]["e_max_mj"]
    assert main(["score", "--scenario", "vr-gaming", "--log", str(timeline), "--emax", repr(emax),
                 "--out", str(tmp_path / "s")]) == 0
    rescored = json.loads((tmp_path / "s" / "report.json").read_text())
    assert rescored["scenarios"] == report["scenarios"] and rescored["overall"] == report["overall"]


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


def test_score_rejects_a_timeline_that_breaks_the_schedule(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["run", "--scenario", "vr-gaming", "--hw", "preset:G:96", "--synthetic", "--duration", "1", "--seed", "7"]
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    good = out / "timeline_vr-gaming.csv"
    lines = good.read_text().splitlines(keepends=True)
    es1 = next(i for i, line in enumerate(lines) if line.startswith("ES,1,"))
    assert ",u2-ws," in lines[es1]
    lines[es1] = lines[es1].replace(",u2-ws,", ",u0-ws,")  # onto the unit still running ES 0
    bad = tmp_path / "moved.csv"
    bad.write_text("".join(lines))

    score = ["score", "--scenario", "vr-gaming", "--emax", "1000", "--log"]
    assert main([*score, str(good), "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    code = main([*score, str(bad), "--out", str(tmp_path / "b")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: timeline {bad}: occupancy violation on unit u0-ws: ES[0] overlaps ES[1]\n"
    assert not (tmp_path / "b").exists()


def test_score_rejects_a_timeline_holding_a_model_the_scenario_does_not_run(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["run", "--scenario", "social-interaction-a", "--hw", "preset:J", "--synthetic", "--duration", "2"]
    assert main([*argv, "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    log = out / "timeline_social-interaction-a.csv"
    code = main(["score", "--scenario", "vr-gaming", "--log", str(log), "--emax", "100"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: timeline {log} holds model 'DR', which scenario 'vr-gaming' does not run\n"
    assert main(["score", "--scenario", "social-interaction-a", "--log", str(log), "--emax", "100"]) == 0


def test_run_rejects_a_window_too_short_for_a_model_before_writing_anything(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["run", "--hw", "preset:J", "--synthetic", "--duration", "0.001", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: scenario 'social-interaction-a': a 0.001 s window gives model 'HT' (30 Hz) no request\n"
    assert not out.exists()
    # the check covers every scenario before the first is simulated: at 0.1 s
    # only the 3 Hz models of the third scenario get no request
    code = main(["run", "--hw", "preset:J", "--synthetic", "--duration", "0.1", "--out", str(out)])
    assert code == 2
    assert "scenario 'outdoor-activity-a': a 0.1 s window gives model 'KD' (3 Hz)" in capsys.readouterr().err
    assert not out.exists()


def test_score_without_emax_is_a_config_error_before_the_timeline_is_read(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    code = main(["score", "--scenario", "vr-gaming", "--log", str(missing)])
    assert code == 2
    assert capsys.readouterr().err == "error: score requires --emax (the cost table is not available here)\n"


def test_emax_overrides_the_bound_of_a_cost_file(tmp_path, capsys):
    config, hw = builtin_config(), preset_system("J")
    table = synthetic_table(config.models, hw)
    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps(table_to_obj(table)))
    argv = ["run", "--scenario", "vr-gaming", "--hw", "preset:J", "--costs", str(costs), "--duration", "1"]
    emax = 1.5 * table.e_max_mj
    assert main([*argv, "--emax", repr(emax), "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["run_config"]["scoring"]["e_max_mj"] == report["scoring_config"]["e_max_mj"] == emax
    capsys.readouterr()
    # below an entry's energy, the overridden table refuses that entry
    low = table.e_max_mj / 4
    bad = next(e for e in table.entries() if e.energy_mj > low)
    assert main([*argv, "--emax", repr(low), "--out", str(tmp_path / "p")]) == 2
    assert capsys.readouterr().err == (
        f"error: cost ({bad.model!r}, {bad.unit!r}): energy {bad.energy_mj} mJ exceeds e_max {low} mJ\n"
    )
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--edge", "ES->GE", "--values", "0.5", "--out", "o"], "sweep requires --scenario"),
        (["sweep", "--scenario", "vr-gaming", "--edge", "ES-GE", "--values", "0.5", "--out", "o"],
         "--edge must look like ES->GE"),
        (["score", "--log", "timeline.csv", "--emax", "1.0"], "score requires --scenario"),
        (["validate", "--hw", "preset:Z", "--synthetic"], "unknown accelerator preset 'Z' (expected A..M)"),
        (["validate", "--hw", "preset:J:1", "--synthetic", "--scenario", "vr-gaming", "--duration", "0.1"],
         "accelerator preset 'J': total PEs must be at least 2, not 1"),
        (["validate", "--hw", "preset:K:3", "--synthetic", "--scenario", "vr-gaming", "--duration", "0.1"],
         "accelerator preset 'K': total PEs must be at least 4, not 3"),
        (["validate", "--hw", "preset:J", "--synthetic", "--scenario", "vr-gaming", "--duration", "0"],
         "duration must be finite and > 0"),
        (["validate", "--hw", "preset:J", "--synthetic", "--scenario", "vr-gaming", "--duration", "1e9"],
         "scenario 'vr-gaming': a 1e+09 s window holds 165000000000 requests, over the bound of 2000000"),
        (["sweep", "--scenario", "vr-gaming", "--edge", "ES->GE", "--values", "0.5", "--hw", "preset:J",
          "--synthetic", "--duration", "1e9", "--out", "o"],
         "scenario 'vr-gaming': a 1e+09 s window holds 165000000000 requests, over the bound of 2000000"),
        (["run", "--hw", "preset:J", "--synthetic", "--duration", "1e9", "--out", "o"],
         "scenario 'social-interaction-a': a 1e+09 s window holds 180000000000 requests, over the bound of 2000000"),
        (["run", "--hw", "preset:J", "--synthetic", "--duration", "1e308", "--out", "o"],
         "scenario 'social-interaction-a': a 1e+308 s window holds inf requests, over the bound of 2000000"),
    ],
    ids=["sweep-without-scenario", "sweep-edge-without-arrow", "score-without-scenario", "unknown-preset",
         "preset-J-1-PE", "preset-K-3-PEs", "validate-duration-zero", "validate-over-the-request-bound",
         "sweep-over-the-request-bound", "run-over-the-request-bound", "run-beyond-the-float-range"],
)
def test_a_bad_option_is_one_error_line_before_any_request_is_built(tmp_path, capsys, monkeypatch, argv, message):
    def select_frames(*args):
        raise AssertionError("a frame list was built")

    monkeypatch.setattr(loadgen, "select_frames", select_frames)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
    assert not (tmp_path / "o").exists()  # run and sweep make not even their directory


@pytest.mark.parametrize("command", ["export-suite", "run"])
def test_a_failed_rename_leaves_no_temp_file(tmp_path, capsys, command):
    if command == "export-suite":
        target = tmp_path / "suite.json"
        target.mkdir()  # a directory where the file would be renamed to
        argv = ["export-suite", "--out", str(target)]
    else:
        target = tmp_path / "o" / "summary.txt"
        target.mkdir(parents=True)
        argv = ["run", "--scenario", "vr-gaming", "--hw", "preset:J", "--synthetic", "--duration", "1",
                "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not target.with_name(target.name + ".tmp").exists()
    assert target.is_dir() and list(target.iterdir()) == []


def test_score_refuses_the_scenario_that_run_refuses(tmp_path, capsys):
    obj = config_to_obj(builtin_config())
    vr = next(s for s in obj["scenarios"] if s["id"] == "vr-gaming")
    vr["entries"][0]["model"] = "ZZ"
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(obj))
    sim = ["--scenario", "vr-gaming", "--hw", "preset:J", "--synthetic", "--duration", "1"]
    assert main(["run", *sim, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    log = tmp_path / "o" / "timeline_vr-gaming.csv"
    expected = "error: invalid scenario 'vr-gaming': unknown model 'ZZ'\n"
    assert main(["run", "--suite", str(suite), *sim, "--out", str(tmp_path / "p")]) == 2
    assert capsys.readouterr().err == expected
    score = ["score", "--suite", str(suite), "--scenario", "vr-gaming", "--log", str(log), "--emax", "100"]
    assert main([*score, "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "s").exists()


def test_sweep_refuses_a_window_too_short_for_a_model_before_writing_anything(tmp_path, capsys):
    out = tmp_path / "sw"
    argv = ["sweep", "--scenario", "outdoor-activity-a", "--edge", "KD->SR", "--values", "0,1", "--duration", "0.1"]
    assert main([*argv, "--hw", "preset:J", "--synthetic", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: scenario 'outdoor-activity-a': a 0.1 s window gives model 'KD' (3 Hz) no request\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "values, message",
    [(["--emax", "-1"], "e_max_mj must be finite and > 0"), (["--emax", "1", "--k", "nan"], "k must be finite and >= 0")],
    ids=["emax-negative", "k-nan"],
)
def test_score_checks_k_and_emax_before_the_timeline_is_read(tmp_path, capsys, values, message):
    missing = tmp_path / "missing.csv"
    assert main(["score", "--scenario", "vr-gaming", "--log", str(missing), *values]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
