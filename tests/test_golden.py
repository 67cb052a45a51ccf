"""Byte identity of the simulator's and the scorer's outputs against recorded digests.

The timeline digests were recorded before the dispatcher was rewritten for
speed; the report digest before the scoring folds were merged into one, with
the two removed `scoring_config` keys (`overall_mean`,
`qoe_counts_untriggered`) taken out. Any later change that moves a single
byte of a timeline CSV, log JSON or report fails here; a deliberate
behaviour change must re-record them and say so.
"""

import hashlib
import io
import json

from mmtsim import builtin_config, generate_requests, simulate, synthetic_table
from mmtsim.costmodel import load_hardware_file, preset_system, system_to_obj
from mmtsim.runtime import log_to_csv, log_to_obj
from mmtsim.scoring import ScoringConfig, build_report, report_to_obj
from mmtsim.workload import config_to_obj, load_suite_file

# scenario -> (SHA-256 of log_to_csv, SHA-256 of json.dumps(log_to_obj, indent=2))
# on preset G at 96 PEs, synthetic costs, 5 s window, seed 7
GOLDEN = {
    "social-interaction-a": (
        "122f54ee0b86b60349ad270f89fecd9387ff903d8789b3d92a6e97ff628118e9",
        "434cf58412e1b40d14fba1c0c8297d0e2a7463db5db45062e85f9e1fb060f722",
    ),
    "social-interaction-b": (
        "18762b937b3f57cee81752a9b3d1378fd7830a086f8ae936cd2c435635563e01",
        "d3ae02af978e4e91393ee2aa93e8d0e401ec426563589cb6c32edd3e2fc75e53",
    ),
    "outdoor-activity-a": (
        "c21475e6fed23f6ea6744081a4c87a4de795e5d966a21d0545c087f8e7a3a7cf",
        "f29e896b328370c488c9df7a0bfa3418ea4beac3562fb4f441d881b383153d2e",
    ),
    "outdoor-activity-b": (
        "5f06e574b5c1397baf512fa04d2b621bee03a114acef4f5e59b8a884f9638120",
        "dd005b7b2d018383914be73b55bda34e79f198009ca5701f40721e7a40457983",
    ),
    "ar-assistant": (
        "39b4b1d99797d8f9931eb73fbc965c1e4387b7161a6951c641a7ce43b966756a",
        "c2781706486cbc4b443e36dcaa3bb12a7f3beb9b1134961e3be209815e66739a",
    ),
    "ar-gaming": (
        "a1128e25d8a65d260f7816f45c784ac7470e520faaaa766cf8d3396dee576b2b",
        "6206e07b319975d3173fc13cde0255fafe1b99fa557f9db75163a4b388ffc315",
    ),
    "vr-gaming": (
        "7310eaac143e424a6d6c470fa73846bbcb51910341dca19d6386732173a09de7",
        "8d7d1314956afa9afb3467f423699455c18fae703bdc4fa37c9a5b285c7b0b98",
    ),
}


# SHA-256 of json.dumps(report_to_obj(build_report(...)), indent=2) for the
# logs above, k = 10 and the cost table's e_max_mj
GOLDEN_REPORT = "7de75340b89e739ca282f9a559400f20d6643e3af70d79b47dbc8045870d60b1"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _csv(log) -> str:
    buf = io.StringIO()
    log_to_csv(log, buf)
    return buf.getvalue()


def _simulate_suite(config, hw):
    costs = synthetic_table(config.models, hw)
    logs = {}
    for scenario in config.suite.scenarios:
        stream = generate_requests(scenario, config.sources, config.models, 5.0, seed=7)
        logs[scenario.id] = simulate(scenario, stream, hw, costs)
    return logs, costs


def test_builtin_suite_outputs_are_byte_identical_to_recorded_digests():
    hw = preset_system("G", total_pes=96)
    logs, _ = _simulate_suite(builtin_config(), hw)
    got = {
        sid: (_sha256(_csv(log)), _sha256(json.dumps(log_to_obj(log, hw.id, 7, 5.0), indent=2)))
        for sid, log in logs.items()
    }
    assert got == GOLDEN


def test_builtin_suite_report_is_byte_identical_to_recorded_digest():
    config = builtin_config()
    logs, costs = _simulate_suite(config, preset_system("G", total_pes=96))
    report = build_report(logs, config, ScoringConfig(k=10.0, e_max_mj=costs.e_max_mj))
    assert _sha256(json.dumps(report_to_obj(report), indent=2)) == GOLDEN_REPORT


def test_files_with_retired_keys_load_to_the_same_timelines(tmp_path):
    # Suite files once carried an edge "kind" and a model's accuracy
    # requirement, and hardware files a unit bandwidth and shared memory;
    # none of them changed a result.
    config, hw = builtin_config(), preset_system("G", total_pes=96)
    suite_obj = config_to_obj(config)
    for model in suite_obj["models"]:
        model["accuracy_requirement"] = 0.95 * model["reported_metric"]
    for scenario in suite_obj["scenarios"]:
        for entry in scenario["entries"]:
            for dep in entry["dependencies"]:
                dep["kind"] = "control" if dep["trigger_probability"] < 1.0 else "data"
    hw_obj = system_to_obj(hw)
    for unit in hw_obj["units"]:
        unit.update(bandwidth_gbps=64.0, shared_mem_mib=2.0)
    (tmp_path / "suite.json").write_text(json.dumps(suite_obj))
    (tmp_path / "hw.json").write_text(json.dumps(hw_obj))
    loaded, _ = _simulate_suite(load_suite_file(tmp_path / "suite.json"), load_hardware_file(tmp_path / "hw.json"))
    builtin, _ = _simulate_suite(config, hw)
    assert {sid: _csv(log) for sid, log in loaded.items()} == {sid: _csv(log) for sid, log in builtin.items()}
