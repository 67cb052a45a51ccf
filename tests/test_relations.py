"""Relations between runs: two `mmtsim run`s whose inputs differ in a way the
outputs must not see, compared byte for byte. Neither side needs an expected
answer, so a relation catches faults an oracle shares with the code, such as
a result that depends on input order or on which other scenarios ran."""

import json
import random

from mmtsim import builtin_config
from mmtsim.cli import main
from mmtsim.costmodel import preset_system, synthetic_table, system_to_obj, table_to_obj

RUN = ["run", "--duration", "3", "--seed", "7"]


def _run(out, *args):
    assert main([*RUN, *args, "--out", str(out)]) == 0
    return {f.name: f.read_bytes() for f in out.iterdir()}


def _without_run_config(report: bytes) -> str:
    obj = json.loads(report)
    del obj["run_config"]  # records the inputs as given
    return json.dumps(obj, indent=2)


def test_a_one_scenario_run_gives_that_scenario_the_full_runs_outputs(tmp_path):
    hw = ["--hw", "preset:M:96", "--synthetic"]
    full = _run(tmp_path / "full", *hw)
    full_report = json.loads(full["report.json"])
    scenario_ids = builtin_config().suite.scenario_ids
    assert list(full_report["scenarios"]) == list(scenario_ids)
    for sid in scenario_ids:
        one = _run(tmp_path / sid, *hw, "--scenario", sid)
        assert sorted(one) == [f"log_{sid}.json", "report.json", "summary.txt", f"timeline_{sid}.csv"]
        for name in (f"timeline_{sid}.csv", f"log_{sid}.json"):
            assert one[name] == full[name], name
        section = json.loads(one["report.json"])["scenarios"]
        assert list(section) == [sid]
        # repr round-trips every float, so equal text is equal bits
        assert json.dumps(section[sid]) == json.dumps(full_report["scenarios"][sid])


def test_the_order_of_hardware_units_and_cost_entries_changes_no_output(tmp_path):
    hw = preset_system("M", total_pes=96)
    hw_obj = system_to_obj(hw)
    costs_obj = table_to_obj(synthetic_table(builtin_config().models, hw))
    rng = random.Random(7)
    shuffled_hw = dict(hw_obj, units=rng.sample(hw_obj["units"], len(hw_obj["units"])))
    shuffled_costs = dict(costs_obj, entries=rng.sample(costs_obj["entries"], len(costs_obj["entries"])))
    assert shuffled_hw["units"] != hw_obj["units"] and shuffled_costs["entries"] != costs_obj["entries"]
    files = {}
    for name, obj in [("hw", hw_obj), ("hw_shuffled", shuffled_hw), ("costs", costs_obj), ("costs_shuffled", shuffled_costs)]:
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(obj))

    given = _run(tmp_path / "given", "--hw", str(files["hw"]), "--costs", str(files["costs"]))
    for hw_file, costs_file in [("hw_shuffled", "costs"), ("hw", "costs_shuffled")]:
        got = _run(tmp_path / hw_file / costs_file, "--hw", str(files[hw_file]), "--costs", str(files[costs_file]))
        assert sorted(got) == sorted(given)
        for name in given:
            if name == "report.json":
                assert _without_run_config(got[name]) == _without_run_config(given[name])
            else:
                assert got[name] == given[name], name
