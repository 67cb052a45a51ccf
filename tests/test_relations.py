"""Relations between runs: two runs whose inputs differ in a way the outputs
must not see, or must see only as a stated change, compared exactly. Neither
side needs an expected answer, so a relation catches faults an oracle shares
with the code, such as a result that depends on input order, on which other
scenarios ran, on absolute time or on a seed where nothing is random."""

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from mmtsim import ScoringConfig, builtin_config, generate_requests, simulate
from mmtsim.cli import main
from mmtsim.costmodel import CostTable, preset_system, synthetic_table, system_to_obj, table_to_obj
from mmtsim.runtime import LATENCY_GREEDY, ROUND_ROBIN
from mmtsim.scoring import scenario_report
from mmtsim.workload import with_edge_probability

from fuzzing import random_setup, with_tied_latencies

RUN = ["run", "--duration", "3", "--seed", "7"]
SRC = Path(__file__).resolve().parent.parent / "src"


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


def _report(log, scenario, models, costs):
    return scenario_report(log, scenario, models, ScoringConfig(e_max_mj=costs.e_max_mj))


@pytest.mark.parametrize("policy", [LATENCY_GREEDY, ROUND_ROBIN])
def test_starting_every_source_3_ms_later_shifts_every_run_by_3_ms_and_nothing_else(policy):
    rng = random.Random(3000)
    for i in range(40):
        scenario, sources, models, hw, costs = random_setup(rng)
        later = {sid: replace(s, init_latency=s.init_latency + 3.0) for sid, s in sources.items()}
        base, shifted = (
            simulate(scenario, generate_requests(scenario, s, models, 1.0, seed=i), hw, costs, policy)
            for s in (sources, later)
        )
        assert [(r.t_req_us + 3000, r.t_dl_us + 3000) for r in base.requests] == [
            (r.t_req_us, r.t_dl_us) for r in shifted.requests
        ]
        for column in ("t_start_us", "t_end_us"):
            moved = [None if t is None else t + 3000 for t in getattr(base, column)]
            assert getattr(shifted, column) == moved, (i, column)
        assert (shifted.status, shifted.unit, shifted.energy_mj) == (base.status, base.unit, base.energy_mj), i
        assert _report(shifted, scenario, models, costs) == _report(base, scenario, models, costs), i


@pytest.mark.parametrize("policy", [LATENCY_GREEDY, ROUND_ROBIN])
def test_the_seed_changes_nothing_without_jitter_or_a_gate_between_0_and_1(policy):
    # tied latencies as well, so that no seed can decide a tie either
    rng = random.Random(12345)
    for i in range(40):
        scenario, sources, models, hw, costs = random_setup(rng)
        if i % 2:
            costs = with_tied_latencies(rng, costs)
        sources = {sid: replace(s, max_jitter=0.0) for sid, s in sources.items()}
        for e in scenario.edges():
            scenario = with_edge_probability(scenario, e.upstream, e.downstream, float(e.trigger_probability >= 0.5))
        first, second = (
            simulate(scenario, generate_requests(scenario, sources, models, 1.0, seed=seed), hw, costs, policy)
            for seed in (7, 12345)
        )
        for column in ("requests", "unit", "t_start_us", "t_end_us", "status", "energy_mj", "counts"):
            assert getattr(first, column) == getattr(second, column), (i, column)
        assert _report(first, scenario, models, costs) == _report(second, scenario, models, costs), i


def _names_in_the_same_order(rng: random.Random, ids: list[str]) -> dict[str, str]:
    """A new id for each of `ids`, of random length, that sorts where the old one does."""
    names: set[str] = set()
    while len(names) < len(ids):
        names.add("".join(rng.choices("abyz", k=rng.randint(1, 6))))
    return dict(zip(sorted(ids), sorted(names)))


@pytest.mark.parametrize("policy", [LATENCY_GREEDY, ROUND_ROBIN])
def test_renaming_units_in_their_sorted_order_renames_only_the_unit_column(policy):
    # tied latencies as well, so that a name cannot decide a tie either
    rng = random.Random(2020)
    reordered_by_length = 0  # setups whose new names sort otherwise by (length, name)
    for i in range(40):
        scenario, sources, models, hw, costs = random_setup(rng)
        if i % 2:
            costs = with_tied_latencies(rng, costs)
        name = _names_in_the_same_order(rng, [u.id for u in hw.units])
        renamed_hw = replace(hw, units=tuple(replace(u, id=name[u.id]) for u in hw.units))
        renamed_costs = CostTable([replace(e, unit=name[e.unit]) for e in costs.entries()], costs.e_max_mj)
        new = sorted(name.values())
        reordered_by_length += new != sorted(new, key=lambda n: (len(n), n))
        stream = generate_requests(scenario, sources, models, 1.0, seed=i)
        given, renamed = simulate(scenario, stream, hw, costs, policy), simulate(
            scenario, stream, renamed_hw, renamed_costs, policy
        )
        assert renamed.unit == [None if u is None else name[u] for u in given.unit], i
        for column in ("requests", "t_start_us", "t_end_us", "status", "energy_mj", "counts"):
            assert getattr(renamed, column) == getattr(given, column), (i, column)
        assert _report(renamed, scenario, models, costs) == _report(given, scenario, models, costs), i
    assert reordered_by_length >= 10


@pytest.mark.parametrize("policy", [LATENCY_GREEDY, ROUND_ROBIN])
def test_the_hash_seed_changes_no_output(tmp_path, policy):
    # Each process hashes strings with its own seed, so a result that follows a
    # set's or a hash's order of model ids differs between the two processes.
    outputs = []
    for hash_seed in ("1", "2"):
        cwd = tmp_path / f"hash-seed-{hash_seed}"
        cwd.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
        argv = [*RUN, "--hw", "preset:M:96", "--synthetic", "--policy", policy, "--out", "out"]
        done = subprocess.run(
            [sys.executable, "-m", "mmtsim.cli", *argv], cwd=cwd, env=env, capture_output=True, check=True
        )
        outputs.append((done.stdout, {f.name: f.read_bytes() for f in (cwd / "out").iterdir()}))
    (stdout_1, files_1), (stdout_2, files_2) = outputs
    assert len(files_1) == 2 + 2 * len(builtin_config().suite.scenario_ids)
    assert stdout_1 == stdout_2 and stdout_1
    assert files_1.keys() == files_2.keys()
    for name, data in files_1.items():
        assert data == files_2[name], name
