"""simulate() must reproduce the naive reference dispatcher's timeline exactly."""

import random
from dataclasses import replace

import pytest

from mmtsim import (
    CostEntry,
    CostTable,
    HardwareSystem,
    HardwareUnit,
    InputSource,
    ScenarioEntry,
    UnitModel,
    builtin_config,
    generate_requests,
    simulate,
    synthetic_table,
)
from mmtsim.costmodel import preset_system
from mmtsim.runtime import DROPPED, LATENCY_GREEDY, ROUND_ROBIN, UNTRIGGERED
from mmtsim.workload import UsageScenario, with_edge_probability

from fuzzing import random_setup, with_tied_latencies
from reference_sim import reference_simulate
from timelines import rows

POLICIES = (LATENCY_GREEDY, ROUND_ROBIN)


def _timeline(log):
    return {
        (e.request.model, e.request.request_index): (e.unit, e.t_start_us, e.t_end_us, e.status, e.energy_mj)
        for e in rows(log)
    }


def _assert_same(scenario, stream, hw, costs, policy):
    log = simulate(scenario, stream, hw, costs, policy=policy)
    expected = reference_simulate(scenario, stream, hw, costs, policy)
    got = _timeline(log)
    assert len(got) == len(rows(log)) and set(got) == set(expected)
    mismatched = [k for k in expected if got[k] != expected[k]]
    assert not mismatched, (
        f"{scenario.id} ({policy}): {len(mismatched)} entries differ, first {mismatched[0]}: "
        f"simulate {got[mismatched[0]]} != reference {expected[mismatched[0]]}"
    )
    return log


@pytest.mark.parametrize("policy", POLICIES)
def test_fuzzed_setups_match_reference(policy):
    rng = random.Random(4242)
    for i in range(40):
        scenario, sources, models, hw, costs = random_setup(rng)
        stream = generate_requests(scenario, sources, models, 0.5, seed=i)
        _assert_same(scenario, stream, hw, costs, policy)


@pytest.mark.parametrize("policy", POLICIES)
def test_fuzzed_setups_with_latency_ties_match_reference(policy):
    # random costs never tie; with tied latencies, latency-greedy compares
    # the deadlines of tied models waiting together, then their ids
    rng = random.Random(5151)
    tied = 0
    for i in range(40):
        scenario, sources, models, hw, costs = random_setup(rng)
        costs = with_tied_latencies(rng, costs)
        for u in hw.units:
            latencies = [costs.lookup(m, u.id).latency_ms for m in scenario.model_ids]
            tied += len(set(latencies)) < len(latencies)
        stream = generate_requests(scenario, sources, models, 0.5, seed=i)
        _assert_same(scenario, stream, hw, costs, policy)
    assert tied >= 20


@pytest.mark.parametrize("policy", POLICIES)
def test_fuzzed_ties_behind_a_tied_model_that_is_not_waiting_match_reference(policy):
    # three to five models tie on unit u0, and the lowest-id one samples at a
    # lower rate: it is often not waiting, so the later tied models decide the
    # tie among themselves, by deadline and then by id
    rng = random.Random(6262)
    for i in range(12):
        sources = {
            f"src{j}": InputSource(f"src{j}", streaming_rate=60.0, init_latency=rng.choice([0.0, 2.0, 7.0]))
            for j in range(rng.randint(1, 2))
        }
        ids = [f"m{j}" for j in range(rng.randint(3, 5))]
        models = {m: UnitModel(id=m, input_sources=(rng.choice(list(sources)),)) for m in ids}
        rates = [rng.choice([3.0, 5.0])] + [rng.choice([10.0, 15.0, 30.0, 45.0, 60.0]) for _ in ids[1:]]
        scenario = UsageScenario(
            id=f"lagging-tie-{i}", entries=tuple(ScenarioEntry(m, rate) for m, rate in zip(ids, rates))
        )
        units = tuple(HardwareUnit(f"u{j}", "WS", 1024) for j in range(rng.randint(1, 2)))
        tie_ms = rng.choice([5.0, 10.0, 20.0])
        costs = CostTable(
            [CostEntry(m, u.id, tie_ms if u.id == "u0" else rng.uniform(1.0, 30.0), 1.0) for m in ids for u in units],
            e_max_mj=50.0,
        )
        hw = HardwareSystem("lagging-tie-hw", "FDA" if len(units) == 1 else "SFDA", units)
        stream = generate_requests(scenario, sources, models, 0.5, seed=i)
        _assert_same(scenario, stream, hw, costs, policy)


@pytest.mark.parametrize("policy", POLICIES)
def test_jitter_just_under_half_a_frame_period_matches_reference(policy):
    # the largest jitter a source may have: its frames may then interleave
    # with other sources' frames, but never swap among themselves
    rng = random.Random(4949)
    for i in range(40):
        scenario, sources, models, hw, costs = random_setup(rng)
        sources = {sid: replace(s, max_jitter=0.49 * 1000 / s.streaming_rate) for sid, s in sources.items()}
        stream = generate_requests(scenario, sources, models, 0.5, seed=i)
        _assert_same(scenario, stream, hw, costs, policy)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("preset", ["G", "L"])  # four equal units; two unequal kinds
def test_builtin_suite_on_small_preset_matches_reference(preset, policy):
    config = builtin_config()
    hw = preset_system(preset, total_pes=96)
    costs = synthetic_table(config.models, hw)
    dropped = 0
    for scenario in config.suite.scenarios:
        stream = generate_requests(scenario, config.sources, config.models, 1.0, seed=7)
        log = _assert_same(scenario, stream, hw, costs, policy)
        dropped += sum(e.status == DROPPED for e in rows(log))
    assert dropped > 0  # the drop rule must actually be exercised


def test_reused_streams_match_reference():
    # simulate keeps a plan per stream object; every run after the first reuses it
    config = builtin_config()
    streams = {s.id: generate_requests(s, config.sources, config.models, 1.0, seed=7) for s in config.suite.scenarios}
    for preset in ("G", "L", "A"):
        hw = preset_system(preset, total_pes=96)
        costs = synthetic_table(config.models, hw)
        for policy in POLICIES:
            for scenario in config.suite.scenarios:
                _assert_same(scenario, streams[scenario.id], hw, costs, policy)


def test_reused_stream_follows_each_scenarios_edges():
    # one stream under its scenario, the same edge shape at another
    # probability, another edge shape, then its scenario again
    config = builtin_config()
    scenario = config.suite.scenario("ar-assistant")  # KD->SR gates at 0.5
    never = with_edge_probability(scenario, "KD", "SR", 0.0)
    ungated = UsageScenario(
        id=scenario.id, entries=tuple(replace(e, dependencies=()) if e.model == "SR" else e for e in scenario.entries)
    )
    hw = preset_system("G", total_pes=96)
    costs = synthetic_table(config.models, hw)

    def fresh_stream():
        return generate_requests(scenario, config.sources, config.models, 1.0, seed=7)

    stream = fresh_stream()
    untriggered = []
    for variant in (scenario, never, ungated, scenario):
        got = _timeline(simulate(variant, stream, hw, costs))
        assert got == _timeline(simulate(variant, fresh_stream(), hw, costs))
        assert got == reference_simulate(variant, fresh_stream(), hw, costs, LATENCY_GREEDY)
        untriggered.append(sum(status == UNTRIGGERED for *_, status, _ in got.values()))
    assert untriggered[0] == untriggered[3] and 0 == untriggered[2] < untriggered[0] < untriggered[1]
