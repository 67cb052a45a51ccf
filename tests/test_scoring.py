import math
import random

import pytest
from hypothesis import given, strategies as st

from mmtsim import ScoringError, builtin_config, generate_requests, simulate, synthetic_table
from mmtsim.costmodel import preset_system
from mmtsim.runtime import COMPLETED, DROPPED
from mmtsim.loadgen import InferenceRequest
from mmtsim.scoring import (
    ScoringConfig,
    accuracy_score,
    build_report,
    energy_score,
    model_report,
    overall_score,
    per_inference_score,
    qoe_score,
    rt_score,
    report_to_obj,
    scenario_report,
    suite_report,
)
from mmtsim.workload import (
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    BenchmarkSuite,
    ScenarioEntry,
    SuiteConfig,
    UnitModel,
    UsageScenario,
)

from fuzzing import random_setup
from timelines import TimelineEntry, log_of, rows


def test_rt_score_midpoint():
    assert rt_score(42.0, 42.0, k=10.0) == 0.5
    assert rt_score(42.0, 42.0, k=0.0) == 0.5


def test_rt_score_k_zero_is_constant():
    rng = random.Random(0)
    for _ in range(100):
        assert rt_score(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4), k=0.0) == 0.5


def test_rt_score_formula_value():
    # latency one full second under the slack at k = 10
    assert rt_score(0.0, 1000.0, k=10.0) == pytest.approx(1.0 / (1.0 + math.exp(-10)), rel=1e-12)


def test_rt_score_extremes_do_not_overflow():
    assert rt_score(1e9, 0.0, k=10.0) < 1e-300
    assert rt_score(-1e9, 0.0, k=10.0) > 1.0 - 1e-15


@given(
    l1=st.floats(min_value=-1e5, max_value=1e5),
    l2=st.floats(min_value=-1e5, max_value=1e5),
    slack=st.floats(min_value=-1e5, max_value=1e5),
    k=st.floats(min_value=0.0, max_value=100.0),
)
def test_rt_score_monotone_in_latency(l1, l2, slack, k):
    lo, hi = sorted([l1, l2])
    assert rt_score(hi, slack, k) <= rt_score(lo, slack, k)


def test_energy_score_endpoints():
    assert energy_score(0.0, 5.0) == 1.0
    assert energy_score(5.0, 5.0) == 0.0
    assert energy_score(2.5, 5.0) == 0.5


def test_energy_score_rejects_out_of_range():
    for e_mj in (6.0, -0.1, math.nan):
        with pytest.raises(ScoringError):
            energy_score(e_mj, 5.0)


def test_accuracy_score_cases():
    assert accuracy_score(1.0, 1.0) == 1.0
    assert accuracy_score(85.60, 89.88) == pytest.approx(85.60 / 89.88)
    assert accuracy_score(120.0, 100.0) == 1.0  # clamped
    # error metric: smaller achieved is better, ratio inverts
    assert accuracy_score(10.0, 9.5, LOWER_IS_BETTER) == pytest.approx(0.95)
    with pytest.raises(ScoringError):
        accuracy_score(0.0, 9.5, LOWER_IS_BETTER)
    with pytest.raises(ScoringError):
        accuracy_score(1.0, 0.0)


def test_qoe_score_values():
    assert qoe_score(30, 30) == 1.0
    assert qoe_score(0, 30) == 0.0
    assert qoe_score(529, 1000) == pytest.approx(0.529)
    assert qoe_score(977, 1000) == pytest.approx(0.977)
    with pytest.raises(ScoringError):
        qoe_score(0, 0)


def test_per_inference_score_is_product():
    assert per_inference_score(1, 1, 1) == 1
    assert per_inference_score(0.5, 0.8, 1.0) == pytest.approx(0.4)
    assert per_inference_score(0.0, 0.9, 0.9) == 0.0


def _entry(model, k, status, t_req=0, t_dl=100_000, t_end=None, energy=0.0):
    req = InferenceRequest(model=model, frame_index=k, request_index=k, t_req_us=t_req, t_dl_us=t_dl)
    if status == COMPLETED:
        return TimelineEntry(req, "u0", t_start_us=t_req, t_end_us=t_end, status=status, energy_mj=energy)
    return TimelineEntry(req, None, t_start_us=None, t_end_us=None, status=status, energy_mj=0.0)


MODEL = UnitModel(id="A", task_tag="t", input_sources=("s",), reported_metric=1.0, metric_direction=HIGHER_IS_BETTER)
CFG = ScoringConfig(k=10.0, e_max_mj=10.0)


def test_per_model_score_mean_over_completed_only():
    # two completions at exactly the deadline (rt 0.5) with zero energy,
    # plus a dropped frame that must not enter the mean
    log = log_of(
        [
            _entry("A", 0, COMPLETED, t_end=100_000),
            _entry("A", 1, COMPLETED, t_end=100_000),
            _entry("A", 2, DROPPED),
        ]
    )
    assert model_report(log, MODEL, CFG).model_score == pytest.approx(0.5)


def test_per_model_score_zero_when_nothing_completed():
    log = log_of([_entry("A", 0, DROPPED)])
    assert model_report(log, MODEL, CFG).model_score == 0.0


def test_log_groups_a_model_in_request_order_whatever_the_entry_order():
    # A's entries out of request order, interleaved with B's
    rng = random.Random(0)
    ordered = []
    for k in range(12):
        for model in ("A", "B"):
            status = DROPPED if k % 5 == 3 else COMPLETED
            ordered.append(_entry(model, k, status, t_end=rng.randrange(50_000, 150_000), energy=rng.uniform(0, 9)))
    shuffled = list(ordered)
    a_slots = [i for i, e in enumerate(shuffled) if e.request.model == "A"]
    a_entries = [shuffled[i] for i in a_slots]
    rng.shuffle(a_entries)
    for i, e in zip(a_slots, a_entries):
        shuffled[i] = e
    assert [e.request.request_index for e in a_entries] != list(range(12))

    log = log_of(shuffled)
    assert [e.request.request_index for e in rows(log, "A")] == list(range(12))
    assert [e.request.request_index for e in rows(log, "B")] == list(range(12))

    def rt_sum(entries):
        total = 0.0
        for e in entries:
            if e.status == COMPLETED:
                r = e.request
                total += rt_score((e.t_end_us - r.t_req_us) / 1000.0, (r.t_dl_us - r.t_req_us) / 1000.0, CFG.k)
        return total

    assert rt_sum(a_entries) != rt_sum(rows(log, "A"))  # the order of summation shows in the low bits

    scenario = UsageScenario(id="x", entries=tuple(ScenarioEntry(model=m, target_rate=2.0) for m in ("A", "B")))
    models = {m: UnitModel(id=m, task_tag="t", input_sources=("s",)) for m in ("A", "B")}
    got = scenario_report(log, scenario, models, CFG)
    want = scenario_report(log_of(ordered), scenario, models, CFG)
    assert got == want
    assert got.scenario_score.hex() == want.scenario_score.hex()


def test_overall_score_means():
    assert overall_score([0.5, 0.5, 0.5]) == pytest.approx(0.5)
    assert overall_score([1.0, 0.0]) == pytest.approx(0.5)
    assert overall_score([1.0, 0.0], mean="geometric") == 0.0
    assert overall_score([0.4, 0.4], mean="geometric") == pytest.approx(0.4)


def test_scores_reduce_to_qoe_when_everything_else_is_perfect():
    # tiny latencies, zero energy, accuracy at goal: scenario score becomes
    # the mean of the per-model QoE values
    config = builtin_config()
    hw = preset_system("A")
    scenario = config.suite.scenario("vr-gaming")
    stream = generate_requests(scenario, config.sources, config.models, 1.0, seed=0)
    costs = synthetic_table(config.models, hw, e_max_mj=1.0)
    # rebuild with zero energy by zeroing unit power
    from mmtsim.costmodel import CostEntry, CostTable

    zero_energy = CostTable(
        [CostEntry(e.model, e.unit, 1e-3, 0.0) for e in costs.entries()], e_max_mj=1.0
    )
    log = simulate(scenario, stream, hw, zero_energy)
    # k large enough that millisecond-scale slacks saturate the sigmoid
    cfg = ScoringConfig(k=10_000.0, e_max_mj=1.0)
    score = scenario_report(log, scenario, config.models, cfg).scenario_score
    qoes = []
    for model_id in scenario.model_ids:
        c = log.counts[model_id]
        qoes.append(c.n_processed / (c.n_processed + c.n_dropped))
    assert score == pytest.approx(sum(qoes) / len(qoes), rel=1e-6)


def test_build_report_orders_and_bounds():
    config = builtin_config()
    hw = preset_system("J")
    costs = synthetic_table(config.models, hw)
    logs = {}
    for scenario in config.suite.scenarios:
        stream = generate_requests(scenario, config.sources, config.models, 1.0, seed=0)
        logs[scenario.id] = simulate(scenario, stream, hw, costs)
    report = build_report(logs, config, ScoringConfig(k=10.0, e_max_mj=costs.e_max_mj))
    assert list(report.scenarios) == list(config.suite.scenario_ids)
    for srep in report.scenarios.values():
        assert 0.0 <= srep.scenario_score <= 1.0
        for m in srep.models.values():
            for value in (m.rt_mean, m.en_mean, m.acc_mean, m.model_score, m.qoe):
                assert 0.0 <= value <= 1.0
    assert 0.0 <= report.overall_geometric <= report.overall_arithmetic <= 1.0


def _folded(logs, config, cfg):
    """suite_report over each logged scenario's report, in suite order."""
    return suite_report(
        {s.id: scenario_report(logs[s.id], s, config.models, cfg) for s in config.suite.scenarios if s.id in logs},
        cfg,
    )


def _same_bits(a, b) -> bool:
    # repr round-trips every float exactly, and tells -0.0 from 0.0
    return a == b and repr(report_to_obj(a)) == repr(report_to_obj(b))


def test_build_report_is_suite_report_over_scenario_reports():
    config = builtin_config()
    hw = preset_system("G", total_pes=96)
    costs = synthetic_table(config.models, hw)
    cfg = ScoringConfig(k=10.0, e_max_mj=costs.e_max_mj)
    logs = {}
    for scenario in reversed(config.suite.scenarios):  # build_report orders by the suite, not by the mapping
        stream = generate_requests(scenario, config.sources, config.models, 2.0, seed=7)
        logs[scenario.id] = simulate(scenario, stream, hw, costs)
    assert _same_bits(build_report(logs, config, cfg), _folded(logs, config, cfg))
    some = {sid: logs[sid] for sid in ("vr-gaming", "social-interaction-b")}
    report = build_report(some, config, cfg)
    assert list(report.scenarios) == ["social-interaction-b", "vr-gaming"]
    assert _same_bits(report, _folded(some, config, cfg))


def test_build_report_is_suite_report_on_fuzzed_setups():
    rng = random.Random(17)
    for i in range(20):
        scenario, sources, models, hw, costs = random_setup(rng)
        config = SuiteConfig(sources=sources, models=models, suite=BenchmarkSuite(scenarios=(scenario,)))
        cfg = ScoringConfig(k=rng.choice([0.0, 10.0, 1000.0]), e_max_mj=costs.e_max_mj)
        logs = {scenario.id: simulate(scenario, generate_requests(scenario, sources, models, 0.5, seed=i), hw, costs)}
        assert _same_bits(build_report(logs, config, cfg), _folded(logs, config, cfg))
