"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL line
so the whole gate can be read off a verbose run at a glance.
"""

import json
import io
import math
import random
import time
from dataclasses import replace

from mmtsim import (
    CostEntry,
    CostTable,
    HardwareSystem,
    HardwareUnit,
    InputSource,
    ScenarioEntry,
    SuiteConfig,
    UnitModel,
    UsageScenario,
    builtin_config,
    generate_requests,
    simulate,
    synthetic_table,
    validate_schedule,
)
from mmtsim.cli import main
from mmtsim.costmodel import preset_system
from mmtsim.loadgen import target_count
from mmtsim.runtime import COMPLETED, DROPPED, LATENCY_GREEDY, ROUND_ROBIN, log_from_csv, log_to_csv
from mmtsim.scoring import (
    ScoringConfig,
    energy_score,
    model_report,
    overall_score,
    qoe_score,
    rt_score,
    scenario_report,
)
from mmtsim.workload import LOWER_IS_BETTER, accuracy_goal, achieved_metric

from fuzzing import random_setup
from timelines import rows


def _verdict(name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"{status}: {name}")
    assert not failures, f"{name}: " + "; ".join(str(f) for f in failures)


def test_criterion_1_score_formula_fidelity():
    failures = []
    if rt_score(42.0, 42.0, k=10.0) != 0.5:
        failures.append("rt_score at exactly the deadline is not 0.5")
    rng = random.Random(1)
    for _ in range(100):
        if rt_score(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4), k=0.0) != 0.5:
            failures.append("rt_score with k=0 is not constant 0.5")
            break
    if energy_score(0.0, 5.0) != 1.0 or energy_score(5.0, 5.0) != 0.0:
        failures.append("energy_score endpoints are not exact")
    if abs(qoe_score(529, 1000) - (1.0 - 0.471)) > 1e-9:
        failures.append("qoe at a 0.471 drop rate is not 0.529")
    _verdict("score-formula fidelity", failures)


def test_criterion_2_range_invariants():
    rng = random.Random(2024)
    cfg = ScoringConfig(k=10.0, e_max_mj=50.0)
    failures = []
    start = time.monotonic()
    scenario_scores = []
    for i in range(1000):
        scenario, sources, models, hw, costs = random_setup(rng)
        stream = generate_requests(scenario, sources, models, 0.25, seed=i)
        log = simulate(scenario, stream, hw, costs)
        for model_id in scenario.model_ids:
            rep = model_report(log, models[model_id], cfg)
            for name in ("rt_mean", "en_mean", "acc_mean", "model_score", "qoe"):
                value = getattr(rep, name)
                if not 0.0 <= value <= 1.0:
                    failures.append(f"{name}={value} out of range (sim {i})")
        score = scenario_report(log, scenario, models, cfg).scenario_score
        if not 0.0 <= score <= 1.0:
            failures.append(f"scenario score {score} out of range (sim {i})")
        scenario_scores.append(score)
    for mean in ("arithmetic", "geometric"):
        agg = overall_score(scenario_scores, mean)
        if not 0.0 <= agg <= 1.0:
            failures.append(f"{mean} aggregate {agg} out of range")
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s (budget 30s)")
    _verdict("range invariants over 1000 fuzzed simulations", failures)


def test_criterion_3_schedule_validity():
    rng = random.Random(99)
    failures = []
    start = time.monotonic()
    for i in range(100):
        scenario, sources, models, hw, costs = random_setup(rng)
        policy = rng.choice([LATENCY_GREEDY, ROUND_ROBIN])
        stream = generate_requests(scenario, sources, models, 0.5, seed=i)
        log = simulate(scenario, stream, hw, costs, policy=policy)
        violations = validate_schedule(log, scenario)
        if violations:
            failures.append(f"sim {i} ({policy}): {violations[0]}")
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s (budget 30s)")
    _verdict("schedule validity over 100 fuzzed configurations", failures)


def test_criterion_4_throughput_bound():
    # 1 microsecond per inference: even near-zero latency must not push the
    # completed count past the target processing rate
    config = builtin_config()
    hw = HardwareSystem(id="fast", style="FDA", units=(HardwareUnit(id="u0", dataflow="WS", pe_count=1),))
    costs = CostTable(
        [CostEntry(mid, "u0", latency_ms=0.001, energy_mj=0.0) for mid in config.models], e_max_mj=1.0
    )
    failures = []
    for scenario in config.suite.scenarios:
        stream = generate_requests(scenario, config.sources, config.models, 1.0, seed=0)
        log = simulate(scenario, stream, hw, costs)
        for entry in scenario.entries:
            counts = log.counts[entry.model]
            target = target_count(entry.target_rate, 1.0)
            if counts.n_processed > target:
                failures.append(f"{scenario.id}/{entry.model}: {counts.n_processed} > target {target}")
            gated = any(e.trigger_probability < 1.0 for e in entry.dependencies)
            achieved = counts.n_processed + (counts.n_untriggered if gated else 0)
            if achieved != target:
                failures.append(f"{scenario.id}/{entry.model}: {achieved} != target {target}")
    _verdict("throughput bound with 1 microsecond inferences", failures)


def test_criterion_5_drop_rule_oracle():
    # 4 Hz arrivals at 0/250/500/750 ms against an 800 ms inference
    sources = {"s": InputSource("s", streaming_rate=4.0)}
    models = {"A": UnitModel(id="A", task_tag="t", input_sources=("s",))}
    scenario = UsageScenario(id="x", entries=(ScenarioEntry(model="A", target_rate=4.0),))
    stream = generate_requests(scenario, sources, models, 1.0, seed=0)
    hw = HardwareSystem(id="h", style="FDA", units=(HardwareUnit(id="u0", dataflow="WS", pe_count=1),))
    costs = CostTable([CostEntry("A", "u0", latency_ms=800.0, energy_mj=1.0)], e_max_mj=10.0)
    log = simulate(scenario, stream, hw, costs)
    failures = []
    statuses = [e.status for e in rows(log)]
    if statuses != [COMPLETED, DROPPED, DROPPED, COMPLETED]:
        failures.append(f"statuses {statuses}")
    ends = [e.t_end_us for e in rows(log) if e.status == COMPLETED]
    if ends != [800_000, 1_600_000]:
        failures.append(f"completion times {ends}")
    _verdict("drop-rule hand-simulation oracle", failures)


def test_criterion_6_deep_dive_timeline():
    config = builtin_config()
    # zero out jitter so frame times are exactly periodic
    sources = {sid: replace(s, max_jitter=0.0) for sid, s in config.sources.items()}
    config = SuiteConfig(sources=sources, models=config.models, suite=config.suite)
    scenario = config.suite.scenario("social-interaction-a")
    hw = preset_system("J")
    costs = synthetic_table(config.models, hw)
    stream = generate_requests(scenario, config.sources, config.models, 1.0, seed=0)
    log = simulate(scenario, stream, hw, costs)

    failures = []
    for model in ("HT", "DR"):
        frames = [r.frame_index for r in stream.requests if r.model == model]
        if any(b - a != 2 for a, b in zip(frames, frames[1:])):
            failures.append(f"{model} is not on every other frame: {frames[:6]}...")
    es_end = {e.request.frame_index: e.t_end_us for e in rows(log, "ES") if e.status == COMPLETED}
    for e in rows(log, "GE"):
        if e.status == COMPLETED and e.t_start_us < es_end.get(e.request.frame_index, 0):
            failures.append(f"GE frame {e.request.frame_index} started before its ES finished")
            break
    _verdict("zero-jitter deep-dive timeline structure", failures)


def test_criterion_7_run_determinism(tmp_path):
    base = ["run", "--scenario", "vr-gaming", "--hw", "preset:J", "--synthetic", "--out"]
    failures = []
    assert main(base + [str(tmp_path / "a"), "--seed", "0"]) == 0
    assert main(base + [str(tmp_path / "b"), "--seed", "0"]) == 0
    assert main(base + [str(tmp_path / "c"), "--seed", "1"]) == 0
    if (tmp_path / "a/report.json").read_bytes() != (tmp_path / "b/report.json").read_bytes():
        failures.append("same seed did not give byte-identical reports")

    def times(run):
        with open(tmp_path / run / "timeline_vr-gaming.csv", newline="") as fh:
            log = log_from_csv(fh, scenario="vr-gaming")
        key = lambda e: (e.request.model, e.request.request_index)
        reqs = {key(e): e.request.t_req_us for e in rows(log)}
        dls = {key(e): e.request.t_dl_us for e in rows(log)}
        return reqs, dls

    req_a, dl_a = times("a")
    req_c, dl_c = times("c")
    if req_a == req_c:
        failures.append("changing the seed left every request time unchanged")
    if dl_a != dl_c:
        failures.append("changing the seed moved a deadline")
    _verdict("byte-identical reruns; seed moves request times only", failures)


def _brute_force_scenario_score(csv_text, scenario, models, cfg):
    """Independent recomputation from the serialized log, same summation order."""
    log = log_from_csv(io.StringIO(csv_text), scenario=scenario.id)
    total = 0.0
    for model_id in scenario.model_ids:
        model = models[model_id]
        goal = accuracy_goal(model)
        achieved = achieved_metric(model)
        ratio = goal / achieved if model.metric_direction == LOWER_IS_BETTER else achieved / goal
        acc = min(max(ratio, 0.0), 1.0)
        score_sum = 0.0
        n = 0
        entries = sorted(rows(log, model_id), key=lambda e: e.request.request_index)
        for e in entries:
            if e.status != COMPLETED:
                continue
            latency_ms = (e.t_end_us - e.request.t_req_us) / 1000.0
            slack_ms = (e.request.t_dl_us - e.request.t_req_us) / 1000.0
            arg = cfg.k * (latency_ms - slack_ms) / 1000.0
            arg = min(max(arg, -700.0), 700.0)
            rt = 1.0 / (1.0 + math.exp(arg))
            en = (cfg.e_max_mj - e.energy_mj) / cfg.e_max_mj
            score_sum += rt * en * acc
            n += 1
        model_score = score_sum / n if n else 0.0
        counts = log.counts[model_id]
        denom = counts.n_processed + counts.n_dropped
        qoe = counts.n_processed / denom if denom else 0.0
        total += model_score * qoe
    return total / len(scenario.model_ids)


def test_criterion_8_scoring_oracle_equivalence():
    rng = random.Random(77)
    cfg = ScoringConfig(k=10.0, e_max_mj=50.0)
    failures = []
    start = time.monotonic()
    for i in range(50):
        scenario, sources, models, hw, costs = random_setup(rng)
        stream = generate_requests(scenario, sources, models, 0.5, seed=i)
        log = simulate(scenario, stream, hw, costs)
        streaming = scenario_report(log, scenario, models, cfg).scenario_score
        buf = io.StringIO()
        log_to_csv(log, buf)
        brute = _brute_force_scenario_score(buf.getvalue(), scenario, models, cfg)
        if streaming != brute:
            failures.append(f"run {i}: streaming {streaming!r} != brute force {brute!r}")
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s (budget 10s)")
    _verdict("streaming scoring equals brute-force recomputation bitwise", failures)


def test_criterion_9_cascading_sweep_endpoints():
    from mmtsim.workload import with_edge_probability

    config = builtin_config()
    base = config.suite.scenario("vr-gaming")
    hw = preset_system("J")
    costs = synthetic_table(config.models, hw)
    failures = []

    def run(p, duration):
        scenario = with_edge_probability(base, "ES", "GE", p)
        stream = generate_requests(scenario, config.sources, config.models, duration, seed=0)
        return simulate(scenario, stream, hw, costs)

    log = run(0.0, 1.0)
    if log.counts["GE"].n_processed != 0:
        failures.append(f"p=0 processed {log.counts['GE'].n_processed} GE frames")

    log = run(1.0, 1.0)
    ge = log.counts["GE"]
    if ge.n_total - ge.n_untriggered != log.counts["ES"].n_processed:
        failures.append("p=1 triggered count != ES completed count")

    # 20 s at 60 Hz: 1200 upstream completions
    log = run(0.5, 20.0)
    es_completed = log.counts["ES"].n_processed
    ge = log.counts["GE"]
    if es_completed < 1000:
        failures.append(f"only {es_completed} ES completions, need >= 1000")
    fraction = (ge.n_total - ge.n_untriggered) / es_completed
    if not 0.47 <= fraction <= 0.53:
        failures.append(f"p=0.5 triggered fraction {fraction:.4f} outside [0.47, 0.53]")
    _verdict("cascading sweep endpoints and midpoint fraction", failures)


GOLDEN_RATES = {
    "social-interaction-a": {"HT": 30.0, "ES": 60.0, "GE": 60.0, "DR": 30.0},
    "social-interaction-b": {"ES": 60.0, "GE": 60.0, "AS": 30.0},
    "outdoor-activity-a": {"KD": 3.0, "SR": 3.0, "SS": 10.0, "OD": 30.0},
    "outdoor-activity-b": {"KD": 3.0, "SR": 3.0, "OD": 30.0},
    "ar-assistant": {"KD": 3.0, "SR": 3.0, "SS": 10.0, "OD": 10.0, "DE": 30.0, "PD": 30.0},
    "ar-gaming": {"HT": 45.0, "DE": 30.0, "PD": 30.0},
    "vr-gaming": {"HT": 45.0, "ES": 60.0, "GE": 60.0},
}

GOLDEN_SOURCES = {
    "camera": {"streaming_rate": 60.0, "max_jitter_ms": 0.05, "init_latency_ms": 0.0},
    "lidar": {"streaming_rate": 60.0, "max_jitter_ms": 0.05, "init_latency_ms": 0.0},
    "microphone": {"streaming_rate": 3.0, "max_jitter_ms": 0.1, "init_latency_ms": 0.0},
}


def test_criterion_10_builtin_suite_conformance(tmp_path):
    out = tmp_path / "suite.json"
    assert main(["export-suite", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    failures = []

    rates = {
        s["id"]: {e["model"]: e["target_rate"] for e in s["entries"]} for s in obj["scenarios"]
    }
    if rates != GOLDEN_RATES:
        failures.append(f"scenario rates differ: {rates}")

    sources = {
        s["id"]: {k: s[k] for k in ("streaming_rate", "max_jitter_ms", "init_latency_ms")}
        for s in obj["input_sources"]
    }
    if sources != GOLDEN_SOURCES:
        failures.append(f"input sources differ: {sources}")
    _verdict("built-in suite matches the golden rates and source parameters", failures)
