import csv
import functools
import io
import random
from dataclasses import replace

import pytest

from mmtsim import (
    ConfigError,
    CostEntry,
    CostTable,
    DependencyEdge,
    HardwareSystem,
    HardwareUnit,
    InputSource,
    ScenarioEntry,
    UnitModel,
    UsageScenario,
    builtin_config,
    generate_requests,
    simulate,
    synthetic_table,
    validate_schedule,
)
from mmtsim.costmodel import preset_system
from mmtsim.loadgen import InferenceRequest, RequestStream
from mmtsim.runtime import (
    COMPLETED,
    DROPPED,
    UNTRIGGERED,
    LOG_CSV_FIELDS,
    eval_control_gate,
    log_from_csv,
    log_to_csv,
)

from fuzzing import random_setup
from timelines import TimelineEntry, log_of, rows


def single_model_setup(rate, latency_ms, duration=1.0, units=1):
    sources = {"s": InputSource("s", streaming_rate=rate)}
    models = {"A": UnitModel(id="A", task_tag="t", input_sources=("s",))}
    scenario = UsageScenario(id="x", entries=(ScenarioEntry(model="A", target_rate=rate),))
    stream = generate_requests(scenario, sources, models, duration, seed=0)
    hw_units = tuple(HardwareUnit(id=f"u{i}", dataflow="WS", pe_count=1) for i in range(units))
    hw = HardwareSystem(id="h", style="FDA" if units == 1 else "SFDA", units=hw_units)
    costs = CostTable(
        [CostEntry("A", u.id, latency_ms=latency_ms, energy_mj=1.0) for u in hw_units], e_max_mj=10.0
    )
    return scenario, stream, hw, costs


def test_two_requests_complete_within_deadline():
    scenario, stream, hw, costs = single_model_setup(rate=2.0, latency_ms=100.0)
    log = simulate(scenario, stream, hw, costs)
    assert [e.status for e in rows(log)] == [COMPLETED, COMPLETED]
    assert all(e.t_end_us <= e.request.t_dl_us for e in rows(log))
    assert log.counts["A"].n_sat == 2


def test_drop_rule_hand_simulation():
    # 4 Hz arrivals at 0/250/500/750 ms against an 800 ms inference
    scenario, stream, hw, costs = single_model_setup(rate=4.0, latency_ms=800.0)
    log = simulate(scenario, stream, hw, costs)
    assert [e.status for e in rows(log)] == [COMPLETED, DROPPED, DROPPED, COMPLETED]
    assert rows(log)[0].t_end_us == 800_000
    assert rows(log)[3].t_end_us == 1_600_000


def _pipeline_setup(probability, duration=1.0):
    sources = {"s": InputSource("s", streaming_rate=60.0)}
    models = {
        "UP": UnitModel(id="UP", task_tag="t", input_sources=("s",)),
        "DN": UnitModel(id="DN", task_tag="t", input_sources=("s",)),
    }
    edge = DependencyEdge(upstream="UP", downstream="DN", trigger_probability=probability)
    scenario = UsageScenario(
        id="p",
        entries=(
            ScenarioEntry(model="UP", target_rate=60.0),
            ScenarioEntry(model="DN", target_rate=60.0, dependencies=(edge,)),
        ),
    )
    stream = generate_requests(scenario, sources, models, duration, seed=0)
    hw = HardwareSystem(
        id="h",
        style="SFDA",
        units=(
            HardwareUnit(id="u0", dataflow="WS", pe_count=1),
            HardwareUnit(id="u1", dataflow="WS", pe_count=1),
        ),
    )
    costs = CostTable(
        [CostEntry(m, u, latency_ms=0.5, energy_mj=0.1) for m in ("UP", "DN") for u in ("u0", "u1")],
        e_max_mj=10.0,
    )
    return scenario, stream, hw, costs


def test_zero_probability_gate_untriggers_everything():
    scenario, stream, hw, costs = _pipeline_setup(0.0)
    log = simulate(scenario, stream, hw, costs)
    assert log.counts["DN"].n_untriggered == log.counts["DN"].n_total
    assert log.counts["DN"].n_processed == 0


def test_full_probability_gate_runs_everything():
    scenario, stream, hw, costs = _pipeline_setup(1.0)
    log = simulate(scenario, stream, hw, costs)
    assert log.counts["DN"].n_processed == log.counts["UP"].n_processed


def test_downstream_starts_after_upstream_ends():
    scenario, stream, hw, costs = _pipeline_setup(1.0)
    log = simulate(scenario, stream, hw, costs)
    ups = {e.request.frame_index: e for e in rows(log, "UP")}
    for e in rows(log, "DN"):
        if e.status == COMPLETED:
            assert e.t_start_us >= ups[e.request.frame_index].t_end_us


def test_non_ascii_source_and_edge_ids_simulate():
    sources = {"kamera-é": InputSource("kamera-é", streaming_rate=60.0, max_jitter=0.05)}
    models = {m: UnitModel(id=m, task_tag="t", input_sources=("kamera-é",)) for m in ("détecteur", "suivi")}
    edge = DependencyEdge(upstream="détecteur", downstream="suivi", trigger_probability=0.5)
    scenario = UsageScenario(
        id="p",
        entries=(
            ScenarioEntry(model="détecteur", target_rate=60.0),
            ScenarioEntry(model="suivi", target_rate=60.0, dependencies=(edge,)),
        ),
    )
    stream = generate_requests(scenario, sources, models, 1.0, seed=3)
    hw = HardwareSystem(id="h", style="FDA", units=(HardwareUnit(id="u0", dataflow="WS", pe_count=1),))
    costs = CostTable([CostEntry(m, "u0", latency_ms=0.5, energy_mj=0.1) for m in models], e_max_mj=1.0)
    log = simulate(scenario, stream, hw, costs)
    counts = log.counts["suivi"]
    assert counts.n_processed > 0 and counts.n_untriggered > 0
    assert counts.n_processed + counts.n_untriggered == counts.n_total == 60


def _one_unit_scenario(latency_ms, edges):
    """A scenario of `latency_ms`'s models, in that order, each at 10 Hz on one 10 Hz
    source, with `edges` as (upstream, downstream, trigger probability); and one unit
    on which each model takes its given latency."""
    sources = {"s": InputSource("s", streaming_rate=10.0)}
    models = {m: UnitModel(id=m, task_tag="t", input_sources=("s",)) for m in latency_ms}
    deps = {m: tuple(DependencyEdge(up, down, p) for up, down, p in edges if down == m) for m in latency_ms}
    scenario = UsageScenario(
        id="x", entries=tuple(ScenarioEntry(model=m, target_rate=10.0, dependencies=deps[m]) for m in latency_ms)
    )
    hw = HardwareSystem(id="h", style="FDA", units=(HardwareUnit(id="u0", dataflow="WS", pe_count=1),))
    costs = CostTable([CostEntry(m, "u0", latency_ms=lat, energy_mj=0.0) for m, lat in latency_ms.items()], e_max_mj=1.0)
    return scenario, sources, models, hw, costs


def test_a_request_whose_anchor_was_untriggered_never_launches():
    # A -> B never fires, so every B is untriggered, and C waits on B: no C may launch
    scenario, sources, models, hw, costs = _one_unit_scenario(
        {"A": 1.0, "B": 1.0, "C": 1.0}, [("A", "B", 0.0), ("B", "C", 1.0)]
    )
    log = simulate(scenario, generate_requests(scenario, sources, models, 0.5, seed=0), hw, costs)
    assert [e.status for e in rows(log, "A")] == [COMPLETED] * 5
    assert [e.status for e in rows(log, "B")] == [UNTRIGGERED] * 5
    assert [e.status for e in rows(log, "C")] == [DROPPED] * 5


def test_a_request_whose_anchor_was_dropped_never_launches():
    # X runs from 0 to 100 ms. U0 (frame 0) waits from 10 ms and is dropped when U1 (frame 2)
    # arrives at 50 ms. D0 (frame 1) anchors to U0, and no later D arrival supersedes it, so
    # it is still waiting when the unit frees at 100 ms: it must not launch then.
    scenario, _, _, hw, costs = _one_unit_scenario({"X": 100.0, "U": 1.0, "D": 1.0}, [("U", "D", 1.0)])
    requests = (
        InferenceRequest("X", frame_index=0, request_index=0, t_req_us=0, t_dl_us=1_000_000),
        InferenceRequest("U", frame_index=0, request_index=0, t_req_us=10_000, t_dl_us=1_000_000),
        InferenceRequest("D", frame_index=1, request_index=0, t_req_us=20_000, t_dl_us=1_000_000),
        InferenceRequest("U", frame_index=2, request_index=1, t_req_us=50_000, t_dl_us=1_000_000),
    )
    log = simulate(scenario, RequestStream(scenario="x", duration=1.0, seed=0, requests=requests), hw, costs)
    assert log.status == [COMPLETED, DROPPED, DROPPED, COMPLETED]
    assert log.t_start_us[3] == 100_000


def test_eval_control_gate_extremes():
    edge = lambda p: DependencyEdge(upstream="U", downstream="D", trigger_probability=p)
    assert all(eval_control_gate(edge(1.0), f, 0) for f in range(100))
    assert not any(eval_control_gate(edge(0.0), f, 0) for f in range(100))
    fired = sum(eval_control_gate(edge(0.5), f, 0) for f in range(10_000))
    assert 0.47 <= fired / 10_000 <= 0.53


def _req(model, k, t_req=0, t_dl=1000):
    return InferenceRequest(model=model, frame_index=k, request_index=k, t_req_us=t_req, t_dl_us=t_dl)


def test_drop_superseded_rules():
    # one unit; A (150 ms) and B (1 ms) both sample a 10 Hz source: arrivals at 0/100/200/300 ms
    sources = {"s": InputSource("s", streaming_rate=10.0)}
    models = {m: UnitModel(id=m, task_tag="t", input_sources=("s",)) for m in ("A", "B")}
    scenario = UsageScenario(
        id="x", entries=(ScenarioEntry(model="A", target_rate=10.0), ScenarioEntry(model="B", target_rate=10.0))
    )
    stream = generate_requests(scenario, sources, models, 0.4, seed=0)
    hw = HardwareSystem(id="h", style="FDA", units=(HardwareUnit(id="u0", dataflow="WS", pe_count=1),))
    costs = CostTable(
        [CostEntry("A", "u0", latency_ms=150.0, energy_mj=0.0), CostEntry("B", "u0", latency_ms=1.0, energy_mj=0.0)],
        e_max_mj=1.0,
    )
    log = simulate(scenario, stream, hw, costs)
    a, b = rows(log, "A"), rows(log, "B")

    # A1 waits from 100 ms while B1 arrives and runs: another model never supersedes it
    assert a[1].status == COMPLETED and a[1].t_start_us == 152_000
    # A2 arrives at 200 ms while A1 runs: a launched request is never dropped
    assert a[2].request.t_req_ms == 200.0 and a[1].t_end_us == 302_000
    # A2 and B2 are still waiting when A3 and B3 arrive at 300 ms: both are dropped
    assert [e.status for e in a] == [COMPLETED, COMPLETED, DROPPED, COMPLETED]
    assert [e.status for e in b] == [COMPLETED, COMPLETED, DROPPED, COMPLETED]


def _hand_run(latency_ms, arrivals, policy, units=1):
    """Simulate hand-placed requests; `latency_ms` maps each model, in scenario
    order, to its cost on every unit, and each arrival is (model, t_req_ms, t_dl_ms).
    Returns the completed requests as (model, request index, unit, start ms) in start order."""
    scenario = UsageScenario(id="x", entries=tuple(ScenarioEntry(model=m, target_rate=1.0) for m in latency_ms))
    seen = {}
    requests = []
    for model, t_req, t_dl in arrivals:
        k = seen[model] = seen.get(model, -1) + 1
        requests.append(_req(model, k, t_req=round(t_req * 1000), t_dl=round(t_dl * 1000)))
    stream = RequestStream(scenario="x", duration=1.0, seed=0, requests=tuple(requests))
    hw_units = tuple(HardwareUnit(id=f"u{i}", dataflow="WS", pe_count=1) for i in range(units))
    hw = HardwareSystem(id="h", style="FDA" if units == 1 else "SFDA", units=hw_units)
    costs = CostTable([CostEntry(m, u.id, lat, 0.0) for m, lat in latency_ms.items() for u in hw_units], e_max_mj=1.0)
    log = simulate(scenario, stream, hw, costs, policy=policy)
    runs = [e for e in rows(log) if e.status == COMPLETED]
    assert len(runs) == len(requests)
    runs.sort(key=lambda e: (e.t_start_us, e.unit))
    return [(e.request.model, e.request.request_index, e.unit, e.t_start_us / 1000) for e in runs]


def test_latency_greedy_starts_the_cheaper_model_first():
    # same arrival and deadline: B is cheaper, though A sorts first; A and C tie, so model id decides
    runs = _hand_run({"A": 5.0, "B": 2.0, "C": 5.0}, [(m, 0.0, 100.0) for m in "ABC"], "latency-greedy")
    assert runs == [("B", 0, "u0", 0.0), ("A", 0, "u0", 2.0), ("C", 0, "u0", 7.0)]


def test_latency_greedy_breaks_a_latency_tie_by_the_earlier_deadline():
    runs = _hand_run({"A": 5.0, "B": 5.0}, [("A", 0.0, 100.0), ("B", 0.0, 50.0)], "latency-greedy")
    assert runs == [("B", 0, "u0", 0.0), ("A", 0, "u0", 5.0)]


def test_round_robin_cursor():
    arrivals = [("A", 0.0, 1000.0), ("C", 0.0, 1000.0), ("A", 5.0, 1000.0), ("B", 15.0, 1000.0)]
    runs = _hand_run({"A": 10.0, "B": 10.0, "C": 10.0}, arrivals, "round-robin")
    # A first; at 10 ms B has not arrived, so C; at 20 ms the cursor wraps from C to A ahead of B
    assert runs == [("A", 0, "u0", 0.0), ("C", 0, "u0", 10.0), ("A", 1, "u0", 20.0), ("B", 0, "u0", 30.0)]
    # latency-greedy (equal costs and deadlines) would take A1 at 10 ms
    assert _hand_run({"A": 10.0, "B": 10.0, "C": 10.0}, arrivals, "latency-greedy")[1] == ("A", 1, "u0", 10.0)


def test_round_robin_is_only_choice_regardless_of_cursor():
    # the cursor has just passed B, and then C; each time the lone ready model is still taken
    arrivals = [("B", 0.0, 1000.0), ("B", 5.0, 1000.0), ("C", 15.0, 1000.0), ("C", 25.0, 1000.0)]
    runs = _hand_run({"A": 10.0, "B": 10.0, "C": 10.0}, arrivals, "round-robin")
    assert runs == [("B", 0, "u0", 0.0), ("B", 1, "u0", 10.0), ("C", 0, "u0", 20.0), ("C", 1, "u0", 30.0)]


def test_round_robin_keeps_one_cursor_per_unit():
    arrivals = [("A", 0.0, 1000.0), ("B", 0.0, 1000.0), ("C", 5.0, 1000.0), ("A", 8.0, 1000.0), ("B", 8.0, 1000.0)]
    runs = _hand_run({"A": 10.0, "B": 1.0, "C": 10.0}, arrivals, "round-robin", units=2)
    # u1's last pick was C, but u0's was A, so u0 takes B1 before A1 at 10 ms
    assert runs == [
        ("A", 0, "u0", 0.0),
        ("B", 0, "u1", 0.0),
        ("C", 0, "u1", 5.0),
        ("B", 1, "u0", 10.0),
        ("A", 1, "u0", 11.0),
    ]


def test_unknown_policy_is_a_config_error():
    scenario, stream, hw, costs = single_model_setup(rate=2.0, latency_ms=1.0)
    with pytest.raises(ConfigError, match="unknown scheduler policy 'fifo'"):
        simulate(scenario, stream, hw, costs, policy="fifo")


def test_missing_cost_entry_fails_before_simulation():
    scenario, stream, hw, _ = single_model_setup(rate=2.0, latency_ms=1.0)
    empty = CostTable([], e_max_mj=1.0)
    with pytest.raises(ConfigError, match="'A'"):
        simulate(scenario, stream, hw, empty)


def test_counts_partition_invariant():
    rng = random.Random(5)
    for _ in range(20):
        scenario, sources, models, hw, costs = random_setup(rng)
        stream = generate_requests(scenario, sources, models, 0.5, seed=rng.randrange(1 << 31))
        log = simulate(scenario, stream, hw, costs)
        for counts in log.counts.values():
            assert counts.n_total == counts.n_processed + counts.n_dropped + counts.n_untriggered


def test_simulation_is_deterministic():
    config = builtin_config()
    scenario = config.suite.scenario("social-interaction-a")
    hw = HardwareSystem(
        id="h",
        style="SFDA",
        units=(
            HardwareUnit(id="u0", dataflow="WS", pe_count=2048),
            HardwareUnit(id="u1", dataflow="OS", pe_count=2048),
        ),
    )
    costs = synthetic_table(config.models, hw)

    def run():
        stream = generate_requests(scenario, config.sources, config.models, 1.0, seed=9)
        log = simulate(scenario, stream, hw, costs)
        buf = io.StringIO()
        log_to_csv(log, buf)
        return buf.getvalue()

    assert run() == run()


def test_a_stream_given_out_of_order_is_kept_and_simulated_in_dispatch_order():
    config = builtin_config()
    scenario = config.suite.scenario("social-interaction-a")
    stream = generate_requests(scenario, config.sources, config.models, 1.0, seed=7)
    shuffled = list(stream.requests)
    random.Random(3).shuffle(shuffled)
    given = RequestStream(scenario=stream.scenario, duration=stream.duration, seed=stream.seed, requests=shuffled)
    assert given.requests == stream.requests and type(given.requests) is tuple
    hw = preset_system("G", total_pes=96)
    costs = synthetic_table(config.models, hw)
    a, b = simulate(scenario, given, hw, costs), simulate(scenario, stream, hw, costs)
    assert rows(a) == rows(b) and a.counts == b.counts
    assert a.counts["GE"].n_dropped > 0  # the drop rule ran


def test_extra_unit_never_increases_drops():
    config = builtin_config()
    for scenario in config.suite.scenarios:
        stream = generate_requests(scenario, config.sources, config.models, 1.0, seed=0)
        drops = {}
        for n_units in (1, 2):
            units = tuple(HardwareUnit(id=f"u{i}", dataflow="WS", pe_count=512) for i in range(n_units))
            hw = HardwareSystem(id=f"h{n_units}", style="FDA" if n_units == 1 else "SFDA", units=units)
            costs = synthetic_table(config.models, hw, e_max_mj=100.0)
            log = simulate(scenario, stream, hw, costs)
            drops[n_units] = {m: c.n_dropped for m, c in log.counts.items()}
        for model in drops[1]:
            assert drops[2][model] <= drops[1][model]


def test_validate_schedule_detects_overlap():
    log = log_of(
        [
            TimelineEntry(_req("A", 0), "u0", t_start_us=0, t_end_us=100, status=COMPLETED, energy_mj=0.0),
            TimelineEntry(_req("A", 1, t_req=0), "u0", t_start_us=50, t_end_us=150, status=COMPLETED, energy_mj=0.0),
        ]
    )
    scenario = UsageScenario(id="x", entries=(ScenarioEntry(model="A", target_rate=2.0),))
    assert any("occupancy" in v for v in validate_schedule(log, scenario))


def test_validate_schedule_detects_dependency_violation():
    edge = DependencyEdge(upstream="UP", downstream="DN")
    scenario = UsageScenario(
        id="x",
        entries=(
            ScenarioEntry(model="UP", target_rate=2.0),
            ScenarioEntry(model="DN", target_rate=2.0, dependencies=(edge,)),
        ),
    )
    log = log_of(
        [
            TimelineEntry(_req("UP", 0), "u0", t_start_us=0, t_end_us=100, status=COMPLETED, energy_mj=0.0),
            TimelineEntry(_req("DN", 0), "u1", t_start_us=50, t_end_us=80, status=COMPLETED, energy_mj=0.0),
        ]
    )
    assert any("dependency" in v for v in validate_schedule(log, scenario))


def test_validate_schedule_detects_early_start():
    log = log_of(
        [TimelineEntry(_req("A", 0, t_req=100), "u0", t_start_us=50, t_end_us=150, status=COMPLETED, energy_mj=0.0)]
    )
    scenario = UsageScenario(id="x", entries=(ScenarioEntry(model="A", target_rate=2.0),))
    assert any("request time" in v for v in validate_schedule(log, scenario))


def _one_violation_cases():
    up_dn = UsageScenario(
        id="x",
        entries=(
            ScenarioEntry(model="UP", target_rate=2.0),
            ScenarioEntry(model="DN", target_rate=2.0, dependencies=(DependencyEdge(upstream="UP", downstream="DN"),)),
        ),
    )
    only_a = UsageScenario(id="x", entries=(ScenarioEntry(model="A", target_rate=2.0),))
    return {
        "overlap": (
            only_a,
            [
                TimelineEntry(_req("A", 0), "u0", t_start_us=0, t_end_us=100, status=COMPLETED, energy_mj=0.0),
                TimelineEntry(_req("A", 1), "u0", t_start_us=50, t_end_us=150, status=COMPLETED, energy_mj=0.0),
            ],
            "occupancy violation on unit u0: A[0] overlaps A[1]",
        ),
        "start-before-anchor-ends": (
            up_dn,
            [
                TimelineEntry(_req("UP", 0), "u0", t_start_us=0, t_end_us=100, status=COMPLETED, energy_mj=0.0),
                TimelineEntry(_req("DN", 0), "u1", t_start_us=99, t_end_us=120, status=COMPLETED, energy_mj=0.0),
            ],
            "dependency violation UP->DN: DN[0] started before upstream ended",
        ),
        "anchor-dropped": (
            up_dn,
            [
                TimelineEntry(_req("UP", 0), None, t_start_us=None, t_end_us=None, status=DROPPED, energy_mj=0.0),
                TimelineEntry(_req("DN", 0), "u1", t_start_us=200, t_end_us=220, status=COMPLETED, energy_mj=0.0),
            ],
            "dependency violation UP->DN: DN[0] ran without its upstream",
        ),
        "start-before-request": (
            only_a,
            [TimelineEntry(_req("A", 0, t_req=100), "u0", t_start_us=99, t_end_us=150, status=COMPLETED, energy_mj=0.0)],
            "A[0] started before its request time",
        ),
    }


@pytest.mark.parametrize("case", list(_one_violation_cases()))
def test_validate_schedule_reports_the_one_violation_of_a_timeline(case):
    scenario, rows, message = _one_violation_cases()[case]
    assert validate_schedule(log_of(rows), scenario) == [message]


def test_validate_schedule_reports_violations_in_a_fixed_order():
    # Early starts by stream position, then overlaps per unit (in the order
    # the units first complete a row) by start time, then each edge's
    # dependency violations in downstream frame order.
    scenario = UsageScenario(
        id="x",
        entries=(
            ScenarioEntry(model="UP", target_rate=2.0),
            ScenarioEntry(model="DN", target_rate=2.0, dependencies=(DependencyEdge(upstream="UP", downstream="DN"),)),
            ScenarioEntry(model="A", target_rate=2.0),
        ),
    )
    rows = [
        TimelineEntry(_req("DN", 1), "u1", t_start_us=250, t_end_us=300, status=COMPLETED, energy_mj=0.0),
        TimelineEntry(_req("UP", 0), "u0", t_start_us=0, t_end_us=100, status=COMPLETED, energy_mj=0.0),
        TimelineEntry(_req("A", 0, t_req=60), "u0", t_start_us=50, t_end_us=120, status=COMPLETED, energy_mj=0.0),
        TimelineEntry(_req("UP", 1), None, t_start_us=None, t_end_us=None, status=DROPPED, energy_mj=0.0),
        TimelineEntry(_req("DN", 0), "u1", t_start_us=90, t_end_us=95, status=COMPLETED, energy_mj=0.0),
        TimelineEntry(_req("A", 1), "u1", t_start_us=92, t_end_us=200, status=COMPLETED, energy_mj=0.0),
    ]
    assert validate_schedule(log_of(rows), scenario) == [
        "A[0] started before its request time",
        "occupancy violation on unit u1: DN[0] overlaps A[1]",
        "occupancy violation on unit u0: UP[0] overlaps A[0]",
        "dependency violation UP->DN: DN[0] started before upstream ended",
        "dependency violation UP->DN: DN[1] ran without its upstream",
    ]


def test_validate_schedule_passes_simulated_timelines():
    config = builtin_config()
    hw = preset_system("G", total_pes=96)
    costs = synthetic_table(config.models, hw)
    for scenario in config.suite.scenarios:
        stream = generate_requests(scenario, config.sources, config.models, 5.0, seed=7)
        assert validate_schedule(simulate(scenario, stream, hw, costs), scenario) == []
    rng = random.Random(2024)
    for i in range(30):
        scenario, sources, models, hw, costs = random_setup(rng)
        stream = generate_requests(scenario, sources, models, 0.5, seed=i)
        for policy in ("latency-greedy", "round-robin"):
            assert validate_schedule(simulate(scenario, stream, hw, costs, policy=policy), scenario) == []


def test_log_csv_roundtrip():
    scenario, stream, hw, costs = single_model_setup(rate=4.0, latency_ms=800.0)
    log = simulate(scenario, stream, hw, costs)
    buf = io.StringIO()
    log_to_csv(log, buf)
    buf.seek(0)
    back = log_from_csv(buf, scenario=scenario.id)
    assert [e.status for e in rows(back)] == [e.status for e in rows(log)]
    assert [e.t_end_us for e in rows(back)] == [e.t_end_us for e in rows(log)]
    assert back.counts == log.counts


def test_log_from_csv_shares_one_object_per_status_model_and_unit():
    config = builtin_config()
    scenario = config.suite.scenario("ar-assistant")
    hw = preset_system("G", total_pes=96)
    stream = generate_requests(scenario, config.sources, config.models, 2.0, seed=7)
    back = log_from_csv(io.StringIO(_csv_text(simulate(scenario, stream, hw, synthetic_table(config.models, hw)))))
    assert set(back.status) == {COMPLETED, DROPPED, UNTRIGGERED}
    assert {id(st) for st in back.status} == {id(COMPLETED), id(DROPPED), id(UNTRIGGERED)}
    models = [r.model for r in back.requests]
    units = [u for u in back.unit if u is not None]
    assert len({id(m) for m in models}) == len(set(models)) == len(scenario.model_ids)
    assert len({id(u) for u in units}) == len(set(units)) > 1


def _csv_text(log):
    buf = io.StringIO()
    log_to_csv(log, buf)
    return buf.getvalue()


@functools.cache
def _timeline_texts():
    """Timeline CSVs of the built-in suite on an overloaded preset and of
    fuzzed setups, every other one with zero-energy costs; built once per
    test session."""
    config = builtin_config()
    hw = preset_system("G", total_pes=96)
    costs = synthetic_table(config.models, hw)
    texts = []
    for scenario in config.suite.scenarios:
        stream = generate_requests(scenario, config.sources, config.models, 2.0, seed=7)
        texts.append(_csv_text(simulate(scenario, stream, hw, costs)))
    rng = random.Random(11)
    for i in range(30):
        scenario, sources, models, hw, costs = random_setup(rng)
        if i % 2:
            costs = CostTable([replace(e, energy_mj=0.0) for e in costs.entries()], e_max_mj=costs.e_max_mj)
        stream = generate_requests(scenario, sources, models, 0.5, seed=i)
        texts.append(_csv_text(simulate(scenario, stream, hw, costs)))
    return tuple(texts)


def test_timeline_csv_reads_back_to_the_same_bytes():
    texts = _timeline_texts()
    rows = [row for text in texts for row in csv.DictReader(io.StringIO(text))]
    assert {row["status"] for row in rows} == {COMPLETED, DROPPED, UNTRIGGERED}
    assert any(float(row["t_req_ms"]) < 0 for row in rows)
    assert any(row["status"] == COMPLETED and row["energy_mj"] == "0.0" for row in rows)
    for text in texts:
        assert _csv_text(log_from_csv(io.StringIO(text))) == text


def _rewrite(text, columns, blank_every=0, extra=False):
    """The timeline in `text` with its columns in the given order, optionally
    an extra column and a blank line after every `blank_every` rows."""
    rows = list(csv.DictReader(io.StringIO(text)))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([*columns, "note"] if extra else columns)
    for i, row in enumerate(rows):
        writer.writerow([row[c] for c in columns] + (["x"] if extra else []))
        if blank_every and i % blank_every == 0:
            buf.write("\r\n")
    return buf.getvalue()


@pytest.mark.parametrize(
    "columns, blank_every, extra",
    [
        (tuple(reversed(LOG_CSV_FIELDS)), 0, False),
        (LOG_CSV_FIELDS, 0, True),
        (LOG_CSV_FIELDS, 7, False),
        (LOG_CSV_FIELDS[3:] + LOG_CSV_FIELDS[:3], 5, True),
    ],
    ids=["reordered", "extra-column", "blank-lines", "all-three"],
)
def test_timeline_csv_layout_does_not_change_the_log(columns, blank_every, extra):
    text = _timeline_texts()[0]
    log = log_from_csv(io.StringIO(_rewrite(text, columns, blank_every, extra)))
    assert _csv_text(log) == text
    assert log.counts == log_from_csv(io.StringIO(text)).counts


def test_short_timeline_row_is_a_config_error_naming_its_line():
    lines = _timeline_texts()[0].splitlines(keepends=True)
    short = ",".join(lines[2].split(",")[:5]) + "\r\n"
    with pytest.raises(ConfigError, match=r"line 3\b"):
        log_from_csv(io.StringIO("".join([lines[0], lines[1], short, *lines[3:]])))
