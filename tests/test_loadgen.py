import gc
import pickle
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from mmtsim import ConfigError, InputSource, ScenarioEntry, UnitModel, UsageScenario, simulate, synthetic_table
from mmtsim import runtime
from mmtsim.costmodel import preset_system
from mmtsim.loadgen import (
    InferenceRequest,
    RequestStream,
    det_rand,
    generate_requests,
    jitter_offset,
    select_frames,
    target_count,
)
from mmtsim.workload import builtin_config


CAMERA = InputSource("camera", streaming_rate=60.0, max_jitter=0.05)
QUIET_CAMERA = InputSource("camera", streaming_rate=60.0, max_jitter=0.0)


def test_det_rand_is_deterministic():
    assert det_rand(7, "camera", 5) == det_rand(7, "camera", 5)


def test_det_rand_regression_values():
    # frozen from the shipped hash; a change here breaks reproducibility
    assert det_rand(0, "camera", 5) == pytest.approx(0.03344147644580272, abs=0)
    assert det_rand(0, "camera", 5) != det_rand(0, "camera", 6)


def test_det_rand_accepts_non_ascii_ids():
    # ids are hashed as UTF-8, which leaves every ASCII id's value unchanged
    value = det_rand(0, "kamera-é", 5)
    assert 0.0 <= value < 1.0
    assert value == det_rand(0, "kamera-é", 5)
    assert value != det_rand(0, "kamera-e", 5)


def test_det_rand_mean_is_roughly_uniform():
    vals = [det_rand(0, "camera", i) for i in range(10_000)]
    assert 0.45 <= sum(vals) / len(vals) <= 0.55
    assert all(0.0 <= v < 1.0 for v in vals)


def test_jitter_zero_when_no_jitter():
    assert jitter_offset(QUIET_CAMERA, 3, 0) == 0.0


def test_jitter_bounded_by_max_jitter():
    offsets = [jitter_offset(CAMERA, i, 1) for i in range(10_000)]
    assert all(-0.05 <= o <= 0.05 for o in offsets)
    assert min(offsets) < 0 < max(offsets)


def test_jitter_centered_variate_gives_zero():
    # the truncated-Gaussian map sends the distribution center to offset 0
    mean = sum(jitter_offset(CAMERA, i, 1) for i in range(100_000)) / 100_000
    assert abs(mean) < 0.005


def _one_model_requests(source: InputSource, target_rate: float) -> tuple[InferenceRequest, ...]:
    """The 1 s stream, at seed 0, of one model that samples `source` alone at `target_rate`."""
    models = {"X": UnitModel(id="X", task_tag="t", input_sources=(source.id,))}
    scenario = UsageScenario(id="s", entries=(ScenarioEntry(model="X", target_rate=target_rate),))
    return generate_requests(scenario, {source.id: source}, models, 1.0, seed=0).requests


def test_request_time_examples():
    assert _one_model_requests(QUIET_CAMERA, 60.0)[2].t_req_ms == pytest.approx(2 * 1000 / 60, abs=1e-3)
    mic = InputSource("microphone", streaming_rate=3.0)
    assert _one_model_requests(mic, 3.0)[0].t_req_ms == 0.0
    delayed = InputSource("cam", streaming_rate=60.0, init_latency=5.0)
    assert _one_model_requests(delayed, 60.0)[0].t_req_ms == pytest.approx(5.0)


def test_deadline_examples():
    assert _one_model_requests(QUIET_CAMERA, 30.0)[0].t_dl_ms == pytest.approx(1000 / 30, abs=1e-3)
    assert _one_model_requests(QUIET_CAMERA, 60.0)[1].t_dl_ms == pytest.approx(2 * 1000 / 60, abs=1e-3)
    assert _one_model_requests(QUIET_CAMERA, 1.0)[0].t_dl_ms == pytest.approx(1000.0)
    # a jittered source moves arrivals, never deadlines
    jittered, quiet = _one_model_requests(CAMERA, 30.0), _one_model_requests(QUIET_CAMERA, 30.0)
    assert [r.t_dl_us for r in jittered] == [r.t_dl_us for r in quiet]
    assert [r.t_req_us for r in jittered] != [r.t_req_us for r in quiet]


def test_frame_selection_every_other_at_half_rate():
    assert select_frames(30, 60, 5) == [1, 3, 5, 7, 9]


def test_frame_selection_45hz_accumulator():
    frames = select_frames(45, 60, 45)
    assert len(frames) == 45
    assert frames[:8] == [1, 2, 3, 5, 6, 7, 9, 10]
    assert max(frames) < 60


def test_social_interaction_a_request_counts():
    config = builtin_config()
    scenario = config.suite.scenario("social-interaction-a")
    stream = generate_requests(scenario, config.sources, config.models, 1.0, seed=0)
    per_model = Counter(r.model for r in stream.requests)
    assert {m: per_model[m] for m in scenario.model_ids} == {"HT": 30, "ES": 60, "GE": 60, "DR": 30}


def test_inference_request_is_an_immutable_value():
    r = InferenceRequest("HT", 4, 2, 66_667, 100_000)
    with pytest.raises(AttributeError):
        r.t_req_us = 0
    twin = InferenceRequest(model="HT", frame_index=4, request_index=2, t_req_us=66_667, t_dl_us=100_000)
    assert r == twin and hash(r) == hash(twin)
    assert r != InferenceRequest("HT", 4, 2, 66_667, 100_001)
    assert (r.t_req_ms, r.t_dl_ms, r.t_dl_us - r.t_req_us) == (66.667, 100.0, 33_333)


def _stream(*requests):
    """A hand-built stream of (model, frame, request index, request time in ms) requests."""
    requests = tuple(InferenceRequest(m, frame, k, t_req_ms * 1000, 500_000) for m, frame, k, t_req_ms in requests)
    return RequestStream(scenario="x", duration=1.0, seed=0, requests=requests)


def test_a_model_whose_requests_arrive_swapped_is_a_config_error():
    # X0 at 0 ms, then A1 at 10 ms before A0 at 20 ms: a dispatcher would drop A1 when A0 arrives
    message = r"^request stream: A request_index 1 \(frame 1\) comes where request_index 0 should$"
    with pytest.raises(ConfigError, match=message):
        _stream(("X", 0, 0, 0), ("A", 1, 1, 10), ("A", 0, 0, 20))


def test_a_gap_in_a_models_request_indices_is_a_config_error():
    message = r"A request_index 2 \(frame 2\) comes where request_index 1 after frame 0 should"
    with pytest.raises(ConfigError, match=message):
        _stream(("A", 0, 0, 0), ("A", 2, 2, 20))


def test_a_repeated_frame_is_a_config_error():
    message = r"A request_index 1 \(frame 3\) comes where request_index 1 after frame 3 should"
    with pytest.raises(ConfigError, match=message):
        _stream(("A", 3, 0, 0), ("A", 3, 1, 10))


def test_a_simulated_stream_stays_an_equal_value():
    # simulate keeps a plan per stream object; it must not show in the stream's value
    config = builtin_config()
    scenario = config.suite.scenario("outdoor-activity-a")
    stream = generate_requests(scenario, config.sources, config.models, 1.0, seed=7)
    twin = generate_requests(scenario, config.sources, config.models, 1.0, seed=7)
    before = repr(stream)
    hw = preset_system("J")
    simulate(scenario, stream, hw, synthetic_table(config.models, hw))
    assert id(stream) in runtime._plans  # the plan was kept
    assert stream == twin and hash(stream) == hash(twin)
    assert repr(stream) == repr(twin) == before
    assert pickle.dumps(stream) == pickle.dumps(twin)
    copy = replace(stream)
    assert copy == stream and id(copy) not in runtime._plans
    key = id(stream)
    del stream
    gc.collect()
    assert key not in runtime._plans  # dropped with the stream


def test_multi_modal_request_time_is_max_over_sources():
    sources = {
        "cam": InputSource("cam", streaming_rate=60.0),
        "lidar": InputSource("lidar", streaming_rate=60.0, init_latency=4.0),
    }
    models = {"DR": UnitModel(id="DR", task_tag="t", input_sources=("cam", "lidar"))}
    scenario = UsageScenario(id="s", entries=(ScenarioEntry(model="DR", target_rate=30.0),))
    stream = generate_requests(scenario, sources, models, 1.0, seed=0)
    first = stream.requests[0]
    assert first.t_req_ms == pytest.approx(4.0 + first.frame_index * 1000 / 60, abs=1e-3)  # lidar starts 4 ms later


def test_invalid_scenario_rejected():
    sources = {"cam": InputSource("cam", streaming_rate=60.0)}
    models = {"A": UnitModel(id="A", task_tag="t", input_sources=("cam",))}
    scenario = UsageScenario(id="s", entries=(ScenarioEntry(model="A", target_rate=90.0),))
    with pytest.raises(ConfigError):
        generate_requests(scenario, sources, models, 1.0, seed=0)


@given(
    rate=st.sampled_from([3.0, 10.0, 30.0, 45.0, 60.0]),
    duration=st.floats(min_value=0.1, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**63),
)
@settings(max_examples=60, deadline=None)
def test_request_count_matches_target(rate, duration, seed):
    sources = {"cam": InputSource("cam", streaming_rate=60.0, max_jitter=0.05)}
    models = {"A": UnitModel(id="A", task_tag="t", input_sources=("cam",))}
    scenario = UsageScenario(id="s", entries=(ScenarioEntry(model="A", target_rate=rate),))
    stream = generate_requests(scenario, sources, models, duration, seed)
    assert len(stream.requests) == target_count(rate, duration)


def test_zero_jitter_is_exactly_periodic():
    sources = {"cam": InputSource("cam", streaming_rate=60.0, max_jitter=0.0)}
    models = {"A": UnitModel(id="A", task_tag="t", input_sources=("cam",))}
    scenario = UsageScenario(id="s", entries=(ScenarioEntry(model="A", target_rate=60.0),))
    stream = generate_requests(scenario, sources, models, 1.0, seed=3)
    for r in stream.requests:
        assert r.t_req_us == round(r.frame_index * 1_000_000 / 60)


def test_generation_is_deterministic():
    config = builtin_config()
    scenario = config.suite.scenario("vr-gaming")
    a = generate_requests(scenario, config.sources, config.models, 1.0, seed=11)
    b = generate_requests(scenario, config.sources, config.models, 1.0, seed=11)
    assert a == b


def test_deadlines_are_jitter_free():
    config = builtin_config()
    scenario = config.suite.scenario("vr-gaming")
    a = generate_requests(scenario, config.sources, config.models, 1.0, seed=1)
    b = generate_requests(scenario, config.sources, config.models, 1.0, seed=2)
    assert [r.t_req_us for r in a.requests] != [r.t_req_us for r in b.requests]
    key = lambda s: sorted((r.model, r.request_index, r.t_dl_us) for r in s.requests)
    assert key(a) == key(b)
