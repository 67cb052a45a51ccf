import hashlib
import json
import math
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, strategies as st

from mmtsim import ConfigError, accuracy_goal, builtin_config, builtin_suite, validate_scenario
from mmtsim.workload import (
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    DependencyEdge,
    InputSource,
    ScenarioEntry,
    UnitModel,
    UsageScenario,
    config_from_obj,
    config_to_obj,
    with_edge_probability,
)


def test_builtin_suite_has_seven_scenarios():
    assert len(builtin_suite().scenarios) == 7


def test_vr_gaming_models():
    vr = builtin_suite().scenario("vr-gaming")
    assert vr.model_ids == ("HT", "ES", "GE")


def test_builtin_rates_and_microphone():
    config = builtin_config()
    mic = config.sources["microphone"]
    assert mic.streaming_rate == 3.0
    assert mic.max_jitter == 0.1
    for scenario in config.suite.scenarios:
        for entry in scenario.entries:
            assert entry.target_rate in {60, 45, 30, 10, 3}


def _entry(scenario: UsageScenario, model: str) -> ScenarioEntry:
    (entry,) = (e for e in scenario.entries if e.model == model)
    return entry


def test_builtin_trigger_probabilities():
    suite = builtin_suite()
    for sid, expected in [("outdoor-activity-a", 0.2), ("outdoor-activity-b", 0.2), ("ar-assistant", 0.5)]:
        (edge,) = _entry(suite.scenario(sid), "SR").dependencies
        assert edge.upstream == "KD"
        assert edge.trigger_probability == expected
    (es_ge,) = _entry(suite.scenario("vr-gaming"), "GE").dependencies
    assert es_ge.trigger_probability == 1.0


def test_builtin_suite_validates():
    config = builtin_config()
    for scenario in config.suite.scenarios:
        assert validate_scenario(scenario, config.sources, config.models) == []


def _toy(models=None, entries=None):
    sources = {"cam": InputSource("cam", streaming_rate=60.0)}
    models = models or {"A": UnitModel(id="A", task_tag="t", input_sources=("cam",))}
    scenario = UsageScenario(id="s", entries=entries or (ScenarioEntry(model="A", target_rate=30.0),))
    return scenario, sources, models


def test_rate_exceeding_source_is_a_violation():
    scenario, sources, models = _toy(entries=(ScenarioEntry(model="A", target_rate=90.0),))
    violations = validate_scenario(scenario, sources, models)
    assert any("exceeds" in v for v in violations)


def test_dangling_dependency_is_a_violation():
    edge = DependencyEdge(upstream="ES", downstream="A")
    scenario, sources, models = _toy(entries=(ScenarioEntry(model="A", target_rate=30.0, dependencies=(edge,)),))
    violations = validate_scenario(scenario, sources, models)
    assert any("dangling" in v for v in violations)


def test_cycle_is_a_violation():
    models = {
        "A": UnitModel(id="A", task_tag="t", input_sources=("cam",)),
        "B": UnitModel(id="B", task_tag="t", input_sources=("cam",)),
    }
    entries = (
        ScenarioEntry(model="A", target_rate=30.0, dependencies=(DependencyEdge("B", "A"),)),
        ScenarioEntry(model="B", target_rate=30.0, dependencies=(DependencyEdge("A", "B"),)),
    )
    scenario, sources, models = _toy(models=models, entries=entries)
    assert any("cycle" in v for v in validate_scenario(scenario, sources, models))


def _chain(n: int, closed: bool):
    """n models, each depending on the one before it; `closed` makes the first depend on the last."""
    ids = [f"m{i}" for i in range(n)]
    models = {m: UnitModel(id=m, task_tag="t", input_sources=("cam",)) for m in ids}
    entries = tuple(
        ScenarioEntry(model=m, target_rate=30.0, dependencies=(DependencyEdge(ids[i - 1], m),) if i or closed else ())
        for i, m in enumerate(ids)
    )
    return _toy(models=models, entries=entries)


@pytest.mark.parametrize("closed, expected", [(False, []), (True, ["dependency cycle"])], ids=["chain", "cycle"])
def test_a_dependency_chain_longer_than_the_recursion_limit_is_checked(closed, expected):
    scenario, sources, models = _chain(1200, closed)
    assert validate_scenario(scenario, sources, models) == expected


def test_unknown_source_is_a_violation():
    models = {"A": UnitModel(id="A", task_tag="t", input_sources=("nope",))}
    scenario, sources, models = _toy(models=models)
    assert any("unknown input source" in v for v in validate_scenario(scenario, sources, models))


def _model(reported, direction):
    return UnitModel(
        id="A", task_tag="t", input_sources=("cam",), reported_metric=reported, metric_direction=direction
    )


@pytest.mark.parametrize("reported", [math.inf, 0.0, -1.0])  # NaN: test_accuracy_goal_rejects_non_finite
def test_reported_metric_must_be_finite_and_positive(reported):
    with pytest.raises(ConfigError, match="model 'A': reported_metric"):
        _model(reported, HIGHER_IS_BETTER)


@pytest.mark.parametrize("flops", [math.nan, math.inf, 0.0, -1.0])
def test_flops_must_be_finite_and_positive_when_given(flops):
    with pytest.raises(ConfigError, match="model 'A': flops must be positive when given"):
        replace(_model(1.0, HIGHER_IS_BETTER), flops=flops)
    assert replace(_model(1.0, HIGHER_IS_BETTER), flops=1e-300).flops == 1e-300


def test_lower_is_better_achieved_metric_must_be_positive():
    with pytest.raises(ConfigError, match="model 'A': a lower-is-better achieved_metric"):
        replace(_model(10.0, LOWER_IS_BETTER), achieved_metric=0.0)
    assert replace(_model(10.0, HIGHER_IS_BETTER), achieved_metric=0.0).achieved_metric == 0.0


def test_an_achieved_metric_beyond_the_float_range_is_a_config_error():
    with pytest.raises(ConfigError, match=r"^model 'X': achieved_metric is too large for a float$"):
        UnitModel(id="X", input_sources=("camera",), achieved_metric=10**400)


def test_an_integer_achieved_metric_in_a_suite_file_is_read_as_a_float():
    obj = config_to_obj(builtin_config())
    obj["models"][0]["achieved_metric"] = 2
    achieved = config_from_obj(obj).models["HT"].achieved_metric
    assert type(achieved) is float and achieved == 2.0


def test_max_jitter_must_stay_below_half_a_frame_period():
    with pytest.raises(ConfigError, match=r"input source 'cam': max_jitter must be in \[0, 8.33333\) ms"):
        InputSource("cam", streaming_rate=60.0, max_jitter=500 / 60)
    assert InputSource("cam", streaming_rate=60.0, max_jitter=0.49 * 1000 / 60).max_jitter < 500 / 60


def test_accuracy_goal_values():
    assert accuracy_goal(_model(90.1, HIGHER_IS_BETTER)) == pytest.approx(94.605)
    assert accuracy_goal(_model(10.0, LOWER_IS_BETTER)) == pytest.approx(9.5)


def test_accuracy_goal_rejects_non_finite():
    with pytest.raises(ConfigError):
        accuracy_goal(_model(float("nan"), HIGHER_IS_BETTER))


@given(
    a=st.floats(min_value=0, max_value=1e6, exclude_min=True),
    b=st.floats(min_value=0, max_value=1e6, exclude_min=True),
    direction=st.sampled_from([HIGHER_IS_BETTER, LOWER_IS_BETTER]),
)
def test_accuracy_goal_monotone(a, b, direction):
    lo, hi = sorted([a, b])
    assert accuracy_goal(_model(lo, direction)) <= accuracy_goal(_model(hi, direction))


def test_suite_file_roundtrip():
    config = builtin_config()
    obj = json.loads(json.dumps(config_to_obj(config)))
    back = config_from_obj(obj)
    assert back.suite == config.suite
    assert dict(back.sources) == dict(config.sources)
    assert dict(back.models) == dict(config.models)


def test_exported_suite_keeps_its_bytes():
    # The text `mmtsim export-suite` prints; the model keys come from
    # UnitModel's field order.
    text = json.dumps(config_to_obj(builtin_config()), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "34be2cc3398317af90e191cc7c5e1dd74f2656c0627777e271818ef8b898fabc"
    )


def test_with_edge_probability():
    vr = builtin_suite().scenario("vr-gaming")
    swept = with_edge_probability(vr, "ES", "GE", 0.25)
    (edge,) = _entry(swept, "GE").dependencies
    assert edge.trigger_probability == 0.25
    with pytest.raises(ConfigError):
        with_edge_probability(vr, "KD", "SR", 0.5)
    assert [replace(e, dependencies=()) for e in swept.entries] == [replace(e, dependencies=()) for e in vr.entries]
    assert with_edge_probability(swept, "ES", "GE", 1.0) == vr
    with pytest.raises(ConfigError, match="^scenario 'vr-gaming' has no edge KD->SR$"):
        with_edge_probability(vr, "KD", "SR", 1.5)
    with pytest.raises(ConfigError, match=r"^edge ES->GE: trigger_probability must be in \[0,1\]$"):
        with_edge_probability(vr, "ES", "GE", 1.5)


@dataclass(frozen=True, slots=True)
class _TaggedEntry(ScenarioEntry):
    tag: str = ""


@dataclass(frozen=True, slots=True)
class _TaggedScenario(UsageScenario):
    tag: str = ""


def test_with_edge_probability_keeps_every_field_of_the_records_it_copies():
    vr = builtin_suite().scenario("vr-gaming")
    entries = tuple(_TaggedEntry(e.model, e.target_rate, e.dependencies, tag=e.model.lower()) for e in vr.entries)
    swept = with_edge_probability(_TaggedScenario(vr.id, entries, tag="t"), "ES", "GE", 0.25)
    assert swept.tag == "t" and [e.tag for e in swept.entries] == ["ht", "es", "ge"]
    assert _entry(swept, "GE").dependencies[0].trigger_probability == 0.25


def test_an_entry_edge_with_another_downstream_is_a_config_error():
    with pytest.raises(ConfigError, match="^scenario entry 'GE': edge ES->HT has a different downstream$"):
        ScenarioEntry("GE", 60.0, (DependencyEdge("ES", "HT"),))
