"""Domain types for input sources, unit models, usage scenarios, and the built-in suite.

Everything here is immutable after construction and safe to share between
concurrently running simulations.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Mapping

from .errors import ConfigError

SCHEMA_VERSION = "1"

HIGHER_IS_BETTER = "higher-is-better"
LOWER_IS_BETTER = "lower-is-better"


def check_id(kind: str, value) -> None:
    """A ConfigError unless `value`, the id of a `kind`, is a string."""
    if not isinstance(value, str):
        raise ConfigError(f"{kind} id must be a string, not {value!r}")


def json_number(obj: Mapping, key: str, default: float | None = None) -> float:
    """`obj[key]` as a float, or `default` when one is given and the key is
    absent. The value must be a JSON number (an int or a float, not a bool);
    anything else raises a TypeError naming the key, which each file parser
    reports as malformed."""
    value = obj[key] if default is None else obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{key} is too large for a float") from None


@dataclass(frozen=True)
class InputSource:
    """A sensor stream feeding one or more models.

    Rates are frames per second, latencies and jitters are milliseconds.
    """

    id: str
    streaming_rate: float
    init_latency: float = 0.0
    max_jitter: float = 0.0

    def __post_init__(self) -> None:
        check_id("input source", self.id)
        if not 0 < self.streaming_rate < math.inf:
            raise ConfigError(f"input source {self.id!r}: streaming_rate must be finite and > 0")
        if not 0 <= self.init_latency < math.inf:
            raise ConfigError(f"input source {self.id!r}: init_latency must be finite and >= 0")
        if not 0 <= self.max_jitter < 500 / self.streaming_rate:  # half a period: frames keep their order
            raise ConfigError(f"input source {self.id!r}: max_jitter must be in [0, {500 / self.streaming_rate:g}) ms")


@dataclass(frozen=True)
class UnitModel:
    """One inference model of the catalog.

    Models are never executed; ``achieved_metric`` is a configuration input.
    When it is left as None, scoring assumes the accuracy goal was met exactly
    (accuracy score 1). ``flops`` only feeds the synthetic cost generator.
    """

    id: str
    task_tag: str
    input_sources: tuple[str, ...]
    dataset_tag: str = ""
    accuracy_metric_id: str = ""
    reported_metric: float = 1.0
    metric_direction: str = HIGHER_IS_BETTER
    achieved_metric: float | None = None
    flops: float | None = None

    def __post_init__(self) -> None:
        check_id("model", self.id)
        if not self.input_sources:
            raise ConfigError(f"model {self.id!r}: needs at least one input source")
        if self.metric_direction not in (HIGHER_IS_BETTER, LOWER_IS_BETTER):
            raise ConfigError(f"model {self.id!r}: bad metric_direction {self.metric_direction!r}")
        if not 0 < self.reported_metric < math.inf:
            raise ConfigError(f"model {self.id!r}: reported_metric must be finite and > 0")
        if self.flops is not None and self.flops <= 0:
            raise ConfigError(f"model {self.id!r}: flops must be positive when given")
        achieved = self.achieved_metric
        is_number = isinstance(achieved, (int, float)) and not isinstance(achieved, bool)
        if achieved is not None and not (is_number and math.isfinite(achieved)):
            raise ConfigError(f"model {self.id!r}: achieved_metric must be a finite number or null")
        if achieved is not None and achieved <= 0 and self.metric_direction == LOWER_IS_BETTER:
            raise ConfigError(f"model {self.id!r}: a lower-is-better achieved_metric must be > 0")


@dataclass(frozen=True)
class DependencyEdge:
    """A dependency between two models of a scenario: each downstream
    request waits for its upstream anchor, and launches only if the gate,
    fired with `trigger_probability`, comes up true (always when it is 1)."""

    upstream: str
    downstream: str
    trigger_probability: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.trigger_probability <= 1.0:
            raise ConfigError(f"edge {self.key}: trigger_probability must be in [0,1]")

    @property
    def key(self) -> str:
        return f"{self.upstream}->{self.downstream}"


@dataclass(frozen=True)
class ScenarioEntry:
    """One model activated inside a usage scenario at a target processing rate (Hz)."""

    model: str
    target_rate: float
    dependencies: tuple[DependencyEdge, ...] = ()

    def __post_init__(self) -> None:
        if not 0 < self.target_rate < math.inf:
            raise ConfigError(f"scenario entry {self.model!r}: target_rate must be finite and > 0")
        for edge in self.dependencies:
            if edge.downstream != self.model:
                raise ConfigError(
                    f"scenario entry {self.model!r}: edge {edge.key} has a different downstream"
                )


@dataclass(frozen=True)
class UsageScenario:
    """A named set of active models with rates and dependencies."""

    id: str
    entries: tuple[ScenarioEntry, ...]

    def __post_init__(self) -> None:
        check_id("scenario", self.id)
        if not self.entries:
            raise ConfigError(f"scenario {self.id!r}: needs at least one entry")
        ids = [e.model for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"scenario {self.id!r}: duplicate model ids")

    @property
    def model_ids(self) -> tuple[str, ...]:
        return tuple(e.model for e in self.entries)

    def edges(self) -> tuple[DependencyEdge, ...]:
        return tuple(edge for e in self.entries for edge in e.dependencies)


@dataclass(frozen=True)
class BenchmarkSuite:
    """An ordered collection of usage scenarios."""

    scenarios: tuple[UsageScenario, ...]

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ConfigError("benchmark suite: needs at least one scenario")
        ids = [s.id for s in self.scenarios]
        if len(set(ids)) != len(ids):
            raise ConfigError("benchmark suite: duplicate scenario ids")

    @property
    def scenario_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.scenarios)

    def scenario(self, scenario_id: str) -> UsageScenario:
        for s in self.scenarios:
            if s.id == scenario_id:
                return s
        raise ConfigError(f"unknown scenario {scenario_id!r} (expected one of {', '.join(self.scenario_ids)})")


@dataclass(frozen=True)
class SuiteConfig:
    """A complete workload description: sources, model catalog, and scenarios."""

    sources: Mapping[str, InputSource]
    models: Mapping[str, UnitModel]
    suite: BenchmarkSuite


def validate_scenario(
    scenario: UsageScenario,
    sources: Mapping[str, InputSource],
    models: Mapping[str, UnitModel],
) -> list[str]:
    """Return every violated scenario invariant; an empty list means ok.

    Violations are data, not failures: callers decide whether to raise.
    """
    violations: list[str] = []
    present = set(scenario.model_ids)
    for entry in scenario.entries:
        model = models.get(entry.model)
        if model is None:
            violations.append(f"unknown model {entry.model!r}")
            continue
        rates = []
        for src_id in model.input_sources:
            src = sources.get(src_id)
            if src is None:
                violations.append(f"model {model.id!r}: unknown input source {src_id!r}")
            else:
                rates.append(src.streaming_rate)
        if rates and entry.target_rate > min(rates) + 1e-12:
            violations.append(
                f"model {model.id!r}: target_rate {entry.target_rate} exceeds "
                f"source rate {min(rates)}"
            )
        for edge in entry.dependencies:
            if edge.upstream not in present:
                violations.append(f"dangling dependency: {edge.key} ({edge.upstream!r} absent)")
    sorter = TopologicalSorter()
    for edge in scenario.edges():
        if edge.upstream in present:
            sorter.add(edge.downstream, edge.upstream)
    try:
        sorter.prepare()
    except CycleError:
        violations.append("dependency cycle")
    return violations


def accuracy_goal(model: UnitModel) -> float:
    """The accuracy target used by scoring: 105% of the reported metric.

    Lower-is-better metrics (errors) invert the margin: 95% of the reported
    value, since a smaller error is the harder target.
    """
    if model.metric_direction == HIGHER_IS_BETTER:
        return 1.05 * model.reported_metric
    return 0.95 * model.reported_metric


def achieved_metric(model: UnitModel) -> float:
    """The configured achieved metric, defaulting to the goal (accuracy score 1)."""
    if model.achieved_metric is not None:
        return model.achieved_metric
    return accuracy_goal(model)


# --- Built-in suite -------------------------------------------------------
#
# Three sensors feed eleven models across seven usage scenarios. Rates are
# Hz, jitters are milliseconds. Accuracy requirements are 95% of the value
# reported for each reference model (105% for error metrics), so the
# reported values below are recovered from the requirements. FLOPs are
# rough per-inference estimates that only feed the synthetic cost generator.

CAMERA = "camera"
LIDAR = "lidar"
MICROPHONE = "microphone"

_BUILTIN_SOURCES = (
    InputSource(CAMERA, streaming_rate=60.0, max_jitter=0.05),
    InputSource(LIDAR, streaming_rate=60.0, max_jitter=0.05),
    InputSource(MICROPHONE, streaming_rate=3.0, max_jitter=0.1),
)

# (id, task, sources, dataset, metric, requirement, direction, flops)
_BUILTIN_MODELS = (
    ("HT", "hand-tracking", (CAMERA,), "stereo-hand-pose", "auc-pck", 0.948, HIGHER_IS_BETTER, 0.6e9),
    ("ES", "eye-segmentation", (CAMERA,), "openeds-2019", "miou", 90.54, HIGHER_IS_BETTER, 1.6e9),
    ("GE", "gaze-estimation", (CAMERA,), "openeds-2020", "angular-error", 3.39, LOWER_IS_BETTER, 0.35e9),
    ("KD", "keyword-detection", (MICROPHONE,), "speech-commands", "accuracy", 85.60, HIGHER_IS_BETTER, 0.02e9),
    ("SR", "speech-recognition", (MICROPHONE,), "librispeech", "wer", 8.79, LOWER_IS_BETTER, 4.0e9),
    ("SS", "semantic-segmentation", (CAMERA,), "cityscapes", "miou", 77.54, HIGHER_IS_BETTER, 2.8e9),
    ("OD", "object-detection", (CAMERA,), "coco", "box-ap", 21.84, HIGHER_IS_BETTER, 1.9e9),
    ("AS", "action-segmentation", (CAMERA,), "gtea", "accuracy", 60.8, HIGHER_IS_BETTER, 0.45e9),
    ("DE", "depth-estimation", (CAMERA,), "kitti", "delta-gt-1.25", 22.9, LOWER_IS_BETTER, 1.2e9),
    ("DR", "depth-refinement", (CAMERA, LIDAR), "kitti", "delta-1", 85.5, HIGHER_IS_BETTER, 1.0e9),
    ("PD", "plane-detection", (CAMERA,), "kitti", "ap-0.6m", 0.37, HIGHER_IS_BETTER, 3.6e9),
)

# Trigger probabilities for the dynamically cascaded pipelines. Keyword
# utterances are rare outdoors (0.2) and common for the speech-driven
# assistant (0.5); eye segmentation -> gaze estimation is a pure data
# dependency by default (1.0) and is only swept in dedicated experiments.
P_KD_SR_OUTDOOR = 0.2
P_KD_SR_ASSISTANT = 0.5
P_ES_GE = 1.0


def _edge(up: str, down: str, p: float) -> DependencyEdge:
    return DependencyEdge(upstream=up, downstream=down, trigger_probability=p)


def _scenario(sid: str, entries: Iterable[tuple]) -> UsageScenario:
    built = []
    for model, rate, *deps in entries:
        built.append(ScenarioEntry(model=model, target_rate=float(rate), dependencies=tuple(deps[0]) if deps else ()))
    return UsageScenario(id=sid, entries=tuple(built))


def builtin_sources() -> dict[str, InputSource]:
    return {s.id: s for s in _BUILTIN_SOURCES}


def builtin_models() -> dict[str, UnitModel]:
    models = {}
    for mid, task, srcs, ds, metric, requirement, direction, flops in _BUILTIN_MODELS:
        reported = requirement / 0.95 if direction == HIGHER_IS_BETTER else requirement / 1.05
        models[mid] = UnitModel(
            id=mid,
            task_tag=task,
            input_sources=srcs,
            dataset_tag=ds,
            accuracy_metric_id=metric,
            reported_metric=reported,
            metric_direction=direction,
            flops=flops,
        )
    return models


def builtin_suite() -> BenchmarkSuite:
    """The seven shipped usage scenarios with their target rates and dependencies."""
    es_ge = _edge("ES", "GE", P_ES_GE)
    kd_sr_outdoor = _edge("KD", "SR", P_KD_SR_OUTDOOR)
    kd_sr_assistant = _edge("KD", "SR", P_KD_SR_ASSISTANT)
    return BenchmarkSuite(
        scenarios=(
            _scenario("social-interaction-a", [("HT", 30), ("ES", 60), ("GE", 60, [es_ge]), ("DR", 30)]),
            _scenario("social-interaction-b", [("ES", 60), ("GE", 60, [es_ge]), ("AS", 30)]),
            _scenario("outdoor-activity-a", [("KD", 3), ("SR", 3, [kd_sr_outdoor]), ("SS", 10), ("OD", 30)]),
            _scenario("outdoor-activity-b", [("KD", 3), ("SR", 3, [kd_sr_outdoor]), ("OD", 30)]),
            _scenario(
                "ar-assistant",
                [("KD", 3), ("SR", 3, [kd_sr_assistant]), ("SS", 10), ("OD", 10), ("DE", 30), ("PD", 30)],
            ),
            _scenario("ar-gaming", [("HT", 45), ("DE", 30), ("PD", 30)]),
            _scenario("vr-gaming", [("HT", 45), ("ES", 60), ("GE", 60, [es_ge])]),
        )
    )


def builtin_config() -> SuiteConfig:
    return SuiteConfig(sources=builtin_sources(), models=builtin_models(), suite=builtin_suite())


def with_edge_probability(
    scenario: UsageScenario, upstream: str, downstream: str, probability: float
) -> UsageScenario:
    """A copy of the scenario with one edge's trigger probability replaced."""
    found = False
    entries = []
    for entry in scenario.entries:
        deps = []
        for edge in entry.dependencies:
            if edge.upstream == upstream and edge.downstream == downstream:
                found = True
                edge = DependencyEdge(upstream=upstream, downstream=downstream, trigger_probability=probability)
            deps.append(edge)
        entries.append(ScenarioEntry(model=entry.model, target_rate=entry.target_rate, dependencies=tuple(deps)))
    if not found:
        raise ConfigError(f"scenario {scenario.id!r} has no edge {upstream}->{downstream}")
    return UsageScenario(id=scenario.id, entries=tuple(entries))


# --- Suite specification files --------------------------------------------


def config_to_obj(config: SuiteConfig) -> dict:
    """Serialize a SuiteConfig to the JSON-compatible suite file schema."""
    return {
        "schema_version": SCHEMA_VERSION,
        "input_sources": [
            {
                "id": s.id,
                "streaming_rate": s.streaming_rate,
                "init_latency_ms": s.init_latency,
                "max_jitter_ms": s.max_jitter,
            }
            for s in config.sources.values()
        ],
        "models": [{**asdict(m), "input_sources": list(m.input_sources)} for m in config.models.values()],
        "scenarios": [
            {
                "id": s.id,
                "entries": [
                    {
                        "model": e.model,
                        "target_rate": e.target_rate,
                        "dependencies": [
                            {
                                "upstream": d.upstream,
                                "trigger_probability": d.trigger_probability,
                            }
                            for d in e.dependencies
                        ],
                    }
                    for e in s.entries
                ],
            }
            for s in config.suite.scenarios
        ],
    }


def config_from_obj(obj: Mapping) -> SuiteConfig:
    """Parse the suite file schema back into a SuiteConfig."""
    try:
        sources = {
            s["id"]: InputSource(
                id=s["id"],
                streaming_rate=json_number(s, "streaming_rate"),
                init_latency=json_number(s, "init_latency_ms", 0.0),
                max_jitter=json_number(s, "max_jitter_ms", 0.0),
            )
            for s in obj["input_sources"]
        }
        models = {
            m["id"]: UnitModel(
                id=m["id"],
                task_tag=m.get("task_tag", ""),
                input_sources=tuple(m["input_sources"]),
                dataset_tag=m.get("dataset_tag", ""),
                accuracy_metric_id=m.get("accuracy_metric_id", ""),
                reported_metric=json_number(m, "reported_metric", 1.0),
                metric_direction=m.get("metric_direction", HIGHER_IS_BETTER),
                achieved_metric=m.get("achieved_metric"),
                flops=None if m.get("flops") is None else json_number(m, "flops"),
            )
            for m in obj["models"]
        }
        scenarios = []
        for s in obj["scenarios"]:
            entries = []
            for e in s["entries"]:
                deps = tuple(
                    DependencyEdge(
                        upstream=d["upstream"],
                        downstream=e["model"],
                        trigger_probability=json_number(d, "trigger_probability", 1.0),
                    )
                    for d in e.get("dependencies", ())
                )
                entries.append(
                    ScenarioEntry(model=e["model"], target_rate=json_number(e, "target_rate"), dependencies=deps)
                )
            scenarios.append(UsageScenario(id=s["id"], entries=tuple(entries)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed suite specification: {exc}") from exc
    return SuiteConfig(sources=sources, models=models, suite=BenchmarkSuite(scenarios=tuple(scenarios)))


def open_text_file(path, newline=None):
    """`path` opened for reading as UTF-8 text; a directory is a ConfigError."""
    try:
        return open(path, "r", encoding="utf-8", newline=newline)
    except IsADirectoryError:
        raise ConfigError(f"{path}: is a directory, not a file") from None


def load_json_file(path):
    """The parsed contents of a JSON file; a file that is not JSON is a ConfigError."""
    with open_text_file(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ConfigError(f"{path}: not a JSON file: {exc}") from None


def load_suite_file(path) -> SuiteConfig:
    return config_from_obj(load_json_file(path))
