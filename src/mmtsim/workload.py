"""Domain types for input sources, unit models, usage scenarios, and the built-in suite.

Everything here is immutable after construction and safe to share between
concurrently running simulations.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from graphlib import CycleError, TopologicalSorter
from typing import Collection, Iterable, Mapping

from .errors import ConfigError

SCHEMA_VERSION = "1"

HIGHER_IS_BETTER = "higher-is-better"
LOWER_IS_BETTER = "lower-is-better"


def check_id(kind: str, value) -> None:
    """A ConfigError unless `value`, the id of a `kind`, is a string."""
    if not isinstance(value, str):
        raise ConfigError(f"{kind} id must be a string, not {value!r}")


def json_number(obj: Mapping, key: str) -> float:
    """`obj[key]` as a float. A value that is not a JSON number (an int or a float, not a bool)
    raises a TypeError naming the key, which each file parser reports as malformed."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{key} is too large for a float") from None


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class UnitModel:
    """One inference model of the catalog.

    Models are never executed; ``achieved_metric`` is a configuration input.
    When it is left as None, scoring assumes the accuracy goal was met exactly
    (accuracy score 1). ``flops`` only feeds the synthetic cost generator.
    """

    id: str
    task_tag: str = field(default="", kw_only=True)  # a file may omit it; keyword-only to precede input_sources
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
        for src_id in self.input_sources:
            check_id(f"model {self.id!r}: input source", src_id)
        for name in ("task_tag", "dataset_tag", "accuracy_metric_id"):
            if not isinstance(tag := getattr(self, name), str):
                raise ConfigError(f"model {self.id!r}: {name} must be a string, not {tag!r}")
        if self.metric_direction not in (HIGHER_IS_BETTER, LOWER_IS_BETTER):
            raise ConfigError(f"model {self.id!r}: bad metric_direction {self.metric_direction!r}")
        if not 0 < self.reported_metric < math.inf:
            raise ConfigError(f"model {self.id!r}: reported_metric must be finite and > 0")
        if self.flops is not None and not 0 < self.flops < math.inf:
            raise ConfigError(f"model {self.id!r}: flops must be positive when given")
        achieved = self.achieved_metric
        is_number = isinstance(achieved, (int, float)) and not isinstance(achieved, bool)
        if achieved is not None and not (is_number and math.isfinite(achieved)):
            raise ConfigError(f"model {self.id!r}: achieved_metric must be a finite number or null")
        if achieved is not None and achieved <= 0 and self.metric_direction == LOWER_IS_BETTER:
            raise ConfigError(f"model {self.id!r}: a lower-is-better achieved_metric must be > 0")


@dataclass(frozen=True, slots=True)
class DependencyEdge:
    """A dependency between two models of a scenario: each downstream
    request waits for its upstream anchor, and launches only if the gate,
    fired with `trigger_probability`, comes up true (always when it is 1)."""

    upstream: str
    downstream: str
    trigger_probability: float = 1.0

    def __post_init__(self) -> None:
        check_id("upstream model", self.upstream)
        check_id("downstream model", self.downstream)
        if not 0.0 <= self.trigger_probability <= 1.0:
            raise ConfigError(f"edge {self.key}: trigger_probability must be in [0,1]")

    @property
    def key(self) -> str:
        return f"{self.upstream}->{self.downstream}"


@dataclass(frozen=True, slots=True)
class ScenarioEntry:
    """One model activated inside a usage scenario at a target processing rate (Hz)."""

    model: str
    target_rate: float
    dependencies: tuple[DependencyEdge, ...] = ()

    def __post_init__(self) -> None:
        check_id("scenario entry model", self.model)
        if not 0 < self.target_rate < math.inf:
            raise ConfigError(f"scenario entry {self.model!r}: target_rate must be finite and > 0")
        for edge in self.dependencies:
            if edge.downstream != self.model:
                raise ConfigError(
                    f"scenario entry {self.model!r}: edge {edge.key} has a different downstream"
                )


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def check_scenario(
    scenario: UsageScenario, sources: Mapping[str, InputSource], models: Mapping[str, UnitModel]
) -> None:
    """Raise ConfigError naming every violation `validate_scenario` finds."""
    if violations := validate_scenario(scenario, sources, models):
        raise ConfigError(f"invalid scenario {scenario.id!r}: " + "; ".join(violations))


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
    es_ge = DependencyEdge("ES", "GE", P_ES_GE)
    kd_sr_outdoor = DependencyEdge("KD", "SR", P_KD_SR_OUTDOOR)
    kd_sr_assistant = DependencyEdge("KD", "SR", P_KD_SR_ASSISTANT)
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
    if not any(e.upstream == upstream and e.downstream == downstream for e in scenario.edges()):
        raise ConfigError(f"scenario {scenario.id!r} has no edge {upstream}->{downstream}")
    entries = list(scenario.entries)
    for i, entry in enumerate(entries):
        if entry.model == downstream:  # the one entry whose edges have that downstream
            deps = tuple(replace(e, trigger_probability=probability) if e.upstream == upstream else e
                         for e in entry.dependencies)
            entries[i] = replace(entry, dependencies=deps)
    return replace(scenario, entries=tuple(entries))


# --- Suite, hardware and cost files ---------------------------------------
#
# A record is a JSON object with a key per field of its dataclass, in field
# order; an absent key takes the field's default. The table holds the rest.
# A number field is read with json_number, and takes null too when its
# default is None.

FILE_KEYS = {"init_latency": "init_latency_ms", "max_jitter": "max_jitter_ms"}  # field -> key, where they differ
NUMBER_FIELDS = frozenset({"streaming_rate", "init_latency", "max_jitter", "reported_metric", "flops", "target_rate",
                           "trigger_probability", "clock_ghz", "power_watts", "latency_ms", "energy_mj"})
RECORD_LISTS = {"dependencies": DependencyEdge, "entries": ScenarioEntry}  # a list field's records, below the top level
IMPLIED = {"downstream": "model"}  # an edge's downstream is its entry's model: filled in when read, never written
RETIRED_KEYS = frozenset({"kind", "accuracy_requirement", "bandwidth_gbps", "shared_mem_mib"})  # read and ignored


def record_to_obj(value):
    """`value` as a file writes it: a record as an object with a key per field, a tuple as a list."""
    if is_dataclass(value):
        return {FILE_KEYS.get(f.name, f.name): record_to_obj(getattr(value, f.name))
                for f in fields(value) if f.name not in IMPLIED}
    return [record_to_obj(v) for v in value] if isinstance(value, tuple) else value


def check_keys(obj: Mapping, where: str, keys: Collection[str], required: Iterable[str]) -> None:
    """A ConfigError for the first key of `obj`, found at `where`, that is neither one of `keys` nor
    retired, then for the first of `required` that it lacks, or for a schema_version other than
    SCHEMA_VERSION; a file without one is version 1. This holds at a file's top level and in each record."""
    for key in obj.keys():  # an AttributeError on a non-object, which each file parser reports as malformed
        if key not in keys and key not in RETIRED_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r} (expected one of {', '.join(keys)})")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}: missing key {key!r}")
    if obj.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:  # only a file's top level allows the key
        raise ConfigError(f"{where}: schema_version must be {SCHEMA_VERSION!r}, not {obj['schema_version']!r}")


def json_list(value, where: str) -> list:
    """`value`, found at `where`, if it is a JSON list. Anything else raises a TypeError naming
    `where`, which each file parser reports as malformed: an object or a string is not read as a list."""
    if not isinstance(value, list):
        raise TypeError(f"{where} must be a list, not {value!r}")
    return value


def records_from_obj(cls, items, where: str, outer: Mapping | None = None) -> tuple:
    """Each of the file objects in the list `items`, found at `where`, read as a `cls`."""
    return tuple(record_from_obj(cls, item, f"{where}[{i}]", outer) for i, item in enumerate(json_list(items, where)))


def records_by_id(cls, items, where: str) -> dict:
    """`records_from_obj(cls, items, where)` keyed by id; a repeated id is a ConfigError."""
    records = {}
    for i, record in enumerate(records_from_obj(cls, items, where)):
        if records.setdefault(record.id, record) is not record:
            raise ConfigError(f"{where}[{i}]: duplicate id {record.id!r}")
    return records


def record_from_obj(cls, obj: Mapping, where: str, outer: Mapping | None = None):
    """A `cls` read from the file object `obj`, found at `where`; a key without a default is required.
    The implied fields copy their values from `outer`, the fields read so far of the enclosing record."""
    keys = {FILE_KEYS.get(f.name, f.name): f for f in fields(cls) if f.name not in IMPLIED}
    check_keys(obj, where, keys, [key for key, f in keys.items() if f.default is MISSING])
    values = {f.name: outer[IMPLIED[f.name]] for f in fields(cls) if f.name in IMPLIED}
    for key, f in keys.items():
        if key not in obj:
            continue
        value = obj[key]
        if f.name in RECORD_LISTS:
            value = records_from_obj(RECORD_LISTS[f.name], value, f"{where}.{key}", values)
        elif f.type.startswith("tuple"):  # a tuple of ids; `f.type` is the annotation's text
            value = tuple(json_list(value, f"{where}.{key}"))
        elif f.name in NUMBER_FIELDS and not (value is None and f.default is None):
            value = json_number(obj, key)
        values[f.name] = value
    return cls(**values)


def config_to_obj(config: SuiteConfig) -> dict:
    """Serialize a SuiteConfig to the JSON-compatible suite file schema."""
    return {
        "schema_version": SCHEMA_VERSION,
        "input_sources": [record_to_obj(s) for s in config.sources.values()],
        "models": [record_to_obj(m) for m in config.models.values()],
        "scenarios": [record_to_obj(s) for s in config.suite.scenarios],
    }


def config_from_obj(obj: Mapping) -> SuiteConfig:
    """Parse the suite file schema back into a SuiteConfig."""
    try:
        keys = ("input_sources", "models", "scenarios")
        check_keys(obj, "suite file", ("schema_version", *keys), keys)
        sources = records_by_id(InputSource, obj["input_sources"], "input_sources")
        models = records_by_id(UnitModel, obj["models"], "models")
        scenarios = records_from_obj(UsageScenario, obj["scenarios"], "scenarios")
    except (AttributeError, TypeError, ValueError) as exc:  # AttributeError: `.keys()` on a non-object
        raise ConfigError(f"malformed suite specification: {exc}") from exc
    return SuiteConfig(sources=sources, models=models, suite=BenchmarkSuite(scenarios=scenarios))


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
