"""Deterministic generation of jittered inference-request streams.

Time is carried as integer microsecond ticks so that identical inputs
always give bit-identical streams; the timeline CSV gives it in milliseconds.
A stream is built column-wise, one model at a time: each of its sources first
gets the arrivals the `arrivals` map lacks for the model's frames. Within a
call, models with equal (target rate, source rate, count) share one frame list,
and with equal (init µs, target rate, count) one deadline list; frames 0..n-1
are their own request indices. So an equal value is one object, not one per model.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from statistics import NormalDist
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ConfigError
from .workload import InputSource, UnitModel, UsageScenario, check_scenario
from .workload import validate_scenario  # noqa: F401  perfbench's tracer wraps it under this name

US_PER_MS = 1000
US_PER_S = 1_000_000
# The most requests one scenario's window may hold: about 18 times the 108,000
# of the largest 600 s built-in stream (social-interaction-a).
MAX_REQUESTS = 2_000_000

_NORMAL = NormalDist()
_JITTER_SIGMA = 1.0 / 6.0


def det_rands(seed: int, source: str, frames: Iterable[int]) -> list[float]:
    """`det_rand(seed, source, frame)` for each of `frames`: the keyed prefix
    "{seed}|{source}|" is hashed once, and each frame hashes on from a copy."""
    keyed = hashlib.blake2b(f"{seed}|{source}|".encode("utf-8"), digest_size=8)
    values = []
    for frame in frames:
        h = keyed.copy()
        h.update(f"{frame}".encode("utf-8"))
        values.append(int.from_bytes(h.digest(), "big") / 2**64)
    return values


def det_rand(seed: int, source: str, frame: int) -> float:
    """A pure, uniform-ish variate in [0, 1) keyed by (seed, source, frame).

    Implemented as a blake2b hash of "{seed}|{source}|{frame}"; identical
    arguments always give the identical value, across processes and platforms.
    """
    return det_rands(seed, source, (frame,))[0]


def jitter_offsets(source: InputSource, frames: Sequence[int], seed: int) -> list[float]:
    """Each frame's jitter in milliseconds, bounded to [-max_jitter, +max_jitter]:
    its `det_rands` variate through a truncated Gaussian centered at 0.5
    (sigma 1/6, clamped to [0, 1]), scaled to the jitter bound."""
    if source.max_jitter == 0.0:
        return [0.0] * len(frames)
    scale, inv_cdf = source.max_jitter * 2.0, _NORMAL.inv_cdf
    offsets = []
    for u in det_rands(seed, source.id, frames):
        u = 1e-12 if u < 1e-12 else 1.0 - 1e-12 if u > 1.0 - 1e-12 else u
        g = 0.5 + _JITTER_SIGMA * inv_cdf(u)
        g = 0.0 if g < 0.0 else 1.0 if g > 1.0 else g
        offsets.append(scale * (g - 0.5))
    return offsets


def _arrivals_us(source: InputSource, frames: Sequence[int], seed: int) -> list[int]:
    """Arrival of each of `frames` of `source`: init latency, periodic position, jitter."""
    init_us, rate = round(source.init_latency * US_PER_MS), source.streaming_rate
    jitters = jitter_offsets(source, frames, seed)
    return [init_us + round(f * US_PER_S / rate) + round(j * US_PER_MS) for f, j in zip(frames, jitters)]


class InferenceRequest(NamedTuple):
    """One (model, frame) inference request with its timing."""

    model: str
    frame_index: int
    request_index: int
    t_req_us: int
    t_dl_us: int


@dataclass(frozen=True, slots=True)
class RequestStream:
    """All requests of one scenario over the benchmark window in dispatch order:
    by request time, then model, then request index. In that order a model's
    requests must be its request indices 0, 1, 2, … with rising frames.
    `plans`, `simulate`'s plans by edge shape, is no part of its value."""

    scenario: str
    seed: int
    requests: tuple[InferenceRequest, ...]
    plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        requests = tuple(sorted(self.requests, key=itemgetter(3, 0, 2)))
        object.__setattr__(self, "requests", requests)
        last: dict[str, InferenceRequest] = {}  # model -> its latest request so far
        for r in requests:
            prev = last.get(r.model)
            i = 0 if prev is None else prev.request_index + 1
            if r.request_index != i or (i and r.frame_index <= prev.frame_index):
                after = "" if prev is None else f" after frame {prev.frame_index}"
                raise ConfigError(
                    f"request stream: {r.model} request_index {r.request_index} (frame {r.frame_index}) "
                    f"comes where request_index {i}{after} should"
                )
            last[r.model] = r


def select_frames(target_rate: float, streaming_rate: float, count: int) -> list[int]:
    """The first `count` source frames a model samples, via a rate accumulator.

    With r = target_rate / streaming_rate, taken exactly from the two floats
    as num/den, frame i is selected iff floor((i+1)·r) > floor(i·r). That
    spreads selections evenly and degenerates to every other frame when the
    target rate is half the streaming rate. In closed form, the k-th
    selected frame is ceil((k+1)·den/num) - 1; when num >= den (a target at
    or, within validation's 1e-12, above the source rate) every frame is.
    """
    tn, td = target_rate.as_integer_ratio()
    sn, sd = streaming_rate.as_integer_ratio()
    num, den = tn * sd, td * sn
    if num >= den:
        return list(range(count))
    # ceil(a/b) - 1 == (a-1) // b for positive integers
    return [((k + 1) * den - 1) // num for k in range(count)]


def target_count(target_rate: float, duration: float) -> int:
    """targFrameID: the number of frames a model must process in the window."""
    return math.floor(target_rate * duration + 0.5)


def _check_duration(scenario: UsageScenario, duration: float) -> None:
    """Raise ConfigError unless the window is finite and positive and the
    scenario's requests in it, summed over its models, are within MAX_REQUESTS;
    this runs before any list of frames or requests is built."""
    if not 0 < duration < math.inf:
        raise ConfigError("duration must be finite and > 0")
    try:
        count = sum(target_count(entry.target_rate, duration) for entry in scenario.entries)
    except OverflowError:  # a rate times the window is beyond the float range
        count = math.inf
    if count > MAX_REQUESTS:
        raise ConfigError(
            f"scenario {scenario.id!r}: a {duration:g} s window holds {count} requests, "
            f"over the bound of {MAX_REQUESTS}"
        )


def check_window(scenario: UsageScenario, duration: float) -> None:
    """Raise ConfigError unless the window passes `_check_duration` and gives
    every model of the scenario at least one request."""
    _check_duration(scenario, duration)
    for entry in scenario.entries:
        if target_count(entry.target_rate, duration) < 1:
            raise ConfigError(
                f"scenario {scenario.id!r}: a {duration:g} s window gives model {entry.model!r} "
                f"({entry.target_rate:g} Hz) no request"
            )


def generate_requests(
    scenario: UsageScenario,
    sources: Mapping[str, InputSource],
    models: Mapping[str, UnitModel],
    duration: float,
    seed: int,
    *,
    arrivals: dict[tuple[InputSource, int], dict[int, int]] | None = None,
) -> RequestStream:
    """Build the jittered request stream for one scenario.

    Multi-modal models take the latest arrival over their input sources at
    the aligned frame. Requests near the window end are generated even when
    jitter pushes them past `duration`.

    `arrivals` maps (source record, seed) to {frame: arrival µs}; the call
    reads it and adds the frames it lacks. An arrival depends only on its
    key and frame, so one map may serve any calls, on any scenarios and
    seeds, and hashes each of their frames once. Without it the call uses
    a map of its own. A seed that is not an int (a bool included) is a ConfigError.
    """
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be an integer, not {seed!r}")
    _check_duration(scenario, duration)
    check_scenario(scenario, sources, models)

    if arrivals is None:
        arrivals = {}
    requests: list[InferenceRequest] = []
    frame_lists: dict[tuple[float, float, int], list[int]] = {}  # (target rate, source rate, count) -> frames
    deadline_lists: dict[tuple[int, float, int], list[int]] = {}  # (init µs, target rate, count) -> deadlines
    for entry in scenario.entries:
        srcs = [sources[sid] for sid in models[entry.model].input_sources]
        key = (entry.target_rate, min(s.streaming_rate for s in srcs), target_count(entry.target_rate, duration))
        if (frames := frame_lists.get(key)) is None:
            frames = frame_lists[key] = select_frames(*key)
        columns = []
        for s in srcs:
            known = arrivals.setdefault((s, seed), {})
            if missing := [f for f in frames if f not in known]:
                known.update(zip(missing, _arrivals_us(s, missing, seed)))
            columns.append(map(known.__getitem__, frames))
        t_req = map(max, *columns) if len(columns) > 1 else columns[0]  # the latest of its sources
        # a model's k-th deadline: k+1 target-rate periods after its init latency; never jittered
        init_us, rate, n = round(max(s.init_latency for s in srcs) * US_PER_MS), entry.target_rate, len(frames)
        if (t_dl := deadline_lists.get((init_us, rate, n))) is None:
            t_dl = deadline_lists[init_us, rate, n] = [init_us + round(k * US_PER_S / rate) for k in range(1, n + 1)]
        index = frames if not frames or frames[-1] == n - 1 else range(n)  # frames 0..n-1 are their own indices
        rows = zip(repeat(entry.model), frames, index, t_req, t_dl)
        requests += map(tuple.__new__, repeat(InferenceRequest), rows)  # InferenceRequest(*row), without a Python call
    return RequestStream(scenario=scenario.id, seed=seed, requests=tuple(requests))

