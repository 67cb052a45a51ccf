"""Deterministic generation of jittered inference-request streams.

Time is carried internally as integer microsecond ticks so that identical
inputs always give bit-identical streams; every public field also exposes
milliseconds as floats.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from operator import itemgetter
from statistics import NormalDist
from typing import Mapping, NamedTuple

from .errors import ConfigError
from .workload import InputSource, UnitModel, UsageScenario, validate_scenario

US_PER_MS = 1000
US_PER_S = 1_000_000

_NORMAL = NormalDist()
_JITTER_SIGMA = 1.0 / 6.0


def det_rand(seed: int, source: str, frame: int) -> float:
    """A pure, uniform-ish variate in [0, 1) keyed by (seed, source, frame).

    Implemented as a keyed blake2b hash of the inputs; identical arguments
    always give the identical value, across processes and platforms.
    """
    digest = hashlib.blake2b(
        f"{seed}|{source}|{frame}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


def jitter_offset(source: InputSource, frame: int, seed: int) -> float:
    """Jitter in milliseconds, bounded to [-max_jitter, +max_jitter].

    The uniform variate is pushed through a truncated Gaussian centered at
    0.5 (sigma 1/6, clamped to [0, 1]), then scaled to the jitter bound.
    """
    if source.max_jitter == 0.0:
        return 0.0
    u = det_rand(seed, source.id, frame)
    u = min(max(u, 1e-12), 1.0 - 1e-12)
    g = 0.5 + _JITTER_SIGMA * _NORMAL.inv_cdf(u)
    g = min(max(g, 0.0), 1.0)
    return source.max_jitter * 2.0 * (g - 0.5)


def _request_time_us(source: InputSource, frame: int, seed: int) -> int:
    """Arrival of frame `frame` of `source`: init latency, periodic position, jitter."""
    base = round(source.init_latency * US_PER_MS) + round(frame * US_PER_S / source.streaming_rate)
    return base + round(jitter_offset(source, frame, seed) * US_PER_MS)


def _deadline_us(target_rate: float, request_index: int, init_latency_ms: float) -> int:
    """A model's k-th deadline: k+1 target-rate periods after its init latency; never jittered."""
    return round(init_latency_ms * US_PER_MS) + round((request_index + 1) * US_PER_S / target_rate)


class InferenceRequest(NamedTuple):
    """One (model, frame) inference request with its timing."""

    model: str
    frame_index: int
    request_index: int
    t_req_us: int
    t_dl_us: int

    @property
    def t_req_ms(self) -> float:
        return self.t_req_us / US_PER_MS

    @property
    def t_dl_ms(self) -> float:
        return self.t_dl_us / US_PER_MS


@dataclass(frozen=True)
class RequestStream:
    """All requests of one scenario over the benchmark window in dispatch order:
    by request time, then model, then request index. In that order a model's
    requests must be its request indices 0, 1, 2, … with rising frames."""

    scenario: str
    duration: float
    seed: int
    requests: tuple[InferenceRequest, ...]

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


def generate_requests(
    scenario: UsageScenario,
    sources: Mapping[str, InputSource],
    models: Mapping[str, UnitModel],
    duration: float,
    seed: int,
) -> RequestStream:
    """Build the jittered request stream for one scenario.

    Multi-modal models take the latest arrival over their input sources at
    the aligned frame. Requests near the window end are generated even when
    jitter pushes them past `duration`.
    """
    if not 0 < duration < math.inf:
        raise ConfigError("duration must be finite and > 0")
    violations = validate_scenario(scenario, sources, models)
    if violations:
        raise ConfigError(f"invalid scenario {scenario.id!r}: " + "; ".join(violations))

    requests: list[InferenceRequest] = []
    # each (source id, frame) arrival once, however many models sample it
    arrivals: dict[tuple[str, int], int] = {}
    for entry in scenario.entries:
        model = models[entry.model]
        srcs = [sources[s] for s in model.input_sources]
        drive_rate = min(s.streaming_rate for s in srcs)
        init_ms = max(s.init_latency for s in srcs)
        count = target_count(entry.target_rate, duration)
        for k, frame in enumerate(select_frames(entry.target_rate, drive_rate, count)):
            times = []
            for s in srcs:
                t = arrivals.get((s.id, frame))
                if t is None:
                    t = arrivals[s.id, frame] = _request_time_us(s, frame, seed)
                times.append(t)
            t_req = max(times)
            t_dl = _deadline_us(entry.target_rate, k, init_ms)
            requests.append(InferenceRequest(entry.model, frame, k, t_req, t_dl))
    return RequestStream(scenario=scenario.id, duration=duration, seed=seed, requests=tuple(requests))

