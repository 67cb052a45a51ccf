"""`generate_requests` and `select_frames` against a naive reference.

The reference selects frames with an exact-rational rate accumulator, one
source frame at a time, and recomputes every request's arrival as the
latest of its sources' arrivals, each by its own formula, with no memo. The seeded
setups mix rates that are not whole numbers (29.97, 1000/3), targets 1e-12
above the source rate, multi-source models whose sources start at
different times, and 0.5 ms of jitter at zero init latency, which puts
some arrivals before 0 µs.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

from mmtsim import InputSource, ScenarioEntry, UnitModel, UsageScenario
from mmtsim.loadgen import generate_requests, select_frames, target_count

from jitter import jitter_offset

SOURCE_RATES = [29.97, 1000 / 3, 25.0, 30.0, 59.94, 60.0, 90.0]
TARGET_RATES = [0.5, 1.0, 3.0, 10.0, 15.0, 29.97, 30.0, 45.0, 59.94, 60.0, 1000 / 3]


def reference_select_frames(target_rate: float, streaming_rate: float, count: int) -> list[int]:
    """The first `count` frames i with floor((i+1)·r) > floor(i·r), r = target/source exactly."""
    ratio = Fraction(target_rate) / Fraction(streaming_rate)
    frames = []
    i = 0
    while len(frames) < count:
        if math.floor((i + 1) * ratio) > math.floor(i * ratio):
            frames.append(i)
        i += 1
    return frames


def reference_arrival_us(source: InputSource, frame: int, seed: int) -> int:
    """Init latency + frame period + jitter offset, each rounded to whole µs."""
    period_us = round(frame * 1_000_000 / source.streaming_rate)
    return round(source.init_latency * 1000) + period_us + round(jitter_offset(source, frame, seed) * 1000)


def reference_deadline_us(target_rate: float, k: int, init_ms: float) -> int:
    """Init latency + (k+1) target periods, each rounded to whole µs."""
    return round(init_ms * 1000) + round((k + 1) * 1_000_000 / target_rate)


def reference_requests(scenario, sources, models, duration, seed):
    """(model, frame, request index, t_req µs, t_dl µs) rows in stream order, and the counts."""
    rows = []
    counts = {}
    for entry in scenario.entries:
        srcs = [sources[s] for s in models[entry.model].input_sources]
        count = target_count(entry.target_rate, duration)
        counts[entry.model] = count
        frames = reference_select_frames(entry.target_rate, min(s.streaming_rate for s in srcs), count)
        init_ms = max(s.init_latency for s in srcs)
        for k, frame in enumerate(frames):
            t_req_us = max(reference_arrival_us(s, frame, seed) for s in srcs)
            t_dl_us = reference_deadline_us(entry.target_rate, k, init_ms)
            rows.append((entry.model, frame, k, t_req_us, t_dl_us))
    rows.sort(key=lambda row: (row[3], row[0], row[1]))
    return rows, counts


def random_loadgen_setup(rng: random.Random):
    """One random valid (scenario, sources, models, duration, seed) tuple."""
    sources = {}
    for i in range(rng.randint(1, 4)):
        sid = f"s{i}"
        sources[sid] = InputSource(
            id=sid,
            streaming_rate=rng.choice(SOURCE_RATES),
            init_latency=rng.choice([0.0, 0.0, 1.5, 4.0, 10.0]),
            max_jitter=rng.choice([0.0, 0.05, 0.5, 0.5]),
        )
    models = {}
    entries = []
    for i in range(rng.randint(1, 5)):
        mid = f"m{i}"
        inputs = tuple(rng.sample(sorted(sources), rng.randint(1, min(3, len(sources)))))
        models[mid] = UnitModel(id=mid, task_tag="fuzz", input_sources=inputs)
        drive = min(sources[s].streaming_rate for s in inputs)
        draw = rng.random()
        if draw < 0.2:
            rate = drive + 1e-12  # the most that validation allows
        elif draw < 0.3:
            rate = drive
        elif draw < 0.5:
            rate = drive * rng.uniform(0.01, 1.0)
        else:
            rate = rng.choice([r for r in TARGET_RATES if r <= drive])
        entries.append(ScenarioEntry(model=mid, target_rate=rate))
    scenario = UsageScenario(id=f"lg-{rng.randrange(1 << 30)}", entries=tuple(entries))
    duration = rng.choice([0.05, 0.3, 1.0, 2.0])
    seed = rng.randrange(1 << 32)
    return scenario, sources, models, duration, seed


def test_select_frames_matches_the_exact_accumulator():
    rng = random.Random(4)
    pairs = [(t, s) for s in SOURCE_RATES for t in TARGET_RATES + [s, s + 1e-12] if t <= s + 1e-12]
    pairs += [(s * rng.uniform(0.05, 1.0), s) for s in SOURCE_RATES for _ in range(10)]
    for target, source in pairs:
        assert select_frames(target, source, 60) == reference_select_frames(target, source, 60), (target, source)
    assert select_frames(30.0, 60.0, 0) == []


def test_target_just_above_the_source_rate_selects_every_frame():
    for source in SOURCE_RATES:
        assert select_frames(source + 1e-12, source, 50) == list(range(50))
        assert select_frames(source, source, 50) == list(range(50))


def test_generate_requests_matches_the_naive_reference():
    rng = random.Random(2026)
    negative = above_rate = mixed_starts = 0
    for _ in range(200):
        scenario, sources, models, duration, seed = random_loadgen_setup(rng)
        stream = generate_requests(scenario, sources, models, duration, seed)
        rows, counts = reference_requests(scenario, sources, models, duration, seed)
        got = [(r.model, r.frame_index, r.request_index, r.t_req_us, r.t_dl_us) for r in stream.requests]
        assert got == rows, scenario
        per_model = Counter(r.model for r in stream.requests)
        assert {m: per_model[m] for m in scenario.model_ids} == counts
        negative += sum(row[3] < 0 for row in rows)
        for entry in scenario.entries:
            srcs = [sources[s] for s in models[entry.model].input_sources]
            above_rate += entry.target_rate > min(s.streaming_rate for s in srcs)
            mixed_starts += len({s.init_latency for s in srcs}) > 1
    # the setups reach the cases the reference is there for
    assert negative > 0 and above_rate > 0 and mixed_starts > 0
