"""Discrete-event dispatcher: runs a request stream on modeled hardware.

A request is ready once its arrival time has passed, every dependency for
its frame has completed, and every probabilistic gate has fired true.
Launched inferences run to completion (no preemption). A request that has
not launched when the next request of the same model arrives is dropped.

Events: a cursor walks the stream, which is in dispatch order (request time,
model, request index) and gives each model its request indices 0, 1, 2, ...
in turn, so an arrival drops whatever its model has waiting. Running
inferences sit in a heap of (end time, unit rank, stream position). At
equal timestamps, completions free their units in unit id order and
resolve the gates downstream of them, then arrivals apply the drop rule,
then free units, lowest id first, each take one ready request by the policy.

Policies: a model has at most one ready request (a newer arrival drops the
one waiting), so a policy picks among models. "latency-greedy" takes the
request with the lowest cost-table latency on the freeing unit, then the
earliest deadline, then the lowest model id. "round-robin" keeps one cursor
per unit: the unit takes the first ready model after its previous pick in
the scenario's model order, wrapping around. A lone ready request is taken
without comparing (round-robin still moves the unit's cursor to it).

State: per-request state lives in flat lists indexed by stream position.
What depends on the stream alone comes from a per-stream plan, built once
per edge shape (the scenario's (downstream, upstream) model pairs) and kept
in this module while the stream object lives: the columns `model_of`,
`req_of` and `dl_of` (each position's model, request time and deadline) and
the dependency anchors. Anchors name edges by number, so each run gates with
its own scenario's edges. The event loop, the drop rule and both policies
read the columns, not the requests' attributes; a run copies the plan's
counts of unresolved dependencies and changes nothing else in it. The stream
itself is not touched. A request's status is set exactly once, when it
launches (completed) or fails (dropped or untriggered); requests still
waiting when the stream runs out are dropped. A failed anchor never
completes, so its edges never fire and its dependents never launch.

A single simulation is strictly single-threaded and deterministic; multiple
simulations can run concurrently since all inputs are immutable (concurrent
first runs of one stream may each build its plan; the plans are equal).
"""

from __future__ import annotations

import csv
import heapq
import weakref
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple, Sequence

from .costmodel import CostTable, HardwareSystem
from .errors import ConfigError
from .loadgen import US_PER_MS, InferenceRequest, RequestStream, det_rand
from .workload import SCHEMA_VERSION, DependencyEdge, UsageScenario

COMPLETED = "completed"
DROPPED = "dropped"
UNTRIGGERED = "untriggered"

LATENCY_GREEDY = "latency-greedy"
ROUND_ROBIN = "round-robin"


class ModelCounts(NamedTuple):
    """One model's request totals; `log_to_obj` writes the fields in this order."""

    n_total: int
    n_processed: int
    n_dropped: int
    n_untriggered: int
    n_sat: int


@dataclass
class EventLog:
    """The simulated timeline as columns indexed by stream position (a request
    that never launched has no unit, start or end, and zero energy), and its
    per-model view, built once: positions in ascending request index (the order
    scoring sums in) and counts."""

    scenario: str
    hardware: str
    seed: int
    duration: float
    requests: Sequence[InferenceRequest]
    unit: list[str | None]
    t_start_us: list[int | None]
    t_end_us: list[int | None]
    status: list[str]
    energy_mj: list[float]
    positions: dict[str, list[int]] = field(init=False)
    counts: dict[str, ModelCounts] = field(init=False)

    def __post_init__(self) -> None:
        requests, status, t_end_us = self.requests, self.status, self.t_end_us
        self.positions = {}
        for p, r in enumerate(requests):
            self.positions.setdefault(r.model, []).append(p)
        request_index = [r.request_index for r in requests]
        self.counts = {}
        for m, ps in self.positions.items():
            ps.sort(key=request_index.__getitem__)
            statuses = [status[p] for p in ps]
            self.counts[m] = ModelCounts(
                n_total=len(ps),
                n_processed=statuses.count(COMPLETED),
                n_dropped=statuses.count(DROPPED),
                n_untriggered=statuses.count(UNTRIGGERED),
                n_sat=sum(status[p] == COMPLETED and t_end_us[p] <= requests[p].t_dl_us for p in ps),
            )

    @property
    def entries(self) -> list[tuple]:
        """(request, unit, start, end, status, energy) per position; only a
        benchmark's request counter reads it, and ROADMAP item 8 deletes it."""
        return list(zip(self.requests, self.unit, self.t_start_us, self.t_end_us, self.status, self.energy_mj))


def eval_control_gate(edge: DependencyEdge, upstream_frame: int, seed: int) -> bool:
    """Whether a gated downstream launch fires for this upstream completion.

    Deterministic per (seed, edge, frame); probability 1 edges always fire.
    """
    if edge.trigger_probability >= 1.0:
        return True
    if edge.trigger_probability <= 0.0:
        return False
    return det_rand(seed, f"gate:{edge.key}", upstream_frame) < edge.trigger_probability


class _Plan(NamedTuple):
    """What `simulate` derives from a stream and its scenario's edge shape
    alone, indexed by stream position; `simulate` copies `unresolved` and
    reads the rest."""

    model_of: list[str]
    req_of: list[int]
    dl_of: list[int]
    dependents: dict[int, list[tuple[int, int]]]  # anchor -> (edge number, downstream)
    unresolved: list[int]  # anchored dependencies


# id(stream) -> edge shape -> plan, for live streams only: a finalizer drops a
# stream's plans when the stream is collected, before its id can be reused.
_plans: dict[int, dict[tuple[tuple[str, str], ...], _Plan]] = {}


def _plan(stream: RequestStream, pairs: tuple[tuple[str, str], ...]) -> _Plan:
    """The stream's plan for the edges `pairs`, a (downstream model, upstream
    model) pair per edge in the scenario's entry order. Built on first use
    and kept while the stream lives, so later runs of the same stream object,
    under scenarios whose edges differ only in trigger probability, share it."""
    plans = _plans.get(id(stream))
    if plans is None:
        plans = _plans[id(stream)] = {}
        weakref.finalize(stream, _plans.pop, id(stream), None)
    plan = plans.get(pairs)
    if plan is not None:
        return plan
    requests = stream.requests
    n = len(requests)
    model_of = [r.model for r in requests]
    req_of = [r.t_req_us for r in requests]
    dl_of = [r.t_dl_us for r in requests]

    # Anchor each dependency edge of a request to the latest upstream request
    # whose frame does not exceed the downstream frame. A model's positions
    # come in request index and frame order (the stream's invariant).
    dependents: dict[int, list[tuple[int, int]]] = {}
    unresolved = [0] * n
    if pairs:
        by_model: dict[str, list[int]] = {}
        for p, model in enumerate(model_of):
            by_model.setdefault(model, []).append(p)
        for e, (model_id, upstream) in enumerate(pairs):
            ups = by_model.get(upstream, [])
            up_frames = [requests[q].frame_index for q in ups]
            for p in by_model.get(model_id, ()):
                k = bisect_right(up_frames, requests[p].frame_index) - 1
                if k < 0:
                    continue  # no upstream frame precedes; nothing to wait on
                dependents.setdefault(ups[k], []).append((e, p))
                unresolved[p] += 1
    plan = plans[pairs] = _Plan(model_of, req_of, dl_of, dependents, unresolved)
    return plan


def simulate(
    scenario: UsageScenario,
    stream: RequestStream,
    hw: HardwareSystem,
    costs: CostTable,
    policy: str = LATENCY_GREEDY,
) -> EventLog:
    """Run the stream on the hardware system and return the event log."""
    if stream.scenario != scenario.id:
        raise ConfigError(f"stream was generated for {stream.scenario!r}, not {scenario.id!r}")
    units = sorted(hw.units, key=lambda u: u.id)  # a unit's rank is its index here
    unit_ids = [u.id for u in units]
    lat_ms: dict[str, list[float]] = {}  # model -> latency in ms, by unit rank
    lat_us: dict[str, list[int]] = {}  # model -> latency in microseconds, by unit rank
    energy: dict[str, list[float]] = {}  # model -> energy in mJ, by unit rank
    for model_id in scenario.model_ids:
        cost = {u.id: costs.lookup(model_id, u.id) for u in hw.units}  # fail before simulating
        lat_ms[model_id] = [cost[uid].latency_ms for uid in unit_ids]
        lat_us[model_id] = [max(1, round(ms * US_PER_MS)) for ms in lat_ms[model_id]]
        energy[model_id] = [cost[uid].energy_mj for uid in unit_ids]
    if policy not in (LATENCY_GREEDY, ROUND_ROBIN):
        raise ConfigError(f"unknown scheduler policy {policy!r}")
    order = {m: i for i, m in enumerate(scenario.model_ids)}  # the round-robin cycle
    last = [-1] * len(units)  # unit rank -> order of its last round-robin pick

    requests = stream.requests
    n = len(requests)

    # Request state, indexed by stream position; these five lists are the log's
    # columns. They are allocated before a first run builds the stream's plan,
    # whose temporaries would otherwise leave holes that raise the peak RSS.
    status: list[str | None] = [None] * n  # set once: launched (COMPLETED) or failed
    unit: list[str | None] = [None] * n
    t_start_us: list[int | None] = [None] * n
    t_end_us: list[int | None] = [None] * n
    energy_mj = [0.0] * n

    edges = scenario.edges()
    pairs = tuple((e.downstream, e.upstream) for e in edges)
    model_of, req_of, dl_of, dependents, anchored = _plan(stream, pairs)
    unresolved = anchored.copy()  # anchored dependencies not yet fired true

    completions: list[tuple[int, int, int]] = []  # (t_end_us, unit rank, position)
    free = list(range(len(units)))  # ranks of idle units, ascending
    pending: dict[str, int] = {}  # model -> its arrived, waiting request
    cursor = 0
    while cursor < n or completions:
        if completions and (cursor == n or completions[0][0] <= req_of[cursor]):
            now = completions[0][0]
        else:
            now = req_of[cursor]

        # Completions free their units (lowest rank first) and resolve gates.
        while completions and completions[0][0] == now:
            _, rank, p = heapq.heappop(completions)
            insort(free, rank)
            if p in dependents:
                up_frame = requests[p].frame_index
                for e, d in dependents[p]:
                    if status[d] is not None:
                        continue
                    if eval_control_gate(edges[e], up_frame, stream.seed):
                        unresolved[d] -= 1
                    else:
                        model = model_of[d]
                        if pending.get(model) == d:
                            del pending[model]
                        status[d] = UNTRIGGERED

        # Arrivals supersede their model's waiting request (the drop rule).
        while cursor < n and req_of[cursor] == now:
            p = cursor
            cursor += 1
            model = model_of[p]
            prev = pending.pop(model, None)
            if prev is not None:
                status[prev] = DROPPED
            if status[p] is None:
                pending[model] = p

        # Free units, lowest rank first, take the policy's pick of the ready set.
        if not (free and pending):
            continue
        ready = [p for p in pending.values() if not unresolved[p]]
        while ready and free:
            rank = free.pop(0)
            if len(ready) == 1:
                p = ready[0]
            elif policy == LATENCY_GREEDY:
                p = min(ready, key=lambda q: (lat_ms[model_of[q]][rank], dl_of[q], model_of[q]))
            else:
                p = min(ready, key=lambda q: (order[model_of[q]] - last[rank] - 1) % len(order))
            if policy == ROUND_ROBIN:
                last[rank] = order[model_of[p]]
            ready.remove(p)
            model = model_of[p]
            del pending[model]
            status[p] = COMPLETED
            unit[p] = unit_ids[rank]
            t_start_us[p] = now
            t_end_us[p] = now + lat_us[model][rank]
            energy_mj[p] = energy[model][rank]
            heapq.heappush(completions, (t_end_us[p], rank, p))

    # Requests still waiting when the window closed have no user-visible result.
    return EventLog(
        scenario=scenario.id,
        hardware=hw.id,
        seed=stream.seed,
        duration=stream.duration,
        requests=requests,
        unit=unit,
        t_start_us=t_start_us,
        t_end_us=t_end_us,
        status=[st or DROPPED for st in status],
        energy_mj=energy_mj,
    )


def validate_schedule(log: EventLog, scenario: UsageScenario) -> list[str]:
    """Check occupancy, dependency order, and arrival constraints on a log,
    reading its columns. Each dependency is anchored anew by frame, so a log
    from outside the program is checked against the scenario, not a plan."""
    requests, unit, t_start_us, t_end_us, status = log.requests, log.unit, log.t_start_us, log.t_end_us, log.status

    def name(p: int) -> str:
        return f"{requests[p].model}[{requests[p].request_index}]"

    violations: list[str] = []
    per_unit: dict[str, list[int]] = {}
    for p, st in enumerate(status):
        if st != COMPLETED:
            continue
        if t_start_us[p] < requests[p].t_req_us:
            violations.append(f"{name(p)} started before its request time")
        per_unit.setdefault(unit[p], []).append(p)
    for unit_id, ps in per_unit.items():
        ps.sort(key=lambda p: (t_start_us[p], t_end_us[p]))
        for prev, cur in zip(ps, ps[1:]):
            if t_start_us[cur] < t_end_us[prev]:
                violations.append(f"occupancy violation on unit {unit_id}: {name(prev)} overlaps {name(cur)}")

    # Each model's positions by frame; a stable sort keeps request index order within a frame.
    frame_of = [r.frame_index for r in requests]
    by_frame = {m: sorted(ps, key=frame_of.__getitem__) for m, ps in log.positions.items()}
    for edge in scenario.edges():
        ups = by_frame.get(edge.upstream, [])
        up_frames = [frame_of[q] for q in ups]
        for p in by_frame.get(edge.downstream, []):
            if status[p] != COMPLETED:
                continue
            k = bisect_right(up_frames, frame_of[p]) - 1
            if k < 0:
                continue
            q = ups[k]
            if status[q] != COMPLETED:
                violations.append(f"dependency violation {edge.key}: {name(p)} ran without its upstream")
            elif t_start_us[p] < t_end_us[q]:
                violations.append(f"dependency violation {edge.key}: {name(p)} started before upstream ended")
    return violations


# --- Export -----------------------------------------------------------------

LOG_CSV_FIELDS = (
    "model",
    "request_index",
    "frame_index",
    "unit",
    "t_req_ms",
    "t_start_ms",
    "t_end_ms",
    "t_dl_ms",
    "status",
    "energy_mj",
)


def _ms(t_us: int | None) -> float | None:
    return None if t_us is None else t_us / US_PER_MS


def log_to_csv(log: EventLog, fh) -> None:
    """One row per request in stream order; csv writes a float as its repr()
    and None as an empty field."""
    writer = csv.writer(fh)
    writer.writerow(LOG_CSV_FIELDS)
    writer.writerows(
        (r.model, r.request_index, r.frame_index, unit, r.t_req_ms, _ms(t_start), _ms(t_end), r.t_dl_ms, status, energy)
        for r, unit, t_start, t_end, status, energy in zip(
            log.requests, log.unit, log.t_start_us, log.t_end_us, log.status, log.energy_mj
        )
    )


def log_from_csv(fh, scenario: str = "") -> EventLog:
    """Read a timeline written by `log_to_csv`, its columns in any order and
    blank lines skipped; a malformed one is a ConfigError naming its line.
    The CSV holds no hardware, seed or duration, so the log's are blank.
    Statuses are this module's constants, and each distinct model id and unit
    id is one string object, not one per row."""
    reader = csv.reader(fh)
    header = next(reader, [])
    missing = [f for f in LOG_CSV_FIELDS if f not in header]
    if missing:
        raise ConfigError(f"timeline CSV lacks column(s) {', '.join(missing)}")
    pick = itemgetter(*(header.index(f) for f in LOG_CSV_FIELDS))
    requests, unit, t_start_us, t_end_us, status, energy_mj = [], [], [], [], [], []
    statuses = {s: s for s in (COMPLETED, DROPPED, UNTRIGGERED)}
    ids: dict[str, str] = {}
    try:  # each check raises ValueError, like a field that is not a (finite) number
        for row in reader:
            if not row:
                continue
            if len(row) < len(header):
                raise ValueError(f"a short row of {len(row)} fields, the header has {len(header)}")
            model, request_index, frame_index, u, t_req, t_start, t_end, t_dl, st, energy = pick(row)
            if st not in statuses:
                raise ValueError(f"unknown status {st!r}")
            if st == COMPLETED and not (u and t_start and t_end):
                raise ValueError("a completed request needs a unit, a start and an end")
            r = InferenceRequest(
                ids.setdefault(model, model),
                int(frame_index),
                int(request_index),
                round(float(t_req) * US_PER_MS),
                round(float(t_dl) * US_PER_MS),
            )
            start = round(float(t_start) * US_PER_MS) if t_start else None
            end = round(float(t_end) * US_PER_MS) if t_end else None
            if st == COMPLETED and not r.t_req_us <= start <= end:
                raise ValueError("a completed request needs t_req_ms <= t_start_ms <= t_end_ms")
            if r.request_index < 0:
                raise ValueError(f"request_index must be >= 0, not {r.request_index}")
            requests.append(r)
            unit.append(ids.setdefault(u, u) if u else None)
            t_start_us.append(start)
            t_end_us.append(end)
            status.append(statuses[st])
            energy_mj.append(float(energy))
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"timeline CSV line {reader.line_num}: {exc}") from None
    log = EventLog(
        scenario=scenario,
        hardware="",
        seed=0,
        duration=0.0,
        requests=requests,
        unit=unit,
        t_start_us=t_start_us,
        t_end_us=t_end_us,
        status=status,
        energy_mj=energy_mj,
    )
    # Each model has one row per request index 0..n-1. Its positions are sorted
    # by request index, so the first position i that holds another index is
    # the model's first fault: a repeat of i-1, or a gap at i.
    for model, ps in log.positions.items():  # models in first-appearance order
        for i, p in enumerate(ps):
            index = requests[p].request_index
            if index < i:
                raise ConfigError(f"timeline CSV has more than one row for {model} request_index {index}")
            if index > i:
                raise ConfigError(f"timeline CSV has no row for {model} request_index {i}")
    return log


def log_to_obj(log: EventLog) -> dict:
    """The JSON document embedding the per-model counts."""
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": log.scenario,
        "hardware": log.hardware,
        "seed": log.seed,
        "duration_s": log.duration,
        "counts": {m: c._asdict() for m, c in sorted(log.counts.items())},
    }
