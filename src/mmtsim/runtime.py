"""Discrete-event dispatcher: runs a request stream on modeled hardware.

A request is ready once its arrival time has passed, every dependency for
its frame has completed, and every probabilistic gate has fired true.
Launched inferences run to completion (no preemption). A request that has
not launched when the next request of the same model arrives is dropped.

Events: a cursor walks the stream, which is in dispatch order (request time,
model, request index) and gives each model its request indices 0, 1, 2, ...
in turn, so an arrival drops whatever its model has waiting. Running
inferences sit in a heap of (end time, unit rank, stream position). Each
pass of the loop takes one branch by the kind of the next event. If a
completion is due no later than the next arrival, the completion branch pops
every completion at that time, freeing their units in unit id order and
resolving the gates downstream of them; otherwise the arrival branch takes
the time from the cursor. Then the arrivals at that time apply the drop
rule, and free units, lowest id first, each take one ready request by the
policy. The loop ends when neither branch applies.

Policies: a request waits while it has arrived (its position is below the
cursor) and has no status, so a model has at most one waiting request, its
latest arrival, and a policy picks among models. "latency-greedy" takes the
request with the lowest cost-table latency on the freeing unit, then the
earliest deadline, then the lowest model id. It scans the unit's latency
order, built when the unit first compares: each model in (latency, id)
order, with a tuple of the later models that share its latency. A compare
takes the first waiting model and compares deadlines only with the waiting
models of its tuple. "round-robin" keeps one cursor per unit: the unit takes
the first ready model after its previous pick in the scenario's model
order, wrapping around. A lone ready request is popped without comparing
(round-robin still moves the unit's cursor to it).

State: per-request state lives in flat lists indexed by stream position.
What depends on the stream alone comes from a plan, built on the first run
per edge shape (the scenario's (downstream, upstream) model pairs) and kept
in the stream's `plans`, outside its value, so it pickles and deep-copies
with the stream: the columns `model_of`, `req_of` and `dl_of` (each
position's model, request time and deadline, transposed from the requests
in one `zip`), each model's positions in request index order, and the
dependency anchors, which each edge finds in the frame column.
Anchors name edges by number, so each run gates with its own scenario's
edges. The event loop, the drop rule and both policies read the columns, not
the requests' attributes; a run copies the plan's counts of unresolved
dependencies and changes nothing else in it. `latest` maps each model to its
latest arrival, written only on arrival: an arrival drops the request it
replaces if that one has no status yet. The ready set is kept across events:
a request joins it on arrival with no unresolved dependency, or when its last
gate fires while it waits, and leaves it on launch or drop. A stream holding
a model the scenario does not run is a ConfigError. The log a run returns
shares the plan's per-model positions through a read-only view, so neither
the log nor its reader can change a later run. A run adds its plan to the
stream and changes nothing else there. A request's status is set exactly
once, when it launches (completed) or fails (dropped or untriggered);
requests still waiting when the stream runs out, each its model's latest
arrival, are dropped through `latest`. A failed anchor never completes, so
its edges never fire and its dependents never launch.

A single simulation is strictly single-threaded and deterministic; multiple
simulations can run concurrently since all inputs are immutable (concurrent
first runs of one stream may each build its plan; the plans are equal).
`simulate_suite` runs a list of scenarios in turn on one arrivals map.
"""

from __future__ import annotations

import csv
import heapq
import io
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import loadgen
from .costmodel import CostTable, HardwareSystem
from .errors import ConfigError
from .loadgen import US_PER_MS, InferenceRequest, RequestStream, det_rand
from .workload import SCHEMA_VERSION, DependencyEdge, SuiteConfig, UsageScenario

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
    per-model view: `positions`, each model's positions in ascending request
    index (the order scoring sums in), given by whoever builds the log, and
    `counts`, derived from them once."""

    scenario: str
    requests: Sequence[InferenceRequest]
    unit: list[str | None]
    t_start_us: list[int | None]
    t_end_us: list[int | None]
    status: list[str]
    energy_mj: list[float]
    positions: Mapping[str, Sequence[int]]
    counts: dict[str, ModelCounts] = field(init=False)

    def __post_init__(self) -> None:
        requests, status, t_end_us = self.requests, self.status, self.t_end_us
        self.counts = {}
        for m, ps in self.positions.items():
            done = [p for p in ps if status[p] == COMPLETED]
            n_sat = len([p for p in done if t_end_us[p] <= requests[p][4]])  # requests[p][4]: t_dl_us
            if len(done) == len(ps):
                n_dropped = n_untriggered = 0
            else:
                statuses = [status[p] for p in ps]
                n_dropped, n_untriggered = statuses.count(DROPPED), statuses.count(UNTRIGGERED)
            self.counts[m] = ModelCounts(len(ps), len(done), n_dropped, n_untriggered, n_sat)

    @property
    def entries(self) -> list[tuple]:
        """(request, unit, start, end, status, energy) per position; only a
        benchmark's request counter reads it, and ROADMAP item 12 deletes it."""
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
    positions: dict[str, tuple[int, ...]]  # model -> its positions
    dependents: dict[int, list[tuple[int, int]]]  # anchor -> (edge number, downstream)
    unresolved: list[int]  # anchored dependencies


def _anchors(
    pairs: Sequence[tuple[str, str]], positions: Mapping[str, Sequence[int]], frame_of: Sequence[int]
) -> Iterator[tuple[int, int, int]]:
    """The dependency rule: edge e, whose (downstream, upstream) models are
    `pairs[e]`, anchors each downstream request to the latest upstream request
    whose frame does not exceed its own, if there is one. Yields (e, downstream
    position, anchor position) by edge, then by downstream frame. `positions`
    lists each model's positions in frame order; `frame_of` is each one's frame."""
    for e, (downstream, upstream) in enumerate(pairs):
        ups = positions.get(upstream, ())
        up_frames = [frame_of[q] for q in ups]
        for p in positions.get(downstream, ()):
            k = bisect_right(up_frames, frame_of[p]) - 1
            if k >= 0:
                yield e, p, ups[k]


def _plan(stream: RequestStream, pairs: tuple[tuple[str, str], ...]) -> _Plan:
    """The stream's plan for the edges `pairs`, a (downstream model, upstream
    model) pair per edge in the scenario's entry order. Built on first use
    and kept in `stream.plans`, so later runs of the same stream, under
    scenarios whose edges differ only in trigger probability, share it."""
    plan = stream.plans.get(pairs)
    if plan is not None:
        return plan
    requests = stream.requests
    n = len(requests)
    model_of, frame_of, _, req_of, dl_of = map(list, zip(*requests)) if n else ([], [], [], [], [])
    # A model's positions come in request index and frame order (the stream's invariant).
    by_model: dict[str, list[int]] = {}
    for p, model in enumerate(model_of):
        by_model.setdefault(model, []).append(p)
    positions = {model: tuple(ps) for model, ps in by_model.items()}

    dependents: dict[int, list[tuple[int, int]]] = {}
    unresolved = [0] * n
    for e, p, q in _anchors(pairs, positions, frame_of):
        dependents.setdefault(q, []).append((e, p))
        unresolved[p] += 1
    plan = stream.plans[pairs] = _Plan(model_of, req_of, dl_of, positions, dependents, unresolved)
    return plan


def check_models(scenario: UsageScenario, models: Iterable[str], holder: str) -> None:
    """Raise ConfigError naming the first of `models` that `scenario` does not run."""
    allowed = {e.model for e in scenario.entries}
    for model in models:
        if model not in allowed:
            raise ConfigError(f"{holder} model {model!r}, which scenario {scenario.id!r} does not run")


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
    greedy = policy == LATENCY_GREEDY
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
    model_of, req_of, dl_of, positions, dependents, anchored = _plan(stream, pairs)
    unresolved = anchored.copy()  # anchored dependencies not yet fired true

    check_models(scenario, positions, "stream holds requests of")  # every pick below reads the scenario's models only

    completions: list[tuple[int, int, int]] = []  # (t_end_us, unit rank, position)
    free = list(range(len(units)))  # ranks of idle units, ascending
    latest: dict[str, int] = {}  # model -> its latest arrival, waiting while its status is None
    ready: dict[str, int] = {}  # the waiting requests with no unresolved dependency
    by_latency: list[list[tuple[str, tuple[str, ...]]] | None] = [None] * len(units)  # rank -> models by (latency, id)
    cursor = 0
    while True:
        if completions and (cursor == n or completions[0][0] <= req_of[cursor]):
            # Completions free their units (lowest rank first) and resolve gates.
            now = completions[0][0]
            while True:
                _, rank, p = heapq.heappop(completions)
                insort(free, rank)
                if p in dependents:
                    up_frame = requests[p].frame_index
                    for e, d in dependents[p]:
                        if status[d] is not None:
                            continue
                        if eval_control_gate(edges[e], up_frame, stream.seed):
                            unresolved[d] -= 1
                            if not unresolved[d] and d < cursor:  # arrived, so waiting
                                ready[model_of[d]] = d
                        else:  # d is not ready: this edge is one of its unresolved dependencies
                            status[d] = UNTRIGGERED
                if not completions or completions[0][0] != now:
                    break
        elif cursor < n:
            now = req_of[cursor]
        else:
            break

        # Arrivals at `now` supersede their model's waiting request (the drop rule).
        while cursor < n and req_of[cursor] == now:
            p = cursor
            cursor += 1
            model = model_of[p]
            prev = latest.get(model)
            if prev is not None and status[prev] is None:
                status[prev] = DROPPED
                ready.pop(model, None)
            latest[model] = p
            if status[p] is None and not unresolved[p]:
                ready[model] = p

        # Free units, lowest rank first, take the policy's pick of the ready set.
        while ready and free:
            rank = free.pop(0)
            if len(ready) == 1:
                model, p = ready.popitem()
            elif greedy:
                ranked = by_latency[rank]
                if ranked is None:  # each model with the later models of its latency, in id order
                    lats = sorted((lat_ms[m][rank], m) for m in lat_ms)
                    ranked = by_latency[rank] = [
                        (m, tuple(t for t_lat, t in lats[i + 1 :] if t_lat == lat)) for i, (lat, m) in enumerate(lats)
                    ]
                i = 0
                while ranked[i][0] not in ready:
                    i += 1
                model, ties = ranked[i]
                for m in ties:
                    if m in ready and dl_of[ready[m]] < dl_of[ready[model]]:
                        model = m
                p = ready.pop(model)
            else:
                model = min(ready, key=lambda m: (order[m] - last[rank] - 1) % len(order))
                p = ready.pop(model)
            if not greedy:
                last[rank] = order[model]
            status[p] = COMPLETED
            unit[p] = unit_ids[rank]
            t_start_us[p] = now
            t_end_us[p] = now + lat_us[model][rank]
            energy_mj[p] = energy[model][rank]
            heapq.heappush(completions, (t_end_us[p], rank, p))

    # Requests still waiting when the window closed have no user-visible result;
    # each is its model's latest arrival, since an arrival drops the one before it.
    for p in latest.values():
        if status[p] is None:
            status[p] = DROPPED
    return EventLog(
        scenario=scenario.id,
        requests=requests,
        unit=unit,
        t_start_us=t_start_us,
        t_end_us=t_end_us,
        status=status,
        energy_mj=energy_mj,
        positions=MappingProxyType(positions),
    )


def simulate_suite(
    scenarios: Sequence[UsageScenario], config: SuiteConfig, hw: HardwareSystem, costs: CostTable,
    duration: float, seed: int, policy: str = LATENCY_GREEDY,
) -> Iterator[tuple[UsageScenario, EventLog]]:
    """Generate and simulate each scenario in turn, yielding (scenario, log) in the order given, on one
    `arrivals` map: once a stream is built, each source that no later scenario samples leaves it (a model
    the catalog lacks fails in its own scenario). One stream, with its plan, and one log live at a time."""
    arrivals: dict = {}
    for i, scenario in enumerate(scenarios):
        stream = loadgen.generate_requests(scenario, config.sources, config.models, duration, seed, arrivals=arrivals)
        later_models = {e.model for s in scenarios[i + 1 :] for e in s.entries} & config.models.keys()
        sampled = {sid for m in later_models for sid in config.models[m].input_sources}
        for key in [key for key in arrivals if key[0].id not in sampled]:
            del arrivals[key]
        log = simulate(scenario, stream, hw, costs, policy=policy)
        del stream
        yield scenario, log
        del log


def validate_schedule(log: EventLog, scenario: UsageScenario) -> list[str]:
    """Check occupancy, dependency order, and arrival constraints on a log,
    reading its columns. Each dependency is anchored anew by `_anchors`, the
    dispatcher's rule, so a log from outside the program is checked against
    the scenario, not a plan."""
    requests, unit, t_start_us, t_end_us, status = log.requests, log.unit, log.t_start_us, log.t_end_us, log.status

    def name(p: int) -> str:
        return f"{requests[p].model}[{requests[p].request_index}]"

    done = [p for p, st in enumerate(status) if st == COMPLETED]
    violations = [f"{name(p)} started before its request time" for p in done if t_start_us[p] < requests[p].t_req_us]
    # Each unit's runs by (start, end, position): two stable sorts, the minor key first.
    per_unit: dict[str, list[int]] = {unit[p]: [] for p in done}  # units in the order of their first completed row
    for p in sorted(sorted(done, key=t_end_us.__getitem__), key=t_start_us.__getitem__):
        per_unit[unit[p]].append(p)
    for unit_id, ps in per_unit.items():
        for prev, cur in zip(ps, ps[1:]):
            if t_start_us[cur] < t_end_us[prev]:
                violations.append(f"occupancy violation on unit {unit_id}: {name(prev)} overlaps {name(cur)}")

    # The edges' models' positions by frame; a stable sort keeps request index order within a frame.
    frame_of = [r.frame_index for r in requests]
    edges = scenario.edges()
    pairs = [(edge.downstream, edge.upstream) for edge in edges]
    by_frame = {m: sorted(log.positions.get(m, ()), key=frame_of.__getitem__) for pair in pairs for m in pair}
    for e, p, q in _anchors(pairs, by_frame, frame_of):
        if status[p] != COMPLETED:
            continue
        if status[q] != COMPLETED:
            violations.append(f"dependency violation {edges[e].key}: {name(p)} ran without its upstream")
        elif t_start_us[p] < t_end_us[q]:
            violations.append(f"dependency violation {edges[e].key}: {name(p)} started before upstream ended")
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


_LOG_CSV_HEADER = ",".join(LOG_CSV_FIELDS) + "\r\n"


class _CsvFields(dict):
    """Each distinct id or status as a csv field: csv renders it once, in a row
    of its own with an empty second field, and the row's end is cut off. A None
    unit renders as an empty field."""

    def __missing__(self, key: str | None) -> str:
        buf = io.StringIO()
        csv.writer(buf).writerow((key, ""))
        text = self[key] = buf.getvalue().removesuffix(",\r\n")
        return text


def _csv_lines(log: EventLog) -> Iterator[str]:
    """The timeline's rows in stream order as text lines, formatted directly
    as csv.writer would write them: a float as its repr(), an int as its str()
    and None as an empty field, times in milliseconds, each line ending in
    CRLF. csv quotes each distinct model id, unit id and status once. A
    request time or deadline equal to the previous row's reuses its text, and
    a start equal to the request time takes the request time's text."""
    fields = _CsvFields()
    req_us = dl_us = None  # the previous row's request time and deadline, µs
    req = dl = ""  # and their text
    for (model, frame, index, t_req, t_dl), unit, t_start, t_end, status, energy in zip(
        log.requests, log.unit, log.t_start_us, log.t_end_us, log.status, log.energy_mj
    ):
        if t_req != req_us:
            req_us, req = t_req, repr(t_req / US_PER_MS)
        if t_dl != dl_us:
            dl_us, dl = t_dl, repr(t_dl / US_PER_MS)
        start = req if t_start == t_req else "" if t_start is None else repr(t_start / US_PER_MS)
        end = "" if t_end is None else repr(t_end / US_PER_MS)
        yield f"{fields[model]},{index},{frame},{fields[unit]},{req},{start},{end},{dl},{fields[status]},{energy!r}\r\n"


def log_to_csv(log: EventLog, fh) -> None:
    """One row per request in stream order, the same bytes csv.writer would
    write; the rows are formatted directly by `_csv_lines`, and csv quotes
    each distinct id once."""
    fh.write(_LOG_CSV_HEADER)
    fh.writelines(_csv_lines(log))


def log_from_csv(fh, scenario: str = "") -> EventLog:
    """Read a timeline written by `log_to_csv`, its columns in any order and
    blank lines skipped; a malformed one is a ConfigError naming its line.
    Statuses are this module's constants. Each distinct model id, unit id and
    energy text is parsed into one object, not one per row, and an index or
    start whose text equals the row's frame or request time takes that value."""
    reader = csv.reader(fh)
    requests, unit, t_start_us, t_end_us, status, energy_mj = [], [], [], [], [], []
    statuses = {s: s for s in (COMPLETED, DROPPED, UNTRIGGERED)}
    ids: dict[str, str] = {}
    energies: dict[str, float] = {}
    try:  # each check raises ValueError, like a field that is not a (finite) number
        header = next(reader, [])
        missing = [f for f in LOG_CSV_FIELDS if f not in header]
        if missing:
            raise ConfigError(f"timeline CSV lacks column(s) {', '.join(missing)}")
        pick = itemgetter(*(header.index(f) for f in LOG_CSV_FIELDS))
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
            # Equal texts parse alike or fail alike, so reusing a parsed value keeps the first error.
            frame = int(frame_index)
            index = frame if request_index == frame_index else int(request_index)
            req = round(float(t_req) * US_PER_MS)
            dl = round(float(t_dl) * US_PER_MS)
            start = req if t_start == t_req else round(float(t_start) * US_PER_MS) if t_start else None
            end = round(float(t_end) * US_PER_MS) if t_end else None
            if st == COMPLETED and not req <= start <= end:
                raise ValueError("a completed request needs t_req_ms <= t_start_ms <= t_end_ms")
            if index < 0:
                raise ValueError(f"request_index must be >= 0, not {index}")
            requests.append(tuple.__new__(InferenceRequest, (ids.setdefault(model, model), frame, index, req, dl)))
            unit.append(ids.setdefault(u, u) if u else None)
            t_start_us.append(start)
            t_end_us.append(end)
            status.append(statuses[st])
            if (e := energies.get(energy)) is None:
                e = energies[energy] = float(energy)
            energy_mj.append(e)
    except UnicodeDecodeError as exc:  # raised decoding a chunk ahead of the reader, so its line is unknown
        raise ConfigError(f"timeline CSV is not UTF-8 text: {exc}") from None
    except (ValueError, OverflowError, csv.Error) as exc:
        raise ConfigError(f"timeline CSV line {reader.line_num}: {exc}") from None

    # Each model has one row per request index 0..n-1. Once its positions are
    # sorted by request index, the first position i that holds another index
    # is the model's first fault: a repeat of i-1, or a gap at i.
    positions: dict[str, list[int]] = {}  # models in first-appearance order
    for p, r in enumerate(requests):
        positions.setdefault(r.model, []).append(p)
    request_index = [r.request_index for r in requests]
    for model, ps in positions.items():
        ps.sort(key=request_index.__getitem__)
        for i, p in enumerate(ps):
            index = request_index[p]
            if index < i:
                raise ConfigError(f"timeline CSV has more than one row for {model} request_index {index}")
            if index > i:
                raise ConfigError(f"timeline CSV has no row for {model} request_index {i}")
    return EventLog(
        scenario=scenario,
        requests=requests,
        unit=unit,
        t_start_us=t_start_us,
        t_end_us=t_end_us,
        status=status,
        energy_mj=energy_mj,
        positions=positions,
    )


def log_to_obj(log: EventLog, hardware: str, seed: int, duration: float) -> dict:
    """The JSON document of the log's per-model counts and its run's hardware id, seed and window."""
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": log.scenario,
        "hardware": hardware,
        "seed": seed,
        "duration_s": duration,
        "counts": {m: c._asdict() for m, c in sorted(log.counts.items())},
    }
