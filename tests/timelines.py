"""Hand-written timelines for tests: an EventLog built from rows, and the
rows read back from a log's columns."""

from __future__ import annotations

from typing import NamedTuple

from mmtsim.loadgen import InferenceRequest
from mmtsim.runtime import EventLog


class TimelineEntry(NamedTuple):
    """One request's row of a timeline."""

    request: InferenceRequest
    unit: str | None
    t_start_us: int | None
    t_end_us: int | None
    status: str
    energy_mj: float


def log_of(rows: list[TimelineEntry]) -> EventLog:
    """The log whose columns hold `rows`, each at its index in the list, and
    whose positions group them by model in ascending request index."""
    positions: dict[str, list[int]] = {}
    for p, row in enumerate(rows):
        positions.setdefault(row.request.model, []).append(p)
    for ps in positions.values():
        ps.sort(key=lambda p: rows[p].request.request_index)
    return EventLog(
        scenario="x",
        requests=[row.request for row in rows],
        unit=[row.unit for row in rows],
        t_start_us=[row.t_start_us for row in rows],
        t_end_us=[row.t_end_us for row in rows],
        status=[row.status for row in rows],
        energy_mj=[row.energy_mj for row in rows],
        positions=positions,
    )


def rows(log: EventLog, model: str | None = None) -> list[TimelineEntry]:
    """The log's rows: every request in stream order, or one model's in
    ascending request index."""
    positions = range(len(log.requests)) if model is None else log.positions.get(model, ())
    columns = (log.requests, log.unit, log.t_start_us, log.t_end_us, log.status, log.energy_mj)
    return [TimelineEntry(*(column[p] for column in columns)) for p in positions]
