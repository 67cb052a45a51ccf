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
    """The log whose columns hold `rows`, each at its index in the list."""
    return EventLog(
        scenario="x",
        hardware="h",
        seed=0,
        duration=1.0,
        requests=[row.request for row in rows],
        unit=[row.unit for row in rows],
        t_start_us=[row.t_start_us for row in rows],
        t_end_us=[row.t_end_us for row in rows],
        status=[row.status for row in rows],
        energy_mj=[row.energy_mj for row in rows],
    )


def rows(log: EventLog, model: str | None = None) -> list[TimelineEntry]:
    """The log's rows: every request in stream order, or one model's in
    ascending request index."""
    positions = range(len(log.requests)) if model is None else log.positions.get(model, ())
    columns = (log.requests, log.unit, log.t_start_us, log.t_end_us, log.status, log.energy_mj)
    return [TimelineEntry(*(column[p] for column in columns)) for p in positions]
