"""Hand-written timelines for tests: an EventLog built from rows."""

from __future__ import annotations

from mmtsim.runtime import EventLog, TimelineEntry


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
