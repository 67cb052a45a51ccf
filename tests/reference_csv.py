"""The reference timeline writer: each row's times divided and formatted on
their own, with no text reused from another row. `mmtsim.runtime.log_to_csv`
must write the same bytes."""

from __future__ import annotations

import csv

from mmtsim.loadgen import US_PER_MS
from mmtsim.runtime import LOG_CSV_FIELDS, EventLog


def _ms(t_us: int | None) -> float | None:
    return None if t_us is None else t_us / US_PER_MS


def log_to_csv(log: EventLog, fh) -> None:
    """One row per request in stream order; csv writes a float as its repr()
    and None as an empty field."""
    writer = csv.writer(fh)
    writer.writerow(LOG_CSV_FIELDS)
    writer.writerows(
        (r.model, r.request_index, r.frame_index, unit, r.t_req_us / US_PER_MS, _ms(t_start), _ms(t_end),
         r.t_dl_us / US_PER_MS, status, energy)
        for r, unit, t_start, t_end, status, energy in zip(
            log.requests, log.unit, log.t_start_us, log.t_end_us, log.status, log.energy_mj
        )
    )
