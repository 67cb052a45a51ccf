"""Host-time spans around calls into mmtsim's public functions.

Wrappers live here, not in mmtsim: `Tracer.install` rebinds each traced
function on the module where its caller looks it up (`cli` reaches
`loadgen.generate_requests`, `runtime.simulate` and the rest through module
attributes, `build_report` calls `model_report` as a `scoring` global and
`generate_requests` calls `validate_scenario` through `loadgen`'s own
binding). A wrapper records a span only inside a timed segment of a pass, so
the benchmark's own digests and output checks stay out of the trace. No span
goes inside the dispatcher.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import speed

# (module, attribute, span name). The span name's first part is its layer.
TRACED = (
    ("workload", "validate_scenario", "workload.validate_scenario"),
    ("loadgen", "validate_scenario", "workload.validate_scenario"),
    ("loadgen", "generate_requests", "loadgen.generate_requests"),
    ("costmodel", "preset_system", "costmodel.preset_system"),
    ("costmodel", "synthetic_table", "costmodel.synthetic_table"),
    ("runtime", "simulate", "runtime.simulate"),
    ("runtime", "log_to_csv", "runtime.log_to_csv"),
    ("runtime", "log_from_csv", "runtime.log_from_csv"),
    ("scoring", "build_report", "scoring.build_report"),
    ("scoring", "model_report", "scoring.model_report"),
    ("scoring", "report_to_obj", "scoring.report_to_obj"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_run", "cli.cmd_run"),
    ("cli", "cmd_score", "cli.cmd_score"),
)

# The package's modules, plus `bench`: the benchmark's own code inside a
# timed segment (loops, stdout redirection, reading report.json, JSON text).
LAYERS = ("workload", "loadgen", "costmodel", "runtime", "scoring", "cli", "bench")
ROOT = "bench"


def _simulate_counts(args, log) -> dict:
    counts = log.counts.values()
    return {
        "runtime.requests": len(log.entries),
        "runtime.completed": sum(c.n_processed for c in counts),
        "runtime.dropped": sum(c.n_dropped for c in counts),
        "runtime.untriggered": sum(c.n_untriggered for c in counts),
    }


# Work done by one call, counted at the layer boundary from its arguments
# and result. `log_to_csv` is handed a fresh buffer, so its position after
# the call is the number of characters (all ASCII) it wrote.
COUNTERS = {
    "loadgen.generate_requests": lambda args, stream: {"loadgen.requests": len(stream.requests)},
    "runtime.simulate": _simulate_counts,
    "runtime.log_to_csv": lambda args, _: {"runtime.log_to_csv.bytes": args[1].tell()},
    "runtime.log_from_csv": lambda args, log: {"runtime.log_from_csv.rows": len(log.entries)},
    "scoring.model_report": lambda args, rep: {"scoring.inferences": rep.n_processed},
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent, pass]; parent -1 is a root."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[Counter] = []  # per pass
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self, mm) -> None:
        for module_name, attr, name in TRACED:
            module = getattr(mm, module_name)
            fn = getattr(module, attr)
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def begin_pass(self) -> None:
        self.counts.append(Counter())

    def _wrap(self, fn, name):
        count = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, stack[-1], len(self.counts) - 1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                self.counts[-1].update(count(args, result))
            return result

        return traced

    def open_root(self, start: float) -> list:
        span = [ROOT, start, 0.0, -1, len(self.counts) - 1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close_root(self, span: list, end: float) -> None:
        span[2] = end
        self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


class Meter:
    """Host seconds of each timed segment of one pass, as measured and rescaled
    to reference speed by the speed probes around it; each segment is a root
    span when traced. The probes stay outside the span."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.segments: list[float] = []
        self.scaled: list[float] = []
        if tracer is not None:
            tracer.begin_pass()

    @contextmanager
    def timed(self):
        before = speed.PASS()
        t0 = perf_counter()
        span = self.tracer.open_root(t0) if self.tracer is not None else None
        try:
            yield
        finally:
            t1 = perf_counter()
            if span is not None:
                self.tracer.close_root(span, t1)
            self.segments.append(t1 - t0)
            self.scaled.append(speed.PASS.rescale(t1 - t0, before, speed.PASS()))


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


def tail(durations: list[float]) -> tuple[float, float, float]:
    """(p50, tail value, tail percentile): the tail is the highest of
    TAIL_PERCENTILES with at least ten samples beyond it (nearest rank),
    falling back to p50 for fewer than twenty samples."""
    d = sorted(durations)
    n = len(d)

    def rank(p: float) -> int:
        return max(1, math.ceil(p / 100.0 * n))

    p50 = d[rank(50.0) - 1]
    for p in TAIL_PERCENTILES:
        if n - rank(p) >= 10:
            return p50, d[rank(p) - 1], p
    return p50, p50, 50.0


def layer_metrics(tracer: Tracer, traced_pass_s: list[float], overhead_ratio: float) -> list[tuple]:
    """The per-layer metrics as (name, value, unit, samples).

    Times are host seconds per traced pass (mean over the traced passes);
    counts are per pass and must repeat exactly, so they are read off the
    first traced pass. Shares divide by `trace.wall_s`, the mean traced pass.
    """
    n = len(traced_pass_s)
    own = tracer.self_times()
    self_by_name: Counter = Counter()
    calls_first: Counter = Counter()
    sim_durations = []
    for (name, start, end, _, pass_no), s in zip(tracer.spans, own):
        self_by_name[name] += s
        if pass_no == 0:
            calls_first[name] += 1
        if name == "runtime.simulate":
            sim_durations.append(end - start)
    self_by_layer: Counter = Counter()
    for name, s in self_by_name.items():
        self_by_layer[name.split(".")[0]] += s
    counts = tracer.counts[0]
    totals: Counter = sum(tracer.counts, Counter())
    wall = sum(traced_pass_s) / n
    p50, tail_value, tail_pct = tail(sim_durations)

    def per_pass(name):
        return self_by_name[name] / n

    def per_unit(name, counter):
        return self_by_name[name] / totals[counter] * 1e6 if totals[counter] else 0.0

    requests = counts["runtime.requests"]
    out = [
        ("trace.wall_s", wall, "s", n),
        ("trace.passes", n, "count", n),
        ("trace.overhead_ratio", overhead_ratio, "1", n),
        ("trace.layer_sum_ratio", (sum(self_by_layer.values()) - self_by_layer[ROOT]) / n / wall, "1", n),
    ]
    for layer in LAYERS:
        out.append((f"{layer}.self_s", self_by_layer[layer] / n, "s", n))
        out.append((f"{layer}.share", self_by_layer[layer] / n / wall, "1", n))
    out += [
        ("workload.validate_scenario.self_s", per_pass("workload.validate_scenario"), "s", n),
        ("workload.validate_scenario.calls", calls_first["workload.validate_scenario"], "count", 1),
        ("loadgen.generate_requests.self_s", per_pass("loadgen.generate_requests"), "s", n),
        ("loadgen.generate_requests.calls", calls_first["loadgen.generate_requests"], "count", 1),
        ("loadgen.requests", counts["loadgen.requests"], "count", 1),
        ("loadgen.us_per_req", per_unit("loadgen.generate_requests", "loadgen.requests"), "us", n),
        ("runtime.simulate.self_s", per_pass("runtime.simulate"), "s", n),
        ("runtime.simulate.calls", calls_first["runtime.simulate"], "count", 1),
        ("runtime.simulate.us_per_req", per_unit("runtime.simulate", "runtime.requests"), "us", n),
        ("runtime.simulate.call_p50_ms", p50 * 1e3, "ms", len(sim_durations)),
        ("runtime.simulate.call_tail_ms", tail_value * 1e3, "ms", len(sim_durations)),
        ("runtime.simulate.call_tail_pct", tail_pct, "%", len(sim_durations)),
        ("runtime.requests", requests, "count", 1),
        ("runtime.completed", counts["runtime.completed"], "count", 1),
        ("runtime.dropped", counts["runtime.dropped"], "count", 1),
        ("runtime.untriggered", counts["runtime.untriggered"], "count", 1),
        ("runtime.completed_ratio", counts["runtime.completed"] / requests if requests else 0.0, "1", 1),
        ("runtime.log_to_csv.self_s", per_pass("runtime.log_to_csv"), "s", n),
        ("runtime.log_to_csv.mib", counts["runtime.log_to_csv.bytes"] / 2**20, "MiB", 1),
        ("runtime.log_from_csv.self_s", per_pass("runtime.log_from_csv"), "s", n),
        ("runtime.log_from_csv.rows", counts["runtime.log_from_csv.rows"], "count", 1),
        ("scoring.build_report.self_s", per_pass("scoring.build_report"), "s", n),
        ("scoring.model_report.self_s", per_pass("scoring.model_report"), "s", n),
        ("scoring.report_to_obj.self_s", per_pass("scoring.report_to_obj"), "s", n),
        ("scoring.inferences", counts["scoring.inferences"], "count", 1),
        ("scoring.us_per_inference", self_by_layer["scoring"] / totals["scoring.inferences"] * 1e6
         if totals["scoring.inferences"] else 0.0, "us", n),
        ("costmodel.preset_system.self_s", per_pass("costmodel.preset_system"), "s", n),
        ("costmodel.synthetic_table.self_s", per_pass("costmodel.synthetic_table"), "s", n),
        ("cli.main.self_s", per_pass("cli.main"), "s", n),
        ("cli.cmd_run.self_s", per_pass("cli.cmd_run"), "s", n),
        ("cli.cmd_score.self_s", per_pass("cli.cmd_score"), "s", n),
    ]
    return out
