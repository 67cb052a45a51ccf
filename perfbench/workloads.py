"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs in `setup` and runs one full pass in
`run_pass`. Only the work inside `meter.timed()` is timed (and traced); the
digests of the outputs and the output checks run between timed segments.
Output checks run on the first pass only: a later pass is checked by
comparing its digests and exact counts with the first pass's.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import shutil
import sys
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace

import fuzzgen

MODULES = ("workload", "loadgen", "costmodel", "runtime", "scoring", "cli")
SCORE_KEYS = frozenset(
    ("rt_mean", "en_mean", "acc_mean", "model_score", "qoe", "scenario_score", "arithmetic", "geometric")
)
COUNT_KEYS = ("n_total", "n_processed", "n_dropped", "n_untriggered")


def import_mmtsim() -> SimpleNamespace:
    """Import mmtsim afresh, so every set-up pays for the package's own import."""
    for name in [n for n in sys.modules if n == "mmtsim" or n.startswith("mmtsim.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"mmtsim.{m}") for m in MODULES})


@dataclass
class PassOutcome:
    requests: int = 0  # requests passed through runtime.simulate
    digests: dict[str, str] = field(default_factory=dict)  # job -> SHA-256 of its outputs
    counts: dict[str, Counter] = field(default_factory=dict)  # group -> exact simulated counts
    problems: dict[str, list[str]] | None = None  # job -> failed checks; first pass only
    segments: list[float] = field(default_factory=list)  # host seconds of each timed segment
    scaled: list[float] = field(default_factory=list)  # the same at reference speed (speed.py)

    @property
    def seconds(self) -> float:
        return sum(self.segments)

    @property
    def scaled_seconds(self) -> float:
        return sum(self.scaled)


def sha256(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def csv_text(runtime, log) -> str:
    buf = io.StringIO()
    runtime.log_to_csv(log, buf)
    return buf.getvalue()


def tally(logs) -> Counter:
    t = Counter()
    for log in logs:
        for c in log.counts.values():
            t["requests"] += c.n_total
            t["completed"] += c.n_processed
            t["dropped"] += c.n_dropped
            t["untriggered"] += c.n_untriggered
    return t


def score_problems(obj, where: str = "") -> list[str]:
    """Every score in a report object must lie in [0, 1]."""
    problems = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key in SCORE_KEYS and not (isinstance(value, float) and 0.0 <= value <= 1.0):
                problems.append(f"{where}{key} = {value!r} outside [0, 1]")
            elif isinstance(value, dict):
                problems += score_problems(value, f"{where}{key}.")
    return problems


def log_problems(runtime, log, scenario, stream) -> list[str]:
    """Schedule validity and count consistency of one simulated log."""
    problems = [f"{scenario.id}: {v}" for v in runtime.validate_schedule(log, scenario)]
    stream_len = Counter(r.model for r in stream.requests)
    if set(log.counts) != set(stream_len):
        problems.append(f"{scenario.id}: models {sorted(log.counts)} != stream models {sorted(stream_len)}")
    for model, c in log.counts.items():
        if c.n_processed + c.n_dropped + c.n_untriggered != c.n_total:
            problems.append(f"{scenario.id}/{model}: processed + dropped + untriggered != total")
        if c.n_total != stream_len[model]:
            problems.append(f"{scenario.id}/{model}: n_total {c.n_total} != stream length {stream_len[model]}")
    return problems


def report_counts(models_obj: dict) -> dict:
    return {m: tuple(rep[k] for k in COUNT_KEYS) for m, rep in models_obj.items()}


class SuiteCli:
    """`mmtsim run` on the built-in suite, then `mmtsim score` on every timeline."""

    hw = "preset:J"
    duration = 60.0
    ks = (1, 100)

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.out = workdir / "suite-cli"

    def setup(self, mm) -> None:
        self.mm = mm
        self.config = mm.workload.builtin_config()

    def run_pass(self, meter, check: bool) -> PassOutcome:
        cli, out = self.mm.cli, self.out
        shutil.rmtree(out, ignore_errors=True)
        ids = self.config.suite.scenario_ids
        with contextlib.redirect_stdout(io.StringIO()):
            with meter.timed():
                codes = [
                    cli.main(
                        ["run", "--hw", self.hw, "--synthetic", "--duration", repr(self.duration),
                         "--seed", str(self.seed), "--out", str(out)]
                    )
                ]
                emax = json.loads((out / "report.json").read_bytes())["run_config"]["scoring"]["e_max_mj"]
            for sid in ids:
                for k in self.ks:
                    with meter.timed():
                        codes.append(
                            cli.main(
                                ["score", "--scenario", sid, "--log", str(out / f"timeline_{sid}.csv"),
                                 "--emax", repr(emax), "--k", str(k), "--out", str(out / f"score_k{k}_{sid}")]
                            )
                        )

        def read(name: str) -> bytes:
            return (out / name).read_bytes()

        run_report = json.loads(read("report.json"))
        scen = run_report["scenarios"]
        outcome = PassOutcome()
        codes_text = ",".join(map(str, codes))
        outcome.digests["suite"] = sha256(codes_text, read("report.json"), read("summary.txt"))
        for sid in ids:
            outcome.digests[sid] = sha256(
                codes_text,
                read(f"timeline_{sid}.csv"),
                read(f"log_{sid}.json"),
                *(read(f"score_k{k}_{sid}/report.json") for k in self.ks),
            )
            outcome.counts[sid] = Counter()
            for n_total, completed, dropped, untriggered in report_counts(scen[sid]["models"]).values():
                outcome.counts[sid].update(
                    requests=n_total, completed=completed, dropped=dropped, untriggered=untriggered
                )
            outcome.requests += outcome.counts[sid]["requests"]
        if check:
            outcome.problems = self._check(run_report, codes)
        return outcome

    def _check(self, run_report: dict, codes: list[int]) -> dict[str, list[str]]:
        mm, cfg, out = self.mm, self.config, self.out
        failed_calls = [f"cli exit code {c}" for c in codes if c != 0]
        problems = {"suite": failed_calls + score_problems(run_report["overall"], "overall.")}
        for scenario in cfg.suite.scenarios:
            sid = scenario.id
            p = list(failed_calls)
            stream = mm.loadgen.generate_requests(scenario, cfg.sources, cfg.models, self.duration, self.seed)
            with open(out / f"timeline_{sid}.csv", encoding="utf-8", newline="") as fh:
                log = mm.runtime.log_from_csv(fh, scenario=sid)
            p += log_problems(mm.runtime, log, scenario, stream)
            section = run_report["scenarios"][sid]
            p += score_problems(section, f"{sid}.")
            run_counts = report_counts(section["models"])
            log_counts = {m: (c.n_total, c.n_processed, c.n_dropped, c.n_untriggered) for m, c in log.counts.items()}
            if log_counts != run_counts:
                p.append(f"{sid}: timeline counts differ from report.json")
            for k in self.ks:
                rescored = json.loads((out / f"score_k{k}_{sid}" / "report.json").read_text(encoding="utf-8"))
                p += score_problems(rescored, f"{sid} k={k}: ")
                if report_counts(rescored["scenarios"][sid]["models"]) != run_counts:
                    p.append(f"{sid}: counts re-scored at k={k} differ from the run's")
            problems[sid] = p
        return problems


class PresetSweep:
    """All presets A-M at a small PE budget on every built-in scenario."""

    presets = "ABCDEFGHIJKLM"
    total_pes = 96
    duration = 20.0
    k = 10.0

    def __init__(self, seed: int, workdir):
        self.seed = seed

    def setup(self, mm) -> None:
        self.mm = mm
        self.config = mm.workload.builtin_config()

    def run_pass(self, meter, check: bool) -> PassOutcome:
        mm, cfg = self.mm, self.config
        scenarios = cfg.suite.scenarios
        streams = {}
        for s in scenarios:
            with meter.timed():
                streams[s.id] = mm.loadgen.generate_requests(s, cfg.sources, cfg.models, self.duration, self.seed)
        outcome = PassOutcome(problems={} if check else None)
        for letter in self.presets:
            with meter.timed():
                hw = mm.costmodel.preset_system(letter, total_pes=self.total_pes)
                costs = mm.costmodel.synthetic_table(cfg.models, hw)
            logs = {}
            for s in scenarios:
                with meter.timed():
                    logs[s.id] = mm.runtime.simulate(s, streams[s.id], hw, costs)
            with meter.timed():
                report = mm.scoring.build_report(logs, cfg, mm.scoring.ScoringConfig(k=self.k, e_max_mj=costs.e_max_mj))
                obj = mm.scoring.report_to_obj(report)
            text = json.dumps(obj, indent=2)
            outcome.digests[letter] = sha256(text, *(csv_text(mm.runtime, log) for log in logs.values()))
            outcome.counts[letter] = tally(logs.values())
            outcome.requests += outcome.counts[letter]["requests"]
            if check:
                p = score_problems(obj)
                for s in scenarios:
                    p += log_problems(mm.runtime, logs[s.id], s, streams[s.id])
                outcome.problems[letter] = p
        return outcome


class FuzzPipelines:
    """Thousands of small random pipelines, each generated, simulated, scored and reported."""

    count = 2000
    block = 25  # setups per timed segment
    duration = 0.5

    def __init__(self, seed: int, workdir):
        self.seed = seed

    def setup(self, mm) -> None:
        self.mm = mm
        self.setups = fuzzgen.make_setups(mm, self.seed, self.count)

    def run_pass(self, meter, check: bool) -> PassOutcome:
        mm = self.mm
        outcome = PassOutcome(problems={} if check else None)
        totals = Counter()
        for first in range(0, len(self.setups), self.block):
            block = self.setups[first:first + self.block]
            with meter.timed():
                results = []
                for job in block:
                    stream = mm.loadgen.generate_requests(
                        job.scenario, job.config.sources, job.config.models, self.duration, job.seed
                    )
                    log = mm.runtime.simulate(job.scenario, stream, job.hw, job.costs, policy=job.policy)
                    report = mm.scoring.build_report({job.scenario.id: log}, job.config, job.scoring)
                    results.append((stream, log, mm.scoring.report_to_obj(report)))
            for job, (stream, log, obj) in zip(block, results):
                outcome.digests[job.scenario.id] = sha256(json.dumps(obj, indent=2), csv_text(mm.runtime, log))
                if check:
                    outcome.problems[job.scenario.id] = score_problems(obj) + log_problems(
                        mm.runtime, log, job.scenario, stream
                    )
            totals += tally(log for _, log, _ in results)
        outcome.counts["all"] = totals
        outcome.requests = totals["requests"]
        return outcome


WORKLOADS = {
    "suite-cli": SuiteCli,
    "preset-sweep": PresetSweep,
    "fuzz-pipelines": FuzzPipelines,
}
