"""mmtsim benchmark: host time of the simulator on three fixed workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite-cli --seed 1 --seconds 20 --trace 0

Runs in one process and one thread against the mmtsim sources under `src/`.
Passes repeat until `--seconds` host seconds have gone by since the first
began (at least MIN_PASSES); set-up (import, config and input construction)
is timed SETUP_REPS times. Every timed segment and set-up is rescaled to the
host's reference speed by the probes of `speed.py` around it, and the
end-to-end times are medians of the rescaled times. With `--trace 1`,
untraced and traced passes alternate, and the per-layer metrics are printed
and written with every span to `perfbench/out/`. The last stdout line is the
JSON result; the lines before it print every metric with its unit and sample
count, the output digest, the exact simulated counts and each pass's time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import speed
import tracing
from workloads import WORKLOADS, import_mmtsim, sha256

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPS = 9
MIN_PASSES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="host seconds of passes per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_up(wl, times: list) -> None:
    """Import mmtsim afresh and build the workload's inputs, timed at reference speed.

    The previous set-up's garbage is collected first, so that each set-up
    starts from the same heap and pays for no other work's cycles."""
    gc.collect()
    before = speed.SETUP()
    t0 = perf_counter()
    wl.setup(import_mmtsim())
    times.append(speed.SETUP.rescale(perf_counter() - t0, before, speed.SETUP()))


def measure(wl, seconds: float, tracer=None) -> tuple[list, list, list]:
    """(set-up times, untraced passes, traced passes).

    Passes run until `seconds` host seconds have gone by since the first
    began, at least MIN_PASSES of each kind. SETUP_REPS set-ups are timed,
    one before the first pass and one after each pass until there are
    enough, so they sample a stretch of the run rather than one moment of
    the shared host. With a tracer, untraced and traced passes alternate, so
    a drift in host speed does not bias the tracing overhead; the wrappers
    are installed only for traced passes.
    """
    setup_s, untraced, traced = [], [], []
    set_up(wl, setup_s)
    start = perf_counter()
    while (
        len(untraced) < MIN_PASSES
        or (tracer is not None and len(traced) < MIN_PASSES)
        or perf_counter() - start < seconds
    ):
        check = not untraced
        if tracer is None or len(traced) >= len(untraced):
            untraced.append(run_pass(wl, check))
        else:
            tracer.install(wl.mm)
            try:
                traced.append(run_pass(wl, check, tracer))
            finally:
                tracer.uninstall()
        if len(setup_s) < SETUP_REPS:
            set_up(wl, setup_s)
    while len(setup_s) < SETUP_REPS:
        set_up(wl, setup_s)
    return setup_s, untraced, traced


def run_pass(wl, check: bool, tracer=None):
    meter = tracing.Meter(tracer)
    outcome = wl.run_pass(meter, check)
    outcome.segments = meter.segments
    outcome.scaled = meter.scaled
    return outcome


def median_pass_s(passes: list) -> float:
    """Host seconds of one pass at reference speed: each timed segment's
    median over `passes`, summed. A segment that the probes around it
    rescale badly (the host changed speed in the middle of it) moves one
    segment's samples, not the median of the whole pass."""
    return sum(statistics.median(times) for times in zip(*(p.scaled for p in passes)))


def failures(passes: list, first) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): a job fails when the first pass's checks
    flagged it, or when its digest or the pass's counts differ from the first pass."""
    attempted = failed = 0
    problems = [f"{job}: {p}" for job, ps in first.problems.items() for p in ps]
    for i, outcome in enumerate(passes):
        same_counts = outcome.counts == first.counts
        if not same_counts:
            problems.append(f"pass {i}: simulated counts differ from the first pass")
        for job, digest in outcome.digests.items():
            attempted += 1
            same_digest = digest == first.digests.get(job)
            if not same_digest:
                problems.append(f"pass {i}: {job}: output digest differs from the first pass")
            if first.problems.get(job) or not (same_digest and same_counts):
                failed += 1
    return attempted, failed, problems


def print_metric(name: str, value, unit: str, samples) -> None:
    print(f"metric {name} = {value!r} {unit} (n={samples})")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mmtsim" / "__init__.py").is_file():
        print(f"error: mmtsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (expected one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        tracer = tracing.Tracer() if args.trace else None
        setup_s, untraced, traced = measure(wl, args.seconds, tracer)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = untraced[0]
    attempted, failed, problems = failures(untraced + traced, first)
    pass_s = [p.scaled_seconds for p in untraced]
    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"python={platform.python_version()} nproc={os.cpu_count()} processes=1 threads=1"
    )
    outputs = sha256(*(f"{job}={digest}" for job, digest in first.digests.items()))
    print(f"outputs sha256={outputs} jobs={len(first.digests)} passes={len(untraced) + len(traced)}")
    print(
        "pass_s host=" + ",".join(f"{p.seconds:.3f}" for p in untraced)
        + " at_reference_speed=" + ",".join(f"{s:.3f}" for s in pass_s)
        + (" traced_host=" + ",".join(f"{p.seconds:.3f}" for p in traced) if traced else "")
    )
    print("setup_s samples=" + ",".join(f"{t:.4f}" for t in setup_s))
    for group, counts in first.counts.items():
        print(f"counts {group}: " + " ".join(f"{k}={counts[k]}" for k in ("requests", "completed", "dropped", "untriggered")))
    for line in problems[:20]:
        print(f"FAILED {line}")
    wall_s = median_pass_s(untraced)
    end_to_end = [
        ("wall_s", wall_s, "s", len(pass_s)),
        ("req_per_s", first.requests / wall_s, "1/s", len(pass_s)),
        ("peak_rss_mib", peak_rss_mib, "MiB", 1),
        ("setup_s", statistics.median(setup_s), "s", len(setup_s)),
    ]
    for m in end_to_end:
        print_metric(*m)
    print_metric("fail_ratio", failed / attempted, "1", attempted)
    reported = end_to_end
    if args.trace:
        overhead = median_pass_s(traced) / wall_s - 1.0
        layers = tracing.layer_metrics(tracer, [p.seconds for p in traced], overhead)
        for m in layers:
            print_metric(*m)
        trace_file = OUT / f"trace_{args.workload}_seed{args.seed}.json"
        write_trace(trace_file, tracer, layers)
        print(f"trace written to {trace_file.relative_to(HERE.parent)}")
        reported = layers
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in reported},
    }
    print(json.dumps(result))
    return 0


def write_trace(path: Path, tracer, layers: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "span_fields": ["name", "start_s", "end_s", "parent", "pass"],
        "spans": tracer.spans,
        "layers": {name: {"value": value, "unit": unit, "samples": n} for name, value, unit, n in layers},
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
