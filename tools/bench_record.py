"""Record one point of mmtsim's benchmark trajectory as BENCH_<pr>.json.

Usage (from the repository root):

    python3 tools/bench_record.py --pr 9

For each workload that `BENCHMARK.json` names, this runs `perfbench/run.py`
in a subprocess, one run at a time, each for that file's `run_seconds` (25):
untraced once for each seed in SEEDS, then once traced at seed 7. The
seed-7 untraced run gives the output digest, which CI pins at that seed.
Every run starts without mmtsim's bytecode cache: the collector refuses a
checkout whose `src/` or `perfbench/` holds a `__pycache__` directory, and
runs with `PYTHONDONTWRITEBYTECODE=1` and no `PYTHONPYCACHEPREFIX`, so each
run compiles mmtsim and perfbench from source and writes no cache, while
the standard library loads from its own caches.
So neither `setup_s` nor `peak_rss_mib` depends on what the checkout or an
earlier run left. It writes `BENCH_<pr>.json` at the repository root with,
per workload:

- the median and interquartile range of each end-to-end metric over the
  untraced runs, with the values of every run;
- the per-layer metrics of the traced run;
- the seed-7 `outputs sha256` and `counts` lines;
- whether every run was correct, and the number of failed operations.

It also records the Python version, `nproc` and the git commit. It exits
with code 1, after writing the file, if any run was not correct. The whole
recording takes about 10 minutes on 2 CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
SECONDS = BENCHMARK["run_seconds"]
SEEDS = (7, 8, 9, 10, 11)
DIGEST_SEED = 7
NO_BYTECODE_CACHE = {"PYTHONDONTWRITEBYTECODE": "1"}
CACHE_FREE = ("src", "perfbench")  # directories that must hold no __pycache__


def refuse_cached(root: Path, refusal: str) -> bool:
    """Whether the checkout `root` holds a `__pycache__` directory under its
    CACHE_FREE directories; if so, print `refusal` and the caches to remove."""
    caches = sorted(p for d in CACHE_FREE for p in (root / d).rglob("__pycache__"))
    if caches:
        names = ", ".join(str(p.relative_to(root)) for p in caches)
        print(f"{refusal}: remove {names}", file=sys.stderr)
    return bool(caches)


def run_perfbench(workload: str, seed: int, trace: int, root: Path | None = None) -> str:
    """The standard output of one perfbench run in the checkout `root` (this
    one by default); a failed run raises."""
    root = ROOT if root is None else root
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(SECONDS), "--trace", str(trace)]
    env = dict(os.environ, **NO_BYTECODE_CACHE)
    env.pop("PYTHONPYCACHEPREFIX", None)  # a prefix could hold mmtsim's cache, and hides the standard library's
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, env=env)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout


def result_of(stdout: str) -> dict:
    """The JSON result on the last line of a perfbench run."""
    return json.loads(stdout.rstrip("\n").rsplit("\n", 1)[-1])


def digest_lines(stdout: str) -> list[str]:
    """The `outputs sha256` and `counts` lines of a perfbench run."""
    return [line for line in stdout.splitlines() if line.startswith(("outputs sha256=", "counts "))]


def summarize(results: list[dict]) -> dict:
    """Median, interquartile range and per-run values of each metric."""
    summary = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        summary[name] = {"median": median, "iqr": q3 - q1, "unit": first["unit"], "values": values}
    return summary


def record_workload(workload: str) -> dict:
    results, digest = [], []
    for seed in SEEDS:
        stdout = run_perfbench(workload, seed, trace=0)
        results.append(result_of(stdout))
        if seed == DIGEST_SEED:
            digest = digest_lines(stdout)
        print(f"{workload} seed {seed}: wall_s {results[-1]['metrics']['wall_s']['value']:.3f}", file=sys.stderr)
    traced = result_of(run_perfbench(workload, DIGEST_SEED, trace=1))
    print(f"{workload} traced", file=sys.stderr)
    runs = results + [traced]
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "end_to_end": summarize(results),
        "per_layer": traced["metrics"],
        "seed7": digest,
    }


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name BENCH_<pr>.json")
    args = parser.parse_args(argv)
    if refuse_cached(ROOT, "refusing a checkout with bytecode caches, which would lower setup_s"):
        return 2
    doc = {
        "pr": args.pr,
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "settings": {
            "seconds": SECONDS,
            "seeds": list(SEEDS),
            "traced_seed": DIGEST_SEED,
            "env": NO_BYTECODE_CACHE,
            "no_pycache_in": list(CACHE_FREE),
        },
        "workloads": {w: record_workload(w) for w in WORKLOADS},
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}", file=sys.stderr)
    return 0 if all(w["correct"] for w in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
