"""Compare two checkouts of mmtsim on one perfbench workload, in alternating pairs.

Usage (from the repository root, with the parent commit checked out in ../parent):

    python3 tools/bench_pairs.py --parent ../parent --workload suite-cli --pairs 10

Pair i (from 1) runs `perfbench/run.py --workload W --seed S --seconds N
--trace 0` once in each checkout, at the same seed S = --seed + i - 1 and
`BENCHMARK.json`'s run length N: the parent first on odd pairs and the
change first on even pairs, so a drift in host speed does not favour either
side. It takes at least 10 pairs. Only one run is ever in flight.
Every run starts without mmtsim's bytecode cache, as `bench_record.py`'s
runs do: a checkout whose `src/` or `perfbench/` holds a `__pycache__`
directory is refused, and each run has `PYTHONDONTWRITEBYTECODE=1`.

For each end-to-end metric of `BENCHMARK.json`, it prints the medians and
interquartile ranges of both sides, the change in the median, the median of
the per-pair relative differences (change/parent - 1), which follows the
pairs where the two sides' medians may pick different seeds, how many
pairs the change won, whether the medians differ by more than the
parent's interquartile range, whether a gain holds, and whether the change's
median is worse than the parent's by more than the metric's relative `bound`.
A gain holds when the change won at least nine tenths of the pairs and its
median is better than the parent's by more than the parent's interquartile
range: the rule a claimed gain must meet. It exits with code
1 if any run was not correct or failed an operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import bench_record

SIDES = ("parent", "change")
MIN_PAIRS = 10  # the fewest pairs that can back a claimed gain
GAIN_WINS = 0.9  # the share of the pairs a claimed gain must win


def pair_order(i: int) -> tuple[str, str]:
    """The order of the two runs of pair i, counted from 1."""
    return SIDES if i % 2 else SIDES[::-1]


def read_metrics(root: Path) -> dict[str, tuple[str, float]]:
    """Each end-to-end metric's name, better direction and relative bound, from BENCHMARK.json."""
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}


def compare(values: dict[str, list[float]], better: str, bound: float) -> dict:
    """Medians, interquartile ranges, the median per-pair relative difference
    and the change's wins over the pairs of one metric, whether a gain holds,
    and whether its median is worse than the parent's by more than `bound`."""
    parent, change = values["parent"], values["change"]
    stats = {}
    for side in SIDES:
        q1, median, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
        stats[side] = {"median": median, "iqr": q3 - q1}
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    gap = stats["change"]["median"] - stats["parent"]["median"]
    relative = gap / stats["parent"]["median"]
    beyond_parent_iqr = abs(gap) > stats["parent"]["iqr"]
    better_median = gap < 0 if better == "lower" else gap > 0
    return {
        **stats,
        "relative": relative,
        "paired": statistics.median(c / p - 1 for p, c in zip(parent, change)),
        "wins": wins,
        "beyond_parent_iqr": beyond_parent_iqr,
        "gain_holds": wins >= GAIN_WINS * len(parent) and beyond_parent_iqr and better_median,
        "beyond_bound": (relative if better == "lower" else -relative) > bound,
    }


def report_line(workload: str, name: str, unit: str, better: str, bound: float, c: dict, pairs: int) -> str:
    p, ch = c["parent"], c["change"]
    beyond = "more" if c["beyond_parent_iqr"] else "no more"
    return (
        f"{workload} {name} ({unit}, {better} is better): parent {p['median']:.6g} [IQR {p['iqr']:.3g}]"
        f" -> change {ch['median']:.6g} [IQR {ch['iqr']:.3g}], {c['relative']:+.1%};"
        f" the median of the per-pair changes (change/parent - 1) is {c['paired']:+.1%};"
        f" the change won {c['wins']} of {pairs}; the medians differ by {beyond} than the parent's IQR;"
        f" a gain holds (won at least {GAIN_WINS:.0%} of the pairs, median better by more than the parent's IQR):"
        f" {'yes' if c['gain_holds'] else 'no'};"
        f" worse than the parent by more than the {bound:.0%} bound: {'yes' if c['beyond_bound'] else 'no'}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=bench_record.ROOT, help="checkout of the change (this one)")
    parser.add_argument("--workload", choices=bench_record.WORKLOADS, required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1, help="the seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in roots.items():
        refusal = f"refusing the {side} checkout {root}, whose bytecode caches would lower setup_s"
        if bench_record.refuse_cached(root, refusal):
            return 2

    metrics = read_metrics(roots["change"])
    values = {name: {side: [] for side in SIDES} for name in metrics}
    units: dict[str, str] = {}
    ok = True
    for i in range(1, args.pairs + 1):
        seed = args.seed + i - 1
        for side in pair_order(i):
            stdout = bench_record.run_perfbench(args.workload, seed, 0, root=roots[side])
            result = bench_record.result_of(stdout)
            ok = ok and result["correct"] and result["failed"] == 0
            for name in metrics:
                values[name][side].append(result["metrics"][name]["value"])
                units[name] = result["metrics"][name]["unit"]
        shown = ", ".join(f"{n} {values[n]['parent'][-1]:.6g}/{values[n]['change'][-1]:.6g}" for n in metrics)
        print(f"pair {i} seed {seed}, {pair_order(i)[0]} first, parent/change: {shown}", file=sys.stderr)

    for name, (better, bound) in metrics.items():
        c = compare(values[name], better, bound)
        print(report_line(args.workload, name, units[name], better, bound, c, args.pairs))
    print(f"{args.workload}: every run correct with no failed operation: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
