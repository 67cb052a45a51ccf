"""Host speed probes: fixed pure-Python kernels timed next to every timed segment.

The benchmark runs on a virtual machine that shares its host. The same work
can take twice as long for a minute at a time, in user time as much as in
wall time, and the guest sees no steal time. A run that falls into such a
spell is slow however its passes are summarised.

So each timed segment is bracketed by two probes, and its host seconds are
rescaled to the host's reference speed: multiplied by the probe's
`reference_s` over the probe time next to it. A probe runs the kinds of
work the timed code does, so it slows with the host as that code does:

- `PASS`, for passes: object creation, a heap of tuples, dict updates and
  float arithmetic, touching a few KiB, like the simulator's dispatcher.
- `SETUP`, for set-ups: the same, plus compiling and executing a small
  module of dataclasses and functions, like importing mmtsim from source.

The kernels never call mmtsim: a change to the program moves only the
segment times, and so every rescaled time, by its full amount.
"""

from __future__ import annotations

import heapq
import random
import statistics
from time import perf_counter

REPEATS = 3  # kernel runs per probe; the probe is their median
ITERATIONS = 1000


class _Item:
    __slots__ = ("t", "key", "n")

    def __init__(self, t: float, key: str, n: int):
        self.t = t
        self.key = key
        self.n = n


def interpret() -> float:
    rng = random.Random(12345)
    heap, totals, acc = [], {}, 0.0
    for i in range(ITERATIONS):
        item = _Item(rng.random() * 1000.0, f"k{i % 97}", i)
        heapq.heappush(heap, (item.t, i, item))
        totals[item.key] = totals.get(item.key, 0.0) + item.t * 0.5
        if len(heap) > 64:
            t, _, old = heapq.heappop(heap)
            acc += t - old.n * 1e-3
    return acc + sum(totals.values())


def _module_source() -> str:
    parts = ["from dataclasses import dataclass\n"]
    for c in range(4):
        parts.append(f"@dataclass(frozen=True)\nclass Record{c}:\n")
        parts += [f"    f{f}: float = {f}.5\n" for f in range(6)]
        parts.append("    def total(self):\n        return " + " + ".join(f"self.f{f} * {f + 1}" for f in range(6)) + "\n")
    for n in range(6):
        parts.append(
            f"def fn{n}(xs, k={n}):\n    out = []\n    for i, x in enumerate(xs):\n"
            "        if x > k and i % 3:\n            out.append((x - k) / (i + 1))\n"
            "        else:\n            out.append({'k': k, 'x': x}.get('x', 0.0))\n    return sorted(out)\n"
        )
    return "".join(parts)


_MODULE = _module_source()


def compile_module() -> dict:
    namespace: dict = {}
    exec(compile(_MODULE, "<speed probe>", "exec"), namespace)
    return namespace


class Probe:
    """Times its kernels; `reference_s` is the probe time that defines the
    reference speed, about its median on the 2-vCPU Xeon VM (Python 3.11)
    this benchmark was built on, in a quiet spell. Rescaled times are host
    seconds on a host that fast."""

    def __init__(self, kernels, reference_s: float):
        self.kernels = kernels
        self.reference_s = reference_s

    def __call__(self) -> float:
        """Host seconds of one run of the kernels now: the median of REPEATS runs."""
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            for kernel in self.kernels:
                kernel()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    def rescale(self, seconds: float, before: float, after: float) -> float:
        """`seconds` measured between probe times `before` and `after`, at reference speed."""
        return seconds * self.reference_s * 2.0 / (before + after)


PASS = Probe((interpret,), 0.0014)
SETUP = Probe((interpret, compile_module), 0.0062)
