"""Seeded random small pipelines for the `fuzz-pipelines` workload.

Only public constructors are used, and no optional field that the simulator
ignores is set (edge kinds, unit bandwidth and shared memory keep their
defaults), so removing those fields from mmtsim cannot break the benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

STREAMING_RATES = (30.0, 60.0, 90.0)
TARGET_RATES = (3.0, 5.0, 10.0, 15.0, 30.0, 45.0, 60.0)
TRIGGER_PROBABILITIES = (0.0, 0.3, 0.7, 1.0)
EDGE_PROBABILITY = 0.3
E_MAX_MJ = 50.0
SCORING_K = 10.0


@dataclass(frozen=True)
class FuzzSetup:
    """One self-contained job: a scenario with its inputs, hardware, costs and policy."""

    scenario: object
    config: object  # SuiteConfig holding the scenario's sources and models
    hw: object
    costs: object
    scoring: object
    policy: str
    seed: int


def random_setup(mm, rng: random.Random, index: int) -> FuzzSetup:
    w, c = mm.workload, mm.costmodel
    sources = {}
    for i in range(rng.randint(1, 3)):
        sid = f"src{i}"
        sources[sid] = w.InputSource(
            id=sid,
            streaming_rate=rng.choice(STREAMING_RATES),
            init_latency=rng.choice((0.0, 0.0, 2.0)),
            max_jitter=rng.choice((0.0, 0.05, 0.5)),
        )

    ids = [f"m{i}" for i in range(rng.randint(1, 5))]
    models = {}
    entries = []
    for i, mid in enumerate(ids):
        src = rng.choice(list(sources.values()))
        models[mid] = w.UnitModel(id=mid, task_tag="fuzz", input_sources=(src.id,))
        rate = rng.choice([r for r in TARGET_RATES if r <= src.streaming_rate])
        # Edges point backwards in id order, so the graph stays acyclic.
        deps = tuple(
            w.DependencyEdge(
                upstream=up,
                downstream=mid,
                trigger_probability=rng.choice(TRIGGER_PROBABILITIES),
            )
            for up in ids[:i]
            if rng.random() < EDGE_PROBABILITY
        )
        entries.append(w.ScenarioEntry(model=mid, target_rate=rate, dependencies=deps))
    scenario = w.UsageScenario(id=f"fuzz-{index}", entries=tuple(entries))
    config = w.SuiteConfig(sources=sources, models=models, suite=w.BenchmarkSuite(scenarios=(scenario,)))

    units = tuple(
        c.HardwareUnit(id=f"u{i}", dataflow=rng.choice(("WS", "OS", "RS")), pe_count=rng.choice((1024, 4096)))
        for i in range(rng.randint(1, 3))
    )
    hw = c.HardwareSystem(id=f"fuzz-hw-{index}", style=c.FDA if len(units) == 1 else c.SFDA, units=units)
    costs = c.CostTable(
        [
            c.CostEntry(
                model=mid,
                unit=u.id,
                latency_ms=rng.uniform(0.05, 40.0),
                energy_mj=rng.uniform(0.0, E_MAX_MJ),
            )
            for mid in ids
            for u in units
        ],
        e_max_mj=E_MAX_MJ,
    )
    return FuzzSetup(
        scenario=scenario,
        config=config,
        hw=hw,
        costs=costs,
        scoring=mm.scoring.ScoringConfig(k=SCORING_K, e_max_mj=E_MAX_MJ),
        policy=rng.choice((mm.runtime.LATENCY_GREEDY, mm.runtime.ROUND_ROBIN)),
        seed=rng.randrange(1 << 31),
    )


def make_setups(mm, seed: int, count: int) -> list[FuzzSetup]:
    rng = random.Random(seed)
    return [random_setup(mm, rng, i) for i in range(count)]
