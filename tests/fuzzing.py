"""Seeded random (scenario, hardware, cost) configurations for fuzz tests."""

from __future__ import annotations

import random
from dataclasses import replace

from mmtsim import (
    CostEntry,
    CostTable,
    DependencyEdge,
    HardwareSystem,
    HardwareUnit,
    InputSource,
    ScenarioEntry,
    UnitModel,
    UsageScenario,
)

RATES = [3.0, 5.0, 10.0, 15.0, 30.0, 45.0, 60.0]


def random_setup(rng: random.Random):
    """One random but always-valid (scenario, sources, models, hw, costs) tuple."""
    n_sources = rng.randint(1, 3)
    sources = {}
    for i in range(n_sources):
        sid = f"src{i}"
        sources[sid] = InputSource(
            id=sid,
            streaming_rate=rng.choice([30.0, 60.0, 90.0]),
            init_latency=rng.choice([0.0, 0.0, 2.0]),
            max_jitter=rng.choice([0.0, 0.05, 0.5]),
        )

    n_models = rng.randint(1, 5)
    models = {}
    entries = []
    ids = [f"m{i}" for i in range(n_models)]
    for i, mid in enumerate(ids):
        src = rng.choice(list(sources.values()))
        models[mid] = UnitModel(id=mid, task_tag="fuzz", input_sources=(src.id,), flops=1e6)
        rate = rng.choice([r for r in RATES if r <= src.streaming_rate])
        deps = []
        # edges only point backwards in id order, so the graph stays acyclic
        for j in range(i):
            if rng.random() < 0.3:
                rng.choice(["data", "control"])  # discarded; removing the draw would shift every seeded setup
                deps.append(
                    DependencyEdge(
                        upstream=ids[j],
                        downstream=mid,
                        trigger_probability=rng.choice([0.0, 0.3, 0.7, 1.0]),
                    )
                )
        entries.append(ScenarioEntry(model=mid, target_rate=rate, dependencies=tuple(deps)))
    scenario = UsageScenario(id=f"fuzz-{rng.randrange(1 << 30)}", entries=tuple(entries))

    n_units = rng.randint(1, 3)
    units = tuple(
        HardwareUnit(id=f"u{i}", dataflow=rng.choice(["WS", "OS", "RS"]), pe_count=rng.choice([1024, 4096]))
        for i in range(n_units)
    )
    hw = HardwareSystem(id="fuzz-hw", style="FDA" if n_units == 1 else "SFDA", units=units)

    e_max = 50.0
    cost_entries = [
        CostEntry(
            model=mid,
            unit=u.id,
            latency_ms=rng.uniform(0.05, 40.0),
            energy_mj=rng.uniform(0.0, e_max),
        )
        for mid in ids
        for u in units
    ]
    costs = CostTable(cost_entries, e_max_mj=e_max)
    return scenario, sources, models, hw, costs


def with_tied_latencies(rng: random.Random, costs: CostTable) -> CostTable:
    """The cost table with each latency drawn from three values, so that
    models tie on a unit; latencies this long keep small setups' units busy,
    so tied models also wait together."""
    return CostTable([replace(e, latency_ms=rng.choice((10.0, 20.0, 40.0))) for e in costs.entries()], costs.e_max_mj)
