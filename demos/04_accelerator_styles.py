"""Compare accelerator system styles on the same workload.

The preset catalog covers fixed-dataflow systems (one monolithic unit),
scaled-out multi-unit systems of a single dataflow, and heterogeneous
mixes. With synthetic roofline costs a single big unit wins on raw latency
per inference, while multi-unit systems win when concurrent models would
otherwise queue behind each other; the suite score balances the two.
"""

from mmtsim import builtin_config, generate_requests, simulate, synthetic_table
from mmtsim.costmodel import ACCELERATOR_PRESETS, preset_system
from mmtsim.scoring import ScoringConfig, build_report

TOTAL_PES = 4096
config = builtin_config()
# One stream per scenario, run on every system: the dispatcher derives its
# per-stream state once.
streams = {s.id: generate_requests(s, config.sources, config.models, 1.0, seed=0) for s in config.suite.scenarios}

print(f"{'preset':>6s} {'style':>6s} {'units':>30s} {'overall':>8s}")
for name in sorted(ACCELERATOR_PRESETS):
    hw = preset_system(name, total_pes=TOTAL_PES)
    costs = synthetic_table(config.models, hw)
    logs = {}
    for scenario in config.suite.scenarios:
        logs[scenario.id] = simulate(scenario, streams[scenario.id], hw, costs)
    report = build_report(logs, config, ScoringConfig(k=10.0, e_max_mj=costs.e_max_mj))
    layout = "+".join(f"{u.dataflow}:{u.pe_count}" for u in hw.units)
    print(f"{name:>6s} {hw.style:>6s} {layout:>30s} {report.overall_arithmetic:8.4f}")
