"""Tour of the built-in benchmark suite.

Simulates all seven usage scenarios on a 4K-PE two-dataflow accelerator
with synthetic roofline costs, then prints the hierarchical score report:
per-inference scores roll up into per-model means, model score x QoE rolls
up into scenario scores, and those average into the overall number.
"""

from mmtsim import builtin_config, simulate_suite, synthetic_table
from mmtsim.costmodel import preset_system
from mmtsim.scoring import ScoringConfig, build_report

DURATION_S = 1.0
SEED = 0

config = builtin_config()
hw = preset_system("J")  # WS + OS units, 2048 PEs each
costs = synthetic_table(config.models, hw)

print(f"hardware: {hw.id} ({hw.style}), units:")
for unit in hw.units:
    print(f"  {unit.id}: {unit.dataflow}, {unit.pe_count} PEs")
print()

runs = simulate_suite(config.suite.scenarios, config, hw, costs, DURATION_S, SEED)
logs = {scenario.id: log for scenario, log in runs}

report = build_report(logs, config, ScoringConfig(k=10.0, e_max_mj=costs.e_max_mj))

for sid, srep in report.scenarios.items():
    print(f"{sid}  (score {srep.scenario_score:.4f})")
    for mid, m in srep.models.items():
        print(
            f"  {mid}: rt {m.rt_mean:.3f}  energy {m.en_mean:.3f}  acc {m.acc_mean:.3f}  "
            f"qoe {m.qoe:.3f}  [{m.n_processed}/{m.n_total} processed, {m.n_dropped} dropped]"
        )
print()
print(f"overall (arithmetic mean): {report.overall_arithmetic:.4f}")
print(f"overall (geometric mean):  {report.overall_geometric:.4f}")
