"""Sweep a cascaded pipeline's trigger probability.

In VR Gaming, gaze estimation (GE) consumes eye segmentation (ES) output.
Here we treat that edge as a probabilistic trigger and sweep the firing
probability from 0 to 1: at 0 no GE inference ever launches, at 1 every
completed ES frame feeds a GE inference, and in between the triggered
fraction tracks the probability. Untriggered frames are not charged to
QoE -- they were never owed to the user.
"""

from mmtsim import builtin_config, generate_requests, simulate, synthetic_table
from mmtsim.costmodel import preset_system
from mmtsim.scoring import ScoringConfig, model_report
from mmtsim.workload import with_edge_probability

DURATION_S = 5.0

config = builtin_config()
base = config.suite.scenario("vr-gaming")
hw = preset_system("J")
costs = synthetic_table(config.models, hw)
cfg = ScoringConfig(k=10.0, e_max_mj=costs.e_max_mj)
# The request stream does not depend on trigger probabilities: one serves every point.
stream = generate_requests(base, config.sources, config.models, DURATION_S, seed=0)

print(f"{'p':>5s} {'ES done':>8s} {'GE fired':>9s} {'fraction':>9s} {'GE qoe':>7s} {'GE score':>9s}")
for p in (0.0, 0.25, 0.5, 0.75, 1.0):
    scenario = with_edge_probability(base, "ES", "GE", p)
    log = simulate(scenario, stream, hw, costs)
    es_done = log.counts["ES"].n_processed
    ge = log.counts["GE"]
    fired = ge.n_total - ge.n_untriggered
    rep = model_report(log, config.models["GE"], cfg)
    print(f"{p:5.2f} {es_done:8d} {fired:9d} {fired / es_done:9.3f} {rep.qoe:7.3f} {rep.model_score:9.4f}")
