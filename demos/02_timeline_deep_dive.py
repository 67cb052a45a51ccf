"""Deep dive into one scenario's schedule.

Runs Social Interaction A with jitter turned off so request times are
exactly periodic, then prints the first 100 ms of the timeline. Things to
notice: hand tracking (HT) and depth refinement (DR) run at half the camera
rate, so they appear on every other frame; gaze estimation (GE) is data-
dependent on eye segmentation (ES) and always starts after the same
frame's ES completion.
"""

from dataclasses import replace

from mmtsim import SuiteConfig, builtin_config, generate_requests, simulate, synthetic_table
from mmtsim.costmodel import preset_system

base = builtin_config()
config = SuiteConfig(
    sources={sid: replace(s, max_jitter=0.0) for sid, s in base.sources.items()},
    models=base.models,
    suite=base.suite,
)
scenario = config.suite.scenario("social-interaction-a")
hw = preset_system("J")
costs = synthetic_table(config.models, hw)

stream = generate_requests(scenario, config.sources, config.models, 1.0, seed=0)
log = simulate(scenario, stream, hw, costs)

print(f"{'t_req':>8s} {'model':>5s} {'frame':>5s} {'unit':>7s} {'t_start':>8s} {'t_end':>8s}  status")
for entry in sorted(log.entries, key=lambda e: (e.request.t_req_us, e.request.model)):
    r = entry.request
    if r.t_req_ms > 100.0:
        break
    start = f"{entry.t_start_us / 1000:8.3f}" if entry.t_start_us is not None else " " * 8
    end = f"{entry.t_end_us / 1000:8.3f}" if entry.t_end_us is not None else " " * 8
    unit = entry.unit or ""
    print(f"{r.t_req_ms:8.3f} {r.model:>5s} {r.frame_index:5d} {unit:>7s} {start} {end}  {entry.status}")

ht_frames = [r.frame_index for r in stream.requests if r.model == "HT"][:8]
print(f"\nHT frames (every other camera frame): {ht_frames}...")
es_end = {e.request.frame_index: e.t_end_us for e in log.by_model("ES")}
ok = all(e.t_start_us >= es_end[e.request.frame_index] for e in log.by_model("GE"))
print(f"every GE launch waited for its frame's ES completion: {ok}")
