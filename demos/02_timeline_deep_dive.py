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
# the log's columns are indexed by stream position, and the stream is in time order
columns = zip(log.requests, log.unit, log.t_start_us, log.t_end_us, log.status)
for r, unit, t_start_us, t_end_us, status in columns:
    if r.t_req_us / 1000 > 100.0:
        break
    start = f"{t_start_us / 1000:8.3f}" if t_start_us is not None else " " * 8
    end = f"{t_end_us / 1000:8.3f}" if t_end_us is not None else " " * 8
    print(f"{r.t_req_us / 1000:8.3f} {r.model:>5s} {r.frame_index:5d} {unit or '':>7s} {start} {end}  {status}")

ht_frames = [r.frame_index for r in stream.requests if r.model == "HT"][:8]
print(f"\nHT frames (every other camera frame): {ht_frames}...")
frame = [r.frame_index for r in log.requests]
es_end = {frame[p]: log.t_end_us[p] for p in log.positions["ES"]}
ok = all(log.t_start_us[p] >= es_end[frame[p]] for p in log.positions["GE"])
print(f"every GE launch waited for its frame's ES completion: {ok}")
