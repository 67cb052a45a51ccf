"""A deliberately naive reference dispatcher, written from the stated rules
only, and the reference score equations.

It shares no code with `mmtsim.runtime` apart from the request and cost
types, and favours obviousness over speed: every step rescans every
request, so it is O(N^2) and only fit for small streams. Tests compare the
full timeline of `mmtsim.simulate` against it.

The rules it implements:

- Time advances from one event timestamp to the next. An event is a
  request arrival or the end of a running inference.
- At one timestamp, inferences that end there free their units first (in
  unit id order) and resolve the gates downstream of them; then requests
  that arrive there are queued (in model, request index order); then every
  free unit, lowest id first, takes a ready request chosen by the policy.
- Inferences run to completion (no preemption); a run lasts the cost
  table's latency rounded to whole microseconds, at least 1.
- Request k of a model is dropped when request k+1 of the same model
  arrives and k is still waiting (it has not launched and has no other
  fate yet). Requests still waiting when the stream runs out are dropped.
- Each dependency edge ties a downstream request to the upstream request
  at the latest frame not after its own frame (none if there is no such
  frame). When that upstream request ends, the edge fires with
  `det_rand(stream seed, "gate:<edge>", upstream frame) < p` (always for p >= 1,
  never for p <= 0). An edge that does not fire makes the downstream
  request untriggered at once. An upstream request that was dropped or
  untriggered means the downstream request can never run.
- A request is ready once it has arrived, is waiting, and every anchored
  upstream request has ended and fired.
- latency-greedy picks the ready request with the least latency on the
  unit, then the earliest deadline, then by model and frame.
  round-robin keeps a cursor per unit over the scenario's model list and
  picks, starting after the last model it picked, the first model with a
  ready request (its oldest).

It also holds README's per-inference score equations as plain functions:
`rt_score`, `energy_score` and `per_inference_score`. `mmtsim.scoring`
computes them inline in `model_report`, and the tests check that loop
against these, bitwise.
"""

from __future__ import annotations

import math

from mmtsim.errors import ScoringError
from mmtsim.loadgen import det_rand

COMPLETED = "completed"
DROPPED = "dropped"
UNTRIGGERED = "untriggered"

_EXP_CLAMP = 700.0


def rt_score(latency_ms: float, slack_ms: float, k: float) -> float:
    """Sigmoid of how far the response ran past its slack, in seconds.

    Exactly 0.5 when latency equals slack; constant 0.5 for k = 0.
    """
    arg = k * (latency_ms - slack_ms) / 1000.0
    arg = min(max(arg, -_EXP_CLAMP), _EXP_CLAMP)
    return 1.0 / (1.0 + math.exp(arg))


def energy_score(e_mj: float, e_max_mj: float) -> float:
    """Linear score: 1 at zero energy, 0 at the configured upper bound."""
    if e_max_mj <= 0:
        raise ScoringError("e_max_mj must be > 0")
    if not 0 <= e_mj <= e_max_mj:  # NaN fails too
        raise ScoringError(f"energy {e_mj} mJ outside [0, {e_max_mj}]")
    return (e_max_mj - e_mj) / e_max_mj


def per_inference_score(rt: float, en: float, acc: float) -> float:
    return rt * en * acc


def _gate_fires(edge, upstream_frame: int, seed: int) -> bool:
    p = edge.trigger_probability
    if p >= 1.0:
        return True
    if p <= 0.0:
        return False
    return det_rand(seed, f"gate:{edge.upstream}->{edge.downstream}", upstream_frame) < p


def reference_simulate(scenario, stream, hw, costs, policy: str) -> dict:
    """Return {(model, request_index): (unit, t_start_us, t_end_us, status, energy_mj)}."""
    requests = list(stream.requests)
    key = lambda r: (r.model, r.request_index)
    units = sorted(u.id for u in hw.units)

    def latency_ms(model: str, unit: str) -> float:
        return costs.lookup(model, unit).latency_ms

    # anchors[(model, k)] = [(edge, upstream request)]
    anchors = {}
    for r in requests:
        anchors[key(r)] = []
        for entry in scenario.entries:
            if entry.model != r.model:
                continue
            for edge in entry.dependencies:
                candidates = [u for u in requests if u.model == edge.upstream and u.frame_index <= r.frame_index]
                if candidates:
                    anchor = max(candidates, key=lambda u: u.frame_index)
                    anchors[key(r)].append((edge, anchor))

    fate = {key(r): None for r in requests}  # None while waiting or not yet arrived
    arrived = set()
    fired = set()  # (downstream key, edge key) pairs whose gate fired
    run = {}  # key -> (unit, start, end, energy)
    unit_running = {u: None for u in units}
    rr_cursor = {u: -1 for u in units}
    order = list(scenario.model_ids)

    def waiting(r) -> bool:
        return key(r) in arrived and fate[key(r)] is None

    def ready(r) -> bool:
        if not waiting(r):
            return False
        # an edge fires only when its upstream request ends, so this also
        # means every anchored upstream request has completed by now
        return all((key(r), edge.key) in fired for edge, _ in anchors[key(r)])

    def choose(candidates, unit: str):
        if policy == "latency-greedy":
            return min(
                candidates,
                key=lambda r: (latency_ms(r.model, unit), r.t_dl_us, r.model, r.frame_index),
            )
        n = len(order)
        for step in range(1, n + 1):
            idx = (rr_cursor[unit] + step) % n
            of_model = [r for r in candidates if r.model == order[idx]]
            if of_model:
                rr_cursor[unit] = idx
                return min(of_model, key=lambda r: r.frame_index)
        raise AssertionError("no candidate")

    times = sorted({r.t_req_us for r in requests})
    now = None
    while True:
        # frame 0 can arrive before time 0 (negative jitter), so start below every time
        later = [t for t in times if now is None or t > now]
        later += [end for _, _, end, _ in run.values() if end > now]
        if not later:
            break
        now = min(later)

        # 1. inferences ending now free their units and resolve gates
        for unit in units:
            k = unit_running[unit]
            if k is None or run[k][2] != now:
                continue
            unit_running[unit] = None
            up = next(r for r in requests if key(r) == k)
            for r in requests:
                for edge, anchor in anchors[key(r)]:
                    if key(anchor) != k or fate[key(r)] is not None:
                        continue
                    if _gate_fires(edge, up.frame_index, stream.seed):
                        fired.add((key(r), edge.key))
                    else:
                        fate[key(r)] = UNTRIGGERED

        # 2. arrivals now supersede the previous waiting request of their model
        for r in sorted((r for r in requests if r.t_req_us == now), key=key):
            for prev in requests:
                if prev.model == r.model and prev.request_index == r.request_index - 1 and waiting(prev):
                    fate[key(prev)] = DROPPED
            arrived.add(key(r))

        # 3. free units, lowest id first, take ready requests
        for unit in units:
            if unit_running[unit] is not None:
                continue
            candidates = [r for r in requests if ready(r)]
            if not candidates:
                break
            r = choose(candidates, unit)
            lat_us = max(1, round(latency_ms(r.model, unit) * 1000))
            fate[key(r)] = COMPLETED
            run[key(r)] = (unit, now, now + lat_us, costs.lookup(r.model, unit).energy_mj)
            unit_running[unit] = key(r)

    result = {}
    for r in requests:
        k = key(r)
        status = fate[k] or DROPPED
        if status == COMPLETED:
            unit, start, end, energy = run[k]
            result[k] = (unit, start, end, status, energy)
        else:
            result[k] = (None, None, None, status, 0.0)
    return result
