"""Unit scores and their hierarchical aggregation.

Per inference: the product of real-time, energy, and accuracy scores.
Per model: the mean of per-inference scores over completed entries only
(dropped frames are charged through the QoE score instead). Per scenario:
the mean over its models of model score times QoE. Overall: the arithmetic
and the geometric mean over scenarios, both always reported.

Summation order is fixed (ascending request index, then scenario model
order, then suite scenario order) so reports are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .errors import ScoringError
from .runtime import COMPLETED, EventLog
from .workload import (
    HIGHER_IS_BETTER,
    LOWER_IS_BETTER,
    SCHEMA_VERSION,
    SuiteConfig,
    UnitModel,
    UsageScenario,
    accuracy_goal,
    achieved_metric,
)

ARITHMETIC = "arithmetic"
GEOMETRIC = "geometric"

_EXP_CLAMP = 700.0


@dataclass(frozen=True, kw_only=True)
class ScoringConfig:
    """The two parameters of the unit scores.

    `k` is the deadline sensitivity in 1/second; the sigmoid argument is
    taken in seconds. `e_max_mj` has no default: pass the cost table's
    bound, so scores and costs agree on it. Every score is in [0, 1].
    """

    k: float = 10.0
    e_max_mj: float

    def __post_init__(self) -> None:
        if not 0 <= self.k < math.inf:
            raise ScoringError("k must be finite and >= 0")
        if not 0 < self.e_max_mj < math.inf:
            raise ScoringError("e_max_mj must be finite and > 0")


def accuracy_score(achieved: float, goal: float, direction: str = HIGHER_IS_BETTER) -> float:
    """Ratio of achieved metric to the goal, clamped to [0, 1].

    For error metrics the ratio inverts: smaller achieved error is better.
    """
    if goal <= 0:
        raise ScoringError("accuracy goal must be > 0")
    if direction == LOWER_IS_BETTER:
        if achieved <= 0:
            raise ScoringError("achieved error metric must be > 0")
        ratio = goal / achieved
    else:
        ratio = achieved / goal
    return min(max(ratio, 0.0), 1.0)


def qoe_score(n_processed: int, n_total: int) -> float:
    """Fraction of frames actually processed: 1 - frame drop rate."""
    if n_total <= 0:
        raise ScoringError("n_total must be > 0")
    if not 0 <= n_processed <= n_total:
        raise ScoringError("n_processed must be in [0, n_total]")
    return n_processed / n_total


class ModelReport(NamedTuple):
    """One model's scores and counts; `report_to_obj` writes the fields in this order."""

    rt_mean: float
    en_mean: float
    acc_mean: float
    model_score: float
    qoe: float
    n_total: int
    n_processed: int
    n_dropped: int
    n_untriggered: int
    n_sat: int


@dataclass(frozen=True, slots=True)
class ScenarioReport:
    models: Mapping[str, ModelReport]
    scenario_score: float


@dataclass(frozen=True, slots=True)
class ScoreReport:
    scenarios: Mapping[str, ScenarioReport]
    overall_arithmetic: float
    overall_geometric: float
    config: ScoringConfig


def model_report(log: EventLog, model: UnitModel, cfg: ScoringConfig) -> ModelReport:
    """Score one model of a log: means over its completed entries, in
    ascending request index (0 when none completed), and its QoE.

    One pass over the log's columns computes each inference's real-time,
    energy and product scores inline, by README's equations; the tests hold
    them as separate functions, the reference this loop is checked against.
    """
    acc = accuracy_score(achieved_metric(model), accuracy_goal(model), model.metric_direction)
    counts = log.counts.get(model.id)
    if counts is None:
        raise ScoringError(
            f"the log has no requests of model {model.id!r} "
            "(a window too short for its target rate, or a timeline of another scenario)"
        )
    k, e_max = cfg.k, cfg.e_max_mj
    requests, status, t_end_us, energy_mj = log.requests, log.status, log.t_end_us, log.energy_mj
    exp = math.exp
    rt_sum = en_sum = acc_sum = product_sum = 0.0
    prev_e = None  # a model's energies repeat, one float object per unit, so each new one is checked once
    for p in log.positions[model.id]:  # ascending request index
        if status[p] != COMPLETED:
            continue
        r = requests[p]
        t_req_us = r[3]  # r[3], r[4]: t_req_us, t_dl_us; indexing is cheaper than attributes or unpacking
        arg = k * ((t_end_us[p] - t_req_us) / 1000.0 - (r[4] - t_req_us) / 1000.0) / 1000.0
        if arg < -_EXP_CLAMP:
            arg = -_EXP_CLAMP
        elif arg > _EXP_CLAMP:
            arg = _EXP_CLAMP
        rt = 1.0 / (1.0 + exp(arg))
        e = energy_mj[p]
        if e is not prev_e:
            if not 0 <= e <= e_max:  # NaN fails too
                raise ScoringError(f"energy {e} mJ outside [0, {e_max}]")
            prev_e, en = e, (e_max - e) / e_max
        rt_sum += rt
        en_sum += en
        acc_sum += acc
        product_sum += rt * en * acc
    n = counts.n_processed
    denom = n + counts.n_dropped  # untriggered requests were never droppable work
    qoe = qoe_score(n, denom) if denom > 0 else 0.0
    means = (rt_sum / n, en_sum / n, acc_sum / n, product_sum / n) if n else (0.0, 0.0, 0.0, 0.0)
    return ModelReport(*means, qoe, *counts)  # a ModelReport's fields are the means, qoe, then the counts'


def scenario_report(
    log: EventLog,
    scenario: UsageScenario,
    models: Mapping[str, UnitModel],
    cfg: ScoringConfig,
) -> ScenarioReport:
    """Every model's report, and the mean over the scenario's models of
    (model score x QoE)."""
    reports: dict[str, ModelReport] = {}
    total = 0.0
    for entry in scenario.entries:
        rep = reports[entry.model] = model_report(log, models[entry.model], cfg)
        total += rep.model_score * rep.qoe
    return ScenarioReport(models=reports, scenario_score=total / len(scenario.entries))


def overall_score(scenario_scores: Sequence[float], mean: str = ARITHMETIC) -> float:
    """Aggregate scenario scores; geometric mean of any zero is zero."""
    if not scenario_scores:
        raise ScoringError("need at least one scenario score")
    if mean == GEOMETRIC:
        if any(s <= 0.0 for s in scenario_scores):
            return 0.0
        log_sum = 0.0
        for s in scenario_scores:
            log_sum += math.log(s)
        return math.exp(log_sum / len(scenario_scores))
    total = 0.0
    for s in scenario_scores:
        total += s
    return total / len(scenario_scores)


def suite_report(scenario_reports: Mapping[str, ScenarioReport], cfg: ScoringConfig) -> ScoreReport:
    """The suite's report from its scenarios' reports, given in suite scenario
    order: both overall means over their scenario scores."""
    scores = [rep.scenario_score for rep in scenario_reports.values()]
    return ScoreReport(
        scenarios=scenario_reports,
        overall_arithmetic=overall_score(scores, ARITHMETIC),
        overall_geometric=overall_score(scores, GEOMETRIC),
        config=cfg,
    )


def build_report(
    logs: Mapping[str, EventLog],
    config: SuiteConfig,
    cfg: ScoringConfig,
) -> ScoreReport:
    """Score one EventLog per scenario id, in suite scenario order."""
    return suite_report(
        {
            scenario.id: scenario_report(logs[scenario.id], scenario, config.models, cfg)
            for scenario in config.suite.scenarios
            if scenario.id in logs
        },
        cfg,
    )


def report_to_obj(report: ScoreReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        # vars, not asdict (0.3 against 6.5 us per report): a frozen
        # dataclass's __dict__ holds exactly its fields, in declaration order
        "scoring_config": dict(vars(report.config)),
        "scenarios": {
            sid: {
                "scenario_score": srep.scenario_score,
                "models": {mid: m._asdict() for mid, m in srep.models.items()},
            }
            for sid, srep in report.scenarios.items()
        },
        "overall": {
            "arithmetic": report.overall_arithmetic,
            "geometric": report.overall_geometric,
        },
    }
