"""Command-line entry point: single runs, sweeps, validation, re-scoring.

Each JSON file written carries a schema_version; the CSV and text files do
not. Only run's report.json carries the resolved run configuration
(run_config). A log_*.json carries the scenario, the hardware id, the seed
and the duration, and sweep's files carry no run configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from . import costmodel, loadgen, runtime, scoring, workload
from .errors import ConfigError, ScoringError

DEFAULT_DURATION = 1.0
DEFAULT_SEED = 0


@contextmanager
def _atomic_write(path: Path):
    """A text file to write `path` through: a temp file beside it, renamed over
    it once the block completes and removed if the block fails, so `path` is
    never partly written. Lines end as written, on every platform."""
    tmp = path.with_name(path.name + ".tmp")
    fh = open(tmp, "w", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load_config(args) -> workload.SuiteConfig:
    if args.suite:
        return workload.load_suite_file(args.suite)
    return workload.builtin_config()


def _load_hardware(args) -> costmodel.HardwareSystem:
    if not args.hw:
        raise ConfigError("--hw is required (a hardware file or preset:<A..M>[:<total PEs>])")
    if args.hw.startswith("preset:"):
        _, name, *pes = args.hw.split(":")
        if len(pes) > 1:
            raise ConfigError(f"--hw {args.hw!r}: expected preset:<A..M>[:<total PEs>]")
        try:
            total_pes = [int(p) for p in pes]  # none: preset_system's default
        except ValueError:
            raise ConfigError(f"--hw {args.hw!r}: total PEs must be an integer") from None
        return costmodel.preset_system(name, *total_pes)
    return costmodel.load_hardware_file(args.hw)


def _load_costs(args, config: workload.SuiteConfig, hw: costmodel.HardwareSystem) -> costmodel.CostTable:
    if args.costs:
        table = costmodel.load_cost_table_file(args.costs)
        if args.emax is not None and args.emax != table.e_max_mj:
            table = costmodel.CostTable(table.entries(), e_max_mj=args.emax)
        return table
    if args.synthetic:
        return costmodel.synthetic_table(config.models, hw, e_max_mj=args.emax)
    raise ConfigError("either --costs <file> or --synthetic is required")


def _scenarios(args, config: workload.SuiteConfig) -> list[workload.UsageScenario]:
    if args.scenario:
        return [config.suite.scenario(args.scenario)]
    return list(config.suite.scenarios)


def _resolved_config_obj(args, hw, cfg) -> dict:
    return {
        "suite": args.suite or "builtin",
        "scenario": args.scenario,
        "hardware": costmodel.system_to_obj(hw),
        "costs": "synthetic" if args.synthetic else str(args.costs),
        "policy": args.policy,
        "duration_s": args.duration,
        "seed": args.seed,
        "scoring": asdict(cfg),
    }


def _summary_text(report: scoring.ScoreReport) -> str:
    lines = []
    header = f"{'scenario':24s} {'model':6s} {'rt':>7s} {'en':>7s} {'acc':>7s} {'qoe':>7s} {'score':>7s}"
    lines.append(header)
    lines.append("-" * len(header))
    for sid, srep in report.scenarios.items():
        for mid, m in srep.models.items():
            lines.append(
                f"{sid:24s} {mid:6s} {m.rt_mean:7.4f} {m.en_mean:7.4f} "
                f"{m.acc_mean:7.4f} {m.qoe:7.4f} {m.model_score:7.4f}"
            )
        lines.append(f"{sid:24s} {'all':6s} {'':7s} {'':7s} {'':7s} {'':7s} {srep.scenario_score:7.4f}")
    lines.append("")
    lines.append(f"overall (arithmetic): {report.overall_arithmetic:.4f}")
    lines.append(f"overall (geometric):  {report.overall_geometric:.4f}")
    return "\n".join(lines) + "\n"


def cmd_run(args) -> int:
    config = _load_config(args)
    hw = _load_hardware(args)
    table = _load_costs(args, config, hw)
    cfg = scoring.ScoringConfig(k=args.k, e_max_mj=table.e_max_mj)
    scenarios = _scenarios(args, config)
    for scenario in scenarios:  # a model without requests could not be scored
        loadgen.check_window(scenario, args.duration)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # One scenario at a time: its log is dropped once written and scored, so
    # memory is bounded by the largest scenario, not the suite.
    reports = {}
    for scenario, log in runtime.simulate_suite(scenarios, config, hw, table, args.duration, args.seed, args.policy):
        with _atomic_write(out / f"timeline_{scenario.id}.csv") as fh:
            runtime.log_to_csv(log, fh)
        with _atomic_write(out / f"log_{scenario.id}.json") as fh:
            fh.write(json.dumps(runtime.log_to_obj(log, hw.id, args.seed, args.duration), indent=2) + "\n")
        reports[scenario.id] = scoring.scenario_report(log, scenario, config.models, cfg)
        del log

    report = scoring.suite_report(reports, cfg)
    report_obj = scoring.report_to_obj(report)
    report_obj["run_config"] = _resolved_config_obj(args, hw, cfg)
    with _atomic_write(out / "report.json") as fh:
        fh.write(json.dumps(report_obj, indent=2) + "\n")
    summary = _summary_text(report)
    with _atomic_write(out / "summary.txt") as fh:
        fh.write(summary)
    print(summary, end="")
    return 0


def cmd_sweep(args) -> int:
    if not args.scenario:
        raise ConfigError("sweep requires --scenario")
    try:
        upstream, downstream = args.edge.split("->")
    except ValueError:
        raise ConfigError("--edge must look like ES->GE") from None
    texts = [v.strip() for v in args.values.split(",")]
    try:
        values = [float(v) + 0.0 for v in texts]  # + 0.0 turns -0.0 into 0.0, one point and one file name
    except ValueError:
        raise ConfigError(f"--values {args.values!r}: each value must be a number") from None
    first_of: dict[str, str] = {}  # point file name -> the value that names it
    for text, p in zip(texts, values):
        name = f"sweep_point_{p:g}.json"
        if name in first_of:
            raise ConfigError(f"--values {first_of[name]} and {text} both name the point file {name}")
        first_of[name] = text

    config = _load_config(args)
    hw = _load_hardware(args)
    table = _load_costs(args, config, hw)
    cfg = scoring.ScoringConfig(k=args.k, e_max_mj=table.e_max_mj)
    base = config.suite.scenario(args.scenario)

    # The points differ only in one edge's probability, which the request
    # stream does not depend on: generate it once and simulate it at each.
    scenarios = [workload.with_edge_probability(base, upstream, downstream, p) for p in values]
    loadgen.check_window(base, args.duration)  # a model without requests could not be scored
    stream = loadgen.generate_requests(scenarios[0], config.sources, config.models, args.duration, args.seed)
    out = Path(args.out)  # made only once every value, the edge and the window have passed
    out.mkdir(parents=True, exist_ok=True)
    rows = ["probability,rt_mean,en_mean,qoe,n_processed,scenario_score"]
    for p, scenario in zip(values, scenarios):
        log = runtime.simulate(scenario, stream, hw, table, policy=args.policy)
        report = scoring.scenario_report(log, scenario, config.models, cfg)
        down = report.models[downstream]
        rows.append(
            f"{p!r},{down.rt_mean!r},{down.en_mean!r},{down.qoe!r},"
            f"{down.n_processed},{report.scenario_score!r}"
        )
        point_obj = {
            "schema_version": workload.SCHEMA_VERSION,
            "probability": p,
            "counts": runtime.log_to_obj(log, hw.id, args.seed, args.duration)["counts"],
            "scenario_score": report.scenario_score,
        }
        with _atomic_write(out / f"sweep_point_{p:g}.json") as fh:
            fh.write(json.dumps(point_obj, indent=2) + "\n")
    with _atomic_write(out / "sweep.csv") as fh:
        fh.write("\n".join(rows) + "\n")
    print("\n".join(rows))
    return 0


def cmd_validate(args) -> int:
    config = _load_config(args)
    scenarios = _scenarios(args, config)
    invalid = {s.id: workload.validate_scenario(s, config.sources, config.models) for s in scenarios}
    violations = [f"{sid}: {v}" for sid, vs in invalid.items() for v in vs]
    if args.hw or args.costs or args.synthetic:
        hw = _load_hardware(args)
        table = _load_costs(args, config, hw)
        valid = [s for s in scenarios if not invalid[s.id]]  # an invalid scenario may not simulate at all
        for scenario, log in runtime.simulate_suite(valid, config, hw, table, args.duration, args.seed, args.policy):
            violations += [f"{scenario.id}: {v}" for v in runtime.validate_schedule(log, scenario)]
    for v in violations:
        print(v)
    if violations:
        return 1
    print("ok")
    return 0


def cmd_score(args) -> int:
    if not args.scenario:
        raise ConfigError("score requires --scenario")
    config = _load_config(args)
    scenario = config.suite.scenario(args.scenario)
    workload.check_scenario(scenario, config.sources, config.models)
    if args.emax is None:
        raise ConfigError("score requires --emax (the cost table is not available here)")
    cfg = scoring.ScoringConfig(k=args.k, e_max_mj=args.emax)  # checks both values before the timeline is read
    with workload.open_text_file(args.log, newline="") as fh:
        log = runtime.log_from_csv(fh, scenario=scenario.id)
    if violations := runtime.validate_schedule(log, scenario):
        raise ConfigError(f"timeline {args.log}: {violations[0]}")
    report = scoring.build_report({scenario.id: log}, config, cfg)  # a model the timeline lacks fails here
    runtime.check_models(scenario, log.positions, f"timeline {args.log} holds")
    text = json.dumps(scoring.report_to_obj(report), indent=2) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with _atomic_write(out / "report.json") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def cmd_export_suite(args) -> int:
    config = _load_config(args)
    obj = workload.config_to_obj(config)
    text = json.dumps(obj, indent=2) + "\n"
    if args.out:
        with _atomic_write(Path(args.out)) as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", help="suite specification file (default: built-in suite)")
    p.add_argument("--scenario", help="restrict to one scenario id")
    p.add_argument("--emax", type=float, default=None, help="energy score upper bound (mJ)")


def _add_simulation(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hw", help="hardware file, or preset:<A..M>[:<total PEs>]")
    p.add_argument("--costs", help="cost-table file")
    p.add_argument("--synthetic", action="store_true", help="derive costs from model FLOPs")
    p.add_argument("--policy", default=runtime.LATENCY_GREEDY, choices=[runtime.LATENCY_GREEDY, runtime.ROUND_ROBIN])
    p.add_argument("--duration", type=float, default=DEFAULT_DURATION, help="benchmark window in seconds")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)


def _add_scoring(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=float, default=scoring.ScoringConfig.k, help="deadline sensitivity (1/s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mmtsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate and score scenarios")
    _add_common(p_run)
    _add_simulation(p_run)
    _add_scoring(p_run)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep a dependency trigger probability")
    _add_common(p_sweep)
    _add_simulation(p_sweep)
    _add_scoring(p_sweep)
    p_sweep.add_argument("--edge", required=True, help="edge to sweep, e.g. ES->GE")
    p_sweep.add_argument("--values", required=True, help="comma-separated probabilities")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="validate scenarios (and schedules, given hw+costs)")
    _add_common(p_val)
    _add_simulation(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_score = sub.add_parser("score", help="recompute scores from a timeline CSV")
    _add_common(p_score)
    _add_scoring(p_score)
    p_score.add_argument("--log", required=True, help="timeline CSV from a previous run")
    p_score.add_argument("--out", help="output directory")
    p_score.set_defaults(func=cmd_score)

    p_export = sub.add_parser("export-suite", help="dump the suite to the specification format")
    p_export.add_argument("--suite", help="suite file to re-export (default: built-in)")
    p_export.add_argument("--out", help="output file (default: stdout)")
    p_export.set_defaults(func=cmd_export_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ScoringError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
