"""A bounded guard on the input files: `validate` ends with an exit code,
never an exception, whatever single value of a suite, hardware or cost file
is replaced by a JSON value of another kind."""

import json

from mmtsim import builtin_config
from mmtsim.cli import main
from mmtsim.costmodel import preset_system, synthetic_table, system_to_obj, table_to_obj
from mmtsim.workload import config_to_obj

REPLACEMENTS = (None, True, "x", [], {})
SCENARIO = "social-interaction-a"


def value_paths(obj, path=()):
    """The path of every value in `obj`, the root's () first, then depth first."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from value_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from value_paths(value, path + (i,))


def replaced(obj, path, value):
    """A copy of `obj` with the value at `path` replaced by `value`."""
    if not path:
        return value
    copy = json.loads(json.dumps(obj))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return copy


def guard_files():
    """(name, file object, argv taking the file's path): a suite trimmed to one
    scenario with its models and sources, a 96-PE preset J, and its synthetic
    cost table for those models."""
    config = builtin_config()
    suite = config_to_obj(config)
    suite["scenarios"] = [s for s in suite["scenarios"] if s["id"] == SCENARIO]
    models = {e["model"] for e in suite["scenarios"][0]["entries"]}
    suite["models"] = [m for m in suite["models"] if m["id"] in models]
    sources = {s for m in suite["models"] for s in m["input_sources"]}
    suite["input_sources"] = [s for s in suite["input_sources"] if s["id"] in sources]
    hw = preset_system("J", 96)
    run = ["--scenario", "vr-gaming", "--duration", "0.1"]
    return [
        ("suite", suite, lambda path: ["validate", "--suite", path]),
        ("hardware", system_to_obj(hw), lambda path: ["validate", "--hw", path, "--synthetic", *run]),
        (
            "costs",
            table_to_obj(synthetic_table({m: config.models[m] for m in sorted(models)}, hw)),
            lambda path: ["validate", "--hw", "preset:J:96", "--costs", path, *run],
        ),
    ]


def test_no_single_replaced_value_in_a_file_escapes_as_an_exception(tmp_path, capsys):
    failures, cases = [], 0
    for name, obj, argv in guard_files():
        path = tmp_path / f"{name}.json"
        for where in value_paths(obj):
            for value in REPLACEMENTS:
                cases += 1
                path.write_text(json.dumps(replaced(obj, where, value)))
                try:
                    code = main(argv(str(path)))
                except Exception as exc:  # any escape is a failure; collect them all
                    failures.append(f"{name} {list(where)} = {value!r}: {type(exc).__name__}: {exc}")
                    continue
                if code not in (0, 1, 2):
                    failures.append(f"{name} {list(where)} = {value!r}: exit {code}")
        capsys.readouterr()  # drop the cases' output
    assert cases == 715
    assert not failures, "\n".join(failures)


def test_no_single_replaced_value_in_a_suite_file_escapes_score(tmp_path, capsys):
    """`score` re-scores one fixed timeline of the trimmed suite's scenario
    under each replaced value of that suite file."""
    _, suite, _ = guard_files()[0]
    run = tmp_path / "run"
    sim = ["--hw", "preset:J:96", "--synthetic", "--duration", "0.1"]
    assert main(["run", "--scenario", SCENARIO, *sim, "--out", str(run)]) == 0
    emax = json.loads((run / "report.json").read_text())["scoring_config"]["e_max_mj"]
    path = tmp_path / "suite.json"
    argv = ["score", "--suite", str(path), "--scenario", SCENARIO, "--emax", repr(emax),
            "--log", str(run / f"timeline_{SCENARIO}.csv")]
    failures, cases = [], 0
    for where in value_paths(suite):
        for value in REPLACEMENTS:
            cases += 1
            path.write_text(json.dumps(replaced(suite, where, value)))
            try:
                code = main(argv)
            except Exception as exc:  # any escape is a failure; collect them all
                failures.append(f"suite {list(where)} = {value!r}: {type(exc).__name__}: {exc}")
                continue
            if code not in (0, 1, 2):
                failures.append(f"suite {list(where)} = {value!r}: exit {code}")
    capsys.readouterr()  # drop the cases' output
    assert cases == 410
    assert not failures, "\n".join(failures)
