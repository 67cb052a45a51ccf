"""Every key of the suite, hardware and cost files that the tool itself
writes, dropped, renamed or joined by an unknown one, and each number nulled;
and the schema_version rule."""

import json

import pytest

from mmtsim import ConfigError, builtin_config
from mmtsim.cli import main
from mmtsim.costmodel import preset_system, synthetic_table, system_from_obj, system_to_obj
from mmtsim.costmodel import table_from_obj, table_to_obj
from mmtsim.workload import HIGHER_IS_BETTER, config_from_obj, config_to_obj

# The keys a file may omit, each with the value that omitting it means, as
# written in a file; every other key is required.
OPTIONAL = {
    "schema_version": "1",
    "init_latency_ms": 0.0,
    "max_jitter_ms": 0.0,
    "task_tag": "",
    "dataset_tag": "",
    "accuracy_metric_id": "",
    "reported_metric": 1.0,
    "metric_direction": HIGHER_IS_BETTER,
    "achieved_metric": None,
    "flops": None,
    "dependencies": [],
    "trigger_probability": 1.0,
    "clock_ghz": 1.0,
    "power_watts": 1.0,
}


def files():
    """Each file kind: (the file object the tool writes, its reader, its writer)."""
    config, hw = builtin_config(), preset_system("J", 96)
    return {
        "suite file": (config_to_obj(config), config_from_obj, config_to_obj),
        "hardware file": (system_to_obj(hw), system_from_obj, system_to_obj),
        "cost file": (table_to_obj(synthetic_table(config.models, hw)), table_from_obj, table_to_obj),
    }


# each file's keys: the top level's, then those of the suite's 3 sources, 11 models,
# 7 scenarios, 26 entries and 6 edges, of J's 2 units, and of 11 models x 2 units
KEY_COUNTS = {
    "suite file": 4 + 3 * 4 + 11 * 9 + 7 * 2 + 26 * 3 + 6 * 2,
    "hardware file": 4 + 2 * 5,
    "cost file": 3 + 22 * 4,
}


def object_paths(obj, path=()):
    """The path of every JSON object in `obj`, the root's () first."""
    if isinstance(obj, dict):
        yield path
        for key, value in obj.items():
            yield from object_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from object_paths(value, path + (i,))


def target_of(obj, path):
    """The object at `path` in `obj`."""
    for key in path:
        obj = obj[key]
    return obj


def edited(obj, path, edit):
    """A copy of `obj` with `edit` applied to the object at `path`."""
    copy = json.loads(json.dumps(obj))
    edit(target_of(copy, path))
    return copy


def error_of(read, obj):
    """The message of the ConfigError that `read(obj)` raises, or None."""
    try:
        read(obj)
    except ConfigError as exc:
        return str(exc)
    return None


def unknown_key_error(kind, obj, path, key):
    """The error for `key` at `path`: the place is `kind` at the top level,
    else as `scenarios[0].entries[2]`. The keys it lists are that object's in
    the tool's own file, which holds every key allowed there, in order."""
    where = ".".join(f"{key}[{i}]" for key, i in zip(path[::2], path[1::2])) if path else kind
    return f"{where}: unknown key {key!r} (expected one of {', '.join(target_of(obj, path))})"


def check_each_key(kind, check):
    """`check(obj, read, write, path, key)` for each key of each object of the
    tool's own `kind` file; it returns None, or what went wrong."""
    obj, read, write = files()[kind]
    failures, count = [], 0
    for path in object_paths(obj):
        for key in target_of(obj, path):
            count += 1
            if (failure := check(obj, read, write, path, key)) is not None:
                failures.append(f"{list(path)} {key!r}: {failure}")
    assert count == KEY_COUNTS[kind]
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("kind", KEY_COUNTS)
def test_a_dropped_key_takes_its_default_or_is_a_config_error_naming_it(kind):
    def check(obj, read, write, path, key):
        dropped = edited(obj, path, lambda o: o.pop(key))
        if key in OPTIONAL:
            defaulted = edited(obj, path, lambda o: o.update({key: OPTIONAL[key]}))
            return None if write(read(dropped)) == write(read(defaulted)) else "not read as its default"
        error = error_of(read, dropped)
        return None if error is not None and repr(key) in error else f"required, but the error is {error!r}"

    check_each_key(kind, check)


@pytest.mark.parametrize("kind", KEY_COUNTS)
def test_a_renamed_key_is_a_config_error_naming_it_where_it_sits(kind):
    def check(obj, read, write, path, key):
        error = error_of(read, edited(obj, path, lambda o: o.update({key + "2": o.pop(key)})))
        return None if error == unknown_key_error(kind, obj, path, key + "2") else f"the error is {error!r}"

    check_each_key(kind, check)


@pytest.mark.parametrize("kind", KEY_COUNTS)
def test_an_added_unknown_key_is_a_config_error_at_every_level(kind):
    obj, read, _ = files()[kind]
    failures = []
    for path in object_paths(obj):
        error = error_of(read, edited(obj, path, lambda o: o.update(colour="red")))
        if error != unknown_key_error(kind, obj, path, "colour"):
            failures.append(f"{list(path)}: the error is {error!r}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("kind", KEY_COUNTS)
def test_null_for_a_number_is_a_config_error_naming_it_but_flops_may_be_null(kind):
    def check(obj, read, write, path, key):
        if not isinstance(target_of(obj, path)[key], float):
            return None
        error = error_of(read, edited(obj, path, lambda o: o.update({key: None})))
        if key == "flops":
            return None if error is None else f"null refused: {error!r}"
        return None if f"{key} must be a number, not None" in (error or "") else f"the error is {error!r}"

    check_each_key(kind, check)


@pytest.mark.parametrize("version", ["99", 1, None, "1.0"])
def test_a_schema_version_other_than_1_is_a_config_error(version):
    for kind, (obj, read, _) in files().items():
        with pytest.raises(ConfigError, match=rf"^{kind}: schema_version must be '1', not {version!r}$"):
            read({**obj, "schema_version": version})


def _rename(obj, old, new):
    obj[new] = obj.pop(old)


# (the file's option, an edit of the file the tool writes, the error)
REPRODUCTIONS = {
    "suite-version": (
        "--suite",
        lambda o: o.update(schema_version="99"),
        "suite file: schema_version must be '1', not '99'",
    ),
    "suite-max-jitter": (
        "--suite",
        lambda o: _rename(o["input_sources"][0], "max_jitter_ms", "max_jitter"),
        "input_sources[0]: unknown key 'max_jitter' (expected one of id, streaming_rate, init_latency_ms, "
        "max_jitter_ms)",
    ),
    "suite-dependancies": (
        "--suite",
        lambda o: _rename(o["scenarios"][0]["entries"][2], "dependencies", "dependancies"),
        "scenarios[0].entries[2]: unknown key 'dependancies' (expected one of model, target_rate, dependencies)",
    ),
    "hw-clock-gz": (
        "--hw",
        lambda o: _rename(o["units"][0], "clock_ghz", "clock_gz"),
        "units[0]: unknown key 'clock_gz' (expected one of id, dataflow, pe_count, clock_ghz, power_watts)",
    ),
    "costs-top-level": (
        "--costs",
        lambda o: o.update(note="x"),
        "cost file: unknown key 'note' (expected one of schema_version, e_max_mj, entries)",
    ),
    "costs-latency": (
        "--costs",
        lambda o: o["entries"][0].update(latency=0.5),
        "entries[0]: unknown key 'latency' (expected one of model, unit, latency_ms, energy_mj)",
    ),
}


# a hardware or cost file needs the other simulation inputs; a suite file is checked alone too
SIMULATE = ["--hw", "preset:J", "--synthetic", "--scenario", "vr-gaming", "--duration", "0.1"]


@pytest.mark.parametrize(
    "case, simulate",
    [(case, False) for case, (flag, *_) in REPRODUCTIONS.items() if flag == "--suite"]
    + [(case, True) for case in REPRODUCTIONS],
)
def test_a_misspelled_or_unknown_key_makes_validate_exit_2_naming_it(tmp_path, capsys, case, simulate):
    flag, edit, message = REPRODUCTIONS[case]
    config, hw = builtin_config(), preset_system("J")
    obj = {
        "--costs": table_to_obj(synthetic_table(config.models, hw)),
        "--hw": system_to_obj(hw),
        "--suite": config_to_obj(config),
    }[flag]
    edit(obj)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    # a repeated option's last value wins; --costs wins over --synthetic
    assert main(["validate", *(SIMULATE if simulate else []), flag, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
