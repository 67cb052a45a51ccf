"""`log_to_csv` against the reference writer in `reference_csv.py`: the same
bytes on the built-in suite, on fuzzed setups, on logs read back from a
timeline, on hand-built rows that put each reused text to the test and on
ids that csv must quote, which must also read back unchanged."""

import functools
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from mmtsim import builtin_config, generate_requests, simulate, synthetic_table
from mmtsim.costmodel import preset_system
from mmtsim.loadgen import InferenceRequest
from mmtsim.runtime import COMPLETED, DROPPED, LATENCY_GREEDY, ROUND_ROBIN, UNTRIGGERED, log_from_csv, log_to_csv

import reference_csv
from fuzzing import random_setup
from timelines import TimelineEntry, log_of, rows


def _text(writer, log) -> str:
    buf = io.StringIO()
    writer(log, buf)
    return buf.getvalue()


def _assert_same_bytes(log) -> str:
    text = _text(log_to_csv, log)
    assert text == _text(reference_csv.log_to_csv, log)
    return text


@functools.cache
def _builtin_logs():
    """The seven built-in scenarios on preset J, 20 s, seed 7, as `mmtsim run` simulates them."""
    config = builtin_config()
    hw = preset_system("J")
    costs = synthetic_table(config.models, hw)
    return [
        simulate(s, generate_requests(s, config.sources, config.models, 20.0, seed=7), hw, costs)
        for s in config.suite.scenarios
    ]


def test_the_builtin_timelines_match_the_reference_writer():
    logs = _builtin_logs()
    assert len(logs) == 7
    for log in logs:
        _assert_same_bytes(log)


@pytest.mark.parametrize("policy", [LATENCY_GREEDY, ROUND_ROBIN])
def test_fuzzed_timelines_match_the_reference_writer(policy):
    rng = random.Random(2525)
    for i in range(40):
        scenario, sources, models, hw, costs = random_setup(rng)
        stream = generate_requests(scenario, sources, models, 0.5, seed=i)
        _assert_same_bytes(simulate(scenario, stream, hw, costs, policy=policy))


def test_timelines_read_back_match_the_reference_writer():
    for log in _builtin_logs():
        back = log_from_csv(io.StringIO(_text(reference_csv.log_to_csv, log)), scenario=log.scenario)
        assert _assert_same_bytes(back) == _text(reference_csv.log_to_csv, log)


def _row(model, index, t_req, t_dl, start=None, end=None, status=DROPPED, unit=None, energy=0.0):
    return TimelineEntry(InferenceRequest(model, index, index, t_req, t_dl), unit, start, end, status, energy)


def test_hand_built_rows_match_the_reference_writer():
    text = _assert_same_bytes(
        log_of(
            [
                _row("a", 0, -1500, 5000, start=-1500, end=2000, status=COMPLETED, unit="u", energy=-0.0),
                _row("b", 0, -1500, 7000),  # the request time repeats, the deadline does not
                _row("c", 0, 0, 5000, start=0, end=100, status=COMPLETED, unit="u"),  # 5000 again, 7000 between
                _row("a", 1, 1, 5000, start=1, end=3, status=COMPLETED, unit="u", energy=-0.0),  # start = a new t_req
                _row("b", 1, 1, 5000, start=2, end=4, status=COMPLETED, unit="v", energy=1.25),
                _row("c", 1, 2, 9000, status=UNTRIGGERED),
            ]
        )
    )
    assert text.splitlines()[1:] == [
        "a,0,0,u,-1.5,-1.5,2.0,5.0,completed,-0.0",
        "b,0,0,,-1.5,,,7.0,dropped,0.0",
        "c,0,0,u,0.0,0.0,0.1,5.0,completed,0.0",
        "a,1,1,u,0.001,0.001,0.003,5.0,completed,-0.0",
        "b,1,1,v,0.001,0.002,0.004,5.0,completed,1.25",
        "c,1,1,,0.002,,,9.0,untriggered,0.0",
    ]


TIMES = st.sampled_from([-2001, -1, 0, 1, 999, 1000, 16667, 33333])


@given(
    st.lists(
        st.tuples(TIMES, TIMES, st.one_of(st.none(), TIMES), st.one_of(st.none(), TIMES),
                  st.sampled_from([0.0, -0.0, 2.5])),
        max_size=12,
    )
)
@settings(max_examples=100, deadline=None)
def test_rows_drawn_from_few_times_match_the_reference_writer(drawn):
    # few distinct times, so rows repeat, or just miss, the previous row's values
    _assert_same_bytes(
        log_of([_row(f"m{i}", 0, t_req, t_dl, start, end, energy=e) for i, (t_req, t_dl, start, end, e) in
                enumerate(drawn)])
    )


# (model, unit): ids holding each character that csv quotes, a leading space and an empty model id
QUOTED_IDS = [
    ("a,b", "u,v"),
    ('say "hi"', '"'),
    ("cr\r", "\rcr"),
    ("lf\n", "two\r\nlines"),
    (" lead", " u"),
    ("", "u"),
]


def _assert_read_back(log) -> None:
    text = _assert_same_bytes(log)
    assert rows(log_from_csv(io.StringIO(text))) == rows(log)


def test_ids_that_csv_must_quote_match_the_reference_writer_and_read_back():
    log = log_of(
        [
            row
            for i, (model, unit) in enumerate(QUOTED_IDS)
            for row in (
                _row(model, 0, 1000 * i, 9000, start=1000 * i, end=1000 * i + 10, status=COMPLETED, unit=unit,
                     energy=0.25),
                _row(model, 1, 1000 * i + 1, 9001),
            )
        ]
    )
    _assert_read_back(log)
    assert _text(log_to_csv, log).split("\r\n")[1:3] == [
        '"a,b",0,0,"u,v",0.0,0.0,0.01,9.0,completed,0.25',
        '"a,b",1,1,,0.001,,,9.001,dropped,0.0',
    ]


ID_TEXT = st.text(alphabet=[",", '"', "\r", "\n", " ", "a"], max_size=4)


@given(st.lists(st.tuples(ID_TEXT, st.one_of(st.none(), ID_TEXT.filter(bool))), max_size=8,
                unique_by=lambda drawn: drawn[0]))
@settings(max_examples=100, deadline=None)
def test_ids_drawn_from_characters_csv_quotes_match_the_reference_writer_and_read_back(drawn):
    # a model with a unit ran on it; one without was dropped
    _assert_read_back(
        log_of([_row(model, 0, 1000 * i, 9000) if unit is None else
                _row(model, 0, 1000 * i, 9000, start=1000 * i, end=1000 * i + 10, status=COMPLETED, unit=unit)
                for i, (model, unit) in enumerate(drawn)])
    )
