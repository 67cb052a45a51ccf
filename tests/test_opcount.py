"""The bytecode counter over preset-sweep's `simulate` calls: deterministic, and its lines add up."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import opcount


def test_two_counts_are_equal_and_the_printed_lines_add_up_to_the_total(monkeypatch, capsys):
    monkeypatch.setattr(opcount, "PRESETS", "J")
    monkeypatch.setattr(opcount, "DURATION", 0.5)
    calls, lines = opcount.count("J", 0.5)
    assert calls == 7  # one per built-in scenario
    assert opcount.count("J", 0.5) == (calls, lines)
    total = sum(lines.values())

    assert opcount.main(["--lines", str(len(lines))]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith(f": {total} bytecodes in 7 simulate calls")
    printed = [int(line.split()[0]) for line in out[1:]]
    assert len(printed) == len(lines) and sum(printed) == total > 0
