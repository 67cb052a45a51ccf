"""Count the bytecodes that `runtime.simulate` executes over preset-sweep's inputs.

Usage (from the repository root):

    python3 tools/opcount.py [--lines N]

It runs what perfbench's `preset-sweep` workload simulates: each built-in
scenario's stream (seed 7) on each preset at 96 PEs with the synthetic
cost table, under the default policy. It counts with `sys.settrace` opcode
events: one per bytecode executed in a frame of `simulate` or of a code
object nested in it (its lambdas and generator expressions), and none in
the functions it calls. It prints the total and the number of calls, and
with `--lines N` the N source lines of `runtime.py` that execute the most
bytecodes (an instruction that the compiler gives no line counts under
`-`). It imports mmtsim from the `src/` of the checkout it sits in.

A count is deterministic for a given interpreter and source, and unlike a
timing it does not depend on the host's load. It depends on the
interpreter's compiler, though, so compare counts only between runs on the
same Python version. Tracing makes `simulate` about 80 times slower: the
full sweep took 16 s on a 2-vCPU host under Python 3.11.7.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from types import CodeType

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mmtsim import costmodel, loadgen, runtime, workload  # noqa: E402

PRESETS = "ABCDEFGHIJKLM"
TOTAL_PES = 96
DURATION = 20.0
SEED = 7


def _nested(code: CodeType) -> set[CodeType]:
    """`code` and every code object defined inside it."""
    found = {code}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            found |= _nested(const)
    return found


def count(presets: str, duration: float) -> tuple[int, Counter]:
    """The calls the presets' runs make to `simulate` and the bytecodes they
    execute, as (calls, Counter of line number or None -> bytecodes)."""
    config = workload.builtin_config()
    scenarios = config.suite.scenarios
    streams = [loadgen.generate_requests(s, config.sources, config.models, duration, SEED) for s in scenarios]
    counted = _nested(runtime.simulate.__code__)
    lines: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            lines[frame.f_lineno] += 1
        return local

    def call(frame, event, arg):
        if frame.f_code in counted:
            frame.f_trace_opcodes = True
            frame.f_trace_lines = False
            return local
        return None

    calls, previous = 0, sys.gettrace()
    for letter in presets:
        hw = costmodel.preset_system(letter, total_pes=TOTAL_PES)
        costs = costmodel.synthetic_table(config.models, hw)
        for scenario, stream in zip(scenarios, streams):
            sys.settrace(call)
            try:
                runtime.simulate(scenario, stream, hw, costs)
            finally:
                sys.settrace(previous)
            calls += 1
    return calls, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", type=int, default=0, metavar="N", help="print the N costliest lines")
    args = parser.parse_args(argv)
    calls, lines = count(PRESETS, DURATION)
    total = sum(lines.values())
    print(f"python {sys.version.split()[0]}: {total} bytecodes in {calls} simulate calls")
    if args.lines > 0:
        source = Path(runtime.__file__).read_text(encoding="utf-8").splitlines()
        for lineno, n in lines.most_common(args.lines):
            text = "(an instruction with no line)" if lineno is None else source[lineno - 1].strip()
            print(f"{n:>10} {n / total:6.1%} {lineno or '-':>4}  {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
