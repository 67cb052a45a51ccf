"""Byte identity of the simulator's outputs against recorded digests.

The digests were recorded before the dispatcher was rewritten for speed.
Any later change that moves a single byte of a timeline CSV or log JSON
fails here; a deliberate behaviour change must re-record them and say so.
"""

import hashlib
import io
import json

from mmtsim import builtin_config, generate_requests, simulate, synthetic_table
from mmtsim.costmodel import preset_system
from mmtsim.runtime import log_to_csv, log_to_obj

# scenario -> (SHA-256 of log_to_csv, SHA-256 of json.dumps(log_to_obj, indent=2))
# on preset G at 96 PEs, synthetic costs, 5 s window, seed 7
GOLDEN = {
    "social-interaction-a": (
        "122f54ee0b86b60349ad270f89fecd9387ff903d8789b3d92a6e97ff628118e9",
        "434cf58412e1b40d14fba1c0c8297d0e2a7463db5db45062e85f9e1fb060f722",
    ),
    "social-interaction-b": (
        "18762b937b3f57cee81752a9b3d1378fd7830a086f8ae936cd2c435635563e01",
        "d3ae02af978e4e91393ee2aa93e8d0e401ec426563589cb6c32edd3e2fc75e53",
    ),
    "outdoor-activity-a": (
        "c21475e6fed23f6ea6744081a4c87a4de795e5d966a21d0545c087f8e7a3a7cf",
        "f29e896b328370c488c9df7a0bfa3418ea4beac3562fb4f441d881b383153d2e",
    ),
    "outdoor-activity-b": (
        "5f06e574b5c1397baf512fa04d2b621bee03a114acef4f5e59b8a884f9638120",
        "dd005b7b2d018383914be73b55bda34e79f198009ca5701f40721e7a40457983",
    ),
    "ar-assistant": (
        "39b4b1d99797d8f9931eb73fbc965c1e4387b7161a6951c641a7ce43b966756a",
        "c2781706486cbc4b443e36dcaa3bb12a7f3beb9b1134961e3be209815e66739a",
    ),
    "ar-gaming": (
        "a1128e25d8a65d260f7816f45c784ac7470e520faaaa766cf8d3396dee576b2b",
        "6206e07b319975d3173fc13cde0255fafe1b99fa557f9db75163a4b388ffc315",
    ),
    "vr-gaming": (
        "7310eaac143e424a6d6c470fa73846bbcb51910341dca19d6386732173a09de7",
        "8d7d1314956afa9afb3467f423699455c18fae703bdc4fa37c9a5b285c7b0b98",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_builtin_suite_outputs_are_byte_identical_to_recorded_digests():
    config = builtin_config()
    hw = preset_system("G", total_pes=96)
    costs = synthetic_table(config.models, hw)
    got = {}
    for scenario in config.suite.scenarios:
        stream = generate_requests(scenario, config.sources, config.models, 5.0, seed=7)
        log = simulate(scenario, stream, hw, costs)
        buf = io.StringIO()
        log_to_csv(log, buf)
        got[scenario.id] = (_sha256(buf.getvalue()), _sha256(json.dumps(log_to_obj(log), indent=2)))
    assert got == GOLDEN
