import hashlib
import json
import math

import pytest

from mmtsim import ConfigError, CostEntry, CostTable, HardwareSystem, HardwareUnit, UnitModel
from mmtsim.costmodel import (
    ACCELERATOR_PRESETS,
    load_cost_table_file,
    load_hardware_file,
    preset_system,
    synthetic_cost,
    synthetic_table,
    system_to_obj,
    table_to_obj,
)
from mmtsim.workload import builtin_models


MODEL = UnitModel(id="HT", task_tag="t", input_sources=("cam",), flops=1e9)
UNIT = HardwareUnit(id="u0", dataflow="WS", pe_count=4096, clock_ghz=1.0, power_watts=1.0)


def _table():
    return CostTable([CostEntry("HT", "u0", latency_ms=2.0, energy_mj=3.0)], e_max_mj=10.0)


def test_lookup_present():
    entry = _table().lookup("HT", "u0")
    assert entry.latency_ms == 2.0 and entry.energy_mj == 3.0


def test_lookup_missing_names_both_ids():
    with pytest.raises(ConfigError, match="'HT'.*'u9'"):
        _table().lookup("HT", "u9")


def test_zero_latency_entry_rejected():
    for latency, energy in [(0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]:
        with pytest.raises(ConfigError):
            CostEntry("HT", "u0", latency_ms=latency, energy_mj=energy)


def test_energy_above_emax_rejected_at_load():
    with pytest.raises(ConfigError, match="exceeds e_max"):
        CostTable([CostEntry("HT", "u0", latency_ms=1.0, energy_mj=11.0)], e_max_mj=10.0)


def test_synthetic_roofline_value():
    entry = synthetic_cost(MODEL, UNIT)
    assert entry.latency_ms == pytest.approx(0.1220703125)
    assert entry.energy_mj == pytest.approx(entry.latency_ms * 1.0)


def test_synthetic_energy_is_power_times_latency():
    unit = HardwareUnit(id="u0", dataflow="WS", pe_count=4096, power_watts=2.5)
    entry = synthetic_cost(MODEL, unit)
    assert entry.energy_mj == pytest.approx(entry.latency_ms * 2.5)


def test_synthetic_latency_decreases_with_pes():
    latencies = [
        synthetic_cost(MODEL, HardwareUnit(id="u", dataflow="WS", pe_count=n)).latency_ms
        for n in (1024, 2048, 4096, 8192)
    ]
    assert latencies == sorted(latencies, reverse=True)
    assert len(set(latencies)) == len(latencies)


def test_synthetic_requires_flops():
    bare = UnitModel(id="X", task_tag="t", input_sources=("cam",))
    with pytest.raises(ConfigError):
        synthetic_cost(bare, UNIT)


def test_presets_cover_a_through_m():
    assert sorted(ACCELERATOR_PRESETS) == [chr(c) for c in range(ord("A"), ord("N"))]
    for name in ACCELERATOR_PRESETS:
        system = preset_system(name, total_pes=4096)
        assert sum(u.pe_count for u in system.units) == 4096


def test_preset_partitioning():
    k = preset_system("K", total_pes=4096)
    assert [u.pe_count for u in k.units] == [3072, 1024]
    assert [u.dataflow for u in k.units] == ["WS", "OS"]
    a = preset_system("A")
    assert a.style == "FDA" and len(a.units) == 1


def test_fda_with_two_units_rejected():
    units = (
        HardwareUnit(id="a", dataflow="WS", pe_count=1),
        HardwareUnit(id="b", dataflow="WS", pe_count=1),
    )
    with pytest.raises(ConfigError):
        HardwareSystem(id="x", style="FDA", units=units)


def test_file_roundtrips(tmp_path):
    hw = preset_system("M", total_pes=8192)
    hw_path = tmp_path / "hw.json"
    hw_path.write_text(json.dumps(system_to_obj(hw)))
    assert load_hardware_file(hw_path) == hw

    table = _table()
    table_path = tmp_path / "costs.json"
    table_path.write_text(json.dumps(table_to_obj(table)))
    back = load_cost_table_file(table_path)
    assert back.e_max_mj == table.e_max_mj
    assert back.entries() == table.entries()


def test_hardware_and_cost_files_keep_their_bytes():
    # The writers take their keys from the records' field order; these
    # SHA-256 digests of the written text pin it.
    hw = preset_system("K", total_pes=2048)
    system_text = json.dumps(system_to_obj(hw), indent=2)
    table_text = json.dumps(table_to_obj(synthetic_table(builtin_models(), hw)), indent=2)
    assert hashlib.sha256(system_text.encode()).hexdigest() == (
        "1647f8bef8ea7e967d2d8f41e76a358f977eed810f6c1dd0b4403e7fa0baee37"
    )
    assert hashlib.sha256(table_text.encode()).hexdigest() == (
        "224b81feae44a2eee74c621e1d32bafcd28b16b1107ec002c8a7165207e47c87"
    )
