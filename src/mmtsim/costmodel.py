"""Hardware descriptions and the pluggable per-(model, unit) cost provider.

Costs are deterministic per (model, unit): the table either comes from an
external analytical tool via the cost-table file format, or from the
roofline-style synthetic generator below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ConfigError
from .workload import SCHEMA_VERSION, UnitModel, check_id, check_keys, json_number, load_json_file
from .workload import record_to_obj, records_from_obj

FDA = "FDA"
SFDA = "SFDA"
HDA = "HDA"

MACS_PER_PE_PER_CYCLE = 2


@dataclass(frozen=True, slots=True)
class HardwareUnit:
    """One accelerator instance: a dataflow style and a PE array."""

    id: str
    dataflow: str
    pe_count: int
    clock_ghz: float = 1.0
    power_watts: float = 1.0

    def __post_init__(self) -> None:
        check_id("unit", self.id)
        if not self.id:  # a timeline writes an empty unit for a request that never ran
            raise ConfigError("unit id must not be empty")
        if self.dataflow not in ("WS", "OS", "RS"):
            raise ConfigError(f"unit {self.id!r}: dataflow must be one of WS, OS, RS, not {self.dataflow!r}")
        if isinstance(self.pe_count, bool) or not isinstance(self.pe_count, int):
            raise ConfigError(f"unit {self.id!r}: pe_count must be an integer, not {self.pe_count!r}")
        if self.pe_count <= 0:
            raise ConfigError(f"unit {self.id!r}: pe_count must be > 0")
        try:
            float(self.pe_count)
        except OverflowError:
            raise ConfigError(f"unit {self.id!r}: pe_count is too large for a float") from None
        if not 0 < self.clock_ghz < math.inf:
            raise ConfigError(f"unit {self.id!r}: clock_ghz must be finite and > 0")
        if not math.isfinite(self.power_watts):
            raise ConfigError(f"unit {self.id!r}: power_watts must be finite")


@dataclass(frozen=True, slots=True)
class HardwareSystem:
    """A named accelerator system: one unit (FDA) or several (SFDA/HDA)."""

    id: str
    style: str
    units: tuple[HardwareUnit, ...]

    def __post_init__(self) -> None:
        check_id("system", self.id)
        if self.style not in (FDA, SFDA, HDA):
            raise ConfigError(f"system {self.id!r}: style must be one of FDA, SFDA, HDA, not {self.style!r}")
        if not self.units:
            raise ConfigError(f"system {self.id!r}: needs at least one unit")
        ids = [u.id for u in self.units]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"system {self.id!r}: duplicate unit ids")
        if self.style == FDA and len(self.units) != 1:
            raise ConfigError(f"system {self.id!r}: FDA systems have exactly one unit")


@dataclass(frozen=True, slots=True)
class CostEntry:
    """Latency (ms) and energy (mJ) of one model on one unit."""

    model: str
    unit: str
    latency_ms: float
    energy_mj: float

    def __post_init__(self) -> None:
        check_id("cost entry model", self.model)
        check_id("cost entry unit", self.unit)
        if not 0 < self.latency_ms < math.inf:
            raise ConfigError(f"cost ({self.model!r}, {self.unit!r}): latency must be finite and > 0")
        if not 0 <= self.energy_mj < math.inf:
            raise ConfigError(f"cost ({self.model!r}, {self.unit!r}): energy must be finite and >= 0")


class CostTable:
    """An exact (model, unit) -> CostEntry map plus the energy score bound.

    Every entry must respect the configured e_max so the energy score stays
    non-negative; e_max has no sensible universal default, so it is required
    configuration.
    """

    __slots__ = ("e_max_mj", "_entries")

    def __init__(self, entries: Iterable[CostEntry], e_max_mj: float):
        if not 0 < e_max_mj < math.inf:
            raise ConfigError("e_max_mj must be finite and > 0")
        self.e_max_mj = float(e_max_mj)
        self._entries: dict[tuple[str, str], CostEntry] = {}
        for entry in entries:
            key = (entry.model, entry.unit)
            if key in self._entries:
                raise ConfigError(f"duplicate cost entry for {key}")
            if entry.energy_mj > self.e_max_mj:
                raise ConfigError(
                    f"cost ({entry.model!r}, {entry.unit!r}): energy {entry.energy_mj} mJ "
                    f"exceeds e_max {self.e_max_mj} mJ"
                )
            self._entries[key] = entry

    def lookup(self, model: str, unit: str) -> CostEntry:
        try:
            return self._entries[(model, unit)]
        except KeyError:
            raise ConfigError(f"no cost entry for model {model!r} on unit {unit!r}") from None

    def entries(self) -> list[CostEntry]:
        return sorted(self._entries.values(), key=lambda e: (e.model, e.unit))


def synthetic_cost(model: UnitModel, unit: HardwareUnit) -> CostEntry:
    """A MACs/cycle roofline estimate for one model on one unit.

    latency = flops / (PEs * 2 MACs * clock);
    energy = latency * the unit's power draw.
    """
    if model.flops is None:
        raise ConfigError(f"model {model.id!r}: flops required for synthetic costs")
    latency_ms = model.flops / (unit.pe_count * MACS_PER_PE_PER_CYCLE * unit.clock_ghz * 1e9) * 1e3
    return CostEntry(
        model=model.id,
        unit=unit.id,
        latency_ms=latency_ms,
        energy_mj=latency_ms * unit.power_watts,
    )


def synthetic_table(
    models: Mapping[str, UnitModel],
    system: HardwareSystem,
    e_max_mj: float | None = None,
) -> CostTable:
    """Build a full cost table for `models` x `system.units`.

    When no e_max is given, twice the largest per-inference energy is used.
    """
    entries = [synthetic_cost(model, unit) for model in models.values() for unit in system.units]
    if e_max_mj is None:
        e_max_mj = 2.0 * max(e.energy_mj for e in entries)
    return CostTable(entries, e_max_mj=e_max_mj)


# --- Accelerator style presets --------------------------------------------
#
# Thirteen system styles: single fixed-dataflow accelerators, scaled-out
# homogeneous multi-accelerators, and heterogeneous dataflow systems, with
# the PE budget split per the listed partitioning ratios. Cost numbers are
# never implied by a preset; they come from a table or the synthetic
# generator.

ACCELERATOR_PRESETS: dict[str, tuple[str, tuple[tuple[str, int], ...]]] = {
    "A": (FDA, (("WS", 1),)),
    "B": (FDA, (("OS", 1),)),
    "C": (FDA, (("RS", 1),)),
    "D": (SFDA, (("WS", 1), ("WS", 1))),
    "E": (SFDA, (("OS", 1), ("OS", 1))),
    "F": (SFDA, (("RS", 1), ("RS", 1))),
    "G": (SFDA, (("WS", 1), ("WS", 1), ("WS", 1), ("WS", 1))),
    "H": (SFDA, (("OS", 1), ("OS", 1), ("OS", 1), ("OS", 1))),
    "I": (SFDA, (("RS", 1), ("RS", 1), ("RS", 1), ("RS", 1))),
    "J": (HDA, (("WS", 1), ("OS", 1))),
    "K": (HDA, (("WS", 3), ("OS", 1))),
    "L": (HDA, (("WS", 1), ("OS", 3))),
    "M": (HDA, (("WS", 1), ("OS", 1), ("WS", 1), ("OS", 1))),
}


def preset_system(preset: str, total_pes: int = 4096) -> HardwareSystem:
    """Instantiate one of the preset accelerator styles A..M."""
    try:
        style, parts = ACCELERATOR_PRESETS[preset.upper()]
    except KeyError:
        raise ConfigError(f"unknown accelerator preset {preset!r} (expected A..M)") from None
    total_ratio = sum(ratio for _, ratio in parts)
    fewest = math.ceil(total_ratio / min(ratio for _, ratio in parts))  # the fewest that give each unit a PE
    if total_pes < fewest:
        raise ConfigError(
            f"accelerator preset {preset.upper()!r}: total PEs must be at least {fewest}, not {total_pes}"
        )
    units = tuple(
        HardwareUnit(id=f"u{i}-{dataflow.lower()}", dataflow=dataflow, pe_count=total_pes * ratio // total_ratio)
        for i, (dataflow, ratio) in enumerate(parts)
    )
    return HardwareSystem(id=f"{preset.upper()}-{total_pes // 1024}k", style=style, units=units)


# --- Files -----------------------------------------------------------------


def system_to_obj(system: HardwareSystem) -> dict:
    return {"schema_version": SCHEMA_VERSION, **record_to_obj(system)}


def system_from_obj(obj: Mapping) -> HardwareSystem:
    try:
        keys = ("id", "style", "units")
        check_keys(obj, "hardware file", ("schema_version", *keys), keys)
        units = records_from_obj(HardwareUnit, obj["units"], "units")
        return HardwareSystem(id=obj["id"], style=obj["style"], units=units)
    except (AttributeError, TypeError, ValueError) as exc:  # AttributeError: `.keys()` on a non-object
        raise ConfigError(f"malformed hardware file: {exc}") from exc


def load_hardware_file(path) -> HardwareSystem:
    return system_from_obj(load_json_file(path))


def table_to_obj(table: CostTable) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "e_max_mj": table.e_max_mj,
        "entries": [record_to_obj(e) for e in table.entries()],
    }


def table_from_obj(obj: Mapping) -> CostTable:
    try:
        keys = ("e_max_mj", "entries")
        check_keys(obj, "cost file", ("schema_version", *keys), keys)
        return CostTable(records_from_obj(CostEntry, obj["entries"], "entries"), e_max_mj=json_number(obj, "e_max_mj"))
    except (AttributeError, TypeError, ValueError) as exc:  # AttributeError: `.keys()` on a non-object
        raise ConfigError(f"malformed cost table: {exc}") from exc


def load_cost_table_file(path) -> CostTable:
    return table_from_obj(load_json_file(path))
