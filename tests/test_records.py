"""The record types are slotted (no instance `__dict__`), and they come back
equal from `pickle` and `copy.deepcopy`, as a worker process receives them."""

import copy
import pickle

import pytest

from mmtsim import builtin_config, generate_requests, preset_system, simulate, synthetic_table
from mmtsim.costmodel import CostEntry, CostTable, HardwareSystem, HardwareUnit
from mmtsim.loadgen import RequestStream
from mmtsim.scoring import ScenarioReport, ScoreReport, ScoringConfig, build_report
from mmtsim.workload import (
    BenchmarkSuite,
    DependencyEdge,
    InputSource,
    ScenarioEntry,
    SuiteConfig,
    UnitModel,
    UsageScenario,
)

SLOTTED = (
    InputSource,
    UnitModel,
    DependencyEdge,
    ScenarioEntry,
    UsageScenario,
    BenchmarkSuite,
    SuiteConfig,
    HardwareUnit,
    HardwareSystem,
    CostEntry,
    CostTable,
    RequestStream,
    ScenarioReport,
    ScoreReport,
)


def _records() -> dict[type, object]:
    """One instance of each slotted type, from the built-in suite on preset J."""
    config, hw = builtin_config(), preset_system("J")
    costs = synthetic_table(config.models, hw)
    scenario = config.suite.scenario("vr-gaming")
    stream = generate_requests(scenario, config.sources, config.models, 1.0, 7)
    log = simulate(scenario, stream, hw, costs)
    report = build_report({scenario.id: log}, config, ScoringConfig(e_max_mj=costs.e_max_mj))
    edge = next(edge for entry in scenario.entries for edge in entry.dependencies)
    found = [
        *config.sources.values(), *config.models.values(), edge, *scenario.entries, scenario, config.suite, config,
        *hw.units, hw, *costs.entries(), costs, stream, *report.scenarios.values(), report,
    ]
    return {type(r): r for r in found}


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
def test_a_record_has_no_instance_dict_and_takes_no_new_attribute(cls):
    record = _records()[cls]
    assert "__slots__" in vars(cls) and not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(record, "extra", 1)


def _table_key(table: CostTable) -> tuple:
    return table.e_max_mj, table.entries()


@pytest.mark.parametrize("copier", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy], ids=["pickle", "deepcopy"])
def test_config_hardware_and_cost_table_are_equal_after_a_copy(copier):
    config, hw = builtin_config(), preset_system("J")
    costs = synthetic_table(config.models, hw)
    config2, hw2, costs2 = copier(config), copier(hw), copier(costs)
    assert config2 is not config and hw2 is not hw and costs2 is not costs
    assert config2 == config and hw2 == hw and _table_key(costs2) == _table_key(costs)
    scenario, scenario2 = config.suite.scenario("vr-gaming"), config2.suite.scenario("vr-gaming")
    stream = generate_requests(scenario, config.sources, config.models, 1.0, 7)
    stream2 = generate_requests(scenario2, config2.sources, config2.models, 1.0, 7)
    assert stream2.requests == stream.requests
    log, log2 = simulate(scenario, stream, hw, costs), simulate(scenario2, stream2, hw2, costs2)
    for column in ("unit", "t_start_us", "t_end_us", "status", "energy_mj", "counts"):
        assert getattr(log2, column) == getattr(log, column), column


@pytest.mark.parametrize("copier", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy], ids=["pickle", "deepcopy"])
def test_a_simulated_stream_copies_with_its_plan_and_simulates_the_same_log(copier):
    config, hw = builtin_config(), preset_system("J")
    costs = synthetic_table(config.models, hw)
    scenario = config.suite.scenario("vr-gaming")  # it has a dependency edge, so its plan has anchors
    stream = generate_requests(scenario, config.sources, config.models, 1.0, 7)
    twin = generate_requests(scenario, config.sources, config.models, 1.0, 7)
    log = simulate(scenario, stream, hw, costs)
    stream2 = copier(stream)
    assert stream2 is not stream and stream2 == twin and hash(stream2) == hash(twin) and repr(stream2) == repr(twin)
    assert stream2.plans == stream.plans and stream2.plans is not stream.plans  # the plan came along
    log2 = simulate(scenario, stream2, hw, costs)
    for column in ("unit", "t_start_us", "t_end_us", "status", "energy_mj", "counts"):
        assert getattr(log2, column) == getattr(log, column), column
