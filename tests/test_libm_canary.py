"""A canary for the libm calls whose results feed the output bytes.

Three calls reach the bytes: `math.exp` in every real-time score, `math.log`
and `math.exp` in the geometric mean, and `NormalDist().inv_cdf`, whose tails
take a `log`, in each jitter offset. Each result below is pinned with
`float.hex` in the last bit, so a platform whose libm rounds one differently
fails a test that names the call, not a digest of a whole file. The inputs
are ones the golden run (preset G at 96 PEs, synthetic costs, 5 s window,
seed 7, k = 10/s) passes to each call, and the last test checks that it does.
"""

import math
from statistics import NormalDist

import pytest

from mmtsim import builtin_config, generate_requests, loadgen, scoring, simulate, synthetic_table
from mmtsim.costmodel import preset_system
from mmtsim.scoring import ScoringConfig, build_report

# an rt score's exp argument -> its exp: the golden run's least, nearest 0 and greatest
RT_EXP = {
    "-0x1.aa368f08461fbp+1": "0x1.254758cd8a7afp-5",  # -3.32979
    "0x1.bab21815a07b8p-7": "0x1.037b663232de0p+0",  # 0.01351
    "0x1.f56d5cfaacd9fp-1": "0x1.54d42b774d7f3p+1",  # 0.97935
}
# each scenario score of the golden report -> its log, in suite order
GEOMETRIC_LOG = {
    "0x1.44c61a5406accp-2": "-0x1.25f9ca456ad3ep+0",  # 0.31716
    "0x1.249979c2ce553p-2": "-0x1.40aec874a9116p+0",  # 0.28574
    "0x1.02ae0bba6bb46p-1": "-0x1.5d8f3a4296402p-1",  # 0.50523
    "0x1.2cd486bc9bd41p-1": "-0x1.10454c4fd4f38p-1",  # 0.58756
    "0x1.adf781af93bfcp-2": "-0x1.bc4b87f6cdb85p-1",  # 0.41989
    "0x1.64c8af4fc8813p-2": "-0x1.0de95265622e1p+0",  # 0.34842
    "0x1.1a6f2510b9a71p-2": "-0x1.49bc183ab423ep+0",  # 0.27581
}
# the mean of those logs -> its exp, the golden report's geometric overall
GEOMETRIC_EXP = {"-0x1.f33f6f08cb0cep-1": "0x1.82357bdc03667p-2"}  # -0.97509 -> 0.37716
# a jitter variate -> its inv_cdf: the golden run's least, its first below 0.02, and its greatest
JITTER_INV_CDF = {
    "0x1.3032760f5f740p-11": "-0x1.9fccb23d44e93p+1",  # 0.00058
    "0x1.e6e2a4d65595dp-7": "-0x1.1640671c24590p+1",  # 0.01486
    "0x1.fce14bdacbf5fp-1": "0x1.40dabed51d926p+1",  # 0.99391
}


@pytest.mark.parametrize("arg", RT_EXP)
def test_exp_of_an_rt_score_argument(arg):
    assert math.exp(float.fromhex(arg)).hex() == RT_EXP[arg]


@pytest.mark.parametrize("score", GEOMETRIC_LOG)
def test_log_of_a_scenario_score_in_the_geometric_mean(score):
    assert math.log(float.fromhex(score)).hex() == GEOMETRIC_LOG[score]


def test_exp_of_the_geometric_means_log_sum():
    total = 0.0
    for score in GEOMETRIC_LOG:
        total += math.log(float.fromhex(score))
    (mean, result), = GEOMETRIC_EXP.items()
    assert (total / len(GEOMETRIC_LOG)).hex() == mean
    assert math.exp(float.fromhex(mean)).hex() == result


@pytest.mark.parametrize("u", JITTER_INV_CDF)
def test_inv_cdf_of_a_jitter_variate_in_a_tail(u):
    assert NormalDist().inv_cdf(float.fromhex(u)).hex() == JITTER_INV_CDF[u]


class _Calls:
    """`math` with each exp and log argument recorded, and `NormalDist` with each inv_cdf one."""

    def __init__(self):
        self.args = {"exp": [], "log": [], "inv_cdf": []}
        self._normal = NormalDist()

    def __getattr__(self, name):
        return getattr(math, name)

    def exp(self, x):
        self.args["exp"].append(x)
        return math.exp(x)

    def log(self, x):
        self.args["log"].append(x)
        return math.log(x)

    def inv_cdf(self, u):
        self.args["inv_cdf"].append(u)
        return self._normal.inv_cdf(u)


def test_the_pinned_inputs_are_the_golden_runs(monkeypatch):
    calls = _Calls()
    monkeypatch.setattr(scoring, "math", calls)
    monkeypatch.setattr(loadgen, "_NORMAL", calls)
    config, hw = builtin_config(), preset_system("G", total_pes=96)
    costs = synthetic_table(config.models, hw)
    logs = {}
    for scenario in config.suite.scenarios:
        stream = generate_requests(scenario, config.sources, config.models, 5.0, seed=7)
        logs[scenario.id] = simulate(scenario, stream, hw, costs)
    build_report(logs, config, ScoringConfig(k=10.0, e_max_mj=costs.e_max_mj))

    *rt_args, geometric_arg = [x.hex() for x in calls.args["exp"]]  # the geometric mean's exp comes last
    assert set(RT_EXP) <= set(rt_args) and [geometric_arg] == list(GEOMETRIC_EXP)
    assert [s.hex() for s in calls.args["log"]] == list(GEOMETRIC_LOG)
    assert set(JITTER_INV_CDF) <= {u.hex() for u in calls.args["inv_cdf"]}
    least, nearest_zero, greatest = sorted(float.fromhex(a) for a in RT_EXP)
    assert least < 0 < abs(nearest_zero) < 0.1 < greatest
    us = sorted(float.fromhex(u) for u in JITTER_INV_CDF)
    assert us[1] < 0.02 < 0.98 < us[2]
