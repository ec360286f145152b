"""The benchmark's workload generators (``perfbench/workloads.py``) must keep
producing scenarios that the command-line parser accepts."""

import importlib.util
from pathlib import Path

import pytest

from harnacklab import cli

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_scenario_parses(name):
    cfgs, _ = workloads.WORKLOADS[name](401)
    scenario = cli.Scenario.parse(cfgs[0])
    assert scenario.checks
