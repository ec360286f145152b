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


@pytest.mark.parametrize("name", ["jump_suite", "jump_defective"])
def test_jump_reports_match_the_jump_by_jump_reference(name, monkeypatch):
    from test_sampler import _reference_jump_block

    from harnacklab import sampler

    cfgs, _ = workloads.WORKLOADS[name](401)

    def report():
        scenario = cli.Scenario.parse(cfgs[0])
        assert sampler._jump_transport(scenario.model).diagonalizable == (name == "jump_suite")
        return cli.render_reports(cli.run_scenario(scenario, samples=2000))

    text = report()
    monkeypatch.setattr(sampler, "_jump_block", _reference_jump_block)
    assert report() == text
