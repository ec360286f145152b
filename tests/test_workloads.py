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
    """jump_suite's drifts have an eigenbasis, so its reports are byte-equal to
    the reference; jump_defective's go through the interpolant of e^{vA}, so
    its rows keep their verdicts, with lhs and rhs within 1e-10 relative."""
    from test_sampler import _reference_jump_block

    from harnacklab import sampler

    cfgs, _ = workloads.WORKLOADS[name](401)

    def reports():
        scenario = cli.Scenario.parse(cfgs[0])
        check = scenario.checks[0]
        transport = sampler._jump_transport(scenario.model, check["t"])
        assert isinstance(transport, sampler._EigenTransport) == (name == "jump_suite")
        return cli.run_scenario(scenario, samples=2000)

    got = reports()
    monkeypatch.setattr(sampler, "_jump_block", _reference_jump_block)
    want = reports()
    if name == "jump_suite":
        assert cli.render_reports(got) == cli.render_reports(want)
    for g, w in zip(got, want, strict=True):
        assert (g.check_id, g.verdict) == (w.check_id, w.verdict)
        assert g.lhs == pytest.approx(w.lhs, rel=1e-10) and g.rhs == pytest.approx(w.rhs, rel=1e-10)
