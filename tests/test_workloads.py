"""The benchmark's workload generators (``perfbench/workloads.py``) must keep
producing scenarios that the command-line parser accepts, the Monte Carlo
workloads must keep clearing the benchmark's row gate, and the runner
(``perfbench/run.py``) must run one, traced and untraced."""

import functools
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from harnacklab import cli, sampler, verify

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


@functools.cache
def _reports(name, seed):
    """Every row of one workload seed, run once for the tests below."""
    cfgs, _ = workloads.WORKLOADS[name](seed)
    return [r for cfg in cfgs for r in cli.run_scenario(cli.Scenario.parse(cfg))]


@pytest.mark.parametrize("name", ["jump_suite", "jump_defective", "semilinear_paths", "highdim_suite"])
def test_jump_workloads_pass_the_benchmark_row_gate(name):
    """The benchmark marks a run incorrect on any INCONCLUSIVE, VIOLATED or NaN
    row; the Monte Carlo workloads must clear that gate on several seeds, and
    highdim_suite, whose closed forms take about a second a seed, on three."""
    bad = []
    for seed in range(1, 4 if name == "highdim_suite" else 6):
        for r in _reports(name, seed):
            values = (r.lhs, r.rhs, r.lhs_se, r.rhs_se, r.margin)
            if r.verdict in (verify.INCONCLUSIVE, verify.VIOLATED) or any(map(math.isnan, values)):
                bad.append((seed, r.check_id, r.verdict, r.margin))
    assert not bad


def test_semilinear_rows_stop_at_the_first_look():
    """semilinear_paths caps its semilinear_harnack rows at 2048 replicates,
    five blocks of the control-variate path ladder (128, 128, 256, 512,
    1024): every row stops at a block boundary, and at least 90 % stop at the
    first (137 of the 140 rows of seeds 1-5 do).  A change that quietly draws
    the whole cap again fails here."""
    first = sampler.PATH_FIRST_BLOCK
    rows = [r for seed in range(1, 6) for r in _reports("semilinear_paths", seed) if r.check_id.startswith("semilinear")]
    used = [r.params["n_used"] for r in rows]
    assert len(used) == 5 * 2 * workloads.SEMILINEAR_COUNT
    assert {r.params["control_variate"] for r in rows} == {"ou_twin"}
    assert set(used) <= {first << i for i in range(5)} and 16 * first == workloads.SEMILINEAR_N
    assert sum(u == first for u in used) >= 0.9 * len(used)


@pytest.mark.parametrize("trace", [1, 0])
def test_benchmark_runner_end_to_end(trace):
    """The runner itself, traced and untraced.  The trace hooks functions of the
    package by name (`linops.semigroup_snapshot`, `linops.psd_sqrt_pinv`,
    `OuLevyModel.snapshot` and `noise_sqrt`, `build_adjoint`,
    `testfuncs.drift_from_spec`); the traced run must still count snapshots
    and factorizations through them."""
    runner = _PATH.parent / "run.py"
    proc = subprocess.run([sys.executable, str(runner), "--workload", "jump_defective", "--seed", "401",
                           "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300, cwd=_PATH.parent.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    if trace:
        counts = {k: result["metrics"][k]["value"] for k in (
            "linops.snapshot_calls", "linops.factor_calls", "model.snapshot_requests")}
        assert all(v > 0 for v in counts.values()), counts
