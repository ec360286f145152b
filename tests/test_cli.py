import ast
import csv
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from harnacklab import OuLevyModel, cli, testfuncs, verify
from harnacklab.analytic import GaussianMeasure
from harnacklab.model import SemilinearSpec
from harnacklab.sampler import mix_seed

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

#: Verdict of every row of scenarios/scalar_ou.json, keyed by (scenario index, check id).
SCALAR_OU_VERDICTS = {
    (0, "density_norm"): verify.HOLDS,
    (0, "entropy_cost"): verify.HOLDS,
    (0, "entropy_cost_adjoint"): verify.HOLDS,
    (0, "gradient"): verify.HOLDS,
    (0, "harnack_exact_closed"): verify.HOLDS,
    (0, "harnack_h_bound"): verify.HOLDS,
    (0, "harnack_operator_mc"): verify.HOLDS,
    (0, "hwi"): verify.HOLDS,
    (0, "hwi_symmetric"): verify.HOLDS,
    (0, "hyper_constant"): verify.HOLDS,
    (0, "kernel_kl"): verify.HOLDS_EQUALITY,
    (0, "kernel_power"): verify.HOLDS_EQUALITY,
    (0, "log_harnack"): verify.HOLDS,
    (0, "rho_moments_negative"): verify.HOLDS,
    (0, "rho_moments_positive"): verify.HOLDS,
    (0, "semilinear"): verify.HOLDS,
}


def minimal_config(**overrides):
    cfg = {
        "dim": 1,
        "A": [[-1.0]],
        "R": [[2.0]],
        "a": [0.0],
        "seed": 99,
        "checks": [
            {"kind": "kernel_kl", "id": "kl", "t": 1.0, "x": [1.0], "y": [0.0]},
        ],
    }
    cfg.update(overrides)
    return cfg


class TestScenarioParsing:
    def test_round_trip_is_idempotent(self):
        cfg = json.loads((SCENARIO_DIR / "scalar_ou.json").read_text())
        first = cli.Scenario.parse(cfg)
        second = cli.Scenario.parse(first.to_dict())
        assert first.to_dict() == second.to_dict()

    def test_missing_field_path_in_error(self):
        cfg = minimal_config()
        del cfg["checks"][0]["t"]
        with pytest.raises(cli.SchemaError, match="check kl.t"):
            cli.run_scenario(cli.Scenario.parse(cfg))

    def test_asymmetric_noise_reports_field(self):
        cfg = minimal_config(R=[[1.0, 0.5], [0.0, 1.0]], A=[[0.0, 0.0], [0.0, 0.0]], dim=2, a=[0.0, 0.0])
        with pytest.raises(cli.SchemaError, match="R"):
            cli.Scenario.parse(cfg)

    def test_unknown_kind_rejected(self):
        cfg = minimal_config()
        cfg["checks"][0]["kind"] = "nonsense"
        with pytest.raises(cli.SchemaError, match="kind"):
            cli.Scenario.parse(cfg)

    def test_duplicate_ids_rejected(self):
        cfg = minimal_config()
        cfg["checks"] = [cfg["checks"][0], dict(cfg["checks"][0])]
        with pytest.raises(cli.SchemaError, match="duplicate"):
            cli.Scenario.parse(cfg)

    def test_seed_required_somewhere(self):
        cfg = minimal_config()
        del cfg["seed"]
        with pytest.raises(cli.SchemaError, match="seed"):
            cli.Scenario.parse(cfg)

    def test_jump_block_parsed(self):
        cfg = minimal_config(jump={"rate": 2.0, "atoms": [[1.0], [-1.0]], "probs": [0.5, 0.5]})
        scenario = cli.Scenario.parse(cfg)
        assert scenario.model.has_jumps
        assert scenario.to_dict()["jump"]["rate"] == 2.0


class TestMain:
    def test_scalar_suite_exits_zero(self, tmp_path):
        out = tmp_path / "reports.csv"
        code = cli.main(["--config", str(SCENARIO_DIR / "scalar_ou.json"), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(cli.CSV_HEADER)
        # reports come out sorted by check id
        ids = [line.split(",")[0] for line in lines[1:]]
        assert ids == sorted(ids)
        with out.open() as fh:
            verdicts = {(0, row["check_id"]): row["verdict"] for row in csv.DictReader(fh)}
        assert verdicts == SCALAR_OU_VERDICTS

    def test_malformed_config_exits_three(self, tmp_path):
        cfg = minimal_config(R=[[1.0, 0.5], [0.0, 1.0]], A=[[0.0, 0.0], [0.0, 0.0]], dim=2, a=[0.0, 0.0])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(path)]) == 3

    def test_unreadable_config_exits_three(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "missing.json")]) == 3

    def test_tight_check_small_sample_exits_two(self, tmp_path):
        # sharp-point comparison at n=100, an exact equality: for this frozen
        # seed the margin lands 2.3 joint standard errors below zero, inside
        # three of the sides' combined error.  The jump part of a single zero
        # atom leaves the law as it is and keeps the row on Monte Carlo
        cfg = {
            "dim": 1, "A": [[0.0]], "R": [[1.0]], "a": [0.0], "jump": {"rate": 1.0, "atoms": [[0.0]]},
            "checks": [{
                "kind": "harnack", "id": "tight", "t": 1.0, "x": [0.6], "y": [0.0],
                "alpha": 2.0, "f": {"kind": "clipped_exp", "c": [0.6], "cap": 1000.0},
                "n": 100, "seed": 2,
            }],
        }
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "tight.csv"
        assert cli.main(["--config", str(path), "--out", str(out)]) == 2
        assert "INCONCLUSIVE" in out.read_text()

    def test_non_finite_observable_exits_three(self, tmp_path, capsys, recwarn):
        # exp(400 x) overflows at the quadrature nodes: an input error, not a verdict
        cfg = minimal_config()
        cfg["checks"] = [{"kind": "gradient", "id": "g", "t": 1.0, "x": [0.5], "y": [0.0],
                          "f": {"kind": "exp", "c": [400.0]}, "n": 2000}]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "overflow.csv"
        assert cli.main(["--config", str(path), "--out", str(out)]) == 3
        assert not out.exists()
        assert "non-finite" in capsys.readouterr().err
        # the overflow is named once, by the integrand: no step warns about it or computes with inf
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]

    def test_clipped_exp_overflow_is_capped_silently(self, recwarn):
        f = testfuncs.observable_from_spec({"kind": "clipped_exp", "c": [400.0]}, 1)
        assert f(np.array([[3.0]])).tolist() == [10.0]
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]

    def test_unknown_observable_exits_three(self, tmp_path):
        cfg = minimal_config()
        cfg["checks"] = [{"kind": "harnack", "id": "h", "t": 1.0, "x": [0.5], "y": [0.0],
                          "alpha": 2.0, "f": {"kind": "mystery"}, "n": 200}]
        path = tmp_path / "bad_f.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(path)]) == 3

    @pytest.mark.parametrize("check, field, literal, shown", [
        ({"kind": "harnack", "t": 1.0, "x": ["@"], "y": [0.0], "alpha": 2.0,
          "f": {"kind": "exp", "c": [0.5]}}, "x[0]", "NaN", "nan"),
        ({"kind": "density_norm", "t": 1.0, "x": [0.5], "alpha": "@"}, "alpha", "NaN", "nan"),
        ({"kind": "kernel_kl", "t": "@", "x": [1.0], "y": [0.0]}, "t", "Infinity", "inf"),
        ({"kind": "kernel_kl", "t": 1.0, "x": [1.0], "y": ["@"]}, "y[0]", "-1e999", "-inf"),
        pytest.param({"kind": "kernel_kl", "t": 1.0, "x": ["@"], "y": [0.0]}, "x[0]", "1" + "0" * 400,
                     "100000000000000000...0000000000000000000", id="integer-beyond-float-range"),
    ])
    def test_non_finite_check_number_exits_three(self, tmp_path, capsys, check, field, literal, shown):
        # json loads NaN, Infinity and an overflowing 1e999 as non-finite floats, a 401-digit literal as an int
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(minimal_config(checks=[dict(check, id="c")])).replace('"@"', literal))
        out = tmp_path / "non_finite.csv"
        assert cli.main(["--config", str(path), "--out", str(out)]) == 3
        assert not out.exists()
        assert f"config.checks[0].{field}: non-finite number {shown}" in capsys.readouterr().err

    def test_saturated_exponent_with_constant_observable_exits_zero(self, tmp_path):
        # energy 1001: the Harnack coefficient saturates to inf, and the constant
        # observable's zero standard error must not make its scaled error NaN
        cfg = minimal_config(checks=[{"kind": "harnack", "id": "h", "t": 1.0, "x": [80.0], "y": [0.0],
                                      "alpha": 2.0, "f": {"kind": "one"}, "n": 200}])
        path = tmp_path / "saturated.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "saturated.csv"
        assert cli.main(["--config", str(path), "--out", str(out)]) == 0
        assert "TRIVIAL_INFINITE_RHS" in out.read_text()

    def test_overflowing_atom_moment_saturates(self, tmp_path, recwarn):
        # E exp(30 xi) of the one atom 30 is e^900: finite, but past the float range.
        # Jensen, M(alpha lam) >= M(lam)^alpha, saturates the rhs with the lhs.
        cfg = minimal_config(R=[[1.0]], seed=3, jump={"rate": 1.0, "atoms": [[30.0]]}, checks=[
            {"kind": "harnack", "id": "h", "t": 1.0, "x": [0.5], "y": [0.0], "alpha": 2.0,
             "f": {"kind": "exp", "c": [30.0]}}])
        path = tmp_path / "atom_overflow.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "atom_overflow.csv"
        assert cli.main(["--config", str(path), "--out", str(out)]) == 0
        [row] = list(csv.DictReader(out.read_text().splitlines()))
        assert row["verdict"] != "VIOLATED"
        assert row["verdict"] == "TRIVIAL_INFINITE_RHS"
        assert "growth factor exceeds the float range" in json.loads(row["param_json"])["note"]
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]

    def test_non_finite_model_number_exits_three(self, tmp_path, capsys):
        path = tmp_path / "nan_offset.json"
        path.write_text(json.dumps(minimal_config(a=[math.nan])))
        assert cli.main(["--config", str(path)]) == 3
        assert "config.a[0]: non-finite number nan" in capsys.readouterr().err

    def test_samples_override(self, tmp_path):
        import csv

        out = tmp_path / "small.csv"
        code = cli.main(["--config", str(SCENARIO_DIR / "scalar_ou.json"),
                         "--check", "harnack_operator_mc", "--samples", "500", "--out", str(out)])
        assert code in (0, 2)
        with out.open() as fh:
            row = list(csv.DictReader(fh))[0]
        assert json.loads(row["param_json"])["n"] == 500

    def test_check_selection(self, tmp_path):
        out = tmp_path / "one.csv"
        code = cli.main(["--config", str(SCENARIO_DIR / "scalar_ou.json"),
                         "--check", "kernel_kl", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("kernel_kl,")

    def test_json_lines_format(self, tmp_path):
        out = tmp_path / "rep.jsonl"
        code = cli.main(["--config", str(SCENARIO_DIR / "scalar_ou.json"),
                         "--check", "hyper_constant", "--format", "json", "--out", str(out)])
        assert code == 0
        row = json.loads(out.read_text().splitlines()[0])
        assert row["check_id"] == "hyper_constant"
        assert row["verdict"] in ("HOLDS", "HOLDS_EQUALITY")

    def test_seed_override_changes_sampled_reports(self, tmp_path):
        # semilinear samples on this jump-free model, where harnack_operator_mc is a quadrature
        # row whose only seeded field is the seed column
        import csv

        rows = []
        for seed in ("1", "2"):
            out = tmp_path / f"seeded_{seed}.csv"
            code = cli.main(["--config", str(SCENARIO_DIR / "scalar_ou.json"),
                             "--check", "semilinear", "--seed", seed, "--out", str(out)])
            assert code in (0, 2)
            with out.open() as fh:
                rows.append(list(csv.DictReader(fh))[0])
        assert json.loads(rows[0]["param_json"])["method"] == "monte_carlo"
        assert rows[0]["lhs"] != rows[1]["lhs"]

    def test_seed_override_of_a_non_object_config_exits_three(self, capsys):
        # jump_suite.json is a list of scenarios, not one scenario object
        code = cli.main(["--config", str(SCENARIO_DIR / "jump_suite.json"), "--seed", "3"])
        assert code == 3
        assert "config: top level must be an object" in capsys.readouterr().err

    def test_uncertifiable_jump_transport_exits_three(self, tmp_path, capsys):
        # a fast-rotating Jordan drift: no eigenbasis, and 1e5 interpolation pieces on [0, 1]
        rot = np.array([[0.0, 2e5], [-2e5, 0.0]])
        a = np.block([[rot, np.eye(2)], [np.zeros((2, 2)), rot]])
        cfg = minimal_config(dim=4, A=a.tolist(), R=np.eye(4).tolist(), a=[0.0] * 4,
                             jump={"rate": 1.0, "atoms": [[1.0, 0.0, 0.0, 0.0]]})
        cfg["checks"] = [{"kind": "harnack", "id": "h", "t": 1.0, "x": [0.0] * 4, "y": [0.1, 0.0, 0.0, 0.0],
                          "alpha": 2.0, "f": {"kind": "indicator", "c": [0.0] * 4}, "n": 200}]
        path = tmp_path / "rotating_jordan.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(path)]) == 3
        assert "the table of piece starts exceeds 8 MiB" in capsys.readouterr().err

    def test_drift_leaving_the_range_mid_path_exits_three(self, tmp_path, capsys, monkeypatch):
        # F(x) = (0, sin(pi x_1)) passes the probe spot-check (x_1 in {0, 1, 2}) and leaves
        # the range of R^(1/2) = diag(1, 0) once the path moves: a runtime failure, not a verdict
        spec = SemilinearSpec(drift_fn=lambda pts: np.stack([np.zeros(len(pts)), np.sin(np.pi * pts[:, 0])], axis=1),
                              k1=1.0, k2=0.0)
        monkeypatch.setattr(cli, "drift_from_spec", lambda raw, model: spec)
        cfg = minimal_config(dim=2, A=[[-1.0, 0.0], [0.0, -1.0]], R=[[1.0, 0.0], [0.0, 0.0]], a=[0.0, 0.0])
        cfg["checks"] = [{"kind": "rho_moments", "id": "rho", "t": 1.0, "x": [0.0, 0.0], "p": 2.0, "delta": 0.5,
                          "F": {"kind": "zero"}, "n": 200, "K": 8}]
        path = tmp_path / "range.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(path)]) == 3
        assert "error: drift value leaves the range of R^(1/2)" in capsys.readouterr().err

    def test_unknown_check_id_exits_three(self):
        assert cli.main(["--config", str(SCENARIO_DIR / "scalar_ou.json"), "--check", "nope"]) == 3

    def test_byte_identical_reruns(self, tmp_path):
        """Reruns give the same bytes, and no path-draw worker outlives a run."""
        before = threading.active_count()
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"run_{tag}.csv"
            code = cli.main(["--config", str(SCENARIO_DIR / "scalar_ou.json"), "--out", str(out)])
            assert code == 0
            assert threading.active_count() == before
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_rows_echo_the_observable_spec_and_the_method(self, tmp_path):
        # f was echoed by repr, which depends on numpy's print options; --samples bounds no quadrature row
        checks = [{"kind": "harnack", "id": "clipped", "alpha": 2.0, "f": {"kind": "clipped_exp", "c": [0.5]}},
                  {"kind": "gradient", "id": "indicator", "f": {"kind": "indicator", "c": [1.0], "threshold": 0.2}},
                  {"kind": "harnack", "id": "exp", "alpha": 2.0, "f": {"kind": "exp", "c": [0.5]}},
                  {"kind": "semilinear_harnack", "id": "semilinear", "alpha": 4.0, "p": 1.3, "q": 1.3, "K": 8,
                   "F": {"kind": "zero"}, "f": {"kind": "one"}}]
        cfg = minimal_config(checks=[{"t": 1.0, "x": [0.4], "y": [0.0], **c} for c in checks])
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(cfg))
        rows = {}
        for samples in ([], ["--samples", "100"]):
            out = tmp_path / f"echo{len(samples)}.csv"
            assert cli.main(["--config", str(path), "--out", str(out), *samples]) == 0
            with out.open() as fh:
                rows[len(samples)] = {r["check_id"]: r for r in csv.DictReader(fh)}
        params = {cid: json.loads(r["param_json"]) for cid, r in rows[0].items()}
        assert params["clipped"]["f"] == {"kind": "clipped_exp", "c": [0.5], "cap": 10.0}
        assert params["indicator"]["f"] == {"kind": "indicator", "c": [1.0], "threshold": 0.2}
        assert {cid: p["method"] for cid, p in params.items()} == {
            "clipped": "quadrature", "indicator": "closed_form", "exp": "closed_form", "semilinear": "monte_carlo"}
        for cid in ("clipped", "indicator", "exp"):
            assert (rows[2][cid]["lhs"], rows[2][cid]["rhs"]) == (rows[0][cid]["lhs"], rows[0][cid]["rhs"])

    @pytest.mark.parametrize("check, field, message", [
        ({"kind": "rho_moments", "p": 2.0, "delta": 0.5}, {"n": 0}, "at least 100 replicates"),
        ({"kind": "rho_moments", "p": 2.0, "delta": 0.5}, {"n": 1}, "at least 100 replicates"),
        ({"kind": "rho_moments", "p": 2.0, "delta": 0.5}, {"n": 2}, "at least 100 replicates"),
        ({"kind": "gradient", "y": [0.0], "f": {"kind": "tanh", "c": [1.0]}}, {"n": 0}, "at least 100 replicates"),
        ({"kind": "gradient", "y": [0.0], "f": {"kind": "tanh", "c": [1.0]}}, {"n": 1}, "at least 100 replicates"),
        ({"kind": "rho_moments", "p": 2.0, "delta": 0.5}, {"n": 200, "K": 0}, "grid size must be at least 1"),
        ({"kind": "semilinear_harnack", "y": [0.0], "alpha": 4.0, "p": 1.3, "q": 1.3,
          "f": {"kind": "tanh", "c": [1.0]}}, {"n": 200, "K": 0}, "grid size must be at least 1"),
    ])
    def test_too_few_replicates_or_grid_steps_exit_three(self, tmp_path, capsys, check, field, message):
        # these divided by zero (exit 1, the VIOLATED code), or gave a verdict from two samples
        cfg = minimal_config(checks=[{"id": "c", "t": 1.0, "x": [0.4], "F": {"kind": "zero"}, **check, **field}])
        path = tmp_path / "few.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(path)]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("n", 1000.5, "check c.n: must be an integer, got 1000.5"),
        ("n", "1000", "check c.n: must be an integer, got '1000'"),
        ("K", True, "check c.K: must be an integer, got True"),
        ("use_h_bound", "false", "check c.use_h_bound: must be true or false, got 'false'"),
        ("use_h_bound", 0, "check c.use_h_bound: must be true or false, got 0"),
        ("t", None, "check c.t: must be a number, got None"),
        ("t", "1", "check c.t: must be a number, got '1'"),
        ("seed", [1], "config.checks[0].seed: must be an integer, got [1]"),
        ("seed", 1.5, "config.checks[0].seed: must be an integer, got 1.5"),
        ("id", [1], "config.checks[0].id: must be a string, got [1]"),
        ("nu", "normal", "check c.nu: must be an object, got 'normal'"),
        ("h", [1.0], "check c.h: must be an object, got [1.0]"),
        ("nu", {"mean": [1.0], "cov": [["1"]]},
         "check c.nu.cov[0]: must be a list of numbers of length 1, got ['1']"),
    ])
    def test_wrong_field_type_exits_three(self, tmp_path, capsys, field, value, message):
        # "false" ran the symmetric variant (bool("false") is True), and 1000.5 ran 1000 samples
        check = {"kind": "hwi", "id": "c", "t": 1.0, "nu": {"mean": [1.0], "cov": [[1.0]]},
                 "h": {"kind": "exponential", "rate": 1.0}, field: value}
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(minimal_config(checks=[check])))
        assert cli.main(["--config", str(path)]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("check, cfg, message", [
        ({"kind": "harnack", "alpha": "2", "f": {"kind": "exp", "c": [0.5]}}, {},
         "check c.alpha: must be a number, got '2'"),
        ({"kind": "harnack", "alpha": 2.0, "f": "exp"}, {}, "check c.f: must be an object, got 'exp'"),
        ({"kind": "rho_moments", "p": 2.0, "delta": 0.5, "F": "zero"}, {}, "check c.F: must be an object, got 'zero'"),
        ({"kind": "kernel_harnack", "alpha": True}, {}, "check c.alpha: must be a number, got True"),
        ({"kind": "kernel_kl"}, {"seed": [1]}, "config.seed: must be an integer, got [1]"),
        ({"kind": "kernel_kl"}, {"seed": 1.5}, "config.seed: must be an integer, got 1.5"),
        ({"kind": "kernel_kl"}, {"jump": {"rate": "1", "atoms": [[0.5]]}}, "config.jump.rate: must be a number, got '1'"),
        ({"kind": "kernel_kl", "x": None}, {}, "check c.x: must be a list of numbers of length 1, got None"),
        ({"kind": "kernel_kl", "x": ["a"]}, {}, "check c.x: must be a list of numbers of length 1, got ['a']"),
        ({"kind": "harnack", "alpha": 2.0, "f": {"kind": "clipped_exp", "c": [0.5], "cap": "3"}}, {},
         "f.cap: must be a number, got '3'"),
        ({"kind": "harnack", "alpha": 2.0, "f": {"kind": "indicator", "c": [0.5], "threshold": "0.1"}}, {},
         "f.threshold: must be a number, got '0.1'"),
        ({"kind": "harnack", "alpha": 2.0, "f": {"kind": "exp", "c": None}}, {},
         "f.c: must be a list of numbers of length 1, got None"),
        ({"kind": "harnack", "alpha": 2.0, "f": {"c": [0.5]}}, {}, "f.kind: unknown observable kind None"),
        ({"kind": "rho_moments", "p": 2.0, "delta": 0.5, "F": {"kind": "scaled_sine", "k": "0.5"}}, {},
         "F.k: must be a number, got '0.5'"),
        ({"kind": "rho_moments", "p": 2.0, "delta": 0.5, "F": {"kind": "constant"}}, {},
         "F.b: must be a list of numbers of length 1, got None"),
        ({"kind": "kernel_kl"}, {"A": [["-1"]], "R": [[True]]},
         "config.A[0]: must be a list of numbers of length 1, got ['-1']"),
        ({"kind": "kernel_kl"}, {"R": [[True]]}, "config.R[0]: must be a list of numbers of length 1, got [True]"),
        ({"kind": "kernel_kl"}, {"dim": True}, "config.dim: must be a positive integer"),
        ({"kind": "harnack", "alpha": 2.0, "f": {"kind": "exp", "c": [0.5]}},
         {"jump": {"rate": 1.0, "atoms": [["0.5"]], "probs": [True]}},
         "config.jump.atoms[0]: must be a list of numbers of length 1, got ['0.5']"),
        ({"kind": "harnack", "alpha": 2.0, "f": {"kind": "exp", "c": [0.5]}},
         {"jump": {"rate": 1.0, "atoms": [[0.5]], "probs": [True]}},
         "config.jump.probs: must be a list of numbers of length 1, got [True]"),
    ])
    def test_wrong_field_type_of_other_kinds_exits_three(self, tmp_path, capsys, check, cfg, message):
        # each ended in a traceback with exit 1 (the VIOLATED code), ran with a string read as a
        # number, or exited 3 with a message that named no field
        entry = {"id": "c", "t": 1.0, "x": [0.4], "y": [0.0], "n": 200, **check}
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(minimal_config(checks=[entry], **cfg)))
        assert cli.main(["--config", str(path)]) == 3
        assert message in capsys.readouterr().err

    def test_integral_float_count_renders_the_same_bytes(self, tmp_path):
        texts = []
        for n in (1000, 1e3):
            check = {"kind": "gradient", "id": "g", "t": 1.0, "x": [0.4], "y": [0.0],
                     "f": {"kind": "tanh", "c": [1.0]}, "n": n, "K": 16.0}
            path, out = tmp_path / "count.json", tmp_path / f"count_{n!r}.csv"
            path.write_text(json.dumps(minimal_config(checks=[check])))
            assert cli.main(["--config", str(path), "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]


def _spread_drift_config(t):
    """A = Q diag(-1, -10) Q' with Q a rotation by 0.6 rad, R = I: four Gaussian checks at ``t``."""
    q = np.array([[math.cos(0.6), -math.sin(0.6)], [math.sin(0.6), math.cos(0.6)]])
    checks = [
        {"kind": "density_norm", "id": "density_norm", "t": t, "x": [1.0, 0.5], "alpha": 2.0},
        {"kind": "entropy_cost", "id": "entropy_cost", "t": t, "nu": {"mean": [1.0, 0.0], "cov": np.eye(2).tolist()}},
        {"kind": "kernel_kl", "id": "kernel_kl", "t": t, "x": [1.0, 0.5], "y": [0.0, 0.0]},
        {"kind": "harnack", "id": "harnack", "t": t, "x": [1.0, 0.5], "y": [0.0, 0.0], "alpha": 2.0,
         "f": {"kind": "exp", "c": [0.3, 0.1]}, "bound_mode": "exact_gamma"},
    ]
    return q, {"dim": 2, "A": (q @ np.diag([-1.0, -10.0]) @ q.T).tolist(), "R": np.eye(2).tolist(),
               "a": [0.0, 0.0], "seed": 5, "checks": checks}


class TestLongHorizon:
    @pytest.mark.parametrize("t", [4.0, 8.0])
    def test_spread_spectrum_holds(self, tmp_path, t):
        # one expm of the Van Loan block at t made these rows VIOLATED (t = 4)
        # and a "negative eigenvalue" input error (t = 8)
        q, cfg = _spread_drift_config(t)
        path, out = tmp_path / "spread.json", tmp_path / "spread.csv"
        path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(path), "--out", str(out)]) == 0
        with out.open() as fh:
            lhs = {row["check_id"]: float(row["lhs"]) for row in csv.DictReader(fh)}
        # the adjoint of a symmetric drift with R = I is the drift itself, and the
        # law at t from nu = N([1, 0], I) is N(m, S + D): m = P [1, 0], D = P (I - S) P'
        p = q @ np.diag(np.exp([-t, -10.0 * t])) @ q.T
        s = q @ np.diag([0.5, 0.05]) @ q.T
        m, root = p @ [1.0, 0.0], np.linalg.cholesky(s)
        w = np.linalg.eigvalsh(np.linalg.solve(root, np.linalg.solve(root, p @ (np.eye(2) - s) @ p.T).T))
        want = 0.5 * (float(np.sum(w - np.log1p(w))) + m @ np.linalg.solve(s, m))
        # gaussian_kl sums terms of order one, so it carries a few eps of absolute rounding
        assert lhs["entropy_cost"] == pytest.approx(want, rel=1e-10, abs=1e-15)

    def test_scalar_suite_at_t_1e6_exits_zero(self, tmp_path):
        # exp(-2 s) underflowed to 0 in the hwi certificate, and the rho_moments weight
        # pass overflowed before its growth bound saturated: both exited 3
        cfg = json.loads((SCENARIO_DIR / "scalar_ou.json").read_text())
        cfg["checks"] = [{**c, "t": 1e6} for c in cfg["checks"]]
        path, out = tmp_path / "far.json", tmp_path / "far.csv"
        path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(path), "--out", str(out)]) == 0
        with out.open() as fh:
            rows = {row["check_id"]: row for row in csv.DictReader(fh)}
        assert len(rows) == len(SCALAR_OU_VERDICTS)
        for suffix in ("_positive", "_negative"):
            row = rows["rho_moments" + suffix]
            assert row["verdict"] == verify.TRIVIAL_INFINITE_RHS
            assert "growth factor exceeds the float range" in json.loads(row["param_json"])["note"]

    @pytest.mark.parametrize("t", [1e3, 1e6])
    def test_saturated_semilinear_coefficient_draws_no_path(self, monkeypatch, t):
        # every path weight underflowed at t = 1e6, and the row read lhs = rhs = 0,
        # margin_se 0 and HOLDS_EQUALITY; the coefficient is inf at both horizons
        from harnacklab import sampler

        def no_paths(*args, **kwargs):
            raise AssertionError("paths drawn for a saturated coefficient")

        monkeypatch.setattr(sampler, "semilinear_values", no_paths)
        cfg = json.loads((SCENARIO_DIR / "scalar_ou.json").read_text())
        cfg["checks"] = [{**c, "t": t} for c in cfg["checks"]]
        [row] = cli.run_scenario(cli.Scenario.parse(cfg), only_check="semilinear")
        assert row.verdict == verify.TRIVIAL_INFINITE_RHS
        assert row.params["note"] == "growth factor exceeds the float range at this horizon"

    @pytest.mark.parametrize("t", [8.0, 16.0, 30.0])
    def test_entropy_cost_adjoint_against_a_50_digit_oracle(self, t):
        # the sum tr(S^-1 Sigma) - d + log det S - log det Sigma + m' S^-1 m erred 6.9e-10
        # relative at t = 8 and 3.8e-3 at t = 16, and read -2.2e-16 at t = 30
        mpmath = pytest.importorskip("mpmath")
        _, cfg = _spread_drift_config(t)
        reports = cli.run_scenario(cli.Scenario.parse(cfg), only_check="entropy_cost")
        lhs = {r.check_id: r.lhs for r in reports}["entropy_cost_adjoint"]
        with mpmath.workdps(50):
            a = mpmath.matrix(cfg["A"])
            p = mpmath.expm(a * t)
            # A S + S A' = -I for the steady covariance S = [[s0, s1], [s1, s2]]
            s0, s1, s2 = mpmath.lu_solve(mpmath.matrix([[2 * a[0, 0], 2 * a[0, 1], 0],
                                                        [a[1, 0], a[0, 0] + a[1, 1], a[0, 1]],
                                                        [0, 2 * a[1, 0], 2 * a[1, 1]]]), mpmath.matrix([-1, 0, -1]))
            s = mpmath.matrix([[s0, s1], [s1, s2]])
            # the law at t from nu = N([1, 0], I): mean P [1, 0], covariance S + P (I - S) P'
            sigma = s + p * (mpmath.eye(2) - s) * p.T
            m = p * mpmath.matrix([1, 0])
            prec = s**-1
            want = float((prec * sigma)[0, 0] + (prec * sigma)[1, 1] - 2
                         + mpmath.log(mpmath.det(s) / mpmath.det(sigma)) + (m.T * prec * m)[0]) / 2
        if t < 30.0:
            assert lhs == pytest.approx(want, rel=1e-12, abs=0.0)
        else:  # about 6e-27, below the rounding of the covariances themselves
            assert 0.0 < lhs and 0.0 < want


    @pytest.mark.parametrize("t", [4.0, 8.0, 16.0])
    def test_entropy_cost_forward_row_against_a_50_digit_oracle(self, t):
        # the forward_semigroup row is the KL of the adjoint dynamics' law at t from nu,
        # N(m + P* (m_nu - m), S + P* (Sigma_nu - S) P*'), P* = S e^{tA'} S^(-1), against
        # mu = N(m, S); here on a non-normal drift with an offset, where A* is not A
        mpmath = pytest.importorskip("mpmath")
        a_rows = [[-0.6, 2.0, 0.0], [0.0, -0.8, 1.5], [-0.4, 0.0, -1.0]]
        r_rows = [[1.0, 0.3, 0.0], [0.3, 0.8, 0.0], [0.0, 0.0, 0.5]]
        offset, mean = [0.3, -0.2, 0.1], [1.0, 0.0, -0.5]
        cov = [[0.5, 0.1, 0.0], [0.1, 1.0, 0.2], [0.0, 0.2, 1.5]]
        m = OuLevyModel(drift_matrix=a_rows, noise_cov=r_rows, drift_offset=offset)
        forward, _ = verify.check_entropy_cost(m, GaussianMeasure(mean=mean, cov=cov), t)
        with mpmath.workdps(50):
            a = mpmath.matrix(a_rows)
            # A S + S A' = -R as the Kronecker system (I x A + A x I) vec S = -vec R, vec S[3i + j] = S[i, j]
            k = mpmath.zeros(9, 9)
            for i, j, l in itertools.product(range(3), repeat=3):
                k[3 * i + j, 3 * l + j] += a[i, l]
                k[3 * i + j, 3 * i + l] += a[j, l]
            vec = mpmath.lu_solve(k, -mpmath.matrix([v for row in r_rows for v in row]))
            s = mpmath.matrix([[vec[3 * i + j] for j in range(3)] for i in range(3)])
            s = (s + s.T) / 2
            p_adj = s * mpmath.expm(a * t).T * s**-1
            sigma = s + p_adj * (mpmath.matrix(cov) - s) * p_adj.T
            z = p_adj * (mpmath.matrix(mean) + a**-1 * mpmath.matrix(offset))  # m = -A^(-1) offset
            prec = s**-1
            want = float((sum((prec * sigma)[i, i] for i in range(3)) - 3
                          + mpmath.log(mpmath.det(s) / mpmath.det(sigma)) + (z.T * prec * z)[0]) / 2)
        assert forward.params["variant"] == "forward_semigroup"
        assert forward.lhs == pytest.approx(want, rel=1e-13, abs=0.0)


def _h_function_row(rate, t):
    """A = -1, R = 1 and one closed-form ``h_function`` Harnack row with ``h = exp(-rate t)``."""
    return minimal_config(R=[[1.0]], checks=[{
        "kind": "harnack", "id": "h", "t": t, "x": [2.0], "y": [0.0], "alpha": 2.0,
        "f": {"kind": "exp", "c": [1.0]}, "bound_mode": "h_function",
        "h": {"kind": "exponential", "rate": rate}, "n": 200}])


class TestCertifiedDecayProfile:
    def test_uncertified_profile_exits_three(self, tmp_path, capsys):
        # the ratio of exp(-s) to sqrt(exp(-6 s)) reaches e^2 at s = 1; the uncertified
        # bound was too small and the row read VIOLATED (exit 1)
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(_h_function_row(6.0, 1.0)))
        assert cli.main(["--config", str(path)]) == 3
        assert "decay profile not certified (worst ratio 7.38906)" in capsys.readouterr().err

    def test_long_horizon_certified_profile_exits_zero(self, tmp_path):
        # int_0^400 exp(2 s) ds overflowed in expm1 with a RuntimeWarning
        path, out = tmp_path / "long.json", tmp_path / "long.csv"
        path.write_text(json.dumps(_h_function_row(2.0, 400.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["--config", str(path), "--out", str(out)]) == 0
        with out.open() as fh:
            [row] = csv.DictReader(fh)
        assert json.loads(row["param_json"])["energy_sq"] == 0.0

    def test_hwi_at_the_invariant_law_with_an_overflowing_profile_is_an_equality(self, tmp_path):
        # nu = mu makes the KL, the Fisher information and W2 exactly 0; int_0^80 exp(10 s) ds
        # overflows to inf, and 0 * inf read NaN: exit 3, "NaN verdict input"
        check = {"kind": "hwi", "t": 80.0, "nu": {"mean": [0.0], "cov": [[1.0]]},
                 "h": {"kind": "exponential", "rate": -10.0}}
        code, [row] = _run_one(tmp_path, check)
        assert (code, row["verdict"], row["lhs"], row["rhs"]) == (0, verify.HOLDS_EQUALITY, "0.0", "0.0")
        assert json.loads(row["param_json"])["fisher"] == 0.0


class TestSweep:
    def test_sharpness_sweep_touches_zero(self, tmp_path):
        cfg = {
            "dim": 1, "A": [[0.0]], "R": [[1.0]], "a": [0.0], "seed": 5,
            "checks": [{
                "kind": "harnack", "id": "sharp", "t": 1.0, "x": [0.0], "y": [1.0],
                "alpha": 2.0, "f": {"kind": "exp", "c": [-0.6]},
            }],
        }
        scenario = cli.Scenario.parse(cfg)
        # sweeping the offset of y from x along their separation direction
        rows = cli.run_sweep(scenario, "sharp", "delta", np.linspace(0.0, 2.0, 21))
        margins = {value: rep.margin for value, rep in rows}
        # x - y = -delta; with direction -0.6 the sharp point is delta = 0.6
        sharp = min(margins, key=lambda v: abs(v - 0.6))
        assert abs(margins[sharp]) <= 1e-9
        for value, margin in margins.items():
            assert margin >= -1e-9
            if abs(value - 0.6) > 0.05:
                assert margin > 1e-6

    def test_kernel_kl_time_sweep_matches_closed_form(self):
        cfg = minimal_config()
        scenario = cli.Scenario.parse(cfg)
        rows = cli.run_sweep(scenario, "kl", "t", np.linspace(0.5, 3.0, 6))
        for t, rep in rows:
            q = math.exp(-2.0 * t)
            assert rep.lhs == pytest.approx(q / (2.0 * (1.0 - q)), rel=1e-9)
        values = [rep.lhs for _, rep in rows]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_hyper_constant_epsilon_sweep_nondecreasing(self):
        cfg = minimal_config()
        cfg["checks"] = [{"kind": "hyper_constant", "id": "hc", "t": 1.0, "alpha": 2.0, "epsilon": 0.0}]
        scenario = cli.Scenario.parse(cfg)
        rows = cli.run_sweep(scenario, "hc", "epsilon", np.linspace(0.0, 2.0, 9))
        values = [rep.rhs for _, rep in rows]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_bad_sweep_parameter_rejected(self):
        scenario = cli.Scenario.parse(minimal_config())
        with pytest.raises(cli.SchemaError, match="numeric"):
            cli.run_sweep(scenario, "kl", "f", [1.0])

    @pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
    def test_non_finite_sweep_value_rejected(self, value, capsys):
        with pytest.raises(cli.SchemaError, match=f"sweep: non-finite grid value '{value}'"):
            cli._parse_sweep_flag(f"t:0.5:{value}:3")
        code = cli.main(["--config", str(SCENARIO_DIR / "scalar_ou.json"), "--check", "kernel_kl",
                         "--sweep", f"t:{value}:1:3"])
        assert code == 3
        assert f"sweep: non-finite grid value '{value}'" in capsys.readouterr().err

    def test_delta_sweep_types_the_points(self, tmp_path, capsys):
        cfg = {"dim": 1, "A": [[-1.0]], "R": [[1.0]], "seed": 5, "checks": [{
            "kind": "harnack", "id": "h", "t": 1.0, "x": ["a"], "y": [1.0],
            "alpha": 2.0, "f": {"kind": "exp", "c": [-0.6]}}]}
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(path), "--check", "h", "--sweep", "delta:0:1:2"]) == 3
        assert "check h.x: must be a list of numbers of length 1, got ['a']" in capsys.readouterr().err

    def test_delta_sweep_names_a_missing_point(self, capsys):
        code = cli.main(["--config", str(SCENARIO_DIR / "scalar_ou.json"), "--check", "hyper_constant",
                         "--sweep", "delta:0:1:2"])
        assert code == 3
        assert "check hyper_constant.x: missing required field" in capsys.readouterr().err

    def test_overflowing_sweep_grid_rejected(self):
        with pytest.raises(cli.SchemaError, match="sweep: grid -1.7e308:1.7e308 overflows"):
            cli._parse_sweep_flag("t:-1.7e308:1.7e308:3")

    def test_sweep_flag_parsing(self):
        name, grid = cli._parse_sweep_flag("t:0.5:2.0:4")
        assert name == "t"
        assert np.allclose(grid, [0.5, 1.0, 1.5, 2.0])
        with pytest.raises(cli.SchemaError):
            cli._parse_sweep_flag("t:0.5:2.0")


def random_jump_suite(seed: int, count: int = 50, n: int = 20_000) -> list[dict]:
    """Randomized compound-Poisson Harnack scenarios, one config per model.

    Models are stable with full-rank noise so the minimum-energy exponent is
    finite; observables are drawn from the bounded registry.  The same seed
    always yields the same suite.
    """
    gen = np.random.Generator(np.random.Philox(key=np.array([seed & (2**64 - 1), 0xF1FE], dtype=np.uint64)))
    models = []
    for i in range(count):
        dim = int(gen.integers(1, 4))
        a = gen.normal(0.0, 0.4, size=(dim, dim))
        a -= (max(float(np.linalg.eigvals(a).real.max()), 0.0) + 0.5 + float(gen.uniform(0.0, 0.5))) * np.eye(dim)
        b = gen.normal(0.0, 1.0, size=(dim, dim))
        r = b @ b.T / dim + 0.3 * np.eye(dim)
        n_atoms = int(gen.integers(1, 4))
        atoms = gen.uniform(-1.2, 1.2, size=(n_atoms, dim))
        probs = gen.uniform(0.2, 1.0, size=n_atoms)
        probs = probs / probs.sum()
        x = gen.uniform(-1.0, 1.0, size=dim)
        y = x + gen.uniform(-0.8, 0.8, size=dim)
        alpha = float(gen.uniform(1.5, 5.0))
        f_kind = ["clipped_exp", "one_plus_sigmoid", "indicator"][int(gen.integers(0, 3))]
        f_spec = {"kind": f_kind, "c": gen.uniform(-0.6, 0.6, size=dim).tolist()}
        if f_kind == "clipped_exp":
            f_spec["cap"] = 10.0
        models.append({
            "dim": dim,
            "A": a.tolist(),
            "R": r.tolist(),
            "a": np.zeros(dim).tolist(),
            "jump": {"rate": float(gen.uniform(0.5, 3.0)), "atoms": atoms.tolist(), "probs": probs.tolist()},
            "seed": mix_seed(seed, i),
            "checks": [{
                "kind": "harnack",
                "id": f"jump_harnack#{i:03d}",
                "t": float(gen.uniform(0.4, 1.6)),
                "x": x.tolist(),
                "y": y.tolist(),
                "alpha": alpha,
                "f": f_spec,
                "bound_mode": "exact_gamma",
                "n": n,
            }],
        })
    return models


class TestJumpSuiteGenerator:
    def test_deterministic_and_parseable(self):
        suite_a = random_jump_suite(777, count=3, n=500)
        suite_b = random_jump_suite(777, count=3, n=500)
        assert suite_a == suite_b
        for cfg in suite_a:
            scenario = cli.Scenario.parse(cfg)
            assert scenario.model.has_jumps

    def test_shipped_suite_matches_generator(self):
        shipped = json.loads((SCENARIO_DIR / "jump_suite.json").read_text())
        assert shipped == random_jump_suite(20260810, count=50, n=20_000)


def _jump_free_suite_config(d: int = 3) -> dict:
    """One model with the ten jump-free check kinds at one time ``t``.

    ``A = R^(1/2) M R^(-1/2)`` with ``sym(M) = -I``, so ``h = exp(-t)``
    passes the decay certificate of the HWI check.
    """
    rng = np.random.default_rng(7)
    b = rng.normal(size=(d, d))
    r = b @ b.T / d + 0.5 * np.eye(d)
    w, v = np.linalg.eigh(r)
    skew = rng.normal(size=(d, d))
    a = (v * np.sqrt(w)) @ v.T @ (0.5 * (skew - skew.T) - np.eye(d)) @ (v / np.sqrt(w)) @ v.T
    x, y = [0.1] * d, [0.3] + [0.0] * (d - 1)
    common = {"t": 0.8, "x": x, "y": y}
    nu = {"mean": [0.2] * d, "cov": (0.5 * np.eye(d)).tolist()}
    f_exp = {"kind": "exp", "c": [0.2] * d}
    checks = [
        {"kind": "harnack", "id": "harnack_exact", **common, "alpha": 2.0, "f": f_exp},
        {"kind": "harnack", "id": "harnack_opnorm", **common, "alpha": 2.0, "f": f_exp,
         "bound_mode": "operator_norm"},
        {"kind": "log_harnack", "id": "log_harnack", **common, "f": {"kind": "one_plus_sigmoid", "c": [0.5] * d}},
        {"kind": "gradient", "id": "gradient", **common, "f": {"kind": "tanh", "c": [0.5] * d}},
        {"kind": "kernel_harnack", "id": "kernel_power", **common, "alpha": 2.0},
        {"kind": "kernel_kl", "id": "kernel_kl", **common},
        {"kind": "density_norm", "id": "density_norm", "t": 0.8, "x": x, "alpha": 2.0},
        {"kind": "hyper_constant", "id": "hyper_constant", "t": 0.8, "alpha": 2.0, "epsilon": 0.002},
        {"kind": "entropy_cost", "id": "entropy_cost", "t": 0.8, "nu": nu},
        {"kind": "hwi", "id": "hwi", "t": 0.8, "nu": nu, "h": {"kind": "exponential", "rate": 1.0}},
    ]
    return {"dim": d, "A": a.tolist(), "R": r.tolist(), "seed": 11,
            "checks": [{**c, "n": 2000} for c in checks]}


#: ``np.linalg`` factorizations and `linops._expm` calls per closed-form Gaussian kind
#: on a fresh model of `_jump_free_suite_config`, counted after it is parsed.  Each
#: snapshot takes one ``expm`` and no check of R: a model checks R once, by the ``eigh``
#: of its noise root when it is built, and no adjoint model is built; the decay
#: certificate of ``hwi`` takes one more ``expm``.  ``solve`` is one per ``expm`` (the
#: Padé quotient), plus the invariant mean and the adjoint propagator ``S P' S^{-1}``;
#: the one Lyapunov solve of a model, which every kind needs for its stability, takes its
#: ``slogdet`` and ``inv``, and no ``eigvals`` is left; each ``eigvalsh`` is one whitened KL
#: (`analytic._whitened_kl`) or the adjoint operator norm.
GAUSSIAN_KIND_FACTORIZATIONS = {
    "density_norm": {"eigh": 3, "expm": 1, "inv": 1, "slogdet": 1, "solve": 2},
    "kernel_kl": {"eigh": 1, "expm": 1, "inv": 1, "slogdet": 1, "solve": 1},
    "kernel_harnack": {"eigh": 1, "expm": 1, "inv": 1, "slogdet": 1, "solve": 1},
    "hyper_constant": {"eigh": 2, "expm": 1, "inv": 1, "slogdet": 1, "solve": 2},
    "entropy_cost": {"eigh": 4, "eigvalsh": 3, "expm": 1, "inv": 1, "slogdet": 1, "solve": 3},
    "hwi": {"eigh": 4, "eigvalsh": 2, "expm": 2, "inv": 1, "slogdet": 1, "solve": 4},
}


class TestSemigroupStateOncePerModel:
    def test_ten_check_kinds_share_snapshots_and_one_lyapunov_solve(self, monkeypatch):
        from harnacklab import linops

        calls = {"semigroup_snapshot": 0, "lyapunov_solve": 0}
        for name in calls:
            original = getattr(linops, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(linops, name, counted)
        reports = cli.run_scenario(cli.Scenario.parse(_jump_free_suite_config()))
        assert len(reports) == 11
        assert all(r.passed for r in reports)
        # one snapshot of the model at t: the adjoint's state is read off it
        assert calls == {"semigroup_snapshot": 1, "lyapunov_solve": 1}

    def test_gaussian_closed_forms_factorizations_on_a_fresh_model(self, monkeypatch):
        # one factorization per covariance: the measure's eigh, read by every closed form
        from harnacklab import linops

        names = ("eigh", "eigvalsh", "eigvals", "cholesky", "slogdet", "solve", "inv")
        counts = {}
        for module, name in [(np.linalg, name) for name in names] + [(linops, "_expm")]:
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name.lstrip("_"), **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        cfg = _jump_free_suite_config()
        calls = {}
        for check in cfg["checks"]:
            if check["kind"] not in GAUSSIAN_KIND_FACTORIZATIONS:
                continue
            scenario = cli.Scenario.parse({**cfg, "checks": [check]})
            counts.clear()
            assert all(r.passed for r in cli.run_scenario(scenario))
            calls[check["kind"]] = dict(sorted(counts.items()))
        assert calls == GAUSSIAN_KIND_FACTORIZATIONS


@pytest.mark.parametrize("check", [
    {"kind": "kernel_kl", "x": [1.0], "y": [0.0]},
    {"kind": "density_norm", "x": [1.0], "alpha": 2.0},
    {"kind": "hyper_constant", "alpha": 2.0, "epsilon": 0.002},
    {"kind": "entropy_cost", "nu": {"mean": [0.0], "cov": [[1.0]]}},
    {"kind": "hwi", "nu": {"mean": [0.0], "cov": [[1.0]]}, "h": {"kind": "exponential", "rate": -2.0}},
], ids=lambda c: c["kind"])
def test_invariant_law_rows_of_a_non_hurwitz_drift_exit_three(tmp_path, capsys, check):
    # the Lyapunov solve decides stability for every row that needs the invariant law
    assert _run_one(tmp_path, {"t": 0.8, **check}, {**OU_1D, "A": [[0.5]]})[0] == 3
    assert "not Hurwitz" in capsys.readouterr().err


def test_each_monte_carlo_check_folds_once(monkeypatch):
    """Every Monte Carlo check of scalar_ou.json passes its blocks through one
    `sampler.fold` call (rho_moments one for both rows), and a closed-form or
    quadrature row makes none, harnack_exact_closed included, which echoes n.
    With a jump part, the endpoint rows of the registry observables other than
    exp are Monte Carlo rows again, and each folds once."""
    from harnacklab import sampler

    fold, calls = sampler.fold, []
    monkeypatch.setattr(sampler, "fold", lambda blocks, decided=None: calls.append(1) or fold(blocks, decided))
    cfg = json.loads((SCENARIO_DIR / "scalar_ou.json").read_text())
    endpoint = [c for c in cfg["checks"] if c["kind"] in ("harnack", "log_harnack", "gradient")]
    jump_cfg = {**cfg, "jump": {"rate": 0.5, "atoms": [[0.3], [-0.3]]}, "checks": endpoint}
    for config, monte_carlo in ((cfg, {"semilinear", "rho_moments"}),
                                (jump_cfg, {"harnack_operator_mc", "log_harnack", "gradient"})):
        scenario = cli.Scenario.parse(config)
        counts = {}
        for entry in scenario.checks:
            calls.clear()
            assert all(r.passed for r in cli.run_scenario(scenario, samples=2000, only_check=entry["id"]))
            counts[entry["id"]] = len(calls)
        assert counts == {entry["id"]: int(entry["id"] in monte_carlo) for entry in scenario.checks}


class TestRankDeficientGramian:
    """A = [[-0.1, 1], [0, -0.1]], R = diag(0, 1): the Gramian's eigenvalues are about
    t and t^3 / 12, so the rank rule calls it singular between t = 1e-4 and t = 1e-5."""

    @staticmethod
    def _run(tmp_path, kind, t, y=(0.0, 0.0)):
        check = {"kind": kind, "id": kind, "t": t, "x": [0.3, 0.1]}
        check.update({"alpha": 2.0} if kind == "density_norm" else {"y": list(y)})
        cfg = {"dim": 2, "A": [[-0.1, 1.0], [0.0, -0.1]], "R": [[0.0, 0.0], [0.0, 1.0]], "seed": 1,
               "checks": [check]}
        path, out = tmp_path / "rank.json", tmp_path / "rank.csv"
        path.write_text(json.dumps(cfg))
        code = cli.main(["--config", str(path), "--out", str(out)])
        if code != 0:
            return code, None, None
        with out.open() as fh:
            [row] = csv.DictReader(fh)
        return code, row["verdict"], float(row["lhs"])

    def test_full_rank_at_1e_4(self, tmp_path):
        assert self._run(tmp_path, "kernel_kl", 1e-4)[:2] == (0, verify.HOLDS)
        assert self._run(tmp_path, "kernel_harnack", 1e-4)[:2] == (0, verify.TRIVIAL_INFINITE_RHS)
        assert self._run(tmp_path, "density_norm", 1e-4)[:2] == (0, verify.HOLDS)

    def test_rank_deficient_at_1e_5(self, tmp_path, capsys):
        # x - y leaves the Gramian's range: the kernel rows stay trivial, with an infinite lhs
        assert self._run(tmp_path, "kernel_kl", 1e-5) == (0, verify.TRIVIAL_INFINITE_RHS, math.inf)
        assert self._run(tmp_path, "kernel_harnack", 1e-5) == (0, verify.TRIVIAL_INFINITE_RHS, math.inf)
        assert self._run(tmp_path, "density_norm", 1e-5)[0] == 3
        assert "singular" in capsys.readouterr().err

    def test_kernel_kl_row_computes_only_itself(self, tmp_path):
        # the power row's lhs overflows here; a kl row must not evaluate it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._run(tmp_path, "kernel_kl", 1e-4)[:2] == (0, verify.HOLDS)

    def test_equal_points_are_exact_equalities(self, tmp_path):
        # the operator norm is infinite, but |x - y| = 0 makes both bounds exact
        assert self._run(tmp_path, "kernel_kl", 1e-5, y=(0.3, 0.1)) == (0, verify.HOLDS_EQUALITY, 0.0)
        assert self._run(tmp_path, "kernel_harnack", 1e-5, y=(0.3, 0.1)) == (0, verify.HOLDS_EQUALITY, 1.0)


#: scipy modules that ``import harnacklab`` and its checks must not load: numpy is the runtime.
HEAVY_SCIPY = ("scipy", "scipy.linalg", "scipy.integrate", "scipy.special", "scipy.optimize", "scipy.sparse")


def test_no_source_module_imports_scipy():
    src = Path(cli.__file__).resolve().parent
    imported = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported |= {(path.name, alias.name) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add((path.name, node.module))
    assert imported and not [(name, mod) for name, mod in imported if mod.split(".")[0] == "scipy"]


def test_import_and_scenario_runs_leave_heavy_scipy_unloaded(tmp_path):
    configs = [str(SCENARIO_DIR / "scalar_ou.json")]
    for i, cfg in enumerate(json.loads((SCENARIO_DIR / "jump_suite.json").read_text())):
        configs.append(str(tmp_path / f"jump_{i:02d}.json"))
        Path(configs[-1]).write_text(json.dumps(cfg))
    script = textwrap.dedent(f"""
        import json, sys
        import harnacklab
        from harnacklab import cli
        loaded = [sorted(m for m in {HEAVY_SCIPY!r} if m in sys.modules)]
        codes = [cli.main(["--config", path, "--out", {str(tmp_path / "out.csv")!r}]) for path in {configs!r}]
        loaded.append(sorted(m for m in {HEAVY_SCIPY!r} if m in sys.modules))
        print(json.dumps([loaded, codes]))
    """)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    loaded, codes = json.loads(out.stdout.splitlines()[-1])
    assert loaded == [[], []]
    assert set(codes) <= {0, 2}  # every row a verdict; no run failed


#: The package's public names: a change to the fixed boundary shows up as a diff here.
PUBLIC_NAMES = [
    "CheckReport", "CompoundPoissonSpec", "GammaNorm", "GaussianMeasure", "GirsanovWeight", "HFunction",
    "McEstimate", "NullControl", "OuLevyModel", "PsdFactorization", "RngStream", "SemigroupSnapshot",
    "SemilinearSpec", "analytic", "build_adjoint", "check_entropy_cost",
    "check_gradient_estimate", "check_harnack", "check_hwi", "check_log_harnack",
    "check_rho_moments", "check_semilinear_harnack", "control", "estimate_semigroup", "gamma_norm",
    "gamma_operator_norm", "girsanov_weight", "h_bound", "invariant_measure", "linops",
    "matrix_exponential", "min_energy_control", "model", "psd_sqrt_pinv", "sample_coupled_pair",
    "sampler", "semilinear_estimate", "testfuncs", "verify",
    "verify_h_condition", "weighted_control",
]


def test_public_names_are_pinned():
    import harnacklab

    assert sorted(harnacklab.__all__) == PUBLIC_NAMES


#: The one-dimensional model of the regression scenarios below.
OU_1D = {"dim": 1, "A": [[-1.0]], "R": [[2.0]], "seed": 7}


def _run_one(tmp_path, check, model=OU_1D):
    """Run one check through `cli.main`: the exit code and the rows read back."""
    path, out = tmp_path / "one.json", tmp_path / "one.csv"
    path.write_text(json.dumps({**model, "checks": [check]}))
    code = cli.main(["--config", str(path), "--out", str(out)])
    if not out.exists():
        return code, []
    with out.open() as fh:
        return code, list(csv.DictReader(fh))


class TestTheoremRowsNeverExitOne:
    """The Harnack, log-Harnack and gradient inequalities are theorems: each of
    these scenarios exited 1, with VIOLATED or a traceback, before its row was
    mended.  Every outcome is now a verdict or an input error (exit 3)."""

    @staticmethod
    def _no_draws(monkeypatch):
        from harnacklab import sampler

        def no_draws(*args, **kwargs):
            raise AssertionError("endpoints drawn for a saturated coefficient")

        monkeypatch.setattr(sampler, "endpoint_values", no_draws)

    def test_kernel_power_at_alpha_one_exits_three(self, tmp_path, capsys):
        # the rhs divided by alpha - 1 before the lhs rejected alpha <= 1: ZeroDivisionError
        check = {"kind": "kernel_harnack", "t": 1.0, "x": [0.0], "y": [1.0], "alpha": 1.0}
        assert _run_one(tmp_path, check)[0] == 3
        assert "alpha must exceed 1" in capsys.readouterr().err

    def test_closed_form_past_the_float_range_is_trivial(self, tmp_path, recwarn):
        # (P f(x))^2 = e^778 overflowed a Python float power: OverflowError
        check = {"kind": "harnack", "t": 1.0, "x": [0.0], "y": [1.0], "alpha": 2.0,
                 "f": {"kind": "exp", "c": [30.0]}}
        code, [row] = _run_one(tmp_path, check)
        assert (code, row["verdict"]) == (0, verify.TRIVIAL_INFINITE_RHS)
        assert json.loads(row["param_json"])["note"] == "growth factor exceeds the float range at this horizon"
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.filterwarnings("error")  # the moment overflows to inf without a warning
    def test_density_bound_of_an_underflowing_integral_is_trivial(self, tmp_path):
        # the exponential integral underflowed to 0, and 0 ** (-1 / alpha) raised ZeroDivisionError
        check = {"kind": "density_norm", "t": 1.0, "x": [1000.0], "alpha": 50.0}
        code, [row] = _run_one(tmp_path, check, {**OU_1D, "R": [[1e-12]]})
        assert (code, row["verdict"], row["rhs"]) == (0, verify.TRIVIAL_INFINITE_RHS, "inf")

    @pytest.mark.parametrize("check", [
        # every replicate of the right side read 0: VIOLATED with lhs 1, rhs 0 and no error at all
        {"kind": "harnack", "t": 1.0, "x": [20.0], "y": [-20.0], "alpha": 2.0, "n": 4096,
         "f": {"kind": "indicator", "c": [1.0]}},
        # Var_x read 0, where its true value comes from an event of probability about 1e-15
        {"kind": "gradient", "t": 1.0, "x": [20.0], "y": [0.0], "n": 4096, "f": {"kind": "indicator", "c": [1.0]}},
    ], ids=["harnack", "gradient"])
    def test_a_right_side_without_spread_is_no_verdict(self, tmp_path, capsys, check):
        # a jump part of a single zero atom leaves the law as it is and keeps the row on Monte Carlo
        assert _run_one(tmp_path, check, {**OU_1D, "jump": {"rate": 1.0, "atoms": [[0.0]]}})[0] == 3
        err = capsys.readouterr().err
        assert "collapsed estimate" in err and "margin -" in err and "n_used=4096" in err

    def test_a_right_side_from_a_missed_tail_holds(self, tmp_path):
        # Var_x of 1.1e-15 comes from an event of probability about 1e-15, so 4096 samples
        # read VIOLATED or a collapsed estimate; the quadrature row has it exactly
        check = {"kind": "gradient", "t": 1.0, "x": [20.0], "y": [0.0], "n": 4096,
                 "f": {"kind": "one_plus_sigmoid", "c": [10.0]}}
        code, [row] = _run_one(tmp_path, check)
        params = json.loads(row["param_json"])
        assert (code, row["verdict"], params["method"], params["n_used"]) == (0, verify.HOLDS, "quadrature", 0)
        assert (row["lhs_se"], row["rhs_se"]) == ("0.0", "0.0")
        assert float(row["lhs"]) == pytest.approx(0.25, rel=1e-12)
        assert float(row["rhs"]) == pytest.approx(1.7159e12, rel=1e-4)

    @pytest.mark.parametrize("check, model", [
        # gamma 995: inf times a variance that is zero only by rounding read rhs 0, VIOLATED
        ({"kind": "gradient", "t": 1e4, "x": [1e8], "y": [30.0], "n": 200,
          "f": {"kind": "one_plus_sigmoid", "c": [0.1]}}, {**OU_1D, "A": [[-1e-6]], "R": [[1e6]]}),
        # energy_sq 1001.7: inf times a mean of 0 read rhs 0, VIOLATED
        ({"kind": "harnack", "t": 1.0, "x": [40.0], "y": [-40.0], "alpha": 2.0, "n": 4096,
          "f": {"kind": "indicator", "c": [1.0]}}, OU_1D),
    ], ids=["gradient", "harnack"])
    def test_a_saturated_coefficient_is_trivial_before_any_draw(self, tmp_path, monkeypatch, check, model):
        self._no_draws(monkeypatch)
        code, [row] = _run_one(tmp_path, check, model)
        params = json.loads(row["param_json"])
        assert (code, row["verdict"], params["n_used"]) == (0, verify.TRIVIAL_INFINITE_RHS, 0)
        assert params["note"] == "growth factor exceeds the float range at this horizon"

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["kernel_harnack", "kernel_kl", "density_norm", "hyper_constant",
                                 "harnack", "log_harnack", "gradient"]),
           t=st.sampled_from([1e-8, 1e-3, 1.0, 50.0, 1e4]),
           x=st.sampled_from([0.0, 1.0, 20.0, 1e3, 1e8]),
           y=st.sampled_from([0.0, 1.0, -20.0, 30.0]),
           alpha=st.sampled_from([1.0, 1.5, 2.0, 50.0, 1e6]),
           epsilon=st.sampled_from([0.0, 0.5, 10.0]),
           f=st.one_of(st.builds(lambda kind, c: {"kind": kind, "c": [c]},
                                 st.sampled_from(["exp", "clipped_exp", "indicator", "one_plus_sigmoid", "tanh"]),
                                 st.sampled_from([0.1, 1.0, 30.0])),
                       st.just({"kind": "one"})),
           a=st.sampled_from([-1.0, -1e-6, -50.0, 0.0]),
           r=st.sampled_from([2.0, 1e-12, 1e6]))
    def test_every_scenario_exits_with_a_documented_code(self, tmp_path, kind, t, x, y, alpha, epsilon, f, a, r):
        check = {"kind": kind, "t": t, "x": [x], "y": [y], "alpha": alpha, "epsilon": epsilon, "f": f, "n": 200}
        code, _ = _run_one(tmp_path, check, {**OU_1D, "A": [[a]], "R": [[r]]})
        assert code in (0, 2, 3)
