"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with its stated tolerance (run with ``pytest -s`` to see the
lines as they go)."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import harnacklab as hl
from harnacklab import analytic, cli, control, linops, sampler, verify
from harnacklab.analytic import GaussianMeasure
from harnacklab.model import HFunction
from harnacklab.testfuncs import ClippedExpObservable, ExpObservable, drift_scaled_sine, drift_zero
from oracles import make_psd, make_stable, mc_mean, sample_gaussian, simpson_gramian

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
PASS = verify.PASS_VERDICTS

#: Verdict of every row of scenarios/jump_suite.json, keyed by (scenario index, check id).
JUMP_SUITE_VERDICTS = {
    (0, "jump_harnack#000"): verify.HOLDS, (1, "jump_harnack#001"): verify.HOLDS,
    (2, "jump_harnack#002"): verify.HOLDS, (3, "jump_harnack#003"): verify.HOLDS,
    (4, "jump_harnack#004"): verify.HOLDS, (5, "jump_harnack#005"): verify.HOLDS,
    (6, "jump_harnack#006"): verify.HOLDS, (7, "jump_harnack#007"): verify.HOLDS,
    (8, "jump_harnack#008"): verify.HOLDS, (9, "jump_harnack#009"): verify.HOLDS,
    (10, "jump_harnack#010"): verify.HOLDS, (11, "jump_harnack#011"): verify.HOLDS,
    (12, "jump_harnack#012"): verify.HOLDS, (13, "jump_harnack#013"): verify.HOLDS,
    (14, "jump_harnack#014"): verify.HOLDS, (15, "jump_harnack#015"): verify.HOLDS,
    (16, "jump_harnack#016"): verify.HOLDS, (17, "jump_harnack#017"): verify.HOLDS,
    (18, "jump_harnack#018"): verify.HOLDS, (19, "jump_harnack#019"): verify.HOLDS,
    (20, "jump_harnack#020"): verify.HOLDS, (21, "jump_harnack#021"): verify.HOLDS,
    (22, "jump_harnack#022"): verify.HOLDS, (23, "jump_harnack#023"): verify.HOLDS,
    (24, "jump_harnack#024"): verify.HOLDS, (25, "jump_harnack#025"): verify.HOLDS,
    (26, "jump_harnack#026"): verify.HOLDS, (27, "jump_harnack#027"): verify.HOLDS,
    (28, "jump_harnack#028"): verify.HOLDS, (29, "jump_harnack#029"): verify.HOLDS,
    (30, "jump_harnack#030"): verify.HOLDS, (31, "jump_harnack#031"): verify.HOLDS,
    (32, "jump_harnack#032"): verify.HOLDS, (33, "jump_harnack#033"): verify.HOLDS,
    (34, "jump_harnack#034"): verify.HOLDS, (35, "jump_harnack#035"): verify.HOLDS,
    (36, "jump_harnack#036"): verify.HOLDS, (37, "jump_harnack#037"): verify.HOLDS,
    (38, "jump_harnack#038"): verify.HOLDS, (39, "jump_harnack#039"): verify.HOLDS,
    (40, "jump_harnack#040"): verify.HOLDS, (41, "jump_harnack#041"): verify.HOLDS,
    (42, "jump_harnack#042"): verify.HOLDS, (43, "jump_harnack#043"): verify.HOLDS,
    (44, "jump_harnack#044"): verify.HOLDS, (45, "jump_harnack#045"): verify.HOLDS,
    (46, "jump_harnack#046"): verify.HOLDS, (47, "jump_harnack#047"): verify.HOLDS,
    (48, "jump_harnack#048"): verify.HOLDS, (49, "jump_harnack#049"): verify.HOLDS,
}


def _line(num: int, desc: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag} | criterion {num:2d} | {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def test_criterion_01_gramian_correctness():
    rng = np.random.default_rng(9001)
    elapsed = 0.0  # of the program under test only, not of its oracle
    worst = 0.0
    for i in range(20):
        d = int(rng.integers(1, 7))
        a = make_stable(rng, d, margin=0.4) if i % 2 == 0 else rng.normal(0, 0.5, size=(d, d))
        r = make_psd(rng, d, ridge=0.1)
        t = float(rng.uniform(0.3, 1.2))
        start = time.perf_counter()
        got = linops.semigroup_snapshot(a, r, np.zeros(d), t).gramian
        elapsed += time.perf_counter() - start
        oracle = simpson_gramian(a, r, t)
        worst = max(worst, np.abs(got - oracle).max() / (1.0 + np.abs(oracle).max()))
    _line(1, "augmented-block Gramian vs Simpson oracle, 20 models d<=6, rel err <= 1e-9, < 5 s",
          worst <= 1e-9 and elapsed < 5.0, f"worst {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_energy_identity():
    rng = np.random.default_rng(9002)
    worst_rel = 0.0
    ordering_ok = True
    weights = [lambda s: 1.0, lambda s: s + 0.1, lambda s: np.exp(s), lambda s: np.exp(-s),
               lambda s: 1.0 + np.cos(s) ** 2]
    for _ in range(10):
        d = int(rng.integers(1, 4))
        m = hl.OuLevyModel(drift_matrix=make_stable(rng, d), noise_cov=make_psd(rng, d, ridge=0.25))
        x0 = rng.normal(size=d)
        t = float(rng.uniform(0.6, 1.4))
        target = control.gamma_norm(m, t, x0).value ** 2
        ctrl = control.min_energy_control(m, t, x0, 2000)
        worst_rel = max(worst_rel, abs(ctrl.energy - target) / target)
        for xi in weights:
            wc = control.weighted_control(m, t, x0, xi, 64)
            ordering_ok = ordering_ok and wc.energy >= target - 1e-6
    _line(2, "minimum energy matches squared image norm (rel <= 1e-4 at K=2000); weighted >= optimum - 1e-6",
          worst_rel <= 1e-4 and ordering_ok, f"worst rel {worst_rel:.2e}")


def test_criterion_03_tightness_commuting_case():
    lam = 0.7
    m = hl.OuLevyModel(drift_matrix=-lam * np.eye(2), noise_cov=np.eye(2))
    h = HFunction.exponential(2.0 * lam)
    x0 = np.array([0.8, -0.4])
    t = 1.0
    target = control.gamma_norm(m, t, x0).value ** 2
    wc = control.weighted_control(m, t, x0, lambda s: np.exp(2.0 * lam * s), 64)
    hb = control.h_bound(m, h, t, x0)
    err_w = abs(wc.energy - target)
    err_h = abs(hb - target)
    _line(3, "isotropic decay: weighted energy and certificate bound saturate the optimum to 1e-8",
          err_w <= 1e-8 and err_h <= 1e-8, f"|weighted-opt| {err_w:.2e}, |bound-opt| {err_h:.2e}")


def test_criterion_04_girsanov_martingale_and_moments():
    m = hl.OuLevyModel(drift_matrix=[[0.0]], noise_cov=[[1.0]])
    start = time.perf_counter()
    ests = sampler.girsanov_functional_estimates(
        m, 1.0, np.array([[1.0]]), 256, 100_000, 201,
        {
            "rho": lambda lr: np.exp(lr),
            "rho_conj": lambda lr: np.exp(2.0 * lr),
            "centered_sq": lambda lr: (np.exp(lr) - 1.0) ** 2,
        },
    )
    elapsed = time.perf_counter() - start
    checks = [
        (ests["rho"], 1.0),
        (ests["rho_conj"], np.e),          # alpha = 2: exponent alpha/(2(alpha-1)^2) * 1 -> e
        (ests["centered_sq"], np.e - 1.0),
    ]
    ok = all(abs(est.mean - target) <= 4.0 * est.std_error for est, target in checks) and elapsed < 30.0
    detail = ", ".join(f"z={(est.mean - target) / est.std_error:+.2f}" for est, target in checks)
    _line(4, "weight is mean-one; conjugate power and centered square match the exponential identities (4 se)",
          ok, f"{detail}, {elapsed:.1f} s")


def test_criterion_05_harnack_sharpness():
    cfg = {
        "dim": 1, "A": [[0.0]], "R": [[1.0]], "a": [0.0], "seed": 5,
        "checks": [{"kind": "harnack", "id": "sharp", "t": 1.0, "x": [0.0], "y": [1.0],
                    "alpha": 2.0, "f": {"kind": "exp", "c": [-0.6]}}],
    }
    scenario = cli.Scenario.parse(cfg)
    rows = cli.run_sweep(scenario, "sharp", "delta", np.linspace(0.0, 2.0, 21))
    margins = {round(v, 3): rep.margin for v, rep in rows}
    verdicts = {round(v, 3): rep.verdict for v, rep in rows}
    at_sharp = margins[0.6]
    strict = all(mg > 0.0 for v, mg in margins.items() if abs(v - 0.6) > 1e-9)
    ok = abs(at_sharp) <= 1e-9 and verdicts[0.6] == verify.HOLDS_EQUALITY and strict
    _line(5, "closed-form equality at the sharp separation, strictly positive margin elsewhere",
          ok, f"|margin at sharp point| {abs(at_sharp):.2e}")


def test_criterion_06_jump_case_harnack():
    start = time.perf_counter()
    mj = hl.OuLevyModel(drift_matrix=[[-1.0]], noise_cov=[[2.0]],
                        jump=hl.CompoundPoissonSpec(rate=2.0, atoms=[[1.0], [-1.0]]))
    f = ClippedExpObservable([0.5], 10.0)
    headline_ok = True
    for alpha, seed in ((2.0, 601), (4.0, 602)):
        rep = verify.check_harnack(mj, 1.0, [0.6], [0.0], alpha, f, n=100_000, seed=seed)
        headline_ok = headline_ok and rep.verdict in PASS

    suite = json.loads((SCENARIO_DIR / "jump_suite.json").read_text())
    verdicts = {}
    for index, cfg in enumerate(suite):
        for r in cli.run_scenario(cli.Scenario.parse(cfg)):
            verdicts[(index, r.check_id)] = r.verdict
    violated = sum(v == verify.VIOLATED for v in verdicts.values())
    changed = sorted(k for k in verdicts.keys() | JUMP_SUITE_VERDICTS.keys()
                     if verdicts.get(k) != JUMP_SUITE_VERDICTS.get(k))
    elapsed = time.perf_counter() - start
    _line(6, "compound-Poisson comparisons pass at n=1e5; 50-scenario randomized suite has no violation "
             "and keeps its pinned per-row verdicts, < 3 min",
          headline_ok and violated == 0 and not changed and elapsed < 180.0,
          f"{len(suite)} scenarios, {elapsed:.1f} s, changed rows {changed}")


def test_criterion_07_kernel_kl_identity():
    rng = np.random.default_rng(9007)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        m = hl.OuLevyModel(drift_matrix=make_stable(rng, d), noise_cov=make_psd(rng, d, ridge=0.2))
        x, y = rng.normal(size=(2, d))
        t = float(rng.uniform(0.4, 1.5))
        kl = analytic.heat_kernel_kl(m, t, x, y)
        half_gamma = 0.5 * control.gamma_norm(m, t, x - y).value ** 2
        worst = max(worst, abs(kl - half_gamma) / (1.0 + abs(kl)))
    scalar = hl.OuLevyModel(drift_matrix=[[-1.0]], noise_cov=[[2.0]])
    kl_rep = verify.kernel_kl_report(scalar, 1.0, [1.3], [0.2], 2.0, "kernel_kl")
    _line(7, "kernel relative entropy equals half the squared image norm (1e-10); scalar case is an equality",
          worst <= 1e-10 and kl_rep.verdict == verify.HOLDS_EQUALITY, f"worst {worst:.2e}")


def test_criterion_08_density_norm_and_hyper_constant():
    m = hl.OuLevyModel(drift_matrix=[[-1.0]], noise_cov=[[2.0]])
    bound_ok = True
    for t in np.linspace(0.25, 5.0, 10):
        for alpha in np.linspace(1.5, 8.0, 10):
            lhs, rhs = analytic.density_norm_bound(m, float(t), [0.7], float(alpha))
            bound_ok = bound_ok and lhs <= rhs * (1.0 + 1e-9)

    t, alpha, eps = 1.0, 2.0, 0.0
    rng = np.random.default_rng(9008)
    mu = analytic.invariant_measure(m)
    beta = alpha * control.gamma_operator_norm(m, t) ** 2 / (2.0 * (alpha - 1.0))
    draws = sample_gaussian(rng, mu.mean, mu.cov, 50_000)
    inner = np.array([analytic.gaussian_exp_integral(mu, beta, z) for z in draws])
    est, se = mc_mean(inner ** (-(1.0 + eps)))
    closed = analytic.hyper_constant(m, t, alpha, eps)
    mc_ok = abs(est - closed) <= 4.0 * se

    vals = [analytic.hyper_constant(m, 1.0, 2.0, e) for e in np.linspace(0.0, 2.0, 9)]
    mono_ok = all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    _line(8, "density-norm bound holds on a 100-point sweep; hyper constant matches MC (4 se), nondecreasing in eps",
          bound_ok and mc_ok and mono_ok, f"MC z={(est - closed) / se:+.2f}")


def test_criterion_09_entropy_cost_and_hwi():
    m = hl.OuLevyModel(drift_matrix=[[-1.0]], noise_cov=[[2.0]])
    h = HFunction.exponential(2.0)
    mval = 1.5
    nu = GaussianMeasure(mean=[mval], cov=[[1.0]])
    ec_ok = True
    hwi_ok = True
    for t in (0.3, 0.8, 1.5, 3.0):
        q = np.exp(-2.0 * t)
        forward, _ = verify.check_entropy_cost(m, nu, t)
        ec_ok = ec_ok and abs(forward.lhs - q * mval**2 / 2.0) <= 1e-12 * max(1.0, forward.lhs)
        ec_ok = ec_ok and abs(forward.rhs - q * mval**2 / (2.0 * (1.0 - q))) <= 1e-12 * max(1.0, forward.rhs)
        ec_ok = ec_ok and forward.lhs <= forward.rhs
        rep = verify.check_hwi(m, nu, h, t)
        gap = rep.rhs - rep.lhs
        expected_gap = mval**2 * q * q / (2.0 * (1.0 - q))
        hwi_ok = hwi_ok and abs(gap - expected_gap) <= 1e-12 * max(1.0, rep.rhs) and gap >= 0.0
    late = verify.check_hwi(m, nu, h, 20.0)
    equality_ok = abs(late.rhs - late.lhs) <= 1e-8
    _line(9, "entropy-cost and HWI closed forms exact to 1e-12; HWI saturates as t grows (1e-8 at t=20)",
          ec_ok and hwi_ok and equality_ok)


def test_criterion_10_semilinear_harnack_and_weight_moments():
    start = time.perf_counter()
    m = hl.OuLevyModel(drift_matrix=[[-0.5]], noise_cov=[[1.0]])
    f = ClippedExpObservable([0.4], 8.0)

    # zero-perturbation reduction: perturbed estimator agrees with the plain one
    plain = hl.estimate_semigroup(m, 1.0, [0.5], f, 20_000, 1001)
    reduced = hl.semilinear_estimate(m, drift_zero(1), 1.0, [0.5], f, 20_000, 128, 1002)
    sigma = np.hypot(plain.std_error, reduced.std_error)
    reduction_ok = abs(plain.mean - reduced.mean) <= 4.0 * sigma

    spec = drift_scaled_sine(m, 0.5)
    rep = verify.check_semilinear_harnack(m, spec, 1.0, [0.5], [0.0], 4.0, 1.3, 1.3, f,
                                          n=100_000, K=512, seed=1003)
    harnack_ok = rep.verdict in PASS

    pos, neg = verify.check_rho_moments(m, spec, 1.0, [0.5], 2.0, 0.5, n=100_000, K=512, seed=1004)
    z_pos = (pos.lhs - pos.rhs) / max(pos.lhs_se, 1e-300)
    z_neg = (neg.lhs - neg.rhs) / max(neg.lhs_se, 1e-300)
    moments_ok = pos.verdict in PASS and neg.verdict in PASS and z_pos <= 4.0 and z_neg <= 4.0
    elapsed = time.perf_counter() - start
    _line(10, "perturbed-drift comparison: zero-drift reduction (4 se), bounded drift passes, weight moments bounded, < 5 min",
          reduction_ok and harnack_ok and moments_ok and elapsed < 300.0,
          f"{elapsed:.1f} s")


def test_criterion_11_determinism(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / f"suite_{tag}.csv"
        code = cli.main(["--config", str(SCENARIO_DIR / "scalar_ou.json"), "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    _line(11, "full scenario suite twice with the same seeds gives byte-identical reports",
          outputs[0] == outputs[1])
