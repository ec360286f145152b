import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import harnacklab as hl
from harnacklab import OuLevyModel, analytic, verify
from harnacklab.analytic import GaussianMeasure
from harnacklab.model import HFunction
from harnacklab.testfuncs import (
    ClippedExpObservable,
    ConstantObservable,
    ExpObservable,
    IndicatorObservable,
    OnePlusSigmoid,
    TanhObservable,
    drift_scaled_sine,
    drift_zero,
)
from oracles import make_psd, make_stable

PASS = verify.PASS_VERDICTS


class TestClassify:
    def test_infinite_rhs_is_trivial(self):
        assert verify.classify(1.0, math.inf) == verify.TRIVIAL_INFINITE_RHS

    def test_exact_equality(self):
        assert verify.classify(2.0, 2.0) == verify.HOLDS_EQUALITY

    def test_exact_strict_inequality(self):
        assert verify.classify(1.0, 2.0) == verify.HOLDS

    def test_exact_violation(self):
        assert verify.classify(2.0, 1.0) == verify.VIOLATED

    def test_monte_carlo_bands(self):
        # margin -2 sigma: between the 1-sigma pass band and the 3-sigma breach
        assert verify.classify(1.2, 1.0, lhs_se=0.1, rhs_se=0.0) == verify.INCONCLUSIVE
        # margin -5 sigma: a genuine breach
        assert verify.classify(1.5, 1.0, lhs_se=0.1, rhs_se=0.0) == verify.VIOLATED
        # margin within one sigma counts as equality
        assert verify.classify(1.05, 1.0, lhs_se=0.1, rhs_se=0.0) == verify.HOLDS_EQUALITY
        # comfortably positive margin
        assert verify.classify(0.5, 1.0, lhs_se=0.1, rhs_se=0.0) == verify.HOLDS

    @pytest.mark.parametrize("args", [(math.nan, 1.0), (1.0, math.nan), (1.0, 2.0, math.nan, 0.0),
                                      (1.0, math.inf, 0.0, math.nan)])
    def test_nan_input_raises(self, args):
        # checked before the infinite-rhs shortcut, so a NaN error beside an infinite rhs
        # raises too: the checks keep inf * 0 out of their errors (TestSaturatedCoefficient)
        with pytest.raises(ValueError, match="NaN"):
            verify.classify(*args)


class TestSaturatedCoefficient:
    """Exponents past 700 saturate the coefficient to inf; a constant observable has
    zero variance, and inf times that exact zero is zero, not NaN."""

    def test_harnack(self, flat_model):
        rep = verify.check_harnack(flat_model, 1.0, [40.0], [0.0], 2.0, ConstantObservable(1.0), n=200, seed=1)
        assert rep.params["energy_sq"] == pytest.approx(1600.0)
        assert (rep.verdict, rep.rhs_se) == (verify.TRIVIAL_INFINITE_RHS, 0.0)

    def test_gradient(self, flat_model):
        rep = verify.check_gradient_estimate(flat_model, 1.0, [40.0], [0.0], ConstantObservable(2.0), n=200, seed=2)
        assert (rep.lhs, rep.rhs, rep.rhs_se) == (0.0, 0.0, 0.0)
        assert rep.verdict == verify.HOLDS_EQUALITY

    def test_semilinear_harnack(self, scalar_model):
        rep = verify.check_semilinear_harnack(scalar_model, drift_zero(1), 1.0, [100.0], [0.0], 4.0, 1.3, 1.3,
                                              ConstantObservable(1.0), n=200, K=8, seed=3)
        assert (rep.verdict, rep.rhs_se) == (verify.TRIVIAL_INFINITE_RHS, 0.0)


class TestHarnack:
    def test_jensen_at_equal_points(self, scalar_model):
        rep = verify.check_harnack(scalar_model, 1.0, [0.4], [0.4], 2.0, ExpObservable([0.5]), n=200, seed=1)
        assert rep.verdict in PASS
        assert rep.margin >= 0.0

    def test_sharp_point_closed_form(self, flat_model):
        c, alpha, t = 0.6, 2.0, 1.0
        delta = (alpha - 1.0) * c * t
        rep = verify.check_harnack(flat_model, t, [delta], [0.0], alpha, ExpObservable([c]), n=200, seed=1)
        assert rep.verdict == verify.HOLDS_EQUALITY
        assert abs(rep.margin) <= 1e-9

    def test_strict_off_sharp_point(self, flat_model):
        rep = verify.check_harnack(flat_model, 1.0, [0.9], [0.0], 2.0, ExpObservable([0.6]), n=200, seed=1)
        assert rep.verdict == verify.HOLDS
        assert rep.margin > 1e-6

    def test_jump_model_monte_carlo(self, jump_model):
        rep = verify.check_harnack(jump_model, 1.0, [0.6], [0.0], 2.0,
                                   ClippedExpObservable([0.5], 10.0), n=50_000, seed=2)
        assert rep.verdict in PASS

    def test_closed_form_with_atom_jumps(self, jump_model):
        rep = verify.check_harnack(jump_model, 1.0, [0.5], [0.0], 3.0, ExpObservable([0.3]), n=200, seed=1)
        assert rep.lhs_se == 0.0
        assert rep.verdict in PASS

    def test_bound_mode_exponent_ordering(self, nonnormal_model):
        t, x, y = 0.9, np.array([0.8, -0.2]), np.array([0.1, 0.3])
        f = ExpObservable([0.3, 0.1])
        h = HFunction.exponential(2.0)
        reps = {
            mode: verify.check_harnack(nonnormal_model, t, x, y, 2.0, f,
                                       bound_mode=mode, n=200, seed=1, h=h)
            for mode in ("exact_gamma", "operator_norm", "h_function")
        }
        exact = reps["exact_gamma"].params["energy_sq"]
        assert exact <= reps["operator_norm"].params["energy_sq"] + 1e-12
        assert exact <= reps["h_function"].params["energy_sq"] + 1e-12
        assert all(r.verdict in PASS for r in reps.values())

    def test_alpha_monotone_in_closed_form_family(self, flat_model):
        c, t = 0.5, 1.0
        margins = []
        for alpha in (1.5, 2.0, 3.0, 5.0):
            rep = verify.check_harnack(flat_model, t, [0.4], [0.0], alpha, ExpObservable([c]), n=200, seed=1)
            margins.append(rep.margin)
            assert rep.verdict in PASS
        # the exponent coefficient decreases in alpha, so no later alpha flips the verdict
        assert all(m >= -1e-12 for m in margins)

    def test_user_control_energy_replaces_exponent(self, scalar_model):
        t, x, y = 1.0, np.array([0.7]), np.array([0.0])
        ctrl = hl.weighted_control(scalar_model, t, y - x, lambda s: s + 0.2, 64)
        rep = verify.check_harnack(scalar_model, t, x, y, 2.0, ExpObservable([0.4]),
                                   n=200, seed=1, user_control=ctrl)
        base = verify.check_harnack(scalar_model, t, x, y, 2.0, ExpObservable([0.4]), n=200, seed=1)
        assert rep.params["energy_sq"] == pytest.approx(ctrl.energy)
        assert rep.rhs >= base.rhs
        assert rep.verdict in PASS

    def test_jump_model_with_certificate_bound(self, jump_model):
        # the decay-certificate exponent stays valid with a jump part present
        rep = verify.check_harnack(jump_model, 1.0, [0.5], [0.0], 2.0,
                                   ClippedExpObservable([0.4], 10.0),
                                   bound_mode="h_function", h=HFunction.exponential(2.0),
                                   n=50_000, seed=19)
        assert rep.verdict in PASS

    def test_unreachable_difference_is_trivial(self):
        m = OuLevyModel(drift_matrix=np.zeros((2, 2)), noise_cov=np.diag([1.0, 0.0]))
        rep = verify.check_harnack(m, 1.0, [0.0, 1.0], [0.0, 0.0], 2.0, ExpObservable([0.2, 0.0]), n=200, seed=1)
        assert rep.verdict == verify.TRIVIAL_INFINITE_RHS

    @pytest.mark.parametrize("bound_mode", ["exact_gamma", "operator_norm", "h_function"])
    def test_nan_start_is_no_verdict(self, scalar_model, bound_mode):
        # a NaN exponent must not pass as an infinite right-hand side
        with pytest.raises(ValueError, match="NaN|non-finite"):
            verify.check_harnack(scalar_model, 1.0, [math.nan], [0.0], 2.0, ExpObservable([0.5]),
                                 bound_mode=bound_mode, h=HFunction.exponential(2.0))

    def test_negative_observable_rejected(self, flat_model):
        with pytest.raises(ValueError, match="negative"):
            verify.check_harnack(flat_model, 1.0, [0.5], [0.0], 2.0, TanhObservable([1.0]), n=200, seed=1)

    def test_implication_chain_operator_norm_to_log(self):
        rng = np.random.default_rng(61)
        observables = [
            ClippedExpObservable([0.4], 8.0),
            OnePlusSigmoid([1.0]),
            IndicatorObservable([1.0], 0.1),
            ClippedExpObservable([-0.3], 5.0),
            OnePlusSigmoid([-0.7]),
        ]
        for i in range(20):
            d = 1 if i % 2 == 0 else 2
            m = OuLevyModel(drift_matrix=make_stable(rng, d), noise_cov=make_psd(rng, d, ridge=0.3))
            x = rng.normal(size=d) * 0.7
            y = x + rng.normal(size=d) * 0.5
            f = observables[i % len(observables)]
            fv = ClippedExpObservable(np.resize(f.c if hasattr(f, "c") else [0.3], d), 8.0)
            harnack = verify.check_harnack(m, 0.8, x, y, 2.0, fv, bound_mode="operator_norm",
                                           n=4000, seed=1000 + i)
            log_rep = verify.check_log_harnack(m, 0.8, x, y, fv, n=4000, seed=2000 + i)
            assert harnack.verdict != verify.VIOLATED
            assert log_rep.verdict != verify.VIOLATED
            if harnack.verdict in PASS:
                assert log_rep.verdict in PASS


class TestLogHarnack:
    def test_jensen_at_equal_points(self, scalar_model):
        rep = verify.check_log_harnack(scalar_model, 1.0, [0.3], [0.3], OnePlusSigmoid([1.0]), n=5000, seed=3)
        assert rep.verdict in PASS

    def test_bounded_observable(self, scalar_model):
        rep = verify.check_log_harnack(scalar_model, 1.0, [0.8], [0.0], OnePlusSigmoid([1.0]), n=50_000, seed=4)
        assert rep.verdict in PASS

    def test_constant_one(self, scalar_model):
        rep = verify.check_log_harnack(scalar_model, 1.0, [0.8], [0.0], ConstantObservable(1.0), n=200, seed=5)
        assert rep.lhs == 0.0
        assert rep.rhs >= 0.0
        assert rep.verdict in PASS

    def test_clamping_recorded(self, scalar_model):
        rep = verify.check_log_harnack(scalar_model, 1.0, [0.5], [0.0], IndicatorObservable([1.0]), n=5000, seed=6)
        assert "clamped" in rep.params.get("note", "")
        assert rep.verdict in PASS

    def test_singular_noise_is_trivial(self):
        m = OuLevyModel(drift_matrix=np.zeros((2, 2)), noise_cov=np.diag([1.0, 0.0]))
        rep = verify.check_log_harnack(m, 1.0, [0.1, 0.0], [0.0, 0.0], ConstantObservable(1.0), n=200, seed=7)
        assert rep.verdict == verify.TRIVIAL_INFINITE_RHS


class TestGradientEstimate:
    def test_equal_points(self, flat_model):
        rep = verify.check_gradient_estimate(flat_model, 1.0, [0.4], [0.4], TanhObservable([1.0]), n=2000, seed=8)
        assert rep.lhs == pytest.approx(0.0, abs=1e-20)
        assert rep.verdict in PASS

    def test_constant_function_equality(self, flat_model):
        rep = verify.check_gradient_estimate(flat_model, 1.0, [0.5], [0.0], ConstantObservable(2.0), n=2000, seed=9)
        assert rep.lhs == 0.0
        assert rep.rhs == 0.0
        assert rep.verdict == verify.HOLDS_EQUALITY

    def test_tanh_observable(self, flat_model):
        rep = verify.check_gradient_estimate(flat_model, 1.0, [0.5], [0.0], TanhObservable([1.0]),
                                             n=100_000, seed=10)
        assert rep.verdict in PASS

    def test_jump_model(self, jump_model):
        rep = verify.check_gradient_estimate(jump_model, 0.8, [0.4], [0.0], TanhObservable([1.0]),
                                             n=50_000, seed=11)
        assert rep.verdict in PASS


class TestKernelInequalities:
    def test_scalar_always_equality(self, scalar_model):
        power, kl = verify.check_kernel_inequalities(scalar_model, 1.0, [1.1], [0.3], 2.0)
        assert power.verdict == verify.HOLDS_EQUALITY
        assert kl.verdict == verify.HOLDS_EQUALITY

    def test_distinct_singular_values_strict(self):
        m = OuLevyModel(drift_matrix=np.diag([-1.0, -3.0]), noise_cov=np.eye(2))
        # difference along the faster-decaying mode is strictly inside the bound
        power, kl = verify.check_kernel_inequalities(m, 1.0, [0.0, 1.0], [0.0, 0.0], 2.0)
        assert power.verdict == verify.HOLDS
        assert kl.verdict == verify.HOLDS
        # difference along the slow mode saturates it
        power2, kl2 = verify.check_kernel_inequalities(m, 1.0, [1.0, 0.0], [0.0, 0.0], 2.0)
        assert power2.verdict == verify.HOLDS_EQUALITY
        assert kl2.verdict == verify.HOLDS_EQUALITY

    def test_equal_points(self, scalar_model):
        power, kl = verify.check_kernel_inequalities(scalar_model, 1.0, [0.4], [0.4], 2.0)
        assert power.lhs == pytest.approx(1.0)
        assert kl.lhs == pytest.approx(0.0, abs=1e-14)
        assert power.verdict == verify.HOLDS_EQUALITY
        assert kl.verdict == verify.HOLDS_EQUALITY

    def test_jump_model_rejected(self, jump_model):
        with pytest.raises(ValueError):
            verify.check_kernel_inequalities(jump_model, 1.0, [0.5], [0.0], 2.0)


class TestEntropyCost:
    def test_invariant_measure_equality(self, scalar_model):
        mu = analytic.invariant_measure(scalar_model)
        forward, adjoint = verify.check_entropy_cost(scalar_model, mu, 0.8)
        assert forward.verdict == verify.HOLDS_EQUALITY
        assert adjoint.verdict == verify.HOLDS_EQUALITY

    def test_scalar_closed_form(self, scalar_model):
        mval, t = 1.5, 0.8
        q = np.exp(-2.0 * t)
        forward, _ = verify.check_entropy_cost(scalar_model, GaussianMeasure(mean=[mval], cov=[[1.0]]), t)
        assert forward.lhs == pytest.approx(q * mval**2 / 2.0, rel=1e-10)
        assert forward.rhs == pytest.approx(q * mval**2 / (2.0 * (1.0 - q)), rel=1e-10)
        assert forward.verdict == verify.HOLDS
        assert forward.lhs / forward.rhs == pytest.approx(1.0 - q, rel=1e-10)

    def test_diagonal_model_mean_shift(self):
        m = OuLevyModel(drift_matrix=np.diag([-1.0, -2.0]), noise_cov=np.eye(2))
        mu = analytic.invariant_measure(m)
        nu = GaussianMeasure(mean=mu.mean + np.array([0.8, -0.5]), cov=mu.cov)
        forward, adjoint = verify.check_entropy_cost(m, nu, 0.7)
        assert forward.verdict in PASS
        assert adjoint.verdict in PASS


    def test_measure_is_echoed_by_digest(self, scalar_model):
        nu = GaussianMeasure(mean=[1.5], cov=[[1.0]])
        forward, adjoint = verify.check_entropy_cost(scalar_model, nu, 0.8)
        same = verify.check_hwi(scalar_model, GaussianMeasure(mean=np.array([1.5]), cov=np.eye(1)),
                                HFunction.exponential(2.0), 0.8)
        other = verify.check_hwi(scalar_model, GaussianMeasure(mean=[1.5], cov=[[1.1]]),
                                 HFunction.exponential(2.0), 0.8)
        echo = forward.params["nu"]
        assert echo["dim"] == 1 and len(echo["sha256"]) == 16
        assert adjoint.params["nu"] == echo == same.params["nu"] != other.params["nu"]
        assert not {"nu_mean", "nu_cov"} & set(forward.params)

    def test_high_dimensional_row_stays_small(self):
        from harnacklab import cli

        d = 200
        m = OuLevyModel(drift_matrix=-np.eye(d), noise_cov=np.eye(d))
        nu = GaussianMeasure(mean=np.full(d, 0.1), cov=0.4 * np.eye(d))
        reports = [*verify.check_entropy_cost(m, nu, 0.8), verify.check_hwi(m, nu, HFunction.exponential(1.0), 0.8)]
        assert all(r.params["nu"]["dim"] == d for r in reports)
        assert len(cli.render_reports(reports)) < 2000


class TestHwi:
    def test_invariant_measure_equality(self, scalar_model):
        mu = analytic.invariant_measure(scalar_model)
        rep = verify.check_hwi(scalar_model, mu, HFunction.exponential(2.0), 0.8)
        assert rep.verdict == verify.HOLDS_EQUALITY

    def test_scalar_closed_form(self, scalar_model):
        mval, t = 1.5, 0.8
        q = np.exp(-2.0 * t)
        rep = verify.check_hwi(scalar_model, GaussianMeasure(mean=[mval], cov=[[1.0]]), HFunction.exponential(2.0), t)
        assert rep.lhs == pytest.approx(mval**2 / 2.0, rel=1e-12)
        assert rep.rhs == pytest.approx(mval**2 * (1 - q + q * q) / (2.0 * (1.0 - q)), rel=1e-10)
        assert rep.rhs - rep.lhs == pytest.approx(mval**2 * q * q / (2.0 * (1.0 - q)), rel=1e-9)
        assert rep.verdict == verify.HOLDS

    def test_symmetric_variant(self, scalar_model):
        rep = verify.check_hwi(scalar_model, GaussianMeasure(mean=[1.5], cov=[[1.0]]),
                               HFunction.exponential(2.0), 0.8, use_h_bound=True)
        assert rep.verdict in PASS

    def test_uncertified_profile_rejected(self, scalar_model):
        with pytest.raises(ValueError, match="certified"):
            verify.check_hwi(scalar_model, GaussianMeasure(mean=[1.0], cov=[[1.0]]),
                             HFunction.exponential(6.0), 0.8)


class TestDensityAndHyper:
    def test_density_norm_report(self, scalar_model):
        rep = verify.check_density_norm(scalar_model, 1.0, [0.7], 2.0)
        assert rep.verdict in PASS

    def test_hyper_constant_report(self, scalar_model):
        rep = verify.check_hyper_constant(scalar_model, 1.0, 2.0, 0.5)
        assert rep.verdict == verify.HOLDS
        assert rep.rhs >= 1.0


class TestSemilinearHarnack:
    def test_zero_drift_reduction_dominates_plain_bound(self, scalar_model):
        t, x, y, alpha = 1.0, np.array([0.5]), np.array([0.0]), 4.0
        f = ClippedExpObservable([0.4], 8.0)
        rep = verify.check_semilinear_harnack(scalar_model, drift_zero(1), t, x, y, alpha,
                                              1.3, 1.3, f, n=20_000, K=64, seed=12)
        plain = verify.check_harnack(scalar_model, t, x, y, alpha, f, n=20_000, seed=12)
        assert rep.verdict in PASS
        # with zero drift and k's = 0 the constants collapse but the exponent
        # is weaker, so the perturbed bound dominates the plain one
        gamma_sq = rep.params["gamma"] ** 2
        q = 1.3
        assert alpha * q / (2.0 * (alpha - q)) * gamma_sq >= alpha * gamma_sq / (2.0 * (alpha - 1.0)) - 1e-12
        assert rep.lhs == pytest.approx(plain.lhs, rel=0.2)

    def test_bounded_drift_holds(self, scalar_model):
        rep = verify.check_semilinear_harnack(scalar_model, drift_scaled_sine(scalar_model, 0.5),
                                              1.0, [0.5], [0.0], 4.0, 1.3, 1.3,
                                              ClippedExpObservable([0.4], 8.0), n=20_000, K=64, seed=13)
        assert rep.verdict in PASS

    def test_equal_points(self, scalar_model):
        rep = verify.check_semilinear_harnack(scalar_model, drift_scaled_sine(scalar_model, 0.5),
                                              1.0, [0.4], [0.4], 4.0, 1.3, 1.3,
                                              ClippedExpObservable([0.4], 8.0), n=5000, K=32, seed=14)
        assert rep.verdict in PASS

    def test_exponent_constraint_enforced(self, scalar_model):
        with pytest.raises(ValueError, match="p\\*q"):
            verify.check_semilinear_harnack(scalar_model, drift_zero(1), 1.0, [0.5], [0.0],
                                            2.0, 1.5, 1.5, ConstantObservable(1.0), n=200, K=8, seed=0)

    def test_divergence_horizon_inconclusive(self, scalar_model, monkeypatch):
        # both constants diverge at t = 2 (rates 41.9 and 25.6), so no path is drawn
        monkeypatch.setattr(hl.sampler, "semilinear_estimate", None)
        spec = hl.SemilinearSpec(drift_fn=lambda pts: 0.1 * np.sin(pts), k1=0.005, k2=0.5)
        rep = verify.check_semilinear_harnack(scalar_model, spec, 2.0, [0.3], [0.0], 4.0, 1.3, 1.3,
                                              ClippedExpObservable([0.3], 5.0), n=500, K=16, seed=15)
        assert rep.verdict == verify.TRIVIAL_INFINITE_RHS
        assert "diverges" in rep.params["note"]

    def test_finite_constant_beyond_the_old_horizon_gets_a_verdict(self, scalar_model):
        # A = -1, R = 2: the unit-time Gramian trace is 1 - e^-2 = 0.865 and the
        # larger rate is 2 p' (2 p' + 1) k2 = 0.838 for p = 1.3, so the former
        # sufficient horizon min(1, 1 / (4 * 0.865 * 0.838)) = 0.345 is below
        # t = 0.8, yet both constants are finite there
        spec = hl.SemilinearSpec(drift_fn=lambda pts: 0.1 * np.sin(pts), k1=0.005, k2=0.01)
        rep = verify.check_semilinear_harnack(scalar_model, spec, 0.8, [0.3], [0.0], 4.0, 1.3, 1.3,
                                              ClippedExpObservable([0.3], 5.0), n=4000, K=32, seed=20)
        assert rep.verdict in (verify.HOLDS, verify.HOLDS_EQUALITY)
        assert math.isfinite(rep.rhs) and rep.rhs_se > 0.0 and "note" not in rep.params


class TestRhoMoments:
    def test_zero_drift_is_exactly_one(self, scalar_model):
        pos, neg = verify.check_rho_moments(scalar_model, drift_zero(1), 1.0, [0.4], 2.0, 0.5,
                                            n=2000, K=32, seed=16)
        assert pos.lhs == pytest.approx(1.0, abs=1e-12)
        assert neg.lhs == pytest.approx(1.0, abs=1e-12)
        assert pos.verdict in PASS
        assert neg.verdict in PASS

    def test_bounded_drift_holds(self, scalar_model):
        pos, neg = verify.check_rho_moments(scalar_model, drift_scaled_sine(scalar_model, 0.5),
                                            1.0, [0.4], 2.0, 0.5, n=20_000, K=64, seed=17)
        assert pos.verdict in PASS
        assert neg.verdict in PASS
        assert pos.rhs == pytest.approx(np.exp(2.0 * 3.0 * drift_scaled_sine(scalar_model, 0.5).k1 / 2.0))

    def test_divergence_horizon_inconclusive(self, scalar_model, monkeypatch):
        # both constants diverge at t = 3 (rates 10 and 1), so no path is drawn
        monkeypatch.setattr(hl.sampler, "semilinear_rho_moments", None)
        spec = hl.SemilinearSpec(drift_fn=lambda pts: 0.1 * np.sin(pts), k1=0.005, k2=0.5)
        pos, neg = verify.check_rho_moments(scalar_model, spec, 3.0, [0.3], 2.0, 0.5, n=500, K=16, seed=18)
        for rep in (pos, neg):
            assert rep.verdict == verify.TRIVIAL_INFINITE_RHS
            assert "diverges" in rep.params["note"]


class TestNoViolations:
    def test_randomized_gaussian_mini_suite(self):
        rng = np.random.default_rng(62)
        for i in range(10):
            d = int(rng.integers(1, 3))
            m = OuLevyModel(drift_matrix=make_stable(rng, d), noise_cov=make_psd(rng, d, ridge=0.3))
            x = rng.normal(size=d) * 0.8
            y = x + rng.normal(size=d) * 0.6
            f = ClippedExpObservable(rng.uniform(-0.5, 0.5, size=d), 10.0)
            rep = verify.check_harnack(m, float(rng.uniform(0.4, 1.5)), x, y,
                                       float(rng.uniform(1.5, 4.0)), f, n=4000, seed=3000 + i)
            assert rep.verdict != verify.VIOLATED


class TestPropagatedSquareIntegral:
    def test_closed_form_matches_quadrature(self):
        a = np.array([[-1.0, 3.0, 0.5], [0.0, -0.5, 2.0], [0.2, 0.0, -2.0]])  # non-normal
        m = OuLevyModel(drift_matrix=a, noise_cov=np.eye(3))
        t = 1.3
        x, y = np.array([0.3, -1.2, 0.7]), np.array([-2.0, 0.1, 0.4])

        def quad(p):
            val, _ = scipy.integrate.quad(lambda s: float(np.sum((scipy.linalg.expm(s * a) @ p) ** 2)), 0.0, t,
                                          epsabs=1e-14, epsrel=1e-13, limit=200)
            return val

        for pts in ((x,), (x, y)):
            want = sum(quad(p) for p in pts)
            assert verify._propagated_sq_integral(m, t, *pts) == pytest.approx(want, rel=1e-10)

    def test_quadratic_growth_inside_horizon_holds(self, scalar_model):
        spec = hl.SemilinearSpec(drift_fn=lambda pts: 0.1 * np.sin(pts), k1=0.005, k2=0.001)
        rep = verify.check_semilinear_harnack(scalar_model, spec, 1.0, [0.3], [0.0], 4.0, 1.3, 1.3,
                                              ClippedExpObservable([0.3], 5.0), n=2000, K=16, seed=19)
        assert rep.verdict in PASS


@pytest.mark.parametrize("dim", [1, 4, 100])
def test_default_probes_share_one_identity(dim):
    m = OuLevyModel(drift_matrix=-np.eye(dim), noise_cov=np.eye(dim))
    probes = verify._default_probes(m, np.ones(dim))
    bases = {id(b): b.nbytes for b in (p if p.base is None else p.base for p in probes)}
    assert sum(bases.values()) <= (dim + 3) * dim * 8
