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

    def test_joint_margin_error(self):
        # sides' errors 0.1 each, so hypot(lhs_se, rhs_se) = 0.141
        assert verify.classify(0.9, 1.0, 0.1, 0.1) == verify.HOLDS_EQUALITY
        assert verify.classify(0.9, 1.0, 0.1, 0.1, margin_se=0.05) == verify.HOLDS
        assert verify.classify(1.2, 1.0, 0.1, 0.1) == verify.INCONCLUSIVE
        assert verify.classify(1.2, 1.0, 0.1, 0.1, margin_se=0.25) == verify.HOLDS_EQUALITY
        # 20 joint errors below zero, but within three of the sides' combined error
        assert verify.classify(1.2, 1.0, 0.1, 0.1, margin_se=0.01) == verify.INCONCLUSIVE
        assert verify.classify(1.5, 1.0, 0.1, 0.1, margin_se=0.01) == verify.VIOLATED
        # a joint error wider than the sides' widens the breach threshold too
        assert verify.classify(1.5, 1.0, 0.1, 0.1, margin_se=0.2) == verify.INCONCLUSIVE

    @pytest.mark.parametrize("args", [(math.nan, 1.0), (1.0, math.nan), (1.0, 2.0, math.nan, 0.0),
                                      (1.0, math.inf, 0.0, math.nan), (1.0, 2.0, 0.1, 0.1, math.nan)])
    def test_nan_input_raises(self, args):
        # checked before the infinite-rhs shortcut, so a NaN error beside an infinite rhs
        # raises too: the checks keep inf * 0 out of their errors (TestSaturatedCoefficient)
        with pytest.raises(ValueError, match="NaN"):
            verify.classify(*args)


class TestSaturatedCoefficient:
    """Exponents past 700 saturate the coefficient to inf, and the row is
    TRIVIAL_INFINITE_RHS before any draw: no sample ever meets an inf coefficient."""

    def test_harnack(self, flat_model):
        rep = verify.check_harnack(flat_model, 1.0, [40.0], [0.0], 2.0, ConstantObservable(1.0), n=200, seed=1)
        assert rep.params["energy_sq"] == pytest.approx(1600.0)
        assert (rep.verdict, rep.rhs_se) == (verify.TRIVIAL_INFINITE_RHS, 0.0)

    def test_gradient(self, flat_model):
        rep = verify.check_gradient_estimate(flat_model, 1.0, [40.0], [0.0], ConstantObservable(2.0), n=200, seed=2)
        assert (rep.lhs, rep.rhs, rep.rhs_se) == (0.0, math.inf, 0.0)
        assert rep.verdict == verify.TRIVIAL_INFINITE_RHS

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
        h = HFunction.exponential(1.0)
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


class TestSharedNoise:
    """The two-point Monte Carlo checks draw one noise pass for both starts and
    judge the margin by its joint standard error ``margin_se``."""

    def test_lhs_is_the_one_point_estimate(self, jump_model):
        f = ClippedExpObservable([0.5], 10.0)
        rep = verify.check_harnack(jump_model, 1.0, [0.6], [0.0], 2.0, f, n=5000, seed=3)
        est = hl.estimate_semigroup(jump_model, 1.0, [0.6], f, rep.params["n_used"], hl.sampler.mix_seed(3, 1))
        assert (rep.lhs, rep.lhs_se) == (est.mean**2, 2.0 * est.mean * est.std_error)
        assert 0.0 < rep.params["margin_se"] < math.hypot(rep.lhs_se, rep.rhs_se)

    def test_margin_error_only_on_monte_carlo_rows(self, jump_model, scalar_model):
        closed = verify.check_harnack(jump_model, 1.0, [0.5], [0.0], 3.0, ExpObservable([0.3]), n=200, seed=1)
        log = verify.check_log_harnack(scalar_model, 1.0, [0.5], [0.0], OnePlusSigmoid([0.7]), n=2000, seed=4)
        assert "margin_se" not in closed.params
        assert 0.0 < log.params["margin_se"] < math.hypot(log.lhs_se, log.rhs_se)

    @pytest.mark.parametrize("kind", ["harnack", "log_harnack", "semilinear_harnack", "gradient"])
    def test_margin_error_matches_spread_over_seeds(self, jump_model, scalar_model, kind):
        # 200 independent seeds: the sample sd of the margin has about 5 % relative error
        f = ClippedExpObservable([0.5], 10.0)
        if kind == "harnack":
            run = lambda s: verify.check_harnack(jump_model, 1.0, [0.6], [0.0], 2.0, f, n=2000, seed=s)
        elif kind == "gradient":
            # tanh: there hypot(lhs_se, rhs_se), which ignores the shared noise, reads 0.69 of the spread
            run = lambda s: verify.check_gradient_estimate(jump_model, 1.0, [0.6], [0.0], TanhObservable([1.0]),
                                                           n=2000, seed=s)
        elif kind == "log_harnack":
            run = lambda s: verify.check_log_harnack(jump_model, 1.0, [0.6], [0.0], OnePlusSigmoid([0.7]),
                                                     n=2000, seed=s)
        else:
            # n = 4000: at n = 1000 the weighted rhs is so heavy-tailed that its
            # sample variance, and so each error, reads low (0.76 of the spread)
            spec = drift_scaled_sine(scalar_model, 0.5)
            run = lambda s: verify.check_semilinear_harnack(scalar_model, spec, 1.0, [0.5], [0.0], 4.0,
                                                            1.3, 1.3, f, n=4000, K=8, seed=s)
        reps = [run(s) for s in range(200)]
        spread = np.std([r.margin for r in reps], ddof=1)
        reported = np.mean([r.params["margin_se"] for r in reps])
        assert reported == pytest.approx(spread, rel=0.15)

    @pytest.mark.parametrize("n", [100, 1000, 10_000])
    def test_exact_equality_is_never_violated(self, flat_model, n):
        # both sides are e^{1.08}; lognormal skew makes the joint error small
        # where the margin reads low, which the breach rule must not trust alone
        f = ClippedExpObservable([0.6], 1000.0)
        verdicts = {verify.check_harnack(flat_model, 1.0, [0.6], [0.0], 2.0, f, n=n, seed=s).verdict
                    for s in range(200)}
        assert verify.VIOLATED not in verdicts


class TestEarlyStop:
    """The unweighted two-point checks take ``n`` as a cap: their fold stops
    at a block boundary once the margin exceeds ``sampler.EARLY_Z`` times its
    positive joint error, and the row says how many replicates it drew."""

    @staticmethod
    def _count_looks(monkeypatch):
        """Patch `sampler.fold` to count the stop rule's reads of the margin."""
        fold, looks = hl.sampler.fold, []

        def counting(blocks, decided=None):
            if decided is None:
                return fold(blocks)
            margin = decided.margin
            return fold(blocks, hl.sampler.EarlyHolds(decided.n, lambda acc: looks.append(acc.n) or margin(acc)))

        monkeypatch.setattr(hl.sampler, "fold", counting)
        return looks

    def test_a_stop_is_bitwise_the_row_at_that_cap(self, jump_model):
        f = ClippedExpObservable([0.5], 10.0)
        early = verify.check_harnack(jump_model, 1.0, [0.6], [0.0], 2.0, f, n=20_000, seed=3)
        capped = verify.check_harnack(jump_model, 1.0, [0.6], [0.0], 2.0, f, n=hl.sampler.MC_BLOCK, seed=3)
        assert early.params["n_used"] == capped.params["n_used"] == hl.sampler.MC_BLOCK
        assert early.verdict == verify.HOLDS
        for side in ("lhs", "rhs", "lhs_se", "rhs_se"):
            assert getattr(early, side) == getattr(capped, side)
        assert early.params["margin_se"] == capped.params["margin_se"]

    def test_exact_equality_runs_to_the_cap(self, flat_model, monkeypatch):
        # both sides are e^{1.08}: no margin is ever decided, so every row draws its
        # whole cap and gives the verdict of the fold without the stop rule
        f = ClippedExpObservable([0.6], 1000.0)
        n = 3 * hl.sampler.MC_BLOCK

        def run(s):
            return verify.check_harnack(flat_model, 1.0, [0.6], [0.0], 2.0, f, n=n, seed=s)

        capped = [run(s) for s in range(100)]
        fold = hl.sampler.fold
        monkeypatch.setattr(hl.sampler, "fold", lambda blocks, decided=None: fold(blocks))
        full = [run(s) for s in range(100)]
        assert all(r.params["n_used"] == n for r in capped)
        assert [r.verdict for r in capped] == [r.verdict for r in full]

    def test_zero_sigma_never_stops_early(self, flat_model, monkeypatch):
        looks = self._count_looks(monkeypatch)
        n = 3 * hl.sampler.MC_BLOCK
        rep = verify.check_harnack(flat_model, 1.0, [0.5], [0.0], 2.0, ConstantObservable(2.0), n=n, seed=3)
        assert rep.params["margin_se"] == 0.0 and rep.margin > 0.0
        assert rep.params["n_used"] == n and rep.verdict == verify.HOLDS
        assert looks == [hl.sampler.MC_BLOCK, 2 * hl.sampler.MC_BLOCK]  # none once no block remains

    def test_one_block_check_never_reads_the_margin(self, jump_model, monkeypatch):
        looks = self._count_looks(monkeypatch)
        f = ClippedExpObservable([0.5], 10.0)
        reps = [verify.check_harnack(jump_model, 1.0, [0.6], [0.0], 2.0, f, n=3000, seed=3),
                verify.check_log_harnack(jump_model, 1.0, [0.6], [0.0], OnePlusSigmoid([0.7]), n=3000, seed=3),
                verify.check_gradient_estimate(jump_model, 1.0, [0.6], [0.0], TanhObservable([1.0]), n=3000, seed=3)]
        assert looks == []
        assert [r.params["n_used"] for r in reps] == [3000] * 3

    def test_rows_that_draw_nothing_say_so(self, jump_model, flat_model):
        closed = verify.check_harnack(jump_model, 1.0, [0.5], [0.0], 3.0, ExpObservable([0.3]), n=20_000, seed=1)
        singular = OuLevyModel(drift_matrix=np.zeros((2, 2)), noise_cov=np.diag([1.0, 0.0]))
        x, y = [0.1, 0.2], [0.0, 0.0]
        trivial = [verify.check_harnack(singular, 1.0, x, y, 2.0, ConstantObservable(1.0), n=5000, seed=2),
                   verify.check_log_harnack(singular, 1.0, x, y, ConstantObservable(1.0), n=5000, seed=2),
                   verify.check_gradient_estimate(singular, 1.0, x, y, ConstantObservable(1.0), n=5000, seed=2)]
        assert closed.params["n_used"] == 0
        assert [(r.verdict, r.params["n_used"]) for r in trivial] == [(verify.TRIVIAL_INFINITE_RHS, 0)] * 3


    @pytest.mark.parametrize("kind", ["harnack", "semilinear_harnack"])
    def test_a_negative_sample_stops_the_fold_in_its_first_block(self, scalar_model, kind):
        # the sign guard wraps the observable: no block is drawn after the first negative sample
        sizes = []

        def tanh(pts):
            sizes.append(len(pts))
            return np.tanh(pts[:, 0])

        n = 3 * hl.sampler.MC_BLOCK
        with pytest.raises(ValueError, match="negative sample"):
            if kind == "harnack":
                verify.check_harnack(scalar_model, 1.0, [0.5], [0.0], 2.0, tanh, n=n, seed=3)
            else:
                verify.check_semilinear_harnack(scalar_model, drift_zero(1), 1.0, [0.5], [0.0], 4.0, 1.3, 1.3, tanh,
                                                n=n, K=8, seed=3)
        assert sizes == [hl.sampler.MC_BLOCK]


class TestWeightedRowsSayTheirSampleCount:
    """Every semilinear_harnack and rho_moments row carries ``n_used``: the
    weighted folds draw their full ``n``, and a trivial row draws nothing."""

    def test_sampled_rows(self, scalar_model):
        spec = drift_scaled_sine(scalar_model, 0.5)
        rows = [verify.check_semilinear_harnack(scalar_model, spec, 1.0, [0.5], [0.0], 4.0, 1.3, 1.3,
                                                ClippedExpObservable([0.4], 8.0), n=5000, K=8, seed=1),
                *verify.check_rho_moments(scalar_model, spec, 1.0, [0.4], 2.0, 0.5, n=5000, K=8, seed=2)]
        assert [(r.verdict in PASS, r.params["n_used"]) for r in rows] == [(True, 5000)] * 3

    def test_trivial_rows(self, scalar_model):
        sine, f = drift_scaled_sine(scalar_model, 0.5), ClippedExpObservable([0.3], 5.0)
        quadratic = hl.SemilinearSpec(drift_fn=lambda pts: 0.1 * np.sin(pts), k1=0.005, k2=0.5)
        singular = OuLevyModel(drift_matrix=np.zeros((2, 2)), noise_cov=np.diag([1.0, 0.0]))
        rows = [verify.check_semilinear_harnack(scalar_model, sine, 1e3, [0.5], [0.0], 4.0, 1.3, 1.3, f,
                                                n=500, K=8, seed=1),  # coefficient past the float range
                verify.check_semilinear_harnack(scalar_model, quadratic, 2.0, [0.3], [0.0], 4.0, 1.3, 1.3, f,
                                                n=500, K=8, seed=2),  # divergent constant
                verify.check_semilinear_harnack(singular, drift_zero(2), 1.0, [0.0, 1.0], [0.0, 0.0], 4.0, 1.3, 1.3,
                                                ConstantObservable(1.0), n=500, K=8, seed=3)]  # unreachable
        assert [(r.verdict, r.params["n_used"]) for r in rows] == [(verify.TRIVIAL_INFINITE_RHS, 0)] * 3
        pos, neg = verify.check_rho_moments(scalar_model, sine, 3000.0, [0.4], 2.0, 0.5, n=500, K=16, seed=18)
        assert (pos.verdict, pos.params["n_used"]) == (verify.TRIVIAL_INFINITE_RHS, 0)
        assert (neg.verdict in PASS, neg.params["n_used"]) == (True, 500)


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

    def test_offset_keeps_the_sides_and_their_errors(self, jump_model):
        # a common offset of 1e8 must cancel neither the variance nor its standard error
        tanh = TanhObservable([1.0])
        for seed in range(5):
            plain = verify.check_gradient_estimate(jump_model, 0.8, [0.4], [0.0], tanh, n=20_000, seed=seed)
            shifted = verify.check_gradient_estimate(jump_model, 0.8, [0.4], [0.0], lambda pts: 1e8 + tanh(pts),
                                                     n=20_000, seed=seed)
            for side in ("lhs", "rhs", "lhs_se", "rhs_se"):
                assert getattr(shifted, side) == pytest.approx(getattr(plain, side), rel=1e-6)
            assert shifted.verdict == plain.verdict


class TestKernelInequalities:
    @staticmethod
    def _rows(model, x, y):
        """The power-integral and relative-entropy rows at t = 1, alpha = 2."""
        return (verify.kernel_power_report(model, 1.0, x, y, 2.0, "kernel_power"),
                verify.kernel_kl_report(model, 1.0, x, y, 2.0, "kernel_kl"))

    def test_scalar_always_equality(self, scalar_model):
        power, kl = self._rows(scalar_model, [1.1], [0.3])
        assert power.verdict == verify.HOLDS_EQUALITY
        assert kl.verdict == verify.HOLDS_EQUALITY

    def test_distinct_singular_values_strict(self):
        m = OuLevyModel(drift_matrix=np.diag([-1.0, -3.0]), noise_cov=np.eye(2))
        # difference along the faster-decaying mode is strictly inside the bound
        power, kl = self._rows(m, [0.0, 1.0], [0.0, 0.0])
        assert power.verdict == verify.HOLDS
        assert kl.verdict == verify.HOLDS
        # difference along the slow mode saturates it
        power2, kl2 = self._rows(m, [1.0, 0.0], [0.0, 0.0])
        assert power2.verdict == verify.HOLDS_EQUALITY
        assert kl2.verdict == verify.HOLDS_EQUALITY

    def test_equal_points(self, scalar_model):
        power, kl = self._rows(scalar_model, [0.4], [0.4])
        assert power.lhs == pytest.approx(1.0)
        assert kl.lhs == pytest.approx(0.0, abs=1e-14)
        assert power.verdict == verify.HOLDS_EQUALITY
        assert kl.verdict == verify.HOLDS_EQUALITY

    def test_jump_model_rejected(self, jump_model):
        for report in (verify.kernel_power_report, verify.kernel_kl_report):
            with pytest.raises(ValueError):
                report(jump_model, 1.0, [0.5], [0.0], 2.0, "kernel")


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

    def test_expm_calls_on_a_fresh_model(self, monkeypatch):
        # one step of the certificate grid, then one snapshot of the adjoint at t
        calls = []
        expm = hl.linops._expm
        monkeypatch.setattr(hl.linops, "_expm", lambda x, *split: calls.append(np.shape(x)) or expm(x, *split))
        model = OuLevyModel(drift_matrix=-np.diag([1.0, 2.0, 3.0]), noise_cov=np.eye(3))
        rep = verify.check_hwi(model, GaussianMeasure(mean=[1.0, 0.0, 0.0], cov=np.eye(3)),
                               HFunction.exponential(2.0), 0.8)
        assert rep.verdict in PASS
        assert calls == [(3, 3), (7, 7)]

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
        monkeypatch.setattr(hl.sampler, "semilinear_values", None)
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


    def test_growth_factor_past_the_float_range_is_trivial_before_sampling(self, scalar_model, monkeypatch):
        # k2 = 0 keeps both constants at 1; at t = 3000 the positive growth factor
        # exp(3 k1 t) = exp(1125) overflows, the negative one exp(k1 t / 2) does not
        sampled = []
        moments = hl.sampler.semilinear_rho_moments
        monkeypatch.setattr(hl.sampler, "semilinear_rho_moments",
                            lambda *args: sampled.append(args[4]) or moments(*args))
        pos, neg = verify.check_rho_moments(scalar_model, drift_scaled_sine(scalar_model, 0.5), 3000.0, [0.4],
                                            2.0, 0.5, n=500, K=16, seed=18)
        assert sampled == [[-0.5]]
        assert pos.verdict == verify.TRIVIAL_INFINITE_RHS
        assert pos.params["note"] == "growth factor exceeds the float range at this horizon"
        assert neg.verdict in PASS and math.isfinite(neg.rhs)


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
