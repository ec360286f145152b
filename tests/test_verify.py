import dataclasses
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import harnacklab as hl
from harnacklab import OuLevyModel, analytic, control, verify
from harnacklab.analytic import GaussianMeasure
from harnacklab.model import HFunction
from harnacklab.testfuncs import (
    ClippedExpObservable,
    ConstantObservable,
    ExpObservable,
    IndicatorObservable,
    OnePlusSigmoid,
    TanhObservable,
    drift_constant,
    drift_scaled_sine,
    drift_zero,
)
from oracles import hard_drift, make_psd, make_stable

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


def _sharp_case(kind, d):
    """A jump-free stable model with an offset, of one hard ``kind``, and the
    exact_gamma Harnack problem at t = 0.7, alpha = 2 whose ``x - y`` has
    energy 1; returns the model, the problem and the sharp observable
    coefficient ``c* = G^{-1} P (x - y) / (alpha - 1)``."""
    rng = np.random.default_rng(100 + d)
    if kind == "singular":  # rank d - 1 noise (full at d = 1), controllable through the drift
        a, r = make_stable(rng, d), make_psd(rng, d, rank=max(1, d - 1))
    else:
        a, r = hard_drift("jordan" if kind == "defective" else "stiff", d, rng), make_psd(rng, d, ridge=0.1)
    m = OuLevyModel(drift_matrix=a, noise_cov=r, drift_offset=rng.normal(0.0, 0.3, d))
    t, alpha = 0.7, 2.0
    delta = rng.normal(size=d)
    delta /= float(control.gamma_norm(m, t, delta))
    snap = m.snapshot(t)
    c_star = np.linalg.solve(snap.gramian, snap.propagator @ delta) / (alpha - 1.0)
    return m, (t, 0.5 * delta, -0.5 * delta, alpha), c_star


SHARP_CASES = pytest.mark.parametrize("kind", ["defective", "stiff", "singular"])
SHARP_DIMS = pytest.mark.parametrize("d", [1, 3, 10])


class TestHarnackSharpness:
    """The Gaussian Harnack bound is sharp: for ``f = exp(<c, .>)`` the
    exact_gamma margin is zero at ``c*`` and positive elsewhere, so a bound
    off by a relative 1e-6 changes the verdict at ``c*``."""

    @SHARP_CASES
    @SHARP_DIMS
    def test_equality_at_the_sharp_observable_only(self, kind, d):
        m, (t, x, y, alpha), c_star = _sharp_case(kind, d)
        verdicts = [verify.check_harnack(m, t, x, y, alpha, ExpObservable(s * c_star), n=200).verdict
                    for s in (1.0, 0.7, 1.3)]
        assert verdicts == [verify.HOLDS_EQUALITY, verify.HOLDS, verify.HOLDS]

    @SHARP_CASES
    @SHARP_DIMS
    @pytest.mark.parametrize("factor, verdict", [(1.0 - 1e-6, verify.VIOLATED), (1.0 + 1e-6, verify.HOLDS)])
    def test_a_constant_off_by_1e_6_moves_the_verdict(self, monkeypatch, kind, d, factor, verdict):
        m, (t, x, y, alpha), c_star = _sharp_case(kind, d)
        exact = control.gamma_norm

        def scaled(*args):
            norm = exact(*args)
            return dataclasses.replace(norm, value=norm.value * factor)

        monkeypatch.setattr(control, "gamma_norm", scaled)
        assert verify.check_harnack(m, t, x, y, alpha, ExpObservable(c_star), n=200).verdict == verdict


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
        # a plain callable keeps the jump-free row on Monte Carlo
        f = OnePlusSigmoid([0.7])
        closed = verify.check_harnack(jump_model, 1.0, [0.5], [0.0], 3.0, ExpObservable([0.3]), n=200, seed=1)
        exact = verify.check_log_harnack(scalar_model, 1.0, [0.5], [0.0], f, n=2000, seed=4)
        log = verify.check_log_harnack(scalar_model, 1.0, [0.5], [0.0], lambda pts: f(pts), n=2000, seed=4)
        assert "margin_se" not in closed.params and "margin_se" not in exact.params
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
        # where the margin reads low, which the breach rule must not trust alone; a plain
        # callable keeps the jump-free row on Monte Carlo
        clipped = ClippedExpObservable([0.6], 1000.0)
        f = lambda pts: clipped(pts)
        reps = [verify.check_harnack(flat_model, 1.0, [0.6], [0.0], 2.0, f, n=n, seed=s) for s in range(200)]
        assert {r.params["method"] for r in reps} == {"monte_carlo"}
        assert verify.VIOLATED not in {r.verdict for r in reps}


class TestEarlyStop:
    """The unweighted two-point checks, ``semilinear_harnack`` among them,
    take ``n`` as a cap: their fold stops at a block boundary of the ladder
    that starts at ``sampler.MC_FIRST_BLOCK`` (see `sampler._stream_blocks`)
    once the margin exceeds ``sampler.EARLY_Z`` times its positive joint
    error, and the row says how many replicates it drew."""

    @staticmethod
    def _semilinear(model, spec, x, y, f, n, seed, alpha=4.0, K=8):
        return verify.check_semilinear_harnack(model, spec, 1.0, x, y, alpha, 1.3, 1.3, f, n=n, K=K, seed=seed)

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

    @pytest.mark.parametrize("kind", ["harnack", "semilinear_harnack"])
    def test_a_stop_is_bitwise_the_row_at_that_cap(self, jump_model, scalar_model, kind):
        # each seed stops at the second look, past the first ladder block: the endpoint
        # ladder's for harnack, the control-variate path ladder's for semilinear_harnack
        def run(n):
            if kind == "harnack":
                return verify.check_harnack(jump_model, 1.0, [0.6], [0.0], 2.0, ClippedExpObservable([0.5], 10.0),
                                            n=n, seed=3)
            return self._semilinear(scalar_model, drift_scaled_sine(scalar_model, 0.05), [0.5], [0.0],
                                    ClippedExpObservable([1.0], 1000.0), n, seed=4)

        early = run(20_000)
        stop = 2 * (hl.sampler.MC_FIRST_BLOCK if kind == "harnack" else hl.sampler.PATH_FIRST_BLOCK)
        capped = run(stop)
        assert early.params["n_used"] == capped.params["n_used"] == stop
        assert early.verdict == verify.HOLDS
        for side in ("lhs", "rhs", "lhs_se", "rhs_se"):
            assert getattr(early, side) == getattr(capped, side)
        assert early.params["margin_se"] == capped.params["margin_se"]

    def test_exact_equality_runs_to_the_cap(self, flat_model, monkeypatch):
        # both sides are e^{1.08}: no margin is ever decided, so every row draws its
        # whole cap and gives the verdict of the fold without the stop rule; a plain
        # callable keeps the jump-free row on Monte Carlo
        clipped = ClippedExpObservable([0.6], 1000.0)
        f = lambda pts: clipped(pts)
        n = 3 * hl.sampler.MC_BLOCK

        def run(s):
            return verify.check_harnack(flat_model, 1.0, [0.6], [0.0], 2.0, f, n=n, seed=s)

        capped = [run(s) for s in range(100)]
        fold = hl.sampler.fold
        monkeypatch.setattr(hl.sampler, "fold", lambda blocks, decided=None: fold(blocks))
        full = [run(s) for s in range(100)]
        assert all(r.params["n_used"] == n for r in capped)
        assert [r.verdict for r in capped] == [r.verdict for r in full]

    def test_a_violated_row_never_stops_early(self, flat_model, monkeypatch):
        # the equality above with the coefficient cut by 1e-3: the true margin is
        # negative, so no look, the first at 1024 replicates included, may stop
        clipped = ClippedExpObservable([0.6], 1000.0)
        f = lambda pts: clipped(pts)
        n = 3 * hl.sampler.MC_BLOCK
        exp = verify.saturating_exp
        monkeypatch.setattr(verify, "saturating_exp", lambda z: (1.0 - 1e-3) * exp(z))
        reps = [verify.check_harnack(flat_model, 1.0, [0.6], [0.0], 2.0, f, n=n, seed=s) for s in range(200)]
        assert all(r.params["n_used"] == n for r in reps)  # so no HOLDS comes from an early stop

    @staticmethod
    def _clipped_exp_mean(a, cap, mu):
        """``E min(e^{aZ}, cap)`` for ``Z ~ N(mu, 1)``."""
        z = (math.log(cap) / a - mu) / math.sqrt(2.0)
        return math.exp(a * mu + 0.5 * a * a) * 0.5 * math.erfc(a / math.sqrt(2.0) - z) + cap * 0.5 * math.erfc(z)

    def test_a_semilinear_row_below_the_true_ratio_never_stops_early(self, flat_model, monkeypatch):
        # the stop rule's error rate at the control-variate ladder's looks, the first at 128
        # paths: a constant drift b moves X_t^x to N(x + b t, t) on any grid, so the exact
        # ratio (E f(X^x))^alpha / E f^alpha(X^y) is known; the coefficient cut by 1e-3 below
        # it replaces the semilinear one, so the true margin is negative and no look may stop
        a, cap, b, alpha = 0.6, 1000.0, 0.5, 2.0
        f = ClippedExpObservable([a], cap)
        n = 3 * hl.sampler.MC_BLOCK
        ratio = self._clipped_exp_mean(a, cap, 0.6 + b) ** alpha / self._clipped_exp_mean(alpha * a, cap**alpha, b)
        monkeypatch.setattr(verify, "saturating_exp", lambda z: (1.0 - 1e-3) * ratio)
        reps = [self._semilinear(flat_model, drift_constant(flat_model, [b]), [0.6], [0.0], f, n, seed=s,
                                 alpha=alpha, K=2) for s in range(200)]
        assert {(r.params["method"], r.params["control_variate"]) for r in reps} == {("monte_carlo", "ou_twin")}
        assert all(r.params["n_used"] == n for r in reps)

    def test_a_zero_drift_row_below_the_true_ratio_is_violated(self, flat_model, monkeypatch):
        # with zero drift the paths are exact OU ones, so the row is the harnack equality
        # above, integrated; its coefficient e^{0.36} cut by 1e-3 reads VIOLATED with no draw
        monkeypatch.setattr(verify, "saturating_exp", lambda z: (1.0 - 1e-3) * math.exp(0.36))
        rep = self._semilinear(flat_model, drift_zero(1), [0.6], [0.0], ClippedExpObservable([0.6], 1000.0),
                               3 * hl.sampler.MC_BLOCK, seed=0, alpha=2.0, K=2)
        assert (rep.verdict, rep.params["method"], rep.params["n_used"]) == (verify.VIOLATED, "quadrature", 0)

    @pytest.mark.parametrize("false_row", ["positive", "negative"])
    def test_a_rho_moments_row_below_its_true_moment_never_stops_early(self, flat_model, monkeypatch, false_row):
        # the stop rule's error rate at the rho_moments looks, the first at 128 paths: under
        # a constant drift b, log rho is exactly N(-s2 / 2, s2) on any grid, s2 = b^2 t, so
        # E rho^p = exp(p (p - 1) s2 / 2).  One row's bound is cut to 1e-3 below its moment,
        # so its true margin is negative; the other keeps its own bound, decided at 128 paths
        b, t, n = 0.5, 1.0, hl.sampler.MC_BLOCK
        spec = drift_constant(flat_model, [b])
        power, growth = (2.0, 3.0) if false_row == "positive" else (-0.5, 0.5)  # the bound is exp(growth k1 t)
        moment = math.exp(power * (power - 1.0) * b * b * t / 2.0)
        monkeypatch.setattr(verify, "saturating_exp",
                            lambda z: (1.0 - 1e-3) * moment if z == growth * spec.k1 * t else math.exp(z))
        reps = [verify.check_rho_moments(flat_model, spec, t, [0.3], 2.0, 0.5, n=n, K=2, seed=s) for s in range(200)]
        assert {(r.params["method"], r.params["control_variate"]) for pair in reps for r in pair} == {
            ("monte_carlo", "exp_martingale")}
        assert all(r.params["n_used"] == n for pair in reps for r in pair)  # so no HOLDS comes from an early stop

    def test_a_missed_rare_left_event_never_stops_early(self, flat_model, monkeypatch):
        # the indicator of X_1 > 0 from x = -2.88 (p about 2e-3) against y = -3.09 (p about
        # 1e-3), with the coefficient 1e-3 below equality: the true margin is negative.  Some
        # first looks miss the left side's event.  Both starts share the noise, so the right
        # side's event lies inside the left side's and is missed too: such a look reads the
        # margin -slack with no error, and no look of any row stops.  A plain callable
        # keeps the jump-free row on Monte Carlo
        x, y, alpha = -2.88, -3.09, 1.05
        indicator = IndicatorObservable([1.0])
        p_x, p_y = (0.5 * math.erfc(-z / math.sqrt(2.0)) for z in (x, y))
        coef = (1.0 - 1e-3) * p_x**alpha / p_y
        assert coef > 1.0
        monkeypatch.setattr(verify, "saturating_exp", lambda z: coef)
        fold, first_looks = hl.sampler.fold, []

        def recording(blocks, decided):
            def margin(acc):
                if acc.n == hl.sampler.MC_FIRST_BLOCK:
                    first_looks.append((float(acc.mean[0]), *decided.margin(acc)))
                return decided.margin(acc)
            return fold(blocks, hl.sampler.EarlyHolds(decided.n, margin))

        monkeypatch.setattr(hl.sampler, "fold", recording)
        n = 3 * hl.sampler.MC_BLOCK
        reps = [verify.check_harnack(flat_model, 1.0, [x], [y], alpha, lambda pts: indicator(pts), n=n, seed=s)
                for s in range(200)]
        missed = [(margin, se) for mean_x, margin, se in first_looks if mean_x == 0.0]
        assert len(first_looks) == 200 and len(missed) >= 10
        assert all(margin < 0.0 and se == 0.0 for margin, se in missed)
        assert all(r.params["n_used"] == n for r in reps)

    @pytest.mark.parametrize("kind", ["harnack", "semilinear_harnack"])
    def test_zero_sigma_never_stops_early(self, flat_model, scalar_model, monkeypatch, kind):
        looks = self._count_looks(monkeypatch)
        n, f = 3 * hl.sampler.MC_BLOCK, ConstantObservable(2.0)
        if kind == "harnack":
            rep = verify.check_harnack(flat_model, 1.0, [0.5], [0.0], 2.0, f, n=n, seed=3)
        else:
            rep = self._semilinear(scalar_model, drift_scaled_sine(scalar_model, 0.5), [0.5], [0.0], f, n, seed=3)
        assert rep.params["margin_se"] == 0.0 and rep.margin > 0.0
        assert rep.params["n_used"] == n and rep.verdict == verify.HOLDS
        first = hl.sampler.MC_FIRST_BLOCK
        assert looks == [first, 2 * first, 4 * first, 8 * first]  # none once no block remains

    def test_a_semilinear_row_says_its_sample_count(self, scalar_model):
        # the row of a bounded drift decides its margin at the first look of a cap of 5000
        rep = self._semilinear(scalar_model, drift_scaled_sine(scalar_model, 0.5), [0.5], [0.0],
                               ClippedExpObservable([0.4], 8.0), 5000, seed=1)
        assert (rep.verdict, rep.params["n_used"]) == (verify.HOLDS, hl.sampler.PATH_FIRST_BLOCK)

    def test_a_first_look_stop_draws_one_block_of_step_normals(self, nonnormal_model, monkeypatch):
        # a count that does not depend on the machine: the paths of the one block
        # drawn take K steps of PATH_FIRST_BLOCK * d normals each
        drawn, step_normals = [], hl.sampler._step_normals

        def counting(gen, K, shape):
            drawn.append(K * math.prod(shape))
            return step_normals(gen, K, shape)

        monkeypatch.setattr(hl.sampler, "_step_normals", counting)
        rep = self._semilinear(nonnormal_model, drift_scaled_sine(nonnormal_model, 0.5), [0.5, 0.2], [0.0, 0.0],
                               ClippedExpObservable([0.4, 0.3], 8.0), 20_000, seed=1, K=16)
        assert (rep.verdict, rep.params["n_used"]) == (verify.HOLDS, hl.sampler.PATH_FIRST_BLOCK)
        assert drawn == [hl.sampler.PATH_FIRST_BLOCK * 16 * 2]

    def test_one_block_check_never_reads_the_margin(self, jump_model, monkeypatch):
        looks = self._count_looks(monkeypatch)
        f = ClippedExpObservable([0.5], 10.0)
        n = hl.sampler.MC_FIRST_BLOCK  # the ladder's first block holds the whole cap
        reps = [verify.check_harnack(jump_model, 1.0, [0.6], [0.0], 2.0, f, n=n, seed=3),
                verify.check_log_harnack(jump_model, 1.0, [0.6], [0.0], OnePlusSigmoid([0.7]), n=n, seed=3),
                verify.check_gradient_estimate(jump_model, 1.0, [0.6], [0.0], TanhObservable([1.0]), n=n, seed=3)]
        assert looks == []
        assert [r.params["n_used"] for r in reps] == [n] * 3

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
        # the sign guard wraps the observable: no block is drawn after the first negative sample;
        # both kinds draw the ladder that starts at MC_FIRST_BLOCK
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
        assert sizes == [hl.sampler.MC_FIRST_BLOCK]


class TestWeightedRowsSayTheirSampleCount:
    """Every semilinear_harnack and rho_moments row carries ``n_used``, and a
    trivial row draws nothing.  A sampled row with ``k2 = 0`` may stop at a
    boundary of the path ladder (`TestEarlyStop`); the two rho_moments rows
    share one fold, so they say the same count.  A rho_moments check with
    ``k2 > 0`` draws its full ``n``."""

    LADDER = {hl.sampler.PATH_FIRST_BLOCK << i for i in range(6)}

    def test_sampled_rows(self, scalar_model):
        spec = drift_scaled_sine(scalar_model, 0.5)
        rows = verify.check_rho_moments(scalar_model, spec, 1.0, [0.4], 2.0, 0.5, n=5000, K=8, seed=2)
        assert all(r.verdict in PASS and r.params["control_variate"] == "exp_martingale" for r in rows)
        assert rows[0].params["n_used"] == rows[1].params["n_used"] in self.LADDER
        quadratic = hl.SemilinearSpec(drift_fn=lambda pts: 0.1 * np.sin(pts), k1=0.005, k2=0.01)
        rows = verify.check_rho_moments(scalar_model, quadratic, 1.0, [0.4], 2.0, 0.5, n=5000, K=8, seed=2)
        assert [(r.verdict in PASS, r.params["n_used"]) for r in rows] == [(True, 5000)] * 2

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
        assert neg.verdict in PASS and neg.params["n_used"] in self.LADDER


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
        # the quadrature row, and the sampled row of a plain callable, whose shared noise cancels
        tanh = TanhObservable([1.0])
        for f in (tanh, lambda pts: tanh(pts)):
            rep = verify.check_gradient_estimate(flat_model, 1.0, [0.4], [0.4], f, n=2000, seed=8)
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


class TestRidgeQuadrature:
    """On a jump-free model ``<c, X_t^x> ~ N(mu, sigma^2)``, so each side of a
    harnack, log_harnack or gradient row of a ridge observable is a
    one-dimensional Gaussian integral: exact rows with no draw."""

    # d = 1 with an offset: mu = c (e^{at} x + a0 (e^{at} - 1) / a), sigma^2 = c^2 r (e^{2at} - 1) / (2a)
    A, R, OFFSET, T = -0.7, 1.3, 0.4, 0.9

    @classmethod
    def _law(cls, c, x):
        """``(mu, sigma)`` of ``<c, X_t^x>`` at 50 digits."""
        a, t = mpmath.mpf(cls.A), mpmath.mpf(cls.T)
        e = mpmath.exp(a * t)
        mu = c * (e * x + mpmath.mpf(cls.OFFSET) * (e - 1) / a)
        return mu, abs(c) * mpmath.sqrt(mpmath.mpf(cls.R) * (e * e - 1) / (2 * a))

    @classmethod
    def _oracle(cls, kind, f, check, x, y, params, alpha):
        """The row's sides from ``mpmath.quad`` at 50 digits, split where the profile has a kink or step."""
        spec, c = f.spec, mpmath.mpf(f.spec["c"][0])
        profile = {"exp": mpmath.exp, "clipped_exp": lambda z: min(mpmath.exp(z), spec.get("cap")),
                   "tanh": mpmath.tanh, "one_plus_sigmoid": lambda z: 1 + 1 / (1 + mpmath.exp(-z)),
                   "indicator": lambda z: mpmath.mpf(z > spec.get("threshold"))}[kind]
        kinks = {"clipped_exp": [0, mpmath.log(spec.get("cap", 1))], "exp": [0],
                 "indicator": [spec.get("threshold")]}.get(kind, [])

        def mean(h, start):
            mu, sigma = cls._law(c, start)
            cuts = sorted({-mpmath.inf, mpmath.inf, *((k - mu) / sigma for k in kinks)})
            return mpmath.quad(lambda u: h(profile(mu + sigma * u)) * mpmath.npdf(u), cuts)

        with mpmath.workdps(50):
            if check == "harnack":
                coef = mpmath.exp(alpha * mpmath.mpf(params["energy_sq"]) / (2 * (alpha - 1)))
                return mean(lambda v: v, x) ** alpha, coef * mean(lambda v: v**alpha, y)
            if check == "log_harnack":
                bound = mpmath.mpf(params["operator_norm"]) ** 2 * (x - y) ** 2 / 2
                return mean(lambda v: mpmath.log(max(v, 1)), x), mpmath.log(mean(lambda v: max(v, 1), y)) + bound
            m = [mean(lambda v: v, start) for start in (x, y)]
            var = min(mean(lambda v, mi=mi: (v - mi) ** 2, start) for start, mi in zip((x, y), m))
            return (m[0] - m[1]) ** 2, mpmath.expm1(mpmath.mpf(params["gamma"]) ** 2) * var

    @pytest.mark.parametrize("kind, f, check", [
        ("exp", ExpObservable([0.8]), "log_harnack"),
        ("exp", ExpObservable([0.8]), "gradient"),
        ("clipped_exp", ClippedExpObservable([0.9], 2.5), "harnack"),
        ("clipped_exp", ClippedExpObservable([0.9], 2.5), "log_harnack"),
        ("clipped_exp", ClippedExpObservable([0.9], 2.5), "gradient"),
        ("tanh", TanhObservable([1.2]), "gradient"),
        ("tanh", TanhObservable([1.2]), "log_harnack"),
        ("one_plus_sigmoid", OnePlusSigmoid([-1.5]), "harnack"),
        ("one_plus_sigmoid", OnePlusSigmoid([-1.5]), "log_harnack"),
        ("one_plus_sigmoid", OnePlusSigmoid([-1.5]), "gradient"),
        ("indicator", IndicatorObservable([1.0], 0.2), "harnack"),
        ("indicator", IndicatorObservable([1.0], 0.2), "gradient"),
        ("indicator", IndicatorObservable([1.0], -7.0), "gradient"),  # q about 1e-19: not 1 - p
    ])
    def test_each_ridge_kind_matches_a_50_digit_oracle(self, kind, f, check):
        m = OuLevyModel(drift_matrix=[[self.A]], noise_cov=[[self.R]], drift_offset=[self.OFFSET])
        x, y, alpha = 0.9, -0.4, 3.0
        if check == "harnack":
            rep = verify.check_harnack(m, self.T, [x], [y], alpha, f, n=200, seed=1)
        elif check == "log_harnack":
            rep = verify.check_log_harnack(m, self.T, [x], [y], f, n=200, seed=1)
        else:
            rep = verify.check_gradient_estimate(m, self.T, [x], [y], f, n=200, seed=1)
        lhs, rhs = self._oracle(kind, f, check, mpmath.mpf(x), mpmath.mpf(y), rep.params, alpha)
        method = "closed_form" if kind == "indicator" else "quadrature"
        assert (rep.lhs_se, rep.rhs_se, rep.params["n_used"], rep.params["method"]) == (0.0, 0.0, 0, method)
        assert "margin_se" not in rep.params
        # the gradient lhs squares a difference of two means near 1, known to an ulp of 1 at best
        assert rep.lhs == pytest.approx(float(lhs), rel=1e-11, abs=1e-30)
        assert rep.rhs == pytest.approx(float(rhs), rel=1e-11, abs=0.0)

    def test_clamp_note_gives_the_lowest_node(self, scalar_model):
        # the indicator's two nodes are its values 1 and 0
        rep = verify.check_log_harnack(scalar_model, 1.0, [0.5], [0.0], IndicatorObservable([1.0]), n=200)
        assert rep.params["note"] == "observable clamped up to 1 (minimum sample 0)"
        clipped = verify.check_log_harnack(scalar_model, 1.0, [0.5], [0.0], ClippedExpObservable([1.0]), n=200)
        lowest = float(clipped.params["note"].split("minimum sample ")[1].rstrip(")"))
        assert 0.0 < lowest < math.exp(-35.0)  # e^z at a node near the bottom of mu -+ 40 sigma

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_quadrature_agrees_with_monte_carlo_through_a_plain_callable(self, d):
        rng = np.random.default_rng(300 + d)
        m = OuLevyModel(drift_matrix=make_stable(rng, d), noise_cov=make_psd(rng, d, ridge=0.3),
                        drift_offset=rng.normal(size=d) * 0.3)
        x, y = rng.normal(size=d) * 0.5, rng.normal(size=d) * 0.5
        c = rng.normal(size=d) / math.sqrt(d)
        rows = [
            lambda f, **kw: verify.check_harnack(m, 0.8, x, y, 2.0, f, bound_mode="operator_norm", **kw),
            lambda f, **kw: verify.check_log_harnack(m, 0.8, x, y, f, **kw),
            lambda f, **kw: verify.check_gradient_estimate(m, 0.8, x, y, f, **kw),
        ]
        for row, f in zip(rows, [ClippedExpObservable(c, 3.0), OnePlusSigmoid(2.0 * c), TanhObservable(c)]):
            exact = row(f, n=200)
            sampled = row(lambda pts: f(pts), n=40_000, seed=d)
            assert exact.params["method"] == "quadrature" and sampled.params["method"] == "monte_carlo"
            assert abs(exact.lhs - sampled.lhs) <= 4.0 * sampled.lhs_se
            assert abs(exact.rhs - sampled.rhs) <= 4.0 * sampled.rhs_se
            assert exact.verdict == sampled.verdict == verify.HOLDS

    def test_a_jump_model_or_a_noiseless_direction_samples(self, jump_model):
        # c = e_2 lies outside the range of G_t = diag(G_11, 0): the row keeps the sampled path
        flat = OuLevyModel(drift_matrix=-np.eye(2), noise_cov=np.diag([1.0, 0.0]))
        rows = [verify.check_gradient_estimate(jump_model, 1.0, [0.6], [0.0], TanhObservable([1.0]), n=2000),
                verify.check_gradient_estimate(flat, 1.0, [0.6, 0.0], [0.0, 0.0], TanhObservable([0.0, 1.0]), n=2000)]
        assert [r.params["method"] for r in rows] == ["monte_carlo"] * 2
        assert rows[0].params["n_used"] > 0

    def test_sample_count_is_checked_but_draws_nothing(self, scalar_model, monkeypatch):
        monkeypatch.setattr(hl.sampler, "endpoint_values", None)  # any draw would fail
        rep = verify.check_log_harnack(scalar_model, 1.0, [0.5], [0.0], OnePlusSigmoid([1.0]), n=100)
        assert (rep.params["n_used"], rep.params["n"]) == (0, 100)
        with pytest.raises(ValueError, match="at least 100 replicates"):
            verify.check_log_harnack(scalar_model, 1.0, [0.5], [0.0], OnePlusSigmoid([1.0]), n=99)

    def test_a_negative_range_end_raises_before_any_integral(self, flat_model, monkeypatch):
        # tanh(0.5 + sigma u) is negative only below u = -0.5 / sigma, far in the tail
        monkeypatch.setattr(hl.linops, "integrate", None)  # any integral would fail
        with pytest.raises(ValueError, match="negative sample of the observable"):
            verify.check_harnack(flat_model, 0.01, [0.5], [0.5], 2.0, TanhObservable([1.0]), n=200)

    @pytest.mark.parametrize("kind", ["gradient", "log_harnack"])
    def test_a_side_below_rounding_is_the_plain_callables_row(self, flat_model, kind):
        # sigma = 1e-5: (g - m)^2 and log(max(e^z, 1)) are mostly the rounding of g, which the
        # integrator cannot certify; the sampled row is the plain callable's, clamp note included
        if kind == "gradient":
            f = OnePlusSigmoid([1.0])
            run = lambda g: verify.check_gradient_estimate(flat_model, 1e-10, [0.5], [0.5], g, n=2000, seed=3)
        else:
            f = ClippedExpObservable([1.0], 3.0)
            run = lambda g: verify.check_log_harnack(flat_model, 1e-10, [0.0], [0.0], g, n=2000, seed=3)
        row, plain = run(f), run(lambda pts: f(pts))
        assert row.params["method"] == "monte_carlo"
        assert {**row.params, "f": None} == {**plain.params, "f": None}
        assert (row.lhs, row.rhs, row.lhs_se, row.rhs_se, row.verdict) == (
            plain.lhs, plain.rhs, plain.lhs_se, plain.rhs_se, plain.verdict)

    @pytest.mark.parametrize("kind", ["gradient", "log_harnack"])
    def test_a_profile_flat_to_rounding_takes_no_integral(self, flat_model, monkeypatch, kind):
        # the rows above: at sigma = 1e-5 the profile moves by under 1 / QUAD_TOL ulps over the
        # range, so the row samples without first running the integrator to its piece cap
        calls, integrate = [], hl.linops.integrate
        monkeypatch.setattr(hl.linops, "integrate", lambda *args: calls.append(1) or integrate(*args))
        if kind == "gradient":
            rep = verify.check_gradient_estimate(flat_model, 1e-10, [0.5], [0.5], OnePlusSigmoid([1.0]), n=2000)
        else:
            rep = verify.check_log_harnack(flat_model, 1e-10, [0.0], [0.0], ClippedExpObservable([1.0], 3.0), n=2000)
        assert (rep.params["method"], calls) == ("monte_carlo", [])

    def test_an_overflowing_integrand_is_named(self, scalar_model):
        with pytest.raises(hl.sampler.NonFiniteValueError, match="non-finite integrand"):
            verify.check_gradient_estimate(scalar_model, 1.0, [0.5], [0.0], ExpObservable([400.0]), n=200)


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


    @pytest.mark.parametrize("kind", ["nonnormal", "singular"])
    @pytest.mark.parametrize("d", [1, 3, 10, 50])
    def test_rows_match_the_explicit_adjoint_route(self, kind, d):
        """Both rows, and hwi's adjoint_operator_norm coefficient, read off the model's
        snapshot, against build_adjoint -> ou_pushforward -> gaussian_kl and the adjoint
        model's own gamma_operator_norm: equal verdicts, and each KL within 1e-10 where
        it exceeds 1e-8 (below, the explicit route's Sigma_t - S cancels).  A norm reads
        a Gramian whose smallest eigenvalue carries eps cond(G) of relative rounding, in
        either route: about 1e-8 for rank d - 1 noise at t = 1e-3."""
        rng = np.random.default_rng(700 + d)
        if kind == "nonnormal":  # A = R^(1/2) M R^(-1/2), sym(M) <= -0.3 I, so h = exp(-0.3 t) is certified
            r = make_psd(rng, d, ridge=0.5)
            w, g = rng.normal(size=(2, d, d)) / np.sqrt(d)
            root = scipy.linalg.sqrtm(r).real
            a = root @ (w - w.T - 0.3 * np.eye(d) - g @ g.T) @ np.linalg.inv(root)
        else:  # rank d - 1 noise (full at d = 1), controllable through a dense drift
            a, r = make_stable(rng, d, margin=0.3, scale=1.0 / np.sqrt(d)), make_psd(rng, d, rank=max(1, d - 1))
        m = OuLevyModel(drift_matrix=a, noise_cov=r, drift_offset=rng.normal(size=d))
        nu = GaussianMeasure(mean=rng.normal(size=d), cov=make_psd(rng, d, ridge=0.5))
        mu, adj = analytic.invariant_measure(m), hl.build_adjoint(m)
        w2_sq, fisher = analytic.gaussian_w2(nu, mu) ** 2, analytic.fisher_information(m, nu, mu)
        for t in (1e-3, 0.7, 20.0):
            g = np.linalg.eigvalsh(m.snapshot(t).gramian)
            norm_tol = 1e-10 + np.finfo(float).eps * g[-1] / g[0]
            rows = verify.check_entropy_cost(m, nu, t)
            for rep, dynamics in zip(rows, (adj, m)):
                kl = analytic.gaussian_kl(analytic.ou_pushforward(dynamics, nu, t), mu)
                op = control.gamma_operator_norm(dynamics, t)
                assert rep.verdict == verify.classify(kl, 0.5 * op**2 * w2_sq)
                assert rep.params["operator_norm"] == pytest.approx(op, rel=norm_tol)
                if kl > 1e-8:
                    assert rep.lhs == pytest.approx(kl, rel=1e-10)
            if kind == "nonnormal":
                h = HFunction.exponential(0.3)
                rep = verify.check_hwi(m, nu, h, t)
                op = control.gamma_operator_norm(adj, t)
                rhs = 2.0 * fisher * h.integral_of_h(t) + 0.5 * op**2 * w2_sq
                assert rep.verdict == verify.classify(analytic.gaussian_kl(nu, mu), rhs)
                assert rep.rhs == pytest.approx(rhs, rel=2.0 * norm_tol)

    @pytest.mark.parametrize("check", ["entropy_cost", "hwi"])
    def test_no_adjoint_dynamics_raises_as_build_adjoint(self, check, jump_model):
        singular = OuLevyModel(drift_matrix=-np.eye(2), noise_cov=np.diag([1.0, 0.0]))
        for m, message in ((singular, "steady-state covariance is singular"), (jump_model, "jump-free")):
            nu = GaussianMeasure(mean=np.ones(m.dim), cov=np.eye(m.dim))
            with pytest.raises(ValueError, match=message):
                if check == "entropy_cost":
                    verify.check_entropy_cost(m, nu, 0.8)
                else:
                    verify.check_hwi(m, nu, HFunction.exponential(1.0), 0.8)

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
        # one step of the certificate grid, then the model's one snapshot at t
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

    def test_a_plain_callable_row_keeps_the_plain_estimator_bitwise(self, scalar_model):
        # the sides, their errors and the stop of this row before the control variate existed
        clipped = ClippedExpObservable([0.4], 8.0)
        rep = verify.check_semilinear_harnack(scalar_model, drift_scaled_sine(scalar_model, 0.5), 1.0, [0.5], [0.0],
                                              4.0, 1.3, 1.3, lambda pts: clipped(pts), n=5000, K=16, seed=1)
        assert "control_variate" not in rep.params
        assert (rep.lhs, rep.rhs, rep.lhs_se, rep.rhs_se, rep.params["n_used"], rep.params["margin_se"]) == (
            2.25194326927572, 3687.9176995461125, 0.12175743270941357, 289.0431979034341, 1024, 288.953048989594)

    @pytest.mark.parametrize("case", ["sub_rank", "uncertified"])
    def test_rows_without_an_exact_ou_mean_keep_the_plain_estimator(self, case, monkeypatch):
        # sigma^2 = c'G_t c = 0 below the rank rule, or an integral the integrator cannot certify:
        # the row is the plain callable's, bitwise
        if case == "sub_rank":  # no noise moves <c, X> = X_2
            m = OuLevyModel(drift_matrix=np.zeros((2, 2)), noise_cov=np.diag([1.0, 0.0]))
            spec, f, x, y = drift_constant(m, [0.4, 0.0]), TanhObservable([0.0, 1.0]), [0.3, 0.5], [0.0, 0.5]
        else:
            def fail(*args):
                raise hl.linops.QuadratureError("not certified")

            monkeypatch.setattr(hl.linops, "integrate", fail)
            m = OuLevyModel(drift_matrix=[[-1.0]], noise_cov=[[2.0]])
            spec, f, x, y = drift_scaled_sine(m, 0.5), ClippedExpObservable([0.4], 8.0), [0.5], [0.0]

        def run(g):
            return verify.check_semilinear_harnack(m, spec, 1.0, x, y, 4.0, 1.3, 1.3, g, n=5000, K=8, seed=2)
        row, plain = run(f), run(lambda pts: f(pts))
        assert "control_variate" not in row.params
        assert {**row.params, "f": None} == {**plain.params, "f": None}
        assert (row.lhs, row.rhs, row.lhs_se, row.rhs_se, row.verdict) == (
            plain.lhs, plain.rhs, plain.lhs_se, plain.rhs_se, plain.verdict)

    @pytest.mark.parametrize("f", [ClippedExpObservable([0.4], 8.0), IndicatorObservable([1.0], 0.2)],
                             ids=["clipped_exp", "indicator"])
    def test_a_zero_drift_row_is_exact_and_draws_nothing(self, scalar_model, monkeypatch, f):
        # k1 = k2 = 0 forces F = 0, so the paths are exact OU ones: the row is the harnack row's
        # integral with the semilinear coefficient
        monkeypatch.setattr(hl.sampler, "semilinear_values", None)
        monkeypatch.setattr(hl.sampler, "semilinear_twin_values", None)
        rep = verify.check_semilinear_harnack(scalar_model, drift_zero(1), 1.0, [0.5], [0.0], 4.0, 1.3, 1.3, f,
                                              n=5000, K=8, seed=2)
        exact = verify.check_harnack(scalar_model, 1.0, [0.5], [0.0], 4.0, f, n=5000, seed=2)
        assert (rep.params["method"], rep.params["n_used"], rep.lhs_se, rep.rhs_se) == (exact.params["method"], 0, 0, 0)
        assert rep.lhs == exact.lhs and rep.rhs > exact.rhs and rep.verdict == verify.HOLDS

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
