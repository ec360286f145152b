"""Closed forms are gated on independent quadrature / Monte Carlo oracles
before the verification layer is allowed to rely on them."""

import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import harnacklab as hl
from harnacklab import OuLevyModel, analytic, build_adjoint, estimate_semigroup
from harnacklab.analytic import GaussianMeasure
from oracles import (
    convolution_covariance_eigenvalues,
    expm_marching,
    gaussian_logpdf,
    hard_drift,
    make_psd,
    make_stable,
    mc_convolution_square_exp_moment,
    mc_mean,
    quadpack_mehler_exponential,
    sample_gaussian,
    within_sigma,
)


class TestMehlerExponential:
    def test_zero_direction(self, scalar_model):
        assert analytic.mehler_exponential(scalar_model, 1.0, [0.0], [0.7]) == pytest.approx(1.0)

    def test_driftless_scalar_closed_form(self, flat_model):
        c, t, x = 0.5, 1.3, 0.4
        got = analytic.mehler_exponential(flat_model, t, [c], [x])
        assert got == pytest.approx(np.exp(c * x + c * c * t / 2.0), rel=1e-12)

    def test_atom_jump_factor(self):
        m = OuLevyModel(
            drift_matrix=[[0.0]], noise_cov=[[1.0]],
            jump=hl.CompoundPoissonSpec(rate=1.7, atoms=[[1.0], [-1.0]]),
        )
        c, t = 0.4, 0.9
        expected = np.exp(c * c * t / 2.0 + 1.7 * t * (np.cosh(c) - 1.0))
        assert analytic.mehler_exponential(m, t, [c], [0.0]) == pytest.approx(expected, rel=1e-12)

    def test_overflowing_atom_moment_saturates(self):
        # E exp(30 xi) of the one atom 30 is e^900: finite, but past the float range
        m = OuLevyModel(drift_matrix=[[-1.0]], noise_cov=[[1.0]],
                        jump=hl.CompoundPoissonSpec(rate=1.0, atoms=[[30.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert analytic.mehler_exponential(m, 1.0, [30.0], [0.5]) == np.inf

    def test_null_atom_changes_nothing(self):
        # an atom of probability zero leaves the moment as it is, even where its own exp overflows
        def model(atoms, probs):
            return OuLevyModel(drift_matrix=[[-1.0, 0.5], [0.0, -0.7]], noise_cov=np.eye(2),
                               jump=hl.CompoundPoissonSpec(rate=1.2, atoms=atoms, probs=probs))

        c, x = [0.3, -0.2], [0.4, 0.1]
        plain = analytic.mehler_exponential(model([[1.0, 0.5], [-0.5, 0.2]], [0.4, 0.6]), 0.9, c, x)
        padded = analytic.mehler_exponential(
            model([[1.0, 0.5], [-0.5, 0.2], [3000.0, -3000.0]], [0.4, 0.6, 0.0]), 0.9, c, x)
        assert padded == pytest.approx(plain, rel=1e-14)

    def test_against_monte_carlo(self, jump_model):
        target = analytic.mehler_exponential(jump_model, 0.8, [0.3], [0.5])
        est = estimate_semigroup(jump_model, 0.8, [0.5], lambda pts: np.exp(0.3 * pts[:, 0]), 100_000, 77)
        assert within_sigma(est.mean, est.std_error, target)

    def test_chapman_kolmogorov_composition(self, scalar_model):
        # evolving an exponential keeps it exponential: compose two steps
        c = np.array([0.45])
        s, t = 0.6, 0.9
        snap = scalar_model.snapshot(t)
        inner_const = np.exp(float(c @ snap.mean_shift) + 0.5 * float(c @ snap.gramian @ c))
        composed = inner_const * analytic.mehler_exponential(scalar_model, s, snap.propagator.T @ c, [0.8])
        direct = analytic.mehler_exponential(scalar_model, s + t, c, [0.8])
        assert composed == pytest.approx(direct, rel=1e-9)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["jordan", "rotating", "nonnormal"]), dim=st.integers(1, 4),
           t=st.floats(0.05, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_jump_factor_matches_quadpack(self, kind, dim, t, seed):
        rng = np.random.default_rng(seed)
        a = hard_drift(kind, dim, rng)
        growth = max(1.0, np.linalg.norm(expm_marching(a, np.linspace(0.0, t, 33)), 2, axis=(1, 2)).max())
        c = rng.normal(size=dim)
        c *= 2.0 / (growth * np.linalg.norm(c))  # |<c, e^{sA} xi>| up to about 2 |xi|
        jump = hl.CompoundPoissonSpec(rate=1.3, atoms=rng.normal(size=(3, dim)), probs=[0.2, 0.3, 0.5])
        m = OuLevyModel(drift_matrix=a, noise_cov=0.01 * np.eye(dim), jump=jump)
        x = rng.normal(size=dim)
        got = analytic.mehler_exponential(m, t, c, x)
        assert got == pytest.approx(quadpack_mehler_exponential(m, t, c, x), rel=1e-11)

    @pytest.mark.parametrize("c, jump", [
        ([1e-6, 0.0], hl.CompoundPoissonSpec(rate=1.5, atoms=[[1.0, 0.5]])),
        ([0.01, 0.0], hl.CompoundPoissonSpec(rate=1.5, atoms=[[1.0, 0.5], [-1.0, -0.5]])),
    ], ids=["tiny_exponent", "symmetric_atoms"])
    def test_small_jump_factor_matches_quadpack(self, c, jump):
        # E exp(<lam, xi>) - 1 is at most about 1e-4 here, and its rounding about 1e-16 per node
        m = OuLevyModel(drift_matrix=[[-1.0, 3.0], [0.0, -0.5]], noise_cov=np.eye(2), jump=jump)
        got = analytic.mehler_exponential(m, 1.0, c, [0.3, -0.2])
        assert got == pytest.approx(quadpack_mehler_exponential(m, 1.0, c, [0.3, -0.2]), rel=1e-11)

    def test_no_expm_per_quadrature_node(self, monkeypatch):
        calls = []
        expm = hl.linops._expm
        monkeypatch.setattr(hl.linops, "_expm", lambda x, *split: calls.append(np.shape(x)) or expm(x, *split))
        m = OuLevyModel(drift_matrix=[[-1.0, 30.0], [-30.0, -1.0]], noise_cov=np.eye(2), jump=hl.CompoundPoissonSpec(
            rate=2.0, atoms=[[1.0, 0.0], [0.0, -1.0]]))
        analytic.mehler_exponential(m, 2.0, [0.3, 0.1], [0.5, 0.0])
        # the snapshot's one block, then the interpolant's step and its stacked nodes
        assert [len(shape) for shape in calls] == [2, 2, 3]

    def test_drift_beyond_interpolant_budget_raises(self):
        # a fast-rotating Jordan drift: 1e5 interpolation pieces on [0, 1]
        rot = np.array([[0.0, 2e5], [-2e5, 0.0]])
        m = OuLevyModel(drift_matrix=np.block([[rot, np.eye(2)], [np.zeros((2, 2)), rot]]), noise_cov=np.eye(4),
                        jump=hl.CompoundPoissonSpec(rate=1.0, atoms=[[1.0, 0.0, 0.0, 0.0]]))
        with pytest.raises(hl.linops.InterpolantError, match="table of piece starts"):
            analytic.mehler_exponential(m, 1.0, [0.3, 0.0, 0.0, 0.0], [0.0] * 4)


class TestConvolutionSquareExpMoment:
    def test_cameron_martin(self, flat_model):
        # E exp(lam int_0^1 W^2) = cos(sqrt(2 lam))^(-1/2) for Brownian motion
        got = analytic.convolution_square_exp_moment(flat_model, 1.0, 0.4)
        assert got == pytest.approx(np.cos(np.sqrt(0.8)) ** -0.5, rel=1e-12)

    def test_zero_rate_is_one(self, nonnormal_model):
        assert analytic.convolution_square_exp_moment(nonnormal_model, 1.3, 0.0) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_blow_up_at_the_conjugate_time(self, dim):
        # A = 0, R = I: every coordinate is a Brownian motion with blow-up at
        # t* = pi / (2 sqrt(2 lam)); at d = 2 det U = cos^2 touches zero
        # without a sign change, and at t = 4 the sign of det U is + again.
        # At t = 2.5 (d = 2) and t = 5 one flow over [0, t] would even end
        # with det U > 0 and Q >= 0: only a stepped flow sees the pole
        m = OuLevyModel(drift_matrix=np.zeros((dim, dim)), noise_cov=np.eye(dim))
        lam = 1.0
        t_star = np.pi / (2.0 * np.sqrt(2.0 * lam))
        below = analytic.convolution_square_exp_moment(m, t_star - 1e-3, lam)
        assert below == pytest.approx(np.cos(np.sqrt(2.0 * lam) * (t_star - 1e-3)) ** (-dim / 2.0), rel=1e-9)
        for t in (t_star + 1e-3, 1.5, 2.5, 4.0, 5.0):
            assert analytic.convolution_square_exp_moment(m, t, lam) == np.inf

    def test_matches_monte_carlo_on_a_non_normal_drift(self, nonnormal_model):
        t, lam = 1.0, 0.5
        got = analytic.convolution_square_exp_moment(nonnormal_model, t, lam)
        mean, se = mc_convolution_square_exp_moment(nonnormal_model, t, lam, 40_000, 512, 217)
        assert within_sigma(mean, se, got)

    def test_finiteness_matches_the_covariance_operator(self):
        # finite exactly when 2 lam mu_max < 1, mu_max the top Nystrom
        # eigenvalue of the covariance operator of W_A on L^2([0, t])
        rng = np.random.default_rng(218)
        decided = {True: 0, False: 0}
        for _ in range(8):
            d = int(rng.integers(1, 4))
            a, r = make_stable(rng, d, margin=0.3, scale=0.6), make_psd(rng, d, ridge=0.2)
            t = float(rng.uniform(0.5, 2.0))
            mu = convolution_covariance_eigenvalues(a, r, t)
            u = float(rng.uniform(0.3, 2.0))  # 2 lam mu_max
            if abs(u - 1.0) < 0.02:
                continue
            lam = u / (2.0 * mu.max())
            got = analytic.convolution_square_exp_moment(OuLevyModel(drift_matrix=a, noise_cov=r), t, lam)
            if u < 1.0:
                # Nystrom's own error grows as 1 / (1 - u) towards the boundary
                assert got == pytest.approx(np.exp(-0.5 * np.sum(np.log1p(-2.0 * lam * mu))), rel=1e-3)
            else:
                assert got == np.inf
            decided[u < 1.0] += 1
        assert min(decided.values()) >= 2

    def test_negative_rate_rejected(self, flat_model):
        with pytest.raises(ValueError, match="nonnegative"):
            analytic.convolution_square_exp_moment(flat_model, 1.0, -0.1)


class TestHeatKernelKl:
    def test_same_point_is_zero(self, scalar_model):
        assert analytic.heat_kernel_kl(scalar_model, 1.0, [0.4], [0.4]) == pytest.approx(0.0, abs=1e-14)

    def test_scalar_closed_form(self, scalar_model):
        t, x, y = 1.0, 1.3, 0.2
        q = np.exp(-2.0 * t)
        expected = q * (x - y) ** 2 / (2.0 * (1.0 - q))
        assert analytic.heat_kernel_kl(scalar_model, t, [x], [y]) == pytest.approx(expected, rel=1e-12)

    def test_equals_half_gamma_sq(self):
        from harnacklab import gamma_norm

        rng = np.random.default_rng(41)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            m = OuLevyModel(drift_matrix=make_stable(rng, d), noise_cov=make_psd(rng, d, ridge=0.2))
            x, y = rng.normal(size=(2, d))
            kl = analytic.heat_kernel_kl(m, 0.9, x, y)
            half_gamma = 0.5 * gamma_norm(m, 0.9, x - y).value ** 2
            assert abs(kl - half_gamma) <= 1e-10 * (1.0 + abs(kl))

    def test_against_monte_carlo_defining_integral(self):
        rng = np.random.default_rng(42)
        m = OuLevyModel(drift_matrix=make_stable(rng, 2), noise_cov=make_psd(rng, 2, ridge=0.3))
        t, x, y = 0.8, np.array([1.0, -0.4]), np.array([0.2, 0.3])
        law_x = analytic.transition_law(m, t, x)
        law_y = analytic.transition_law(m, t, y)
        z = sample_gaussian(rng, law_x.mean, law_x.cov, 200_000)
        ratios = gaussian_logpdf(z, law_x.mean, law_x.cov) - gaussian_logpdf(z, law_y.mean, law_y.cov)
        est, se = mc_mean(ratios)
        assert within_sigma(est, se, analytic.heat_kernel_kl(m, t, x, y))


class TestKernelHarnackLhs:
    def test_same_point_is_one(self, scalar_model):
        assert analytic.kernel_harnack_lhs(scalar_model, 1.0, [0.3], [0.3], 2.0) == pytest.approx(1.0)

    def test_against_monte_carlo(self, scalar_model):
        rng = np.random.default_rng(43)
        t, x, y, alpha = 1.0, np.array([1.0]), np.array([0.0]), 2.0
        law_x = analytic.transition_law(scalar_model, t, x)
        law_y = analytic.transition_law(scalar_model, t, y)
        z = sample_gaussian(rng, law_x.mean, law_x.cov, 400_000)
        log_ratio = gaussian_logpdf(z, law_x.mean, law_x.cov) - gaussian_logpdf(z, law_y.mean, law_y.cov)
        est, se = mc_mean(np.exp(log_ratio / (alpha - 1.0)))
        assert within_sigma(est, se, analytic.kernel_harnack_lhs(scalar_model, t, x, y, alpha))

    def test_never_exceeds_operator_norm_bound(self):
        from harnacklab import gamma_operator_norm

        rng = np.random.default_rng(44)
        m = OuLevyModel(drift_matrix=make_stable(rng, 2), noise_cov=make_psd(rng, 2, ridge=0.3))
        for _ in range(100):
            t = float(rng.uniform(0.3, 2.0))
            alpha = float(rng.uniform(1.3, 6.0))
            x, y = rng.normal(size=(2, 2))
            lhs = analytic.kernel_harnack_lhs(m, t, x, y, alpha)
            op = gamma_operator_norm(m, t)
            rhs = np.exp(alpha * (op * np.linalg.norm(x - y)) ** 2 / (2.0 * (alpha - 1.0) ** 2))
            assert lhs <= rhs * (1.0 + 1e-9)


class TestGaussianExpIntegral:
    def test_small_beta_limit(self):
        mu = GaussianMeasure(mean=[0.3], cov=[[1.2]])
        assert analytic.gaussian_exp_integral(mu, 1e-14, [0.5]) == pytest.approx(1.0, abs=1e-10)

    def test_scalar_value(self):
        mu = GaussianMeasure(mean=[0.0], cov=[[1.0]])
        assert analytic.gaussian_exp_integral(mu, 1.0, [0.0]) == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)

    def test_diagonal_separability(self):
        mu2 = GaussianMeasure(mean=[0.1, -0.4], cov=np.diag([0.8, 1.5]))
        beta, x = 0.7, np.array([0.6, 0.2])
        prod = 1.0
        for i in range(2):
            mu1 = GaussianMeasure(mean=[mu2.mean[i]], cov=[[mu2.cov[i, i]]])
            prod *= analytic.gaussian_exp_integral(mu1, beta, [x[i]])
        assert analytic.gaussian_exp_integral(mu2, beta, x) == pytest.approx(prod, rel=1e-12)

    def test_against_quadrature(self):
        mu = GaussianMeasure(mean=[0.4], cov=[[2.3]])
        beta, x = 0.9, 1.1

        def integrand(z):
            return np.exp(-beta * (x - z) ** 2) * np.exp(gaussian_logpdf(np.array([[z]]), mu.mean, mu.cov))[0]

        val, _ = scipy.integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-12)
        assert analytic.gaussian_exp_integral(mu, beta, [x]) == pytest.approx(val, rel=1e-10)


class TestDensityNormBound:
    def test_long_time_limit(self, scalar_model):
        lhs, rhs = analytic.density_norm_bound(scalar_model, 20.0, [0.5], 2.0)
        assert abs(lhs - 1.0) <= 1e-3
        assert rhs >= lhs

    def test_scalar_against_quadrature(self, scalar_model):
        t, x, alpha = 1.0, 0.7, 2.0
        conj = alpha / (alpha - 1.0)
        law = analytic.transition_law(scalar_model, t, [x])
        mu = analytic.invariant_measure(scalar_model)

        def integrand(z):
            zz = np.array([[z]])
            lp_x = gaussian_logpdf(zz, law.mean, law.cov)[0]
            lp_mu = gaussian_logpdf(zz, mu.mean, mu.cov)[0]
            return np.exp(conj * lp_x + (1.0 - conj) * lp_mu)

        val, _ = scipy.integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-12)
        lhs, _ = analytic.density_norm_bound(scalar_model, t, [x], alpha)
        assert abs(lhs - val ** (1.0 / conj)) <= 1e-6

    def test_bound_holds_and_exceeds_one_on_sweep(self, scalar_model):
        for t in np.linspace(0.25, 5.0, 10):
            for alpha in np.linspace(1.5, 8.0, 10):
                lhs, rhs = analytic.density_norm_bound(scalar_model, float(t), [0.7], float(alpha))
                assert np.isfinite(rhs)
                assert lhs <= rhs * (1.0 + 1e-9)
                assert lhs >= 1.0 - 1e-9


class TestHyperConstant:
    def test_long_time_limit(self, scalar_model):
        assert analytic.hyper_constant(scalar_model, 25.0, 2.0, 0.3) == pytest.approx(1.0, abs=1e-3)

    def test_against_monte_carlo(self, scalar_model):
        from harnacklab import gamma_operator_norm

        t, alpha, eps = 1.0, 2.0, 0.0
        rng = np.random.default_rng(45)
        mu = analytic.invariant_measure(scalar_model)
        beta = alpha * gamma_operator_norm(scalar_model, t) ** 2 / (2.0 * (alpha - 1.0))
        draws = sample_gaussian(rng, mu.mean, mu.cov, 200_000)
        inner = np.array([analytic.gaussian_exp_integral(mu, beta, z) for z in draws[:50_000]])
        est, se = mc_mean(inner ** (-(1.0 + eps)))
        assert within_sigma(est, se, analytic.hyper_constant(scalar_model, t, alpha, eps))

    def test_nondecreasing_in_eps(self, scalar_model):
        vals = [analytic.hyper_constant(scalar_model, 1.0, 2.0, e) for e in np.linspace(0.0, 2.0, 9)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestPushforward:
    def test_invariant_law_is_fixed_point(self, nonnormal_model):
        adj = build_adjoint(nonnormal_model)
        mu = analytic.invariant_measure(nonnormal_model)
        out = analytic.ou_pushforward(adj, mu, 0.7)
        assert np.abs(out.mean - mu.mean).max() <= 1e-10
        assert np.abs(out.cov - mu.cov).max() <= 1e-9

    def test_scalar_symmetric_model(self, scalar_model):
        adj = build_adjoint(scalar_model)
        out = analytic.ou_pushforward(adj, GaussianMeasure(mean=[1.5], cov=[[1.0]]), 0.8)
        assert out.mean[0] == pytest.approx(np.exp(-0.8) * 1.5, rel=1e-12)
        assert out.cov[0, 0] == pytest.approx(1.0, rel=1e-10)

    def test_covariance_stays_psd(self, nonnormal_model):
        adj = build_adjoint(nonnormal_model)
        nu = GaussianMeasure(mean=[0.5, -1.0], cov=np.diag([0.2, 3.0]))
        for t in (0.1, 0.5, 2.0):
            out = analytic.ou_pushforward(adj, nu, t)
            assert np.linalg.eigvalsh(out.cov).min() >= -1e-12


class TestGaussianFunctionals:
    def test_identical_measures_vanish(self, scalar_model):
        mu = analytic.invariant_measure(scalar_model)
        assert analytic.gaussian_kl(mu, mu) == pytest.approx(0.0, abs=1e-12)
        assert analytic.gaussian_w2(mu, mu) == pytest.approx(0.0, abs=1e-9)
        assert analytic.fisher_information(scalar_model, mu, mu) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_mean_shift(self):
        mu = GaussianMeasure(mean=[0.0], cov=[[1.0]])
        nu = GaussianMeasure(mean=[0.9], cov=[[1.0]])
        assert analytic.gaussian_kl(nu, mu) == pytest.approx(0.9**2 / 2.0, rel=1e-12)
        assert analytic.gaussian_w2(nu, mu) == pytest.approx(0.9, rel=1e-9)

    def test_scalar_fisher_closed_form(self, scalar_model):
        mu = GaussianMeasure(mean=[0.0], cov=[[1.0]])
        nu = GaussianMeasure(mean=[1.5], cov=[[1.0]])
        assert analytic.fisher_information(scalar_model, nu, mu) == pytest.approx(1.5**2 / 2.0, rel=1e-12)

    def test_fisher_against_quadrature(self, scalar_model):
        mu = GaussianMeasure(mean=[0.2], cov=[[1.4]])
        nu = GaussianMeasure(mean=[-0.6], cov=[[0.7]])
        r = scalar_model.noise_cov[0, 0]

        def integrand(z):
            zz = np.array([[z]])
            grad_log_f = 0.5 * ((z - mu.mean[0]) / mu.cov[0, 0] - (z - nu.mean[0]) / nu.cov[0, 0])
            return r * grad_log_f**2 * np.exp(gaussian_logpdf(zz, nu.mean, nu.cov))[0]

        val, _ = scipy.integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-12)
        assert analytic.fisher_information(scalar_model, nu, mu) == pytest.approx(val, abs=1e-8)

    def test_w2_symmetry_and_triangle(self):
        rng = np.random.default_rng(46)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            ms = [GaussianMeasure(mean=rng.normal(size=d), cov=make_psd(rng, d, ridge=0.2)) for _ in range(3)]
            ab = analytic.gaussian_w2(ms[0], ms[1])
            assert abs(ab - analytic.gaussian_w2(ms[1], ms[0])) <= 1e-9
            assert ab <= analytic.gaussian_w2(ms[0], ms[2]) + analytic.gaussian_w2(ms[2], ms[1]) + 1e-9

    def test_support_mismatch_rejected(self):
        mu = GaussianMeasure(mean=[0.0, 0.0], cov=np.eye(2))
        nu = GaussianMeasure(mean=[0.0, 0.0], cov=np.diag([1.0, 0.0]))
        with pytest.raises(analytic.SingularityError):
            analytic.gaussian_kl(nu, mu)

    def test_rank_rule_decides_singularity(self):
        # an eigenvalue at or below DEFAULT_RANK_TOL of the largest is zero, as for every
        # other covariance; a Cholesky factor used to accept diag(1, 1e-11) as a density
        mu = GaussianMeasure(mean=[0.0, 0.0], cov=np.eye(2))
        nu = GaussianMeasure(mean=[0.5, 0.0], cov=np.diag([1.0, 1e-9]))
        want = 0.5 * (1e-9 - 1.0 - np.log(1e-9) + 0.25)
        # log1p(w) at w = 1e-9 - 1 carries about eps / 1e-9 of absolute error
        assert analytic.gaussian_kl(nu, mu) == pytest.approx(want, rel=1e-8)
        nu = GaussianMeasure(mean=[0.5, 0.0], cov=np.diag([1.0, 1e-11]))
        with pytest.raises(analytic.SingularityError, match="first covariance"):
            analytic.gaussian_kl(nu, mu)

    def test_jump_model_has_no_closed_invariant_law(self, jump_model):
        with pytest.raises(ValueError):
            analytic.invariant_measure(jump_model)
