import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from harnacklab import GaussianMeasure, OuLevyModel, linops
from oracles import (
    expm_marching,
    hard_drift as _drift,
    lyapunov_truncated_integral,
    make_psd,
    make_stable,
    scipy_bessel_tails,
    simpson_gramian,
    simpson_mean_shift,
)


class TestMatrixExponential:
    def test_zero_matrix_gives_identity(self):
        assert np.allclose(linops.matrix_exponential(np.zeros((2, 2)), 5.0), np.eye(2))

    def test_nilpotent_closed_form(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        for t in (0.3, 1.0, 4.2):
            assert np.allclose(linops.matrix_exponential(a, t), [[1.0, t], [0.0, 1.0]], atol=1e-14)

    def test_diagonal_closed_form(self):
        a = np.diag([-1.0, -2.0])
        got = linops.matrix_exponential(a, 1.0)
        assert np.allclose(got, np.diag(np.exp([-1.0, -2.0])), atol=1e-14)

    def test_semigroup_law(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.normal(0, 1, size=(3, 3))
            s, t = rng.uniform(0.01, 2.0, size=2)
            left = linops.matrix_exponential(a, s + t)
            right = linops.matrix_exponential(a, s) @ linops.matrix_exponential(a, t)
            assert np.abs(left - right).max() <= 1e-10 * (1.0 + np.abs(left).max())

    def test_non_normal_drifts_against_high_precision_oracle(self):
        # scipy's one expm of tA errs by up to 3.4e-11 relative on these drifts, the Padé kernel's by 1.1e-14
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        for _ in range(30):
            a, t = _drift("nonnormal", 6, rng), rng.uniform(0.5, 5.0)
            with mpmath.workdps(40):
                want = np.array(mpmath.expm(mpmath.matrix(t * a)).tolist(), dtype=float)
            assert np.linalg.norm(linops.matrix_exponential(a, t) - want, 2) <= 1e-12 * np.linalg.norm(want, 2)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            linops.matrix_exponential(np.zeros((2, 3)), 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            linops.matrix_exponential(np.zeros((2, 2)), -0.1)


def _expm_oracle(a):
    """``e^a`` from ``scipy.linalg.expm`` at 1-norms up to 1, where it and `linops._expm`
    are both one Padé approximant without squaring; above, from a 40-digit ``mpmath.expm``,
    since scipy's own error there reaches 6e-12 relative on the non-normal stress drifts."""
    if np.abs(a).sum(axis=-2).max() <= 1.0:
        return sla.expm(a)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(a)).tolist(), dtype=float)


def _assert_expm_close(got, want, tol=1e-13):
    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


class TestExpmKernel:
    """`linops._expm`, the one Padé kernel, at 1e-13 relative in the Frobenius norm."""

    @pytest.mark.parametrize("log_norm", np.linspace(-8.0, 3.0, 12))
    @pytest.mark.parametrize("dim", [2, 6])
    def test_random_over_norms(self, dim, log_norm):
        rng = np.random.default_rng(int(100 * (log_norm + 8)) + dim)
        for _ in range(3):
            a = rng.normal(size=(dim, dim))
            a *= 10.0**log_norm / np.abs(a).sum(axis=0).max()
            a -= max(0.0, linops.spectral_abscissa(a)) * np.eye(dim)  # e^a stays within the float range
            _assert_expm_close(linops._expm(a), _expm_oracle(a))

    @pytest.mark.parametrize("kind", ["jordan", "stiff", "nonnormal", "rotating", "zero"])
    def test_hard_drifts(self, kind):
        rng = np.random.default_rng(17)
        for dim in (1, 2, 3, 6):
            for _ in range(4):
                a = rng.uniform(0.1, 5.0) * _drift(kind, dim, rng)
                _assert_expm_close(linops._expm(a), _expm_oracle(a))

    @pytest.mark.parametrize("x", [-700.0, -30.0, -1e-8, 0.0, 1e-3, 1.0, 4.0, 700.0])
    def test_scalar(self, x):
        # the relative condition number of e^x is |x|
        assert linops._expm(np.array([[x]]))[0, 0] == pytest.approx(math.exp(x), rel=1e-15 * max(1.0, abs(x)))

    def test_stacked_matches_one_by_one(self):
        # one degree and scaling serve the whole stack: that of its largest 1-norm
        rng = np.random.default_rng(18)
        stack = rng.normal(size=(7, 4, 4)) * np.logspace(-6, 0.5, 7)[:, None, None]
        got = linops._expm(stack)
        assert got.shape == stack.shape
        for g, a in zip(got, stack):
            _assert_expm_close(g, _expm_oracle(a))

    @pytest.mark.parametrize("d, scale", [(50, 0.5), (60, 1.0), (60, 30.0)])
    def test_van_loan_block_by_blocks(self, d, scale):
        # zero below the diagonal blocks, at and past the size from which the kernel works by blocks
        rng = np.random.default_rng(d)
        a = make_stable(rng, d)
        block = np.zeros((2 * d + 1, 2 * d + 1))
        block[:d, :d], block[:d, d:2 * d], block[:d, 2 * d] = a, make_psd(rng, d), rng.normal(size=d)
        block[d:2 * d, d:2 * d] = -a.T
        block *= scale / np.abs(block).sum(axis=0).max()
        got = linops._expm(block, d)
        assert np.all(got[d:, :d] == 0.0)
        _assert_expm_close(got, linops._expm(block), 1e-14)
        _assert_expm_close(got, sla.expm(block), 1e-12)


def _interpolated(it, ages, dim):
    """``e^{vA}`` from the interpolant at each age, as ``(len(ages), dim, dim)``."""
    out = it.apply(np.repeat(ages, dim), np.tile(np.eye(dim), (len(ages), 1)))
    return out.reshape(len(ages), dim, dim).transpose(0, 2, 1)


def _probe_ages(it, count=65):
    """``count`` ages evenly over ``[0, t]`` with 0 and t, and every piece boundary."""
    return np.unique(np.concatenate([np.linspace(0.0, it.t, count), np.minimum(it.piece * np.arange(it.pieces + 1), it.t)]))


def _assert_certified(a, t):
    it = linops.exp_interpolant(a, t)
    ages = _probe_ages(it)
    want = expm_marching(a, ages)
    scale = max(1.0, np.linalg.norm(want, 2, axis=(1, 2)).max())
    err = np.linalg.norm(_interpolated(it, ages, a.shape[0]) - want, 2, axis=(1, 2))
    assert err.max() <= linops.INTERPOLANT_TOL * scale
    assert it.bound <= linops.INTERPOLANT_TOL * scale
    return it


class TestExpInterpolant:
    """The certified Chebyshev interpolant of ``e^{vA}`` on ``[0, t]``."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["jordan", "stiff", "nonnormal", "rotating", "unstable", "zero"]),
           dim=st.integers(1, 6), t=st.floats(0.05, 5.0), seed=st.integers(0, 2**32 - 1))
    def test_within_the_certified_bound_of_expm(self, kind, dim, t, seed):
        _assert_certified(_drift(kind, dim, np.random.default_rng(seed)), t)

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["jordan", "stiff", "nonnormal", "rotating", "zero"]),
           dim=st.integers(1, 6), t=st.floats(0.05, 5.0), seed=st.integers(0, 2**32 - 1))
    def test_transpose_rows_match_apply(self, kind, dim, t, seed):
        rng = np.random.default_rng(seed)
        it = linops.exp_interpolant(_drift(kind, dim, rng), t)
        ages, c = _probe_ages(it), rng.normal(size=dim)
        want = _interpolated(it, ages, dim).transpose(0, 2, 1) @ c
        scale = max(1.0, np.abs(want).max())
        assert np.abs(it.apply_transpose(ages, c) - want).max() <= 1e-13 * scale

    def test_large_jordan_block(self):
        it = _assert_certified(_drift("jordan", 40, np.random.default_rng(40)), 3.0)
        assert it.columns.shape[0] == 40

    @pytest.mark.parametrize("a", [
        np.array([[-1.0, 50.0], [-50.0, -1.0]]),
        np.diag([-1.0, -300.0]),
        np.array([[-300.0, 1.0], [0.0, -300.0]]),
        np.diag([-0.5, -1.0, -1.5, -2.0]) + np.triu(np.full((4, 4), 90.0), 1),
    ], ids=["rotation", "stiff", "stiff_jordan", "nonnormal"])
    def test_against_high_precision_oracle(self, a):
        mpmath = pytest.importorskip("mpmath")
        it = linops.exp_interpolant(a, 2.0)
        ages = np.concatenate([np.linspace(0.0, 2.0, 9), it.piece * np.array([1, 2, it.pieces // 2, it.pieces - 1])])
        got = _interpolated(it, ages, a.shape[0])
        with mpmath.workdps(40):
            want = np.array([np.array(mpmath.expm(mpmath.matrix(v * a)).tolist(), dtype=float) for v in ages])
        scale = max(1.0, np.linalg.norm(want, 2, axis=(1, 2)).max())
        assert np.linalg.norm(got - want, 2, axis=(1, 2)).max() <= linops.INTERPOLANT_TOL * scale

    @pytest.mark.parametrize("a, t, pieces", [
        (np.array([[-1.0, 1.0], [0.0, -1.0]]), 1.3, 1),  # |B| t / 2 = 0.65
        (np.diag([-1.0, -300.0]), 5.0, 374),  # |B| = 149.5
        (np.array([[-1.0, 50.0], [-50.0, -1.0]]), 2.0, 50),
        (np.array([[-3.0]]), 5.0, 1),  # B = 0
    ])
    def test_piece_count_keeps_rho_at_most_one(self, a, t, pieces):
        it = linops.exp_interpolant(a, t)
        b_norm = np.linalg.norm(a - np.trace(a) / a.shape[0] * np.eye(a.shape[0]), 2)
        assert it.pieces == pieces == max(1, math.ceil(b_norm * t / 2))
        assert b_norm * it.piece / 2 <= 1.0 + 1e-15
        assert it.pieces * it.piece == pytest.approx(t, rel=1e-15)

    def test_two_expm_calls_per_build(self, monkeypatch):
        stacks = []
        expm = linops._expm
        monkeypatch.setattr(linops, "_expm", lambda x, *split: stacks.append(np.shape(x)) or expm(x, *split))
        it = linops.exp_interpolant(np.diag([-1.0, -300.0]) + np.diag([1.0], 1), 5.0)
        assert stacks == [(2, 2), (it.degree + 1, 2, 2)]

    def test_arrays_are_read_only(self):
        it = linops.exp_interpolant(np.array([[-1.0, 1.0], [0.0, -1.0]]), 1.0)
        for arr in (it.starts, it.columns):
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 1.0

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_horizon_must_be_positive_and_finite(self, t):
        with pytest.raises(ValueError, match="positive and finite"):
            linops.exp_interpolant(np.eye(2), t)

    def test_table_budget_raises(self):
        with pytest.raises(linops.InterpolantError, match="table of piece starts exceeds 8 MiB"):
            linops.exp_interpolant(np.diag([0.0, -1e8]), 1.0)

    def test_overflow_raises(self):
        with pytest.raises(linops.InterpolantError, match="overflows"):
            linops.exp_interpolant(np.array([[800.0]]), 1.0)

    def test_no_certified_degree_raises(self, monkeypatch):
        monkeypatch.setattr(linops, "INTERPOLANT_TOL", 1e-20)  # below the rounding floor
        with pytest.raises(linops.InterpolantError, match="no Chebyshev degree up to 30"):
            linops.exp_interpolant(np.array([[-1.0, 1.0], [0.0, -1.0]]), 1.0)


class TestBesselTails:
    """The power series of ``I_k`` that certifies the interpolant's degree."""

    def test_matches_scipy_iv(self):
        # scipy's own iv drifts to about 1e-13 above order 50, so the orders compared at
        # 1e-15 stop at 9, where it is exact to rounding; all 70 are compared to mpmath below
        special = pytest.importorskip("scipy.special")
        for rho in np.linspace(0.0, 1.0, 201):
            want = special.iv(np.arange(1, 10), rho)
            assert np.abs(linops._bessel_i(rho)[:9] - want).max() <= 1e-15 * want.max(initial=0.0)

    def test_matches_high_precision_on_all_orders(self):
        mpmath = pytest.importorskip("mpmath")
        for rho in (1e-3, 0.1, 0.37, 0.5, 0.99, 1.0):
            with mpmath.workdps(40):
                want = np.array([float(mpmath.besseli(k, mpmath.mpf(rho))) for k in range(1, 71)])
            normal = want > 1e-290  # below, the float result is subnormal
            assert (np.abs(linops._bessel_i(rho) - want)[normal] <= 1e-15 * want[normal]).all()

    def test_tails_match_scipy(self):
        for rho in np.linspace(0.0, 1.0, 101):
            want = scipy_bessel_tails(rho)
            assert np.abs(linops._bessel_tails(rho) - want).max() <= 1e-14 * want[0]

    @pytest.mark.parametrize("kind", ["jordan", "stiff", "nonnormal", "rotating", "unstable", "zero"])
    def test_interpolant_degrees_unchanged(self, kind, monkeypatch):
        rng = np.random.default_rng(101)
        cases = [(_drift(kind, dim, rng), t) for dim in (1, 2, 4, 6) for t in (0.05, 0.4, 1.0, 2.5, 5.0)]
        new = [linops.exp_interpolant(a, t) for a, t in cases]
        monkeypatch.setattr(linops, "_bessel_tails", scipy_bessel_tails)
        old = [linops.exp_interpolant(a, t) for a, t in cases]
        assert [it.degree for it in new] == [it.degree for it in old]
        assert [it.bound for it in new] == pytest.approx([it.bound for it in old], rel=1e-13)


class TestIntegrate:
    """The paired Gauss-Legendre rule with bisection."""

    @pytest.mark.parametrize("f, a, b, want", [
        (np.exp, 0.0, 1.0, math.e - 1.0),
        (lambda s: s**19 - 3.0 * s**4, -1.0, 2.0, 2.0**20 / 20 - 1.0 / 20 - 3.0 * 33.0 / 5.0),
        (lambda s: np.exp(-300.0 * s), 0.0, 5.0, -math.expm1(-1500.0) / 300.0),
        (lambda s: np.sin(100.0 * s), 0.0, 2.0, (1.0 - math.cos(200.0)) / 100.0),
        (np.sqrt, 0.0, 1.0, 2.0 / 3.0),
        (lambda s: 1.0 / (1.0 + 0.5 * np.sin(20.0 * s)), 0.0, 3.0, None),
        # bisecting every flagged subinterval would go from 128 to 256, past the cap of 200
        (lambda s: np.sin(1000.0 * s), 0.0, 1.0, (1.0 - math.cos(1000.0)) / 1000.0),
    ], ids=["exp", "polynomial", "stiff_decay", "oscillating", "endpoint_singularity", "peaked", "fills_the_cap"])
    def test_within_tolerance_of_the_integral_of_abs(self, f, a, b, want):
        import scipy.integrate

        if want is None:
            want = scipy.integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
        got = linops.integrate(f, a, b)
        grid = np.linspace(a, b, 200_001)
        scale = np.trapezoid(np.abs(f(grid)), grid)  # the integral of |f|, to a few digits
        assert abs(got - want) <= 1e-12 * scale

    def test_one_call_per_round_on_flat_nodes(self):
        shapes = []
        linops.integrate(lambda s: shapes.append(s.shape) or np.cos(s), 0.0, 1.0)
        assert shapes == [(30,)]

    def test_zero_integrand_and_empty_interval(self):
        assert linops.integrate(np.zeros_like, 0.0, 2.0) == 0.0
        assert linops.integrate(np.exp, 1.0, 1.0) == 0.0

    def test_non_finite_integrand_raises(self):
        with pytest.raises(linops.QuadratureError, match="not finite"):
            linops.integrate(lambda s: np.where(s < 0.5, 1.0, np.inf), 0.0, 1.0)

    def test_subinterval_cap_raises(self, monkeypatch):
        monkeypatch.setattr(linops, "QUAD_MAX_PIECES", 3)
        with pytest.raises(linops.QuadratureError, match="in 3 subintervals"):
            linops.integrate(lambda s: np.sin(100.0 * s), 0.0, 2.0)

    def test_is_a_value_error(self):
        assert issubclass(linops.QuadratureError, ValueError)


class TestSemigroupSnapshot:
    def test_constant_integrand(self):
        snap = linops.semigroup_snapshot(np.zeros((2, 2)), np.eye(2), np.zeros(2), 2.0)
        assert np.allclose(snap.gramian, 2.0 * np.eye(2), atol=1e-12)
        assert np.allclose(snap.mean_shift, 0.0)

    def test_scalar_closed_form_vs_quadrature(self):
        import scipy.integrate

        for t in (0.2, 1.0, 3.0):
            snap = linops.semigroup_snapshot([[-1.0]], [[2.0]], [0.0], t)
            closed = 1.0 - np.exp(-2.0 * t)
            quad, _ = scipy.integrate.quad(lambda s: 2.0 * np.exp(-2.0 * s), 0.0, t, epsabs=1e-13)
            assert abs(snap.gramian[0, 0] - closed) <= 1e-10
            assert abs(snap.gramian[0, 0] - quad) <= 1e-10

    def test_random_stable_vs_simpson(self):
        rng = np.random.default_rng(7)
        a = make_stable(rng, 3)
        r = make_psd(rng, 3, ridge=0.1)
        snap = linops.semigroup_snapshot(a, r, np.zeros(3), 0.7)
        oracle = simpson_gramian(a, r, 0.7)
        assert np.abs(snap.gramian - oracle).max() <= 1e-9 * (1.0 + np.abs(oracle).max())

    def test_unstable_drift_also_matches_oracle(self):
        rng = np.random.default_rng(8)
        a = rng.normal(0, 0.5, size=(3, 3)) + 0.3 * np.eye(3)
        r = make_psd(rng, 3, ridge=0.1)
        snap = linops.semigroup_snapshot(a, r, np.zeros(3), 0.9)
        oracle = simpson_gramian(a, r, 0.9)
        assert np.abs(snap.gramian - oracle).max() <= 1e-9 * (1.0 + np.abs(oracle).max())

    def test_mean_shift_vs_simpson(self):
        rng = np.random.default_rng(9)
        a = make_stable(rng, 3)
        offset = rng.normal(size=3)
        snap = linops.semigroup_snapshot(a, make_psd(rng, 3), offset, 1.3)
        oracle = simpson_mean_shift(a, offset, 1.3)
        assert np.abs(snap.mean_shift - oracle).max() <= 1e-9

    def test_gramian_monotone_in_time(self):
        rng = np.random.default_rng(10)
        a = make_stable(rng, 3)
        r = make_psd(rng, 3)
        times = [0.2, 0.5, 1.0, 2.0]
        grams = [linops.semigroup_snapshot(a, r, np.zeros(3), t).gramian for t in times]
        for early, late in zip(grams, grams[1:]):
            assert np.linalg.eigvalsh(late - early).min() >= -1e-10

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5), decades=st.floats(2.0, 2.5),
           t=st.floats(0.1, 50.0), normal=st.booleans())
    def test_long_horizon_matches_the_lyapunov_route(self, seed, dim, decades, t, normal):
        # decay rates from 0.1 to 0.1 * 10^decades in a random orthonormal basis;
        # the non-normal variant adds a strictly upper triangle in that basis
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        rates = 10.0 ** np.concatenate([[-1.0, decades - 1.0], rng.uniform(-1.0, decades - 1.0, dim - 2)])
        upper = 0.0 if normal else np.triu(rng.uniform(-1.0, 1.0, (dim, dim)), 1)
        a = q @ (upper - np.diag(rates)) @ q.T
        r, offset = make_psd(rng, dim, ridge=0.1), rng.normal(size=dim)
        snap = linops.semigroup_snapshot(a, r, offset, t)
        p = expm_marching(a, [t])[0]
        s = sla.solve_continuous_lyapunov(a, -r)
        assert np.linalg.norm(snap.gramian - (s - p @ s @ p.T), 2) <= 1e-12 * np.linalg.norm(s, 2)
        shift = np.linalg.solve(a, (p - np.eye(dim)) @ offset)
        assert np.linalg.norm(snap.mean_shift - shift) <= 1e-12 * np.linalg.norm(shift)

    @pytest.mark.parametrize("t", [710.0, 800.0])
    def test_scalar_gramian_at_long_horizons(self, t):
        # one expm of the block at t gave inf (t = 710) and NaN (t = 800)
        snap = linops.semigroup_snapshot([[-1.0]], [[2.0]], [0.0], t)
        assert snap.gramian[0, 0] == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            linops.semigroup_snapshot([[-1.0]], [[2.0]], [0.0], t)
        with pytest.raises(ValueError, match="finite"):
            linops.matrix_exponential([[-1.0]], t)

    def test_one_expm_per_snapshot(self, monkeypatch):
        calls = []
        expm = linops._expm
        monkeypatch.setattr(linops, "_expm", lambda x, *split: calls.append(np.shape(x)) or expm(x, *split))
        linops.semigroup_snapshot(np.array([[-1.0, 3.0], [0.0, -20.0]]), np.eye(2), np.ones(2), 5.0)
        assert calls == [(5, 5)]


class TestPsdSqrtPinv:
    def test_diagonal(self):
        fac = linops.psd_sqrt_pinv(np.diag([4.0, 0.0]))
        assert fac.rank == 1
        assert np.allclose(fac.sqrt_matrix, np.diag([2.0, 0.0]), atol=1e-12)
        assert np.allclose(fac.pinv_sqrt_matrix, np.diag([0.5, 0.0]), atol=1e-12)

    def test_identity(self):
        fac = linops.psd_sqrt_pinv(np.eye(3))
        assert np.allclose(fac.sqrt_matrix, np.eye(3))
        assert np.allclose(fac.pinv_sqrt_matrix, np.eye(3))

    def test_known_rank_factor(self):
        rng = np.random.default_rng(11)
        b = rng.normal(size=(4, 2))
        fac = linops.psd_sqrt_pinv(b @ b.T)
        assert fac.rank == 2
        x = b @ rng.normal(size=2)
        assert fac.range_residual(x) <= 1e-10
        # pinv-sqrt then sqrt restores vectors in the range
        assert np.allclose(fac.apply_sqrt(fac.apply_pinv_sqrt(x)), x, atol=1e-9)

    def test_reconstruction(self):
        rng = np.random.default_rng(12)
        s = make_psd(rng, 5)
        fac = linops.psd_sqrt_pinv(s)
        err = np.linalg.norm((fac.eigenvectors * fac.eigenvalues) @ fac.eigenvectors.T - s)
        assert err <= 1e-10 * (1.0 + np.linalg.norm(s))

    def test_rank_zero_allowed(self):
        fac = linops.psd_sqrt_pinv(np.zeros((3, 3)))
        assert fac.rank == 0
        assert np.allclose(fac.sqrt_matrix, 0.0)

    def test_genuinely_negative_rejected(self):
        with pytest.raises(linops.NotPsdError):
            linops.psd_sqrt_pinv(np.diag([1.0, -1e-3]))

    @pytest.mark.parametrize("rank", [4, 2])
    def test_row_stacked_range_test_matches_vectors(self, rank):
        rng = np.random.default_rng(13)
        b = rng.normal(size=(4, rank))
        fac = linops.psd_sqrt_pinv(b @ b.T)
        # rows in the range and off it, with norms above and below 1 (both sides of max(1, |x|))
        rows = np.vstack([rng.normal(size=(3, rank)) @ b.T, rng.normal(size=(3, 4)),
                          1e-3 * rng.normal(size=(2, 4)), [np.zeros(4)]])
        residuals = fac.range_residual(rows)
        assert residuals.shape == (rows.shape[0],)
        assert np.allclose(residuals, [fac.range_residual(r) for r in rows], rtol=1e-12, atol=1e-15)
        for tol in (linops.DEFAULT_RANK_TOL, 1e-8):
            assert fac.in_range(rows, tol).tolist() == [fac.in_range(r, tol) for r in rows]
        assert fac.in_range(rows).all() == (rank == 4)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_range_test_refuses_nan(self):
        fac = linops.psd_sqrt_pinv(np.diag([1.0, 0.0]))
        for x in ([np.nan, 0.0], [[0.0, 0.0], [0.0, np.inf]]):
            with pytest.raises(ValueError, match="non-finite"):
                fac.in_range(x)


PSD_CHECKED = {
    "model": lambda s: OuLevyModel(drift_matrix=-np.eye(2), noise_cov=s),
    "measure": lambda s: GaussianMeasure(mean=np.zeros(2), cov=s),
}


@pytest.mark.parametrize("build", PSD_CHECKED.values(), ids=PSD_CHECKED.keys())
def test_one_psd_floor_for_every_covariance(build):
    with pytest.raises(linops.NotPsdError):
        build(np.diag([1.0, -1e-3]))
    build(np.diag([1.0, -1e-12]))  # roundoff-sized, within the floor


@pytest.mark.parametrize("build", PSD_CHECKED.values(), ids=PSD_CHECKED.keys())
def test_one_symmetry_check_for_every_covariance(build, monkeypatch):
    calls = []
    check = linops.check_symmetric
    monkeypatch.setattr(linops, "check_symmetric", lambda s, name="matrix": calls.append(name) or check(s, name))
    build(np.eye(2))
    assert len(calls) == 1
    with pytest.raises(ValueError, match="not symmetric"):
        build([[1.0, 0.5], [0.0, 1.0]])


@pytest.mark.parametrize("s, message", [([[1.0, 0.5], [0.0, 1.0]], "not symmetric"), ([[np.nan]], "non-finite")])
def test_psd_sqrt_pinv_checks_outside_input(s, message):
    with pytest.raises(ValueError, match=message):
        linops.psd_sqrt_pinv(s)


class TestLyapunov:
    def test_scalar_balance(self):
        assert abs(linops.lyapunov_solve([[-1.0]], [[2.0]])[0, 0] - 1.0) <= 1e-12

    def test_decoupled_diagonal(self):
        got = linops.lyapunov_solve(np.diag([-1.0, -2.0]), np.eye(2))
        assert np.allclose(got, np.diag([0.5, 0.25]), atol=1e-12)

    def test_random_stable_vs_truncated_integral(self):
        rng = np.random.default_rng(13)
        a = make_stable(rng, 3)
        r = make_psd(rng, 3)
        got = linops.lyapunov_solve(a, r)
        oracle = lyapunov_truncated_integral(a, r)
        assert np.abs(got - oracle).max() <= 1e-8 * (1.0 + np.abs(oracle).max())

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["defective", "stiff", "singular_noise", "near_critical"]),
           dim=st.sampled_from([1, 2, 5, 20, 200]), seed=st.integers(0, 2**32 - 1))
    def test_against_scipy(self, kind, dim, seed):
        # normwise residual, and agreement within the conditioning |A| / |abscissa| of the equation
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        upper = np.triu(rng.normal(size=(dim, dim)), 1) / np.sqrt(dim)
        if kind == "defective":  # one Jordan block; the superdiagonal below |lambda| keeps X finite
            lam = -rng.uniform(0.5, 2.0)
            a = lam * np.eye(dim) + np.diag(-lam * rng.uniform(0.2, 0.9, dim - 1), 1)
        elif kind == "stiff":  # decay rates from 0.1 to 300
            a = q @ (upper - np.diag(np.exp(rng.uniform(np.log(0.1), np.log(300.0), dim)))) @ q.T
        elif kind == "near_critical":  # spectral abscissa -1e-6
            a = q @ (upper - np.diag(np.concatenate([[1e-6], rng.uniform(0.1, 3.0, dim - 1)]))) @ q.T
        else:
            a = make_stable(rng, dim)
        r = make_psd(rng, dim, rank=1) if kind == "singular_noise" else make_psd(rng, dim, ridge=0.1)
        x = linops.lyapunov_solve(a, r)
        residual = np.linalg.norm(a @ x + x @ a.T + r) / (2.0 * np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(r))
        assert residual <= 1e-13
        want = sla.solve_continuous_lyapunov(a, -r)
        abscissa = -linops.spectral_abscissa(a)
        assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(a, 2) / abscissa * np.linalg.norm(want)

    def test_residual(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            a = make_stable(rng, 4)
            r = make_psd(rng, 4)
            x = linops.lyapunov_solve(a, r)
            res = np.linalg.norm(a @ x + x @ a.T + r)
            assert res <= 1e-10 * np.linalg.norm(r)
