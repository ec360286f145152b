import numpy as np
import pytest

from harnacklab import GaussianMeasure, OuLevyModel, linops
from oracles import lyapunov_truncated_integral, make_psd, make_stable, simpson_gramian, simpson_mean_shift


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

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            linops.matrix_exponential(np.zeros((2, 3)), 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            linops.matrix_exponential(np.zeros((2, 2)), -0.1)


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

    def test_non_psd_noise_rejected(self):
        with pytest.raises(linops.NotPsdError):
            linops.semigroup_snapshot(np.zeros((2, 2)), np.diag([1.0, -0.5]), np.zeros(2), 1.0)


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
    "snapshot": lambda s: linops.semigroup_snapshot(-np.eye(2), s, np.zeros(2), 1.0),
    "measure": lambda s: GaussianMeasure(mean=np.zeros(2), cov=s),
}


@pytest.mark.parametrize("build", PSD_CHECKED.values(), ids=PSD_CHECKED.keys())
def test_one_psd_floor_for_every_covariance(build):
    with pytest.raises(linops.NotPsdError):
        build(np.diag([1.0, -1e-3]))
    build(np.diag([1.0, -1e-12]))  # roundoff-sized, within the floor


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

    def test_residual(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            a = make_stable(rng, 4)
            r = make_psd(rng, 4)
            x = linops.lyapunov_solve(a, r)
            res = np.linalg.norm(a @ x + x @ a.T + r)
            assert res <= 1e-10 * np.linalg.norm(r)

    def test_unstable_rejected(self):
        with pytest.raises(linops.UnstableMatrixError):
            linops.lyapunov_solve(np.zeros((2, 2)), np.eye(2))
