import numpy as np
import pytest

from harnacklab import (
    HFunction,
    OuLevyModel,
    gamma_norm,
    gamma_operator_norm,
    h_bound,
    min_energy_control,
    linops,
    weighted_control,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import hard_drift, make_psd, make_stable, quadpack_weighted_energy


def scalar_gamma_sq(lam, r, t, x):
    """Closed form for A=-lam, noise r in d=1."""
    if lam == 0.0:
        return x * x / (r * t)
    return 2.0 * lam * x * x / (r * (np.exp(2.0 * lam * t) - 1.0))


class TestGammaNorm:
    def test_driftless_scalar(self, flat_model):
        g = gamma_norm(flat_model, 4.0, [1.5])
        assert g.in_domain
        assert g.value == pytest.approx(1.5 / 2.0, abs=1e-12)

    def test_stable_scalar_closed_form(self):
        lam = 1.3
        m = OuLevyModel(drift_matrix=[[-lam]], noise_cov=[[1.0]])
        g = gamma_norm(m, 0.8, [2.0])
        assert g.value**2 == pytest.approx(scalar_gamma_sq(lam, 1.0, 0.8, 2.0), rel=1e-12)

    def test_unreachable_direction_is_infinite(self):
        m = OuLevyModel(drift_matrix=np.zeros((2, 2)), noise_cov=np.diag([1.0, 0.0]))
        g = gamma_norm(m, 1.0, [0.0, 1.0])
        assert not g.in_domain
        assert g.value == np.inf
        reachable = gamma_norm(m, 1.0, [1.0, 0.0])
        assert reachable.in_domain

    def test_homogeneity_and_subadditivity(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            m = OuLevyModel(drift_matrix=make_stable(rng, d), noise_cov=make_psd(rng, d, ridge=0.2))
            x, y = rng.normal(size=(2, d))
            c = float(rng.uniform(0.3, 4.0))
            gx = gamma_norm(m, 0.9, x).value
            assert gamma_norm(m, 0.9, c * x).value == pytest.approx(c * gx, rel=1e-9)
            gsum = gamma_norm(m, 0.9, x + y).value
            assert gsum <= gx + gamma_norm(m, 0.9, y).value + 1e-9

    def test_time_monotonicity(self):
        rng = np.random.default_rng(32)
        for a, r in [(make_stable(rng, 2), make_psd(rng, 2, ridge=0.2)), (np.zeros((1, 1)), np.eye(1))]:
            m = OuLevyModel(drift_matrix=a, noise_cov=r)
            x = rng.normal(size=m.dim)
            values = [gamma_norm(m, t, x).value for t in (0.3, 0.6, 1.2, 2.4)]
            for early, late in zip(values, values[1:]):
                assert late <= early + 1e-9


class TestGammaOperatorNorm:
    def test_stable_scalar(self, scalar_model):
        t = 1.0
        expected_sq = np.exp(-2 * t) / (1 - np.exp(-2 * t))
        assert gamma_operator_norm(scalar_model, t) ** 2 == pytest.approx(expected_sq, rel=1e-12)

    def test_driftless_isotropic(self):
        m = OuLevyModel(drift_matrix=np.zeros((2, 2)), noise_cov=np.eye(2))
        assert gamma_operator_norm(m, 4.0) == pytest.approx(0.5, abs=1e-12)

    def test_rank_deficient_is_infinite(self):
        m = OuLevyModel(drift_matrix=np.zeros((2, 2)), noise_cov=np.diag([1.0, 0.0]))
        assert gamma_operator_norm(m, 1.0) == np.inf


class TestMinEnergyControl:
    def test_constant_optimal_control(self, flat_model):
        t = 2.0
        ctrl = min_energy_control(flat_model, t, [1.0], 50)
        assert np.allclose(ctrl.values, -1.0 / t, atol=1e-12)
        assert ctrl.energy == pytest.approx(1.0 / t, rel=1e-12)
        assert ctrl.accepted

    def test_energy_converges_to_gamma_sq(self):
        lam = 0.8
        m = OuLevyModel(drift_matrix=[[-lam]], noise_cov=[[1.0]])
        target = scalar_gamma_sq(lam, 1.0, 1.0, 1.0)
        ctrl = min_energy_control(m, 1.0, [1.0], 2000)
        assert abs(ctrl.energy - target) / target <= 1e-6

    def test_convergence_rate_improves_with_k(self):
        rng = np.random.default_rng(33)
        m = OuLevyModel(drift_matrix=make_stable(rng, 2), noise_cov=make_psd(rng, 2, ridge=0.3))
        x0 = np.array([1.0, -0.5])
        target = gamma_norm(m, 1.0, x0).value ** 2
        errs = [abs(min_energy_control(m, 1.0, x0, k).energy - target) for k in (125, 250, 500, 1000)]
        for coarse, fine in zip(errs, errs[1:]):
            assert fine < coarse

    def test_zero_start(self, scalar_model):
        ctrl = min_energy_control(scalar_model, 1.0, [0.0], 32)
        assert ctrl.energy == 0.0
        assert np.allclose(ctrl.values, 0.0)
        assert ctrl.terminal_residual <= 1e-12

    def test_infeasible_start_reported(self):
        m = OuLevyModel(drift_matrix=np.zeros((2, 2)), noise_cov=np.diag([1.0, 0.0]))
        ctrl = min_energy_control(m, 1.0, [0.0, 1.0], 32)
        assert ctrl.energy == np.inf
        assert not ctrl.feasible

    def test_terminal_residual_accepted(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            m = OuLevyModel(drift_matrix=make_stable(rng, d), noise_cov=make_psd(rng, d, ridge=0.2))
            x0 = rng.normal(size=d)
            ctrl = min_energy_control(m, 1.2, x0, 512)
            assert ctrl.accepted


class TestWeightedControl:
    def test_uniform_weight_recovers_optimum(self, flat_model):
        t = 1.5
        ctrl = weighted_control(flat_model, t, [0.7], lambda s: 1.0, 64)
        assert ctrl.energy == pytest.approx(0.7**2 / t, rel=1e-10)
        assert ctrl.accepted

    def test_exponential_weight_attains_optimum(self):
        lam = 0.9
        m = OuLevyModel(drift_matrix=[[-lam]], noise_cov=[[1.0]])
        ctrl = weighted_control(m, 1.0, [1.0], lambda s: np.exp(2 * lam * s), 64)
        assert abs(ctrl.energy - scalar_gamma_sq(lam, 1.0, 1.0, 1.0)) <= 1e-10

    def test_generic_weight_is_upper_bound(self):
        rng = np.random.default_rng(35)
        m = OuLevyModel(drift_matrix=make_stable(rng, 2), noise_cov=make_psd(rng, 2, ridge=0.3))
        x0 = np.array([0.9, 0.4])
        ctrl = weighted_control(m, 1.0, x0, lambda s: s + 0.1, 128)
        target = gamma_norm(m, 1.0, x0).value ** 2
        assert ctrl.energy > target
        assert ctrl.energy >= target - 1e-6
        assert ctrl.accepted

    def test_nonpositive_weight_rejected(self, flat_model):
        with pytest.raises(ValueError, match="positive"):
            weighted_control(flat_model, 1.0, [1.0], lambda s: s - 0.5, 16)

    def test_out_of_range_trajectory_reported(self):
        m = OuLevyModel(drift_matrix=np.zeros((2, 2)), noise_cov=np.diag([1.0, 0.0]))
        ctrl = weighted_control(m, 1.0, [0.0, 1.0], lambda s: 1.0, 16)
        assert ctrl.energy == np.inf


    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["jordan", "rotating", "nonnormal"]), dim=st.integers(1, 4),
           t=st.floats(0.05, 2.0), profile=st.sampled_from(["one", "affine", "wave", "growth"]),
           seed=st.integers(0, 2**32 - 1))
    def test_energy_matches_quadpack(self, kind, dim, t, profile, seed):
        rng = np.random.default_rng(seed)
        m = OuLevyModel(drift_matrix=hard_drift(kind, dim, rng), noise_cov=make_psd(rng, dim, ridge=0.3))
        x0 = rng.normal(size=dim)
        xi = {"one": lambda s: 1.0, "affine": lambda s: s + 0.1,
              "wave": lambda s: 1.0 + 0.5 * np.sin(3.0 * s), "growth": lambda s: np.exp(2.0 * s)}[profile]
        got = weighted_control(m, t, x0, xi, 8).energy
        assert got == pytest.approx(quadpack_weighted_energy(m, t, x0, xi), rel=1e-11)

    def test_no_expm_per_quadrature_node(self, monkeypatch):
        calls = []
        expm = linops.sla.expm
        monkeypatch.setattr(linops.sla, "expm", lambda x: calls.append(np.shape(x)) or expm(x))
        m = OuLevyModel(drift_matrix=[[-1.0, 30.0], [-30.0, -1.0]], noise_cov=np.eye(2))
        weighted_control(m, 2.0, [1.0, 0.5], lambda s: 1.0 + 0.5 * np.sin(3.0 * s), 8)
        # the interpolant's step and its stacked nodes, for the grid states and the quadrature
        assert [len(shape) for shape in calls] == [2, 3]

    def test_drift_beyond_interpolant_budget_raises(self):
        # a fast-rotating Jordan drift: 1e5 interpolation pieces on [0, 1]
        rot = np.array([[0.0, 2e5], [-2e5, 0.0]])
        m = OuLevyModel(drift_matrix=np.block([[rot, np.eye(2)], [np.zeros((2, 2)), rot]]), noise_cov=np.eye(4))
        with pytest.raises(linops.InterpolantError, match="table of piece starts"):
            weighted_control(m, 1.0, [1.0, 0.0, 0.0, 0.0], lambda s: 1.0, 8)


class TestHBound:
    def test_equality_in_commuting_case(self):
        lam = 1.1
        m = OuLevyModel(drift_matrix=[[-lam]], noise_cov=[[1.0]])
        bound = h_bound(m, HFunction.exponential(2 * lam), 1.0, [1.0])
        assert abs(bound - scalar_gamma_sq(lam, 1.0, 1.0, 1.0)) <= 1e-12

    def test_driftless_isotropic(self):
        m = OuLevyModel(drift_matrix=np.zeros((2, 2)), noise_cov=np.eye(2))
        x = np.array([0.6, -0.8])
        assert h_bound(m, HFunction.constant(1.0), 2.0, x) == pytest.approx(0.5, abs=1e-12)

    def test_outside_range_is_infinite(self):
        m = OuLevyModel(drift_matrix=np.zeros((2, 2)), noise_cov=np.diag([1.0, 0.0]))
        assert h_bound(m, HFunction.constant(1.0), 1.0, [0.0, 1.0]) == np.inf

    def test_ordering_chain(self):
        lam = 0.6
        m = OuLevyModel(drift_matrix=-lam * np.eye(2), noise_cov=np.eye(2))
        h = HFunction.exponential(2 * lam)
        x0 = np.array([0.8, -0.3])
        t = 1.2
        g2 = gamma_norm(m, t, x0).value ** 2
        wc = weighted_control(m, t, x0, lambda s: 1.0 / h(s), 64)
        hb = h_bound(m, h, t, x0)
        assert g2 <= wc.energy + 1e-9
        assert wc.energy <= hb + 1e-6
