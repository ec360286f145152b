import gc
import weakref

import numpy as np
import pytest

from harnacklab import (
    AdjointModel,
    CompoundPoissonSpec,
    HFunction,
    OuLevyModel,
    SemilinearSpec,
    build_adjoint,
    analytic,
    check_assumption_A_sufficient,
    gamma_operator_norm,
    linops,
    verify_h_condition,
)
from harnacklab.model import default_h_probes, invariant_mean
from oracles import make_psd, make_stable


class TestCompoundPoissonSpec:
    def test_atom_exp_moment_autofilled(self):
        spec = CompoundPoissonSpec(rate=2.0, atoms=[[1.0], [-1.0]])
        assert abs(spec.exp_moment(np.array([0.4])) - np.cosh(0.4)) <= 1e-14

    def test_bad_probs_rejected(self):
        with pytest.raises(ValueError):
            CompoundPoissonSpec(rate=1.0, atoms=[[1.0], [2.0]], probs=[0.6, 0.6])

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            CompoundPoissonSpec(rate=0.0, atoms=[[1.0]])

    def test_atoms_xor_sampler(self):
        with pytest.raises(ValueError):
            CompoundPoissonSpec(rate=1.0)


class TestModelValidation:
    def test_asymmetric_noise_rejected(self):
        with pytest.raises(ValueError):
            OuLevyModel(drift_matrix=np.zeros((2, 2)), noise_cov=[[1.0, 0.5], [0.0, 1.0]])

    def test_negative_noise_rejected(self):
        with pytest.raises(linops.NotPsdError):
            OuLevyModel(drift_matrix=np.zeros((2, 2)), noise_cov=np.diag([1.0, -0.2]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            OuLevyModel(drift_matrix=np.zeros((2, 2)), noise_cov=np.eye(2), drift_offset=[1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_offset_rejected(self, bad):
        with pytest.raises(ValueError, match="offset"):
            OuLevyModel(drift_matrix=-np.eye(2), noise_cov=np.eye(2), drift_offset=[0.0, bad])


class TestHCondition:
    def test_isotropic_decay_is_tight(self):
        lam = 0.7
        m = OuLevyModel(drift_matrix=-lam * np.eye(2), noise_cov=np.eye(2))
        rep = verify_h_condition(m, HFunction.exponential(2 * lam),
                                 times=[0.2, 0.5, 1.0, 2.0], probes=default_h_probes(2))
        assert rep.certified
        assert abs(rep.worst_ratio - 1.0) <= 1e-9

    def test_driftless_constant_profile(self):
        m = OuLevyModel(drift_matrix=np.zeros((2, 2)), noise_cov=np.eye(2))
        rep = verify_h_condition(m, HFunction.constant(1.0), times=[0.5, 1.0], probes=default_h_probes(2))
        assert rep.certified

    def test_slowest_mode_dominates(self):
        m = OuLevyModel(drift_matrix=np.diag([-1.0, -3.0]), noise_cov=np.diag([1.0, 2.0]))
        rep = verify_h_condition(m, HFunction.exponential(2.0),
                                 times=[0.3, 1.0, 2.5], probes=default_h_probes(2))
        assert rep.certified
        assert rep.worst_ratio <= 1.0 + 1e-12

    def test_too_small_profile_fails(self):
        m = OuLevyModel(drift_matrix=[[-1.0]], noise_cov=[[1.0]])
        rep = verify_h_condition(m, HFunction.exponential(4.0), times=[1.0], probes=[[1.0]])
        assert not rep.certified
        assert rep.worst_ratio > 1.0

    def test_ratio_scale_invariance(self):
        m = OuLevyModel(drift_matrix=np.diag([-1.0, -2.0]), noise_cov=np.diag([1.0, 0.5]))
        h = HFunction.exponential(2.0)
        base = verify_h_condition(m, h, times=[0.7], probes=[[0.3, -0.8]])
        scaled = verify_h_condition(m, h, times=[0.7], probes=[[30.0, -80.0]])
        assert abs(base.worst_ratio - scaled.worst_ratio) <= 1e-12

    def test_zero_probe_rejected(self):
        m = OuLevyModel(drift_matrix=[[-1.0]], noise_cov=[[1.0]])
        with pytest.raises(ValueError):
            verify_h_condition(m, HFunction.constant(1.0), times=[1.0], probes=[[0.0]])

    def test_propagated_state_leaving_range_gives_infinite_ratio(self):
        # rotation carries R x out of the rank-one range of R^(1/2)
        m = OuLevyModel(drift_matrix=[[0.0, 1.0], [-1.0, 0.0]], noise_cov=np.diag([1.0, 0.0]))
        rep = verify_h_condition(m, HFunction.constant(1.0), times=[0.5], probes=[[1.0, 0.0]])
        assert not rep.certified
        assert rep.worst_ratio == np.inf


class TestHFunction:
    def test_exponential_closed_integrals(self):
        h = HFunction.exponential(2.0)
        t = 1.3
        assert abs(h.integral_of_inverse(t) - (np.exp(2 * t) - 1) / 2) <= 1e-12
        assert abs(h.integral_of_h(t) - (1 - np.exp(-2 * t)) / 2) <= 1e-12

    def test_quadrature_fallback_matches(self):
        h_closed = HFunction.exponential(1.5)
        h_quad = HFunction(fn=lambda s: np.exp(-1.5 * s))
        assert abs(h_closed.integral_of_inverse(0.9) - h_quad.integral_of_inverse(0.9)) <= 1e-10
        assert abs(h_closed.integral_of_h(0.9) - h_quad.integral_of_h(0.9)) <= 1e-10


class TestAssumptionA:
    def test_stable_gaussian_passes(self, scalar_model):
        rep = check_assumption_A_sufficient(scalar_model)
        assert rep.all_pass
        assert rep.note

    def test_driftless_fails_stability(self, flat_model):
        rep = check_assumption_A_sufficient(flat_model)
        assert not rep.stable_drift
        assert not rep.all_pass

    def test_atom_jumps_pass(self, jump_model):
        rep = check_assumption_A_sufficient(jump_model)
        assert rep.all_pass
        assert rep.jump_second_moment == pytest.approx(1.0)

    def test_sampler_jump_probe(self):
        m = OuLevyModel(
            drift_matrix=[[-1.0]], noise_cov=[[1.0]],
            jump=CompoundPoissonSpec(rate=1.0, sampler=lambda gen, size: gen.normal(0, 1, size=(size, 1))),
        )
        rep = check_assumption_A_sufficient(m)
        assert rep.jump_moment_finite


class TestAdjoint:
    def test_scalar(self, scalar_model):
        adj = build_adjoint(scalar_model)
        assert adj.r_inf[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert adj.drift_matrix[0, 0] == pytest.approx(-1.0, abs=1e-12)
        t = 0.9
        assert adj.propagator(t)[0, 0] == pytest.approx(np.exp(-t), abs=1e-12)
        assert adj.gramian(t)[0, 0] == pytest.approx(1 - np.exp(-2 * t), abs=1e-10)
        q = np.exp(-2 * t)
        assert adj.gamma_operator_norm(t) ** 2 == pytest.approx(q / (1 - q), rel=1e-10)
        assert adj.gamma_norm(t, [2.0]).value == pytest.approx(2.0 * adj.gamma_operator_norm(t), rel=1e-10)

    def test_diagonal_commuting_case(self):
        m = OuLevyModel(drift_matrix=np.diag([-1.0, -2.0]), noise_cov=np.eye(2))
        adj = build_adjoint(m)
        assert np.allclose(adj.drift_matrix, m.drift_matrix, atol=1e-12)

    def test_nonnormal_lyapunov_identity(self, nonnormal_model):
        adj = build_adjoint(nonnormal_model)
        res = adj.drift_matrix @ adj.r_inf + adj.r_inf @ adj.drift_matrix.T + nonnormal_model.noise_cov
        assert np.abs(res).max() <= 1e-10

    def test_adjoint_of_adjoint(self, nonnormal_model):
        adj = build_adjoint(nonnormal_model)
        back = build_adjoint(adj.as_model())
        assert np.abs(back.drift_matrix - nonnormal_model.drift_matrix).max() <= 1e-9

    def test_jump_model_rejected(self, jump_model):
        with pytest.raises(ValueError):
            build_adjoint(jump_model)

    def test_unstable_rejected(self, flat_model):
        with pytest.raises(linops.UnstableMatrixError):
            build_adjoint(flat_model)

    def test_singular_steady_state_rejected(self):
        m = OuLevyModel(drift_matrix=np.diag([-1.0, -1.0]), noise_cov=np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="truncation"):
            build_adjoint(m)

    def test_small_steady_state_is_not_singular(self):
        # singularity is the rank rule, relative to the largest eigenvalue, not a size test
        m = OuLevyModel(drift_matrix=np.diag([-1.0, -2.0]), noise_cov=1e-12 * np.eye(2))
        adj = build_adjoint(m)
        assert np.allclose(adj.drift_matrix, m.drift_matrix, atol=1e-12)


class TestInvariantLawFixedPoint:
    def test_random_stable_models(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            d = int(rng.integers(1, 4))
            m = OuLevyModel(
                drift_matrix=make_stable(rng, d),
                noise_cov=make_psd(rng, d, ridge=0.2),
                drift_offset=rng.normal(size=d),
            )
            m_inf = invariant_mean(m)
            r_inf = linops.lyapunov_solve(m.drift_matrix, m.noise_cov)
            snap = m.snapshot(0.8)
            assert np.abs(snap.propagator @ m_inf + snap.mean_shift - m_inf).max() <= 1e-9
            drifted = snap.propagator @ r_inf @ snap.propagator.T + snap.gramian
            assert np.abs(drifted - r_inf).max() <= 1e-9


class TestSemilinearSpec:
    def test_growth_check_passes(self, scalar_model):
        spec = SemilinearSpec(drift_fn=lambda pts: 0.5 * np.sin(pts), k1=0.125, k2=0.0)
        spec.validate(scalar_model, [np.zeros(1), np.array([2.0]), np.array([-3.0])])

    def test_growth_check_fails(self, scalar_model):
        spec = SemilinearSpec(drift_fn=lambda pts: np.atleast_2d(pts), k1=0.0, k2=0.0)
        with pytest.raises(ValueError, match="growth"):
            spec.validate(scalar_model, [np.array([1.0])])

    def test_range_check_fails(self):
        m = OuLevyModel(drift_matrix=np.diag([-1.0, -1.0]), noise_cov=np.diag([1.0, 0.0]))
        spec = SemilinearSpec(drift_fn=lambda pts: np.broadcast_to([0.0, 1.0], np.atleast_2d(pts).shape), k1=2.0, k2=0.0)
        with pytest.raises(ValueError, match="range"):
            spec.validate(m, [np.zeros(2)])

    def test_negative_constants_rejected(self):
        with pytest.raises(ValueError):
            SemilinearSpec(drift_fn=lambda pts: pts, k1=-1.0, k2=0.0)


def _h_condition_reference(model, h, times, probes):
    """Probe-by-probe evaluation of the decay certificate: the reference for
    the batched `verify_h_condition`."""
    rfac = model.noise_sqrt()
    worst, failures = 0.0, []
    for t in times:
        prop = linops.matrix_exponential(model.drift_matrix, t)
        for i, x in enumerate(np.asarray(probes, dtype=float)):
            v = prop @ (model.noise_cov @ x)
            rhs = np.sqrt(h(t)) * float(np.linalg.norm(rfac.apply_sqrt(x)))
            if not rfac.in_range(v):
                failures.append((t, i, np.inf, rhs))
                worst = np.inf
                continue
            lhs = float(np.linalg.norm(rfac.apply_pinv_sqrt(v)))
            worst = max(worst, lhs / rhs)
            if lhs > rhs + 1e-9:
                failures.append((t, i, lhs, rhs))
    return worst, failures


class TestHConditionBatched:
    @pytest.mark.parametrize("dim, rank, contractive", [(4, 4, False), (4, 2, False), (7, 7, False), (5, 5, True)])
    def test_matches_probe_by_probe_reference(self, dim, rank, contractive):
        rng = np.random.default_rng(40 + dim + rank)
        b = rng.normal(size=(dim, rank))
        r = b @ b.T + 1e-3 * (rank == dim) * np.eye(dim)
        a = make_stable(rng, dim)
        if contractive:
            # A = R^(1/2) M R^(-1/2) with sym(M) = -I: certified for exp(-t) and 1
            root = linops.psd_sqrt_pinv(r)
            m_skew = rng.normal(size=(dim, dim))
            a = root.sqrt_matrix @ (0.5 * (m_skew - m_skew.T) - np.eye(dim)) @ root.pinv_sqrt_matrix
        m = OuLevyModel(drift_matrix=a, noise_cov=r)
        times = [0.1, 0.4, 1.3]
        probes = default_h_probes(dim) + list(rng.normal(size=(5, dim)))
        for h in (HFunction.exponential(1.0), HFunction.constant(1.0), HFunction.exponential(3.0)):
            rep = verify_h_condition(m, h, times, probes)
            worst, failures = _h_condition_reference(m, h, times, probes)
            if contractive and h.label != "exp(-3 t)":
                assert rep.certified
            assert rep.n_checked == len(times) * len(probes)
            assert rep.certified == (not failures)
            assert [f[:2] for f in rep.failures] == [f[:2] for f in failures]
            # the batched products sum in another order: allow a few ulps
            assert rep.worst_ratio == pytest.approx(worst, rel=1e-12)
            for got, want in zip(rep.failures, failures):
                assert got[2:] == pytest.approx(want[2:], rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 3, 200])
    def test_default_probes_share_one_identity(self, dim):
        # one d x d identity for the axes plus the two mixed directions;
        # an identity per axis probe would pin d * d * d * 8 bytes
        bases = {id(b): b.nbytes for b in (p if p.base is None else p.base for p in default_h_probes(dim))}
        assert sum(bases.values()) <= (dim + 2) * dim * 8


class TestMemoizedState:
    def test_repeated_requests_return_the_same_objects(self, nonnormal_model):
        m = nonnormal_model
        assert m.snapshot(0.7) is m.snapshot(np.float64(0.7))
        assert m.propagator(0.7) is m.propagator(0.7)
        assert m.noise_sqrt() is m.noise_sqrt()
        assert m.steady_covariance() is m.steady_covariance()
        assert build_adjoint(m).as_model() is build_adjoint(m).as_model()
        assert build_adjoint(m).as_model().snapshot(0.7) is build_adjoint(m).as_model().snapshot(0.7)

    def test_memoized_arrays_are_read_only(self, nonnormal_model):
        m = nonnormal_model
        snap = m.snapshot(0.7)
        with pytest.raises(ValueError):
            snap.gramian[0, 0] = 1.0
        fac = snap.gramian_sqrt
        arrays = [snap.propagator, snap.mean_shift, fac.eigenvalues, fac.eigenvectors, fac.matrix,
                  fac.sqrt_matrix, fac.pinv_sqrt_matrix, fac.pinv_matrix, fac.range_projector,
                  m.propagator(0.7), m.steady_covariance(), m.noise_sqrt().sqrt_matrix,
                  m.drift_matrix, m.noise_cov, m.drift_offset, build_adjoint(m).propagator(0.7)]
        assert not any(a.flags.writeable for a in arrays)

    def test_invariant_law_is_memoized_and_read_only(self, nonnormal_model):
        mu = analytic.invariant_measure(nonnormal_model)
        assert analytic.invariant_measure(nonnormal_model) is mu
        for arr in (mu.mean, mu.cov):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_measure_owns_its_arrays(self):
        mean, cov = np.array([0.5]), np.array([[2.0]])
        nu = analytic.GaussianMeasure(mean=mean, cov=cov)
        mean[0], cov[0, 0] = 0.0, 1.0
        assert nu.mean[0] == 0.5 and nu.cov[0, 0] == 2.0
        assert mean.flags.writeable and cov.flags.writeable

    def test_model_owns_its_arrays(self):
        a, offset = np.array([[-1.0]]), np.array([0.5])
        m = OuLevyModel(drift_matrix=a, noise_cov=[[1.0]], drift_offset=offset)
        a[0, 0], offset[0] = 3.0, 0.0
        assert m.drift_matrix[0, 0] == -1.0 and m.drift_offset[0] == 0.5
        assert a.flags.writeable

    def test_operator_norm_is_memoized_per_time(self, nonnormal_model, monkeypatch):
        m = nonnormal_model
        adj = build_adjoint(m)
        first, first_adj = gamma_operator_norm(m, 0.7), adj.gamma_operator_norm(0.7)
        assert ("gamma_operator_norm", 0.7) in adj.as_model()._memo

        def no_svd(*args, **kwargs):
            raise AssertionError("the operator norm was computed again")

        monkeypatch.setattr(np.linalg, "norm", no_svd)
        assert gamma_operator_norm(m, np.float64(0.7)) == first
        assert build_adjoint(m).gamma_operator_norm(0.7) == first_adj
        monkeypatch.undo()
        assert gamma_operator_norm(m, 1.4) != first

    def test_memo_is_freed_without_the_cycle_collector(self):
        m = OuLevyModel(drift_matrix=np.array([[-1.0, 1.0], [0.0, -2.0]]), noise_cov=np.eye(2))
        adj = build_adjoint(m)
        adj.gamma_operator_norm(0.5)
        gamma_operator_norm(m, 0.5)
        analytic.pushforward_adjoint(adj, analytic.invariant_measure(m), 0.5)
        verify_h_condition(m, HFunction.exponential(1.0), [0.5], default_h_probes(2))
        refs = [weakref.ref(m), weakref.ref(adj.as_model()), weakref.ref(analytic.invariant_measure(m))]
        gc.disable()
        try:
            del m, adj
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_stability_flag_computed_once(self, monkeypatch):
        calls = []
        abscissa = linops.spectral_abscissa
        monkeypatch.setattr(linops, "spectral_abscissa", lambda a: calls.append(a) or abscissa(a))
        m = OuLevyModel(drift_matrix=np.array([[-1.0, 1.0], [0.0, -2.0]]), noise_cov=np.eye(2),
                        drift_offset=[0.5, -0.5])
        for _ in range(3):
            assert m.is_stable() is True
            invariant_mean(m)
            analytic.heat_kernel_kl(m, 0.7, [0.0, 0.0], [0.3, 0.1])
            analytic.kernel_harnack_lhs(m, 0.7, [0.0, 0.0], [0.3, 0.1], 2.0)
        assert len(calls) == 1
        unstable = OuLevyModel(drift_matrix=[[0.5]], noise_cov=[[1.0]])
        assert unstable.is_stable() is False and unstable.is_stable() is False
        assert len(calls) == 2

    def test_hand_built_adjoint_data_gets_its_own_model(self, nonnormal_model):
        built = build_adjoint(nonnormal_model)
        other = np.diag([-3.0, -4.0])
        manual = AdjointModel(base=nonnormal_model, r_inf=built.r_inf, m_inf=built.m_inf, drift_matrix=other)
        assert np.array_equal(manual.as_model().drift_matrix, other)
        assert built.as_model() is not manual.as_model()
