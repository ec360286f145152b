import gc
import warnings
import weakref

import numpy as np
import pytest

from harnacklab import (
    CompoundPoissonSpec,
    HFunction,
    OuLevyModel,
    SemilinearSpec,
    build_adjoint,
    analytic,
    gamma_norm,
    gamma_operator_norm,
    linops,
    verify_h_condition,
)
from harnacklab.model import default_h_probes, invariant_mean
from oracles import make_psd, make_stable


class TestCompoundPoissonSpec:
    def test_atom_exp_moment(self):
        spec = CompoundPoissonSpec(rate=2.0, atoms=[[1.0], [-1.0]])
        assert abs(spec.exp_moment(np.array([0.4])) - np.cosh(0.4)) <= 1e-14
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e^800 saturates without a warning
            assert CompoundPoissonSpec(rate=1.0, atoms=[[800.0]]).exp_moment([1.0]) == np.inf
            null_atom = CompoundPoissonSpec(rate=1.0, atoms=[[1.0], [800.0]], probs=[1.0, 0.0])
            assert null_atom.exp_moment([1.0]) == pytest.approx(np.e, rel=1e-15)  # adds nothing, not 0 * inf

    def test_bad_probs_rejected(self):
        with pytest.raises(ValueError):
            CompoundPoissonSpec(rate=1.0, atoms=[[1.0], [2.0]], probs=[0.6, 0.6])

    def test_rate_must_be_positive(self):
        for rate in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"jump rate .*, got {rate}"):
                CompoundPoissonSpec(rate=rate, atoms=[[1.0]])

    def test_atoms_required(self):
        with pytest.raises(TypeError, match="atoms"):
            CompoundPoissonSpec(rate=1.0)

    def test_probs_default_uniform(self):
        spec = CompoundPoissonSpec(rate=1.0, atoms=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        assert spec.atoms.shape == (4, 2) and spec.atoms.dtype == float
        assert np.array_equal(spec.probs, np.full(4, 0.25))

    def test_one_atom_vector_is_one_row(self):
        spec = CompoundPoissonSpec(rate=1.0, atoms=[0.5, -0.5])
        assert spec.atoms.shape == (1, 2)
        assert np.array_equal(spec.probs, [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_atom_rejected(self, bad):
        with pytest.raises(ValueError, match="finite vectors"):
            CompoundPoissonSpec(rate=1.0, atoms=[[1.0], [bad]])

    def test_probs_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            CompoundPoissonSpec(rate=1.0, atoms=[[1.0], [2.0]], probs=[1.0])

    def test_negative_prob_rejected(self):
        # the probabilities sum to 1, but one is negative
        with pytest.raises(ValueError, match="nonnegative"):
            CompoundPoissonSpec(rate=1.0, atoms=[[1.0], [2.0]], probs=[1.5, -0.5])

    def test_weighted_exp_moment(self):
        atoms = np.array([[1.0, -0.5], [0.2, 0.3], [-0.4, 0.0]])
        probs = np.array([0.2, 0.3, 0.5])
        spec = CompoundPoissonSpec(rate=1.0, atoms=atoms, probs=probs)
        c = np.array([0.7, -1.1])
        assert spec.exp_moment(c) == pytest.approx(sum(p * np.exp(a @ c) for p, a in zip(probs, atoms)), rel=1e-14)
        assert spec.exp_moment(np.zeros(2)) == pytest.approx(1.0, rel=1e-15)

    def test_atom_dimension_must_match_model(self):
        with pytest.raises(ValueError, match="jump atom dimension mismatch"):
            OuLevyModel(drift_matrix=[[-1.0]], noise_cov=[[1.0]],
                        jump=CompoundPoissonSpec(rate=1.0, atoms=[[1.0, 0.0]]))


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
        rep = verify_h_condition(m, HFunction.exponential(2 * lam), 2.0)
        assert rep.certified
        assert abs(rep.worst_ratio - 1.0) <= 1e-9

    def test_driftless_constant_profile(self):
        m = OuLevyModel(drift_matrix=np.zeros((2, 2)), noise_cov=np.eye(2))
        rep = verify_h_condition(m, HFunction.constant(1.0), 1.0)
        assert rep.certified

    def test_slowest_mode_dominates(self):
        m = OuLevyModel(drift_matrix=np.diag([-1.0, -3.0]), noise_cov=np.diag([1.0, 2.0]))
        rep = verify_h_condition(m, HFunction.exponential(2.0), 2.5)
        assert rep.certified
        assert rep.worst_ratio <= 1.0 + 1e-12

    def test_too_small_profile_fails(self):
        m = OuLevyModel(drift_matrix=[[-1.0]], noise_cov=[[1.0]])
        rep = verify_h_condition(m, HFunction.exponential(4.0), 1.0)
        assert not rep.certified
        assert rep.worst_ratio > 1.0

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_negative_or_nan_profile_value_rejected(self, bad):
        # s = 0.75 is the grid time 6 t / 8 at t = 1
        m = OuLevyModel(drift_matrix=[[-1.0]], noise_cov=[[1.0]])
        h = HFunction(fn=lambda s: bad if s == 0.75 else 1.0)
        with pytest.raises(ValueError, match="decay profile must be nonnegative"):
            verify_h_condition(m, h, 1.0)

    def test_underflowed_profile_value_counts(self):
        # exp(-2 s) is 0.0 in floating point at every grid time; so is the propagated probe
        m = OuLevyModel(drift_matrix=[[-1.0]], noise_cov=[[2.0]])
        rep = verify_h_condition(m, HFunction.exponential(2.0), 1e6)
        assert rep.certified and rep.worst_ratio == 0.0

    @pytest.mark.parametrize("noise", [np.eye(2), np.diag([1.0, 0.0])], ids=["full_rank", "rank_one"])
    def test_non_finite_stepped_vector_raises(self, noise):
        # each step multiplies R x by e^500: finite after the first, inf after the second;
        # a full-rank R skips the range test of a finite vector, but not of this one
        m = OuLevyModel(drift_matrix=50.0 * np.eye(2), noise_cov=noise)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite vector"):
            verify_h_condition(m, HFunction.constant(1.0), 80.0)

    def test_propagated_state_leaving_range_gives_infinite_ratio(self):
        # rotation carries R x out of the rank-one range of R^(1/2)
        m = OuLevyModel(drift_matrix=[[0.0, 1.0], [-1.0, 0.0]], noise_cov=np.diag([1.0, 0.0]))
        rep = verify_h_condition(m, HFunction.constant(1.0), 0.5)
        assert not rep.certified
        assert rep.worst_ratio == np.inf


class TestHFunction:
    def test_exponential_closed_integrals(self):
        h = HFunction.exponential(2.0)
        t = 1.3
        assert abs(h.integral_of_inverse(t) - (np.exp(2 * t) - 1) / 2) <= 1e-12
        assert abs(h.integral_of_h(t) - (1 - np.exp(-2 * t)) / 2) <= 1e-12

    def test_exponential_inverse_integral_saturates(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert HFunction.exponential(2.0).integral_of_inverse(400.0) == np.inf

    def test_quadrature_fallback_matches(self):
        h_closed = HFunction.exponential(1.5)
        h_quad = HFunction(fn=lambda s: np.exp(-1.5 * s))
        assert abs(h_closed.integral_of_inverse(0.9) - h_quad.integral_of_inverse(0.9)) <= 1e-10
        assert abs(h_closed.integral_of_h(0.9) - h_quad.integral_of_h(0.9)) <= 1e-10


    def test_under_resolved_profile_raises(self):
        # 95 sharp dips on [0, 3]: QUADPACK returned 6.85697 with a warning, 1.5e-5 off a
        # 3M-point trapezoid (6.85707); the paired rule refuses instead of guessing
        h = HFunction(fn=lambda s: 1 + 0.9 * np.sin(200 * s))
        with pytest.raises(linops.QuadratureError, match="200 subintervals"):
            h.integral_of_inverse(3.0)

    def test_quadrature_calls_a_scalar_profile_once_per_node(self):
        calls = []
        h = HFunction(fn=lambda s: calls.append(type(s)) or 2.0)  # ignores an array argument
        assert h.integral_of_h(1.5) == pytest.approx(3.0, rel=1e-15)
        assert h.integral_of_inverse(1.5) == pytest.approx(0.75, rel=1e-15)
        assert calls and set(calls) == {np.float64}


class TestAdjoint:
    def test_scalar(self, scalar_model):
        adj = build_adjoint(scalar_model)
        assert scalar_model.steady_covariance()[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert adj.drift_matrix[0, 0] == pytest.approx(-1.0, abs=1e-12)
        t = 0.9
        assert adj.snapshot(t).propagator[0, 0] == pytest.approx(np.exp(-t), abs=1e-12)
        assert adj.snapshot(t).gramian[0, 0] == pytest.approx(1 - np.exp(-2 * t), abs=1e-10)
        q = np.exp(-2 * t)
        assert gamma_operator_norm(adj, t) ** 2 == pytest.approx(q / (1 - q), rel=1e-10)
        assert gamma_norm(adj, t, [2.0]).value == pytest.approx(2.0 * gamma_operator_norm(adj, t), rel=1e-10)

    def test_diagonal_commuting_case(self):
        m = OuLevyModel(drift_matrix=np.diag([-1.0, -2.0]), noise_cov=np.eye(2))
        adj = build_adjoint(m)
        assert np.allclose(adj.drift_matrix, m.drift_matrix, atol=1e-12)

    def test_nonnormal_lyapunov_identity(self, nonnormal_model):
        adj = build_adjoint(nonnormal_model)
        s = nonnormal_model.steady_covariance()
        res = adj.drift_matrix @ s + s @ adj.drift_matrix.T + nonnormal_model.noise_cov
        assert np.abs(res).max() <= 1e-10

    def test_adjoint_of_adjoint(self, nonnormal_model):
        adj = build_adjoint(nonnormal_model)
        back = build_adjoint(adj)
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
            # the adjoint dynamics is an OU model with the same invariant law
            mu, adj = analytic.invariant_measure(m), build_adjoint(m)
            adj_mu = analytic.invariant_measure(adj)
            assert np.abs(adj_mu.mean - mu.mean).max() <= 1e-9 * (1.0 + np.abs(mu.mean).max())
            assert np.abs(adj_mu.cov - mu.cov).max() <= 1e-9 * (1.0 + np.abs(mu.cov).max())
            out = analytic.ou_pushforward(adj, mu, 0.8)
            assert np.abs(out.mean - mu.mean).max() <= 1e-9
            assert np.abs(out.cov - mu.cov).max() <= 1e-9


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
        t = 1.3
        times, probes = [j * t / 8 for j in range(1, 9)], default_h_probes(dim)
        for h in (HFunction.exponential(1.0), HFunction.constant(1.0), HFunction.exponential(3.0)):
            rep = verify_h_condition(m, h, t)
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
        assert m.noise_sqrt() is m.noise_sqrt()
        assert m.steady_covariance() is m.steady_covariance()
        assert build_adjoint(m) is build_adjoint(m)
        assert build_adjoint(m).snapshot(0.7) is build_adjoint(m).snapshot(0.7)

    def test_interpolant_memoized_per_time(self, nonnormal_model):
        m = nonnormal_model
        assert m.exp_interpolant(0.7) is m.exp_interpolant(np.float64(0.7))
        assert m.exp_interpolant(0.7) is not m.exp_interpolant(0.8)

    def test_memoized_arrays_are_read_only(self, nonnormal_model):
        m = nonnormal_model
        snap = m.snapshot(0.7)
        with pytest.raises(ValueError):
            snap.gramian[0, 0] = 1.0
        fac = snap.gramian_sqrt
        arrays = [snap.propagator, snap.mean_shift, fac.eigenvalues, fac.eigenvectors, fac.matrix,
                  fac.sqrt_matrix, fac.pinv_sqrt_matrix, fac.pinv_matrix, fac.range_projector,
                  m.steady_covariance(), m.noise_sqrt().sqrt_matrix,
                  m.drift_matrix, m.noise_cov, m.drift_offset, build_adjoint(m).snapshot(0.7).propagator]
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
        first, first_adj = gamma_operator_norm(m, 0.7), gamma_operator_norm(adj, 0.7)
        assert ("gamma_operator_norm", 0.7) in adj._memo

        def no_svd(*args, **kwargs):
            raise AssertionError("the operator norm was computed again")

        monkeypatch.setattr(np.linalg, "norm", no_svd)
        assert gamma_operator_norm(m, np.float64(0.7)) == first
        assert gamma_operator_norm(build_adjoint(m), 0.7) == first_adj
        monkeypatch.undo()
        assert gamma_operator_norm(m, 1.4) != first

    def test_memo_is_freed_without_the_cycle_collector(self):
        m = OuLevyModel(drift_matrix=np.array([[-1.0, 1.0], [0.0, -2.0]]), noise_cov=np.eye(2))
        adj = build_adjoint(m)
        gamma_operator_norm(adj, 0.5)
        gamma_operator_norm(m, 0.5)
        analytic.ou_pushforward(adj, analytic.invariant_measure(m), 0.5)
        verify_h_condition(m, HFunction.exponential(1.0), 0.5)
        refs = [weakref.ref(m), weakref.ref(adj), weakref.ref(analytic.invariant_measure(m))]
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

    def test_steady_covariance_reuses_the_stability_flag(self, monkeypatch):
        calls = []
        abscissa = linops.spectral_abscissa
        monkeypatch.setattr(linops, "spectral_abscissa", lambda a: calls.append(a) or abscissa(a))
        m = OuLevyModel(drift_matrix=np.array([[-1.0, 1.0], [0.0, -2.0]]), noise_cov=np.eye(2))
        assert m.is_stable() is True
        analytic.invariant_measure(m)
        build_adjoint(m)
        assert len(calls) == 1
        unstable = OuLevyModel(drift_matrix=[[0.5]], noise_cov=[[1.0]])
        with pytest.raises(linops.UnstableMatrixError, match="not Hurwitz"):
            unstable.steady_covariance()
        assert unstable.is_stable() is False
        assert len(calls) == 2

    def test_each_invariant_is_checked_once(self, monkeypatch):
        # R by the eigh of the noise root when the model is built, stability by one eigvals;
        # snapshots and the Lyapunov solve read the model and check nothing again
        rng = np.random.default_rng(21)
        a, r, offset = make_stable(rng, 3), make_psd(rng, 3), rng.normal(size=3)
        calls = []
        for name in ("eigh", "eigvalsh", "eigvals"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *args, _o=original, _n=name, **kw: calls.append(_n) or _o(*args, **kw))
        m = OuLevyModel(drift_matrix=a, noise_cov=r, drift_offset=offset)
        m.snapshot(0.5)
        m.snapshot(1.0)
        m.steady_covariance()
        m.noise_sqrt()
        assert sorted(calls) == ["eigh", "eigvals"]
