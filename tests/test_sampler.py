import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import harnacklab as hl
from harnacklab import OuLevyModel, analytic, sampler
from harnacklab.sampler import (
    GirsanovWeight,
    McEstimate,
    RngStream,
    RunningMoments,
    coupled_expectation,
    girsanov_functional_estimates,
    girsanov_weight,
    wa_path,
)
from harnacklab.testfuncs import ConstantObservable, ExpObservable, drift_constant, drift_zero
from oracles import make_psd, make_stable, within_sigma


class TestRngStream:
    def test_identical_keys_identical_draws(self):
        a = RngStream(123, 7).generator().standard_normal(5)
        b = RngStream(123, 7).generator().standard_normal(5)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 7).generator().standard_normal(5)
        b = RngStream(123, 8).generator().standard_normal(5)
        assert not np.array_equal(a, b)


class TestEndpointSampling:
    def test_noiseless_is_deterministic(self):
        m = OuLevyModel(drift_matrix=[[-1.0]], noise_cov=[[0.0]])
        out = hl.sample_ou_endpoint(m, 2.0, [3.0], RngStream(0, 0))
        assert out[0] == pytest.approx(3.0 * np.exp(-2.0), rel=1e-12)

    def test_driftless_variance(self, flat_model):
        est = hl.estimate_semigroup(flat_model, 1.5, [0.0], lambda pts: pts[:, 0] ** 2, 100_000, 101)
        assert within_sigma(est.mean, est.std_error, 1.5)

    def test_jump_mean_and_variance(self, jump_model):
        # A=-1: jump contribution to the variance is rate * int_0^t e^{-2s} ds
        t = 1.0
        base_var = 1.0 - np.exp(-2.0 * t)
        jump_var = 2.0 * (1.0 - np.exp(-2.0 * t)) / 2.0
        est_m = hl.estimate_semigroup(jump_model, t, [0.0], lambda pts: pts[:, 0], 100_000, 102)
        assert within_sigma(est_m.mean, est_m.std_error, 0.0)
        est_v = hl.estimate_semigroup(jump_model, t, [0.0], lambda pts: pts[:, 0] ** 2, 100_000, 103)
        assert within_sigma(est_v.mean, est_v.std_error, base_var + jump_var)

    def test_endpoint_law_exact_mean_cov(self):
        rng = np.random.default_rng(51)
        m = OuLevyModel(drift_matrix=make_stable(rng, 2), noise_cov=make_psd(rng, 2, ridge=0.3),
                        drift_offset=rng.normal(size=2))
        t, x = 0.8, np.array([0.7, -0.2])
        snap = m.snapshot(t)
        target_mean = snap.propagator @ x + snap.mean_shift
        n = 100_000
        s1 = np.zeros(2)
        s2 = np.zeros((2, 2))
        start = snap.propagator @ x
        for noise in sampler.iter_endpoint_noise(m, t, n, 104):
            pts = start + noise
            s1 += pts.sum(axis=0)
            s2 += pts.T @ pts
        mean = s1 / n
        cov = s2 / n - np.outer(mean, mean)
        for i in range(2):
            se = np.sqrt(snap.gramian[i, i] / n)
            assert abs(mean[i] - target_mean[i]) <= 4.0 * se
            for j in range(2):
                se_cov = np.sqrt((snap.gramian[i, i] * snap.gramian[j, j] + snap.gramian[i, j] ** 2) / n)
                assert abs(cov[i, j] - snap.gramian[i, j]) <= 4.0 * se_cov

    def test_constant_function(self, flat_model):
        est = hl.estimate_semigroup(flat_model, 1.0, [0.0], ConstantObservable(1.0), 200, 0)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_symmetric_indicator(self, flat_model):
        est = hl.estimate_semigroup(flat_model, 1.0, [0.0], lambda pts: (pts[:, 0] > 0).astype(float), 100_000, 105)
        assert within_sigma(est.mean, est.std_error, 0.5)

    def test_exponential_against_closed_form(self, flat_model):
        c, t, x = 0.5, 1.0, 0.3
        est = hl.estimate_semigroup(flat_model, t, [x], ExpObservable([c]), 100_000, 106)
        assert within_sigma(est.mean, est.std_error, np.exp(c * x + c * c * t / 2.0))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_observable_aborts(self, flat_model):
        with pytest.raises(sampler.NonFiniteValueError):
            hl.estimate_semigroup(flat_model, 1.0, [0.0], lambda pts: np.log(pts[:, 0]), 1000, 107)
        assert issubclass(sampler.NonFiniteValueError, ValueError)

    def test_scalar_only_observable_rejected(self, flat_model):
        with pytest.raises(ValueError, match=r"shape \(1,\)"):
            hl.estimate_semigroup(flat_model, 1.0, [0.0], lambda p: np.tanh(p[0]), 1000, 107)

    def test_offset_keeps_the_standard_error(self, flat_model):
        # raw power sums cancel the whole spread of 1e8 + tanh(x) and reported 0.0
        plain = hl.estimate_semigroup(flat_model, 1.0, [0.0], lambda pts: np.tanh(pts[:, 0]), 100_000, 110)
        shifted = hl.estimate_semigroup(flat_model, 1.0, [0.0], lambda pts: 1e8 + np.tanh(pts[:, 0]), 100_000, 110)
        assert shifted.std_error == pytest.approx(plain.std_error, rel=1e-6)

    def test_minimum_sample_size_enforced(self, flat_model):
        with pytest.raises(ValueError):
            hl.estimate_semigroup(flat_model, 1.0, [0.0], ConstantObservable(), 50, 0)

    def test_bitwise_reproducibility(self, jump_model):
        a = hl.estimate_semigroup(jump_model, 1.0, [0.2], lambda pts: np.tanh(pts[:, 0]), 20_000, 108)
        b = hl.estimate_semigroup(jump_model, 1.0, [0.2], lambda pts: np.tanh(pts[:, 0]), 20_000, 108)
        assert a == b

    def test_nondiagonalizable_drift_transport(self):
        # defective drift exercises the per-jump propagator fallback
        m = OuLevyModel(drift_matrix=np.array([[0.0, 1.0], [0.0, 0.0]]), noise_cov=0.1 * np.eye(2),
                        jump=hl.CompoundPoissonSpec(rate=3.0, atoms=[[0.0, 1.0]]))
        est = hl.estimate_semigroup(m, 1.0, [0.0, 0.0], lambda pts: pts[:, 1], 5_000, 109)
        # second coordinate gains exactly the jump count in expectation
        assert within_sigma(est.mean, est.std_error, 3.0)


class TestRunningMoments:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(blocks=st.lists(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40), min_size=2, max_size=8),
           offset=st.floats(-1e8, 1e8))
    @example(blocks=[[0.2], [0.2, 0.2]], offset=0.0)  # the reference's own mean leaves a residue
    @example(blocks=[[0.0], [9.344730811450746e-160]], offset=0.0)  # a variance in the subnormal range
    def test_matches_two_pass_over_concatenation(self, blocks, offset):
        acc = RunningMoments()
        for block in blocks:
            acc.add(offset + np.array(block))
        values = np.concatenate([offset + np.array(block) for block in blocks])
        n = values.size
        mean = values.mean()
        dev = values - mean
        var = float(dev @ dev) / (n - 1)
        excess = max(float(np.mean(dev**4)) - var * var, 0.0)
        scale = float(np.abs(values).max())  # the rounding unit of every mean, the reference's included
        tiny = np.finfo(float).tiny  # below it, squares round to a fixed absolute spacing
        assert acc.n == n
        assert acc.mean == pytest.approx(mean, rel=1e-13, abs=1e-13 * scale)
        assert acc.variance == pytest.approx(var, rel=1e-9, abs=(1e-13 * scale) ** 2 + tiny)
        assert acc.variance_se**2 * n == pytest.approx(excess, rel=1e-8,
                                                       abs=1e-8 * var * var + (1e-13 * scale) ** 4 + tiny)

    def test_constant_blocks_are_exact(self):
        acc = RunningMoments()
        for size in (1, 7, 4096):
            acc.add(np.full(size, 3.5))
        est = acc.estimate(9)
        assert (est.mean, est.std_error, est.n, est.seed) == (3.5, 0.0, 4104, 9)
        assert acc.variance == 0.0 and acc.variance_se == 0.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_rejected(self, bad):
        acc = RunningMoments()
        acc.add([1.0, 2.0])
        with pytest.raises(sampler.NonFiniteValueError, match="1 non-finite value.*at replicate 2"):
            acc.add([0.5, bad])


def _reference_jump_block(model, t, gen, size, transport):
    """The jump block as first written: ``j.atoms[idx]``, one expm per jump
    for a drift without an eigenbasis, and an ``np.add.at`` scatter."""
    j = model.jump
    counts = gen.poisson(j.rate * t, size=size)
    total = int(counts.sum())
    out = np.zeros((size, model.dim))
    if total == 0:
        return out
    ages = gen.uniform(0.0, t, size=total)
    if j.atoms is not None:
        idx = gen.choice(j.atoms.shape[0], size=total, p=j.probs)
        sizes = j.atoms[idx]
    else:
        sizes = np.atleast_2d(np.asarray(j.sampler(gen, total), dtype=float))
    if transport.diagonalizable:
        moved = transport.apply(ages, sizes)
    else:
        moved = np.empty_like(sizes)
        for i, (v, xi) in enumerate(zip(ages, sizes)):
            moved[i] = hl.linops.matrix_exponential(transport.drift, float(v)) @ xi
    np.add.at(out, np.repeat(np.arange(size), counts), moved)
    return out


def _jordan_drift(rng, dim):
    """One Jordan block: equal diagonal, nonzero superdiagonal."""
    a = np.triu(rng.normal(0.0, 0.3, size=(dim, dim)), k=2)
    return a + np.diag(rng.uniform(0.5, 1.5, size=dim - 1), k=1) - np.eye(dim)


def _jump_law_model(drift, rate, atoms=None, sampler_fn=None):
    d = drift.shape[0]
    jump = hl.CompoundPoissonSpec(rate=rate, atoms=atoms, sampler=sampler_fn)
    return OuLevyModel(drift_matrix=drift, noise_cov=np.eye(d), jump=jump)


def _jump_case(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    if name.startswith("atoms_d"):
        d = int(name[-1])
        return _jump_law_model(make_stable(rng, d), 3.0, atoms=rng.uniform(-1.2, 1.2, size=(3, d)))
    if name == "eigen_real":
        return _jump_law_model(np.array([[-1.0, 0.4], [0.1, -2.0]]), 2.5, atoms=[[1.0, -0.5], [0.2, 0.7]])
    if name == "eigen_complex":
        return _jump_law_model(np.array([[-1.0, 2.0], [-2.0, -1.0]]), 2.5, atoms=[[1.0, -0.5], [0.2, 0.7]])
    if name.startswith("jordan_d"):
        d = int(name[-1])
        return _jump_law_model(_jordan_drift(rng, d), 2.0, atoms=rng.uniform(-1.2, 1.2, size=(2, d)))
    if name == "sampler_law":
        return _jump_law_model(_jordan_drift(rng, 2), 2.0,
                               sampler_fn=lambda gen, size: gen.standard_normal((size, 2)))
    raise KeyError(name)


class TestJumpBlockBitwise:
    """The block-at-a-time jump transport reproduces the jump-by-jump
    reference bit for bit, from the same draws."""

    @pytest.mark.parametrize("name", ["atoms_d1", "atoms_d2", "atoms_d3", "eigen_real", "eigen_complex",
                                      "jordan_d2", "jordan_d3", "sampler_law"])
    def test_matches_reference(self, name):
        m = _jump_case(name)
        transport = sampler._jump_transport(m)
        assert transport.diagonalizable == (not name.startswith(("jordan", "sampler")))
        for seed in range(3):
            got = sampler._jump_block(m, 1.3, RngStream(seed, 0).generator(), 1000, transport)
            want = _reference_jump_block(m, 1.3, RngStream(seed, 0).generator(), 1000, transport)
            assert got.shape == want.shape == (1000, m.dim)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["atoms_d2", "jordan_d3"])
    def test_block_without_jumps(self, name):
        m = _jump_case(name)
        tiny = _jump_law_model(m.drift_matrix, 1e-12, atoms=m.jump.atoms)
        transport = sampler._jump_transport(tiny)
        got = sampler._jump_block(tiny, 1.0, RngStream(5, 0).generator(), 64, transport)
        want = _reference_jump_block(tiny, 1.0, RngStream(5, 0).generator(), 64, transport)
        assert np.array_equal(got, want) and not got.any()

    @pytest.mark.parametrize("name", ["atoms_d3", "jordan_d2"])
    def test_block_with_some_empty_replicates(self, name):
        m = _jump_case(name)
        sparse = _jump_law_model(m.drift_matrix, 0.5, atoms=m.jump.atoms)
        transport = sampler._jump_transport(sparse)
        got = sampler._jump_block(sparse, 1.0, RngStream(6, 0).generator(), 500, transport)
        want = _reference_jump_block(sparse, 1.0, RngStream(6, 0).generator(), 500, transport)
        empty = ~got.any(axis=1)
        assert 0 < empty.sum() < 500
        assert np.array_equal(got, want)

    def test_large_jordan_drift_is_chunked(self, monkeypatch):
        d = 40
        m = _jump_law_model(_jordan_drift(np.random.default_rng(40), d), 30.0,
                            atoms=np.random.default_rng(41).uniform(-1.0, 1.0, size=(2, d)))
        budget = sampler._EXPM_STACK_BYTES // (8 * d * d)
        stacks = []
        stacked = hl.linops.matrix_exponentials

        def counted(a, times):
            stacks.append(len(times))
            return stacked(a, times)

        monkeypatch.setattr(hl.linops, "matrix_exponentials", counted)
        transport = sampler._jump_transport(m)
        assert not transport.diagonalizable
        got = sampler._jump_block(m, 1.0, RngStream(7, 0).generator(), 64, transport)
        want = _reference_jump_block(m, 1.0, RngStream(7, 0).generator(), 64, transport)
        assert np.array_equal(got, want)
        assert len(stacks) >= 2 and max(stacks) <= budget
        assert sum(stacks) > budget


class TestSamplerStateMemo:
    """Sampler state is built once per model and shared by later calls."""

    def test_jump_transport_built_once(self, monkeypatch):
        m = _jump_case("eigen_real")
        built = []
        build = sampler._build_jump_transport
        monkeypatch.setattr(sampler, "_build_jump_transport", lambda a: built.append(a) or build(a))
        first = sampler._jump_transport(m)
        hl.estimate_semigroup(m, 1.0, [0.0, 0.0], lambda pts: pts[:, 0], 200, 1)
        hl.estimate_semigroup(m, 0.5, [0.1, 0.0], lambda pts: pts[:, 1], 200, 2)
        hl.sample_ou_endpoint(m, 0.5, [0.0, 0.0], RngStream(3, 0))
        assert sampler._jump_transport(m) is first
        assert len(built) == 1

    def test_step_sampler_built_once(self, monkeypatch, scalar_model):
        from harnacklab.testfuncs import drift_scaled_sine

        built = []
        build = sampler._build_step_sampler
        monkeypatch.setattr(sampler, "_build_step_sampler", lambda m, delta: built.append(delta) or build(m, delta))
        spec = drift_scaled_sine(scalar_model, 0.3)
        for seed in (1, 2):
            hl.semilinear_estimate(scalar_model, spec, 0.8, [0.2], ExpObservable([0.3]), 200, 16, seed)
        sampler.semilinear_rho_moments(scalar_model, spec, 0.8, [0.2], [2.0], 200, 16, 3)
        delta = 0.8 / 16
        assert sampler._step_sampler(scalar_model, delta) is sampler._step_sampler(scalar_model, np.float64(delta))
        assert delta in built and len(built) == len(set(built))

    def test_sampler_state_refers_only_to_arrays(self):
        import gc
        import weakref

        m = _jump_case("jordan_d2")
        hl.estimate_semigroup(m, 1.0, [0.0, 0.0], lambda pts: pts[:, 0], 200, 1)
        sampler._step_sampler(m, 0.1)
        ref = weakref.ref(m)
        gc.disable()
        try:
            del m
            assert ref() is None
        finally:
            gc.enable()


class TestWaPath:
    def test_zero_noise_path_is_zero(self):
        m = OuLevyModel(drift_matrix=[[-1.0]], noise_cov=[[0.0]])
        path = wa_path(m, np.linspace(0.0, 1.0, 9), RngStream(0, 1))
        assert np.allclose(path, 0.0)

    def test_marginal_variance(self, scalar_model):
        t = 1.0
        grid = np.linspace(0.0, t, 5)
        n = 20_000
        finals = np.array([wa_path(scalar_model, grid, RngStream(55, i))[-1, 0] for i in range(n)])
        target = scalar_model.snapshot(t).gramian[0, 0]
        var = finals.var(ddof=1)
        se = target * np.sqrt(2.0 / (n - 1))
        assert abs(var - target) <= 4.0 * se

    def test_refined_grids_same_marginal_law(self, scalar_model):
        t, n = 0.8, 4_000
        coarse = np.array([wa_path(scalar_model, np.linspace(0, t, 5), RngStream(56, i))[-1, 0] for i in range(n)])
        fine = np.array([wa_path(scalar_model, np.linspace(0, t, 17), RngStream(57, i))[-1, 0] for i in range(n)])
        assert scipy.stats.ks_2samp(coarse, fine).pvalue > 0.01

    def test_bad_grid_rejected(self, scalar_model):
        with pytest.raises(ValueError):
            wa_path(scalar_model, [0.5, 1.0], RngStream(0, 0))


class TestGirsanovWeight:
    def test_zero_control_gives_unit_weight(self, flat_model):
        grid = np.linspace(0.0, 1.0, 11)
        inc = np.ones((10, 1)) * 0.1
        w = girsanov_weight(flat_model, grid, inc, np.zeros((10, 1)))
        assert w.rho == 1.0
        assert w.integral_psi_sq == 0.0

    def test_length_mismatch_rejected(self, flat_model):
        with pytest.raises(ValueError):
            girsanov_weight(flat_model, np.linspace(0, 1, 11), np.zeros((9, 1)), np.zeros((10, 1)))

    def test_martingale_mean_one(self, flat_model):
        ests = girsanov_functional_estimates(
            flat_model, 1.0, np.array([[1.0]]), 128, 100_000, 201,
            {"rho": lambda lr: np.exp(lr)},
        )
        assert within_sigma(ests["rho"].mean, ests["rho"].std_error, 1.0)

    def test_martingale_exact_at_any_resolution(self, flat_model):
        # the discrete compensator makes the weight exactly mean-one, so the
        # deviation stays within Monte Carlo noise at every grid resolution
        for k in (16, 64, 256):
            ests = girsanov_functional_estimates(
                flat_model, 1.0, lambda s: np.array([0.8 * np.cos(s)]), k, 40_000, 202,
                {"rho": lambda lr: np.exp(lr)},
            )
            assert within_sigma(ests["rho"].mean, ests["rho"].std_error, 1.0)

    def test_power_moment_identity(self, flat_model):
        # constant unit control on [0,1]: E rho^2 = e, E (rho-1)^2 = e - 1
        ests = girsanov_functional_estimates(
            flat_model, 1.0, np.array([[1.0]]), 128, 100_000, 203,
            {"sq": lambda lr: np.exp(2.0 * lr), "centered": lambda lr: (np.exp(lr) - 1.0) ** 2},
        )
        assert within_sigma(ests["sq"].mean, ests["sq"].std_error, np.e)
        assert within_sigma(ests["centered"].mean, ests["centered"].std_error, np.e - 1.0)

    def test_single_path_fold_matches_direct_sum(self, scalar_model):
        rng = np.random.default_rng(58)
        grid = np.linspace(0.0, 1.0, 9)
        inc = rng.normal(size=(8, 1)) * np.sqrt(np.diff(grid))[:, None]
        u = rng.normal(size=(8, 1))
        w = girsanov_weight(scalar_model, grid, inc, u)
        expected = float(np.sum(u * inc)) - 0.5 * float(np.sum(u**2 * np.diff(grid)[:, None]))
        assert w.log_rho == pytest.approx(expected, rel=1e-12)


class TestCoupledPair:
    def test_same_point_gives_unit_weight(self, scalar_model):
        endpoint, weight = hl.sample_coupled_pair(scalar_model, 1.0, [0.4], [0.4], 32, RngStream(59, 0))
        assert weight.rho == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(endpoint).all()

    def test_reweighted_endpoint_reproduces_other_start(self, flat_model):
        c, t = 0.5, 1.0
        x, y = [0.7], [0.0]
        est = coupled_expectation(flat_model, t, x, y,
                                  lambda rho, pts: rho * np.exp(c * pts[:, 0]), 100_000, 64, 204)
        target = analytic.mehler_exponential(flat_model, t, [c], x)
        assert within_sigma(est.mean, est.std_error, target)

    def test_weight_second_moment_identity(self, flat_model):
        t, x, y = 1.0, [0.8], [0.0]
        ctrl = hl.min_energy_control(flat_model, t, np.array(y) - np.array(x), 64)
        est = coupled_expectation(flat_model, t, x, y, lambda rho, pts: (rho - 1.0) ** 2, 100_000, 64, 205)
        assert within_sigma(est.mean, est.std_error, np.exp(ctrl.energy) - 1.0)

    def test_transformed_measure_for_several_observables(self, scalar_model):
        t, x, y = 0.9, [0.6], [-0.2]
        for tag, f in enumerate((lambda z: np.tanh(z), lambda z: (z > 0).astype(float),
                                 lambda z: 1.0 / (1.0 + z * z))):
            est = coupled_expectation(scalar_model, t, x, y,
                                      lambda rho, pts, f=f: rho * f(pts[:, 0]), 60_000, 64, 206 + tag)
            direct = hl.estimate_semigroup(scalar_model, t, x, lambda pts, f=f: f(pts[:, 0]), 60_000, 306 + tag)
            sigma = np.hypot(est.std_error, direct.std_error)
            assert abs(est.mean - direct.mean) <= 4.0 * sigma

    def test_jump_model_coupling(self, jump_model):
        t, x, y = 0.8, [0.5], [0.0]
        f = lambda z: np.minimum(np.exp(0.4 * z), 5.0)
        est = coupled_expectation(jump_model, t, x, y, lambda rho, pts: rho * f(pts[:, 0]), 60_000, 64, 208)
        direct = hl.estimate_semigroup(jump_model, t, x, lambda pts: f(pts[:, 0]), 60_000, 308)
        assert abs(est.mean - direct.mean) <= 4.0 * np.hypot(est.std_error, direct.std_error)

    def test_nonnormal_plane_coupling_closed_form(self, nonnormal_model):
        # cross-covariance of the weight and the convolution is exact, so the
        # reweighted estimate matches the exponential closed form
        t, x, y = 0.8, np.array([0.6, -0.3]), np.array([-0.1, 0.2])
        c = np.array([0.4, -0.2])
        est = coupled_expectation(nonnormal_model, t, x, y,
                                  lambda rho, pts: rho * np.exp(pts @ c), 100_000, 64, 215)
        target = analytic.mehler_exponential(nonnormal_model, t, c, x)
        assert within_sigma(est.mean, est.std_error, target)

    def test_unreachable_difference_rejected(self):
        m = OuLevyModel(drift_matrix=np.zeros((2, 2)), noise_cov=np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="domain"):
            hl.sample_coupled_pair(m, 1.0, [0.0, 1.0], [0.0, 0.0], 16, RngStream(0, 0))

    def test_identity_residual_of_construction(self, scalar_model):
        # the coupled endpoints differ by the steered state, which must vanish
        x, y = np.array([0.9]), np.array([-0.3])
        ctrl = hl.min_energy_control(scalar_model, 1.0, y - x, 64)
        assert ctrl.terminal_residual <= 1e-8 * (1.0 + np.linalg.norm(y - x))


class TestSemilinear:
    def test_zero_drift_matches_plain_semigroup(self, scalar_model):
        f = ExpObservable([0.4])
        est = hl.semilinear_estimate(scalar_model, drift_zero(1), 1.0, [0.3], f, 40_000, 64, 209)
        plain = hl.estimate_semigroup(scalar_model, 1.0, [0.3], f, 40_000, 309)
        assert abs(est.mean - plain.mean) <= 4.0 * np.hypot(est.std_error, plain.std_error)

    def test_constant_drift_closed_form(self, scalar_model):
        b = np.array([0.4])
        spec = drift_constant(scalar_model, scalar_model.noise_cov @ b)
        f = ExpObservable([0.5])
        est = hl.semilinear_estimate(scalar_model, spec, 1.0, [0.3], f, 100_000, 256, 210)
        shifted = OuLevyModel(drift_matrix=scalar_model.drift_matrix,
                              noise_cov=scalar_model.noise_cov,
                              drift_offset=scalar_model.noise_cov @ b)
        target = analytic.mehler_exponential(shifted, 1.0, [0.5], [0.3])
        assert within_sigma(est.mean, est.std_error, target)

    def test_weight_is_probability_density(self, scalar_model):
        from harnacklab.testfuncs import drift_scaled_sine

        spec = drift_scaled_sine(scalar_model, 0.5)
        est = hl.semilinear_estimate(scalar_model, spec, 1.0, [0.3], ConstantObservable(1.0), 100_000, 128, 211)
        assert within_sigma(est.mean, est.std_error, 1.0)

    def test_plane_model_weight_is_probability_density(self, nonnormal_model):
        from harnacklab.testfuncs import drift_clipped_linear

        spec = drift_clipped_linear(nonnormal_model, 0.4)
        est = hl.semilinear_estimate(nonnormal_model, spec, 0.8, [0.3, -0.2],
                                     ConstantObservable(1.0), 60_000, 128, 216)
        assert within_sigma(est.mean, est.std_error, 1.0)

    def test_out_of_range_drift_aborts(self):
        from harnacklab.model import SemilinearSpec

        m = OuLevyModel(drift_matrix=np.diag([-1.0, -1.0]), noise_cov=np.diag([1.0, 0.0]))
        bad = SemilinearSpec(drift_fn=lambda pts: np.broadcast_to([0.0, 1.0], np.atleast_2d(pts).shape).copy(),
                             k1=2.0, k2=0.0)
        with pytest.raises(RuntimeError, match="range"):
            hl.semilinear_estimate(m, bad, 1.0, [0.0, 0.0], ConstantObservable(1.0), 200, 8, 0)

    def test_drift_leaving_the_range_mid_path_aborts(self):
        # F(x) = (0, x_1) is in the range of R^(1/2) = diag(1, 0) only at x_1 = 0,
        # which the path leaves after its first step
        m = OuLevyModel(drift_matrix=np.diag([-1.0, -1.0]), noise_cov=np.diag([1.0, 0.0]))
        spec = hl.SemilinearSpec(drift_fn=lambda pts: np.stack([np.zeros(len(pts)), pts[:, 0]], axis=1),
                                 k1=1.0, k2=1.0)
        with pytest.raises(RuntimeError, match="range"):
            hl.semilinear_estimate(m, spec, 1.0, [0.0, 0.0], ConstantObservable(1.0), 200, 8, 0)

    def test_nonzero_offset_rejected(self):
        m = OuLevyModel(drift_matrix=[[-1.0]], noise_cov=[[1.0]], drift_offset=[0.5])
        with pytest.raises(ValueError, match="offset"):
            hl.semilinear_estimate(m, drift_zero(1), 1.0, [0.0], ConstantObservable(1.0), 200, 8, 0)

    def test_jump_model_rejected(self, jump_model):
        with pytest.raises(ValueError, match="jump"):
            hl.semilinear_estimate(jump_model, drift_zero(1), 1.0, [0.0], ConstantObservable(1.0), 200, 8, 0)

    def test_bitwise_reproducibility(self, scalar_model):
        from harnacklab.testfuncs import drift_scaled_sine

        spec = drift_scaled_sine(scalar_model, 0.3)
        a = hl.semilinear_estimate(scalar_model, spec, 0.8, [0.2], ExpObservable([0.3]), 10_000, 32, 212)
        b = hl.semilinear_estimate(scalar_model, spec, 0.8, [0.2], ExpObservable([0.3]), 10_000, 32, 212)
        assert a == b

    def test_off_mean_weights_take_one_pass(self, scalar_model, monkeypatch):
        # every weight is 2, far from mean one: the estimate still makes one
        # pass on the requested grid and reports what that pass saw
        grids = []

        def blocks(model, spec, t, x, K, seed, n):
            grids.append(K)
            yield np.zeros((n, 1)), np.full(n, np.log(2.0))

        monkeypatch.setattr(sampler, "_semilinear_blocks", blocks)
        est = hl.semilinear_estimate(scalar_model, drift_zero(1), 1.0, [0.0], ConstantObservable(1.0), 200, 16, 0)
        assert grids == [16]
        assert est.mean == pytest.approx(2.0, rel=1e-15) and est.n == 200
