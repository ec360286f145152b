import math
import os
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import harnacklab as hl
from harnacklab import OuLevyModel, analytic, sampler
from harnacklab.sampler import (
    GirsanovWeight,
    McEstimate,
    RngStream,
    girsanov_functional_estimates,
    girsanov_weight,
)
from harnacklab.testfuncs import (
    ClippedExpObservable,
    ConstantObservable,
    ExpObservable,
    IndicatorObservable,
    TanhObservable,
    drift_clipped_linear,
    drift_constant,
    drift_scaled_sine,
    drift_zero,
)
from oracles import hard_drift, make_psd, make_stable, within_sigma


def coupled_expectation(model, t, x, y, g, n, K, seed):
    """Monte Carlo mean of ``g(rho, endpoint)`` over coupled-pair replicates."""
    blocks = sampler._coupled_blocks(model, t, x, y, K, sampler._stream_blocks(seed, n))
    return sampler.fold(np.reshape(g(np.exp(log_rho), ends), (1, -1)) for ends, log_rho, _ in blocks).estimate(0, seed)


def count_normals(monkeypatch):
    """Wrap `RngStream.generator` so that each ``standard_normal`` call appends
    its draw count to the returned list."""
    drawn = []
    open_stream = RngStream.generator

    class Counting:
        def __init__(self, gen):
            self._gen = gen

        def __getattr__(self, name):
            draw = getattr(self._gen, name)
            if name != "standard_normal":
                return draw

            def counted(*args, **kwargs):
                out = draw(*args, **kwargs)
                drawn.append(out.size)
                return out

            return counted

    monkeypatch.setattr(RngStream, "generator", lambda stream: Counting(open_stream(stream)))
    return drawn


class TestRngStream:
    def test_identical_keys_identical_draws(self):
        a = RngStream(123, 7).generator().standard_normal(5)
        b = RngStream(123, 7).generator().standard_normal(5)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 7).generator().standard_normal(5)
        b = RngStream(123, 8).generator().standard_normal(5)
        assert not np.array_equal(a, b)


class TestBlockLadder:
    """Endpoint blocks form a doubling ladder from ``MC_FIRST_BLOCK`` up to
    ``MC_BLOCK``; path blocks keep ``MC_BLOCK`` each.  Block ``b`` draws from
    stream ``b`` in both layouts."""

    NS = [100, 1023, 1024, 3000, 4097, 20_000]

    @pytest.mark.parametrize("n", NS)
    def test_block_sizes_sum_to_n(self, n):
        sizes = [size for _, size in sampler._stream_blocks(5, n, sampler.MC_FIRST_BLOCK)]
        ladder = [1024, 1024, 2048] + [sampler.MC_BLOCK] * len(sizes)
        assert sum(sizes) == n
        assert sizes[:-1] == ladder[:len(sizes) - 1]  # only the last block is cut to the cap
        assert 0 < sizes[-1] <= ladder[len(sizes) - 1]

    @pytest.mark.parametrize("n", NS)
    def test_the_control_variate_ladder_starts_at_128(self, n):
        sizes = [size for _, size in sampler._stream_blocks(5, n, sampler.PATH_FIRST_BLOCK)]
        ladder = [128, 128, 256, 512, 1024, 2048] + [sampler.MC_BLOCK] * len(sizes)
        assert sum(sizes) == n and sampler.PATH_FIRST_BLOCK == 128
        assert sizes[:-1] == ladder[:len(sizes) - 1]
        assert 0 < sizes[-1] <= ladder[len(sizes) - 1]

    @pytest.mark.parametrize("first", [sampler.MC_FIRST_BLOCK, sampler.MC_BLOCK], ids=["ladder", "path"])
    @pytest.mark.parametrize("n", NS)
    def test_block_b_comes_from_stream_b(self, n, first):
        for b, (gen, _) in enumerate(sampler._stream_blocks(9, n, first)):
            assert np.array_equal(gen.standard_normal(3), RngStream(9, b).generator().standard_normal(3))

    @pytest.mark.parametrize("n", NS)
    def test_path_layout_is_whole_mc_blocks(self, n):
        assert [size for _, size in sampler._stream_blocks(9, n)] == [min(sampler.MC_BLOCK, n - done)
                                                                       for done in range(0, n, sampler.MC_BLOCK)]

    def test_a_decided_jump_row_draws_one_first_block(self, monkeypatch):
        # margin about 14 joint errors at the first look: the row stops there,
        # having drawn one normal per replicate and dimension
        m = OuLevyModel(drift_matrix=[[-1.0, 0.5], [0.0, -1.5]], noise_cov=np.eye(2),
                        jump=hl.CompoundPoissonSpec(rate=2.0, atoms=[[1.0, 0.0], [0.0, -1.0]]))
        drawn = count_normals(monkeypatch)
        rep = hl.verify.check_harnack(m, 1.0, [1.5, 0.5], [0.0, 0.0], 2.0, ClippedExpObservable([0.5, 0.3], 10.0),
                                      n=20_000, seed=0)
        assert (rep.verdict, rep.params["n_used"]) == (hl.verify.HOLDS, sampler.MC_FIRST_BLOCK)
        assert sum(drawn) == sampler.MC_FIRST_BLOCK * m.dim


class TestEndpointSampling:
    def test_noiseless_is_deterministic(self):
        m = OuLevyModel(drift_matrix=[[-1.0]], noise_cov=[[0.0]])
        est = hl.estimate_semigroup(m, 2.0, [3.0], lambda pts: pts[:, 0], 200, 0)
        # 200 equal endpoints: their mean is the endpoint bit for bit, with no spread
        assert est.mean == (m.snapshot(2.0).propagator @ [3.0])[0]
        assert est.std_error == 0.0

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

    def test_asymmetric_jump_mean_and_variance(self):
        # A=-1: jumps of mean 2 and second moment 5 at rate 2 add rate E xi (1 - e^{-t}) to the
        # mean and rate E xi^2 int_0^t e^{-2s} ds to the variance
        m = OuLevyModel(drift_matrix=[[-1.0]], noise_cov=[[2.0]],
                        jump=hl.CompoundPoissonSpec(rate=2.0, atoms=[[1.0], [3.0]]))
        t, x = 0.7, 0.5
        mean = np.exp(-t) * x + 2.0 * 2.0 * (1.0 - np.exp(-t))
        var = (1.0 - np.exp(-2.0 * t)) + 2.0 * 5.0 * (1.0 - np.exp(-2.0 * t)) / 2.0
        est_m = hl.estimate_semigroup(m, t, [x], lambda pts: pts[:, 0], 100_000, 107)
        assert within_sigma(est_m.mean, est_m.std_error, mean)
        est_v = hl.estimate_semigroup(m, t, [x], lambda pts: (pts[:, 0] - mean) ** 2, 100_000, 108)
        assert within_sigma(est_v.mean, est_v.std_error, var)

    def test_null_atom_never_drawn(self):
        # each drawn atom 1 moves to at most 1, each atom 100 to at least 100 e^{-1}; no noise
        # but the jumps, and P(Poisson(5) > 30) is about 1e-13
        m = OuLevyModel(drift_matrix=[[-1.0]], noise_cov=[[0.0]],
                        jump=hl.CompoundPoissonSpec(rate=5.0, atoms=[[1.0], [100.0]], probs=[1.0, 0.0]))
        blocks = list(sampler.endpoint_values(m, 1.0, [[0.0]], [lambda pts: pts[:, 0]], 20_000, 109))
        assert sum(b.shape[1] for b in blocks) == 20_000
        assert max(b.max() for b in blocks) < 30.0

    def test_starts_share_every_draw(self):
        # common random numbers: the endpoints from x and y differ by e^{tA} (x - y) in every draw
        m = OuLevyModel(drift_matrix=[[-1.0, 0.4], [0.0, -0.6]], noise_cov=np.eye(2), drift_offset=[0.2, -0.1],
                        jump=hl.CompoundPoissonSpec(rate=3.0, atoms=[[1.0, -0.5], [-0.3, 0.8]]))
        t, x, y = 0.9, np.array([0.7, -0.2]), np.array([-0.4, 0.5])
        shift = m.snapshot(t).propagator @ (x - y)
        fs = [lambda pts: pts[:, 0], lambda pts: pts[:, 1], lambda pts: pts[:, 0], lambda pts: pts[:, 1]]
        for block in sampler.endpoint_values(m, t, [x, x, y, y], fs, 5000, 110):
            assert np.abs(block[0] - block[2] - shift[0]).max() <= 1e-12
            assert np.abs(block[1] - block[3] - shift[1]).max() <= 1e-12

    def test_endpoint_law_exact_mean_cov(self):
        rng = np.random.default_rng(51)
        m = OuLevyModel(drift_matrix=make_stable(rng, 2), noise_cov=make_psd(rng, 2, ridge=0.3),
                        drift_offset=rng.normal(size=2))
        t, x = 0.8, np.array([0.7, -0.2])
        snap = m.snapshot(t)
        target_mean = snap.propagator @ x + snap.mean_shift
        n = 100_000
        # one column per coordinate, both from the one start x
        acc = sampler.fold(sampler.endpoint_values(m, t, [x, x], [lambda pts: pts[:, 0], lambda pts: pts[:, 1]],
                                                   n, 104))
        mean, cov = acc.mean, acc.comoment / n
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
    """One column of `sampler.Moments`: the running count, mean and variance."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(blocks=st.lists(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40), min_size=2, max_size=8),
           offset=st.floats(-1e8, 1e8))
    @example(blocks=[[0.2], [0.2, 0.2]], offset=0.0)  # the reference's own mean leaves a residue
    @example(blocks=[[0.0], [9.344730811450746e-160]], offset=0.0)  # a variance in the subnormal range
    def test_matches_two_pass_over_concatenation(self, blocks, offset):
        acc = sampler.fold([offset + np.array(block)] for block in blocks)
        values = np.concatenate([offset + np.array(block) for block in blocks])
        n = values.size
        mean = values.mean()
        dev = values - mean
        var = float(dev @ dev) / (n - 1)
        scale = float(np.abs(values).max())  # the rounding unit of every mean, the reference's included
        tiny = np.finfo(float).tiny  # below it, squares round to a fixed absolute spacing
        assert acc.n == n
        assert acc.mean[0] == pytest.approx(mean, rel=1e-13, abs=1e-13 * scale)
        assert acc.comoment[0, 0] / (n - 1) == pytest.approx(var, rel=1e-9, abs=(1e-13 * scale) ** 2 + tiny)

    def test_constant_blocks_are_exact(self):
        acc = sampler.fold(np.full((1, size), 3.5) for size in (1, 7, 4096))
        est = acc.estimate(0, 9)
        assert (est.mean, est.std_error, est.n, est.seed) == (3.5, 0.0, 4104, 9)
        assert acc.comoment[0, 0] == 0.0 and acc.delta_se([1.0]) == 0.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_value_rejected(self, bad):
        acc = sampler.Moments(1)
        acc.add([[1.0, 2.0]])
        with pytest.raises(sampler.NonFiniteValueError, match="1 non-finite value.*at replicate 2"):
            acc.add([[0.5, bad]])


class TestPairedMoments:
    """Two columns of `sampler.Moments`: paired values and their co-moment."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(blocks=st.lists(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=40),
                           min_size=2, max_size=8),
           offset=st.floats(-1e8, 1e8))
    def test_matches_two_pass_over_concatenation(self, blocks, offset):
        def shifted(block):
            xs, ys = np.array(block).T
            return np.stack([offset + xs, ys - offset])

        acc = sampler.fold(map(shifted, blocks))
        xs, ys = np.concatenate([shifted(block) for block in blocks], axis=1)
        dx, dy = xs - xs.mean(), ys - ys.mean()
        # each column is bitwise the column folded alone; the co-moment is the two-pass one
        for i, values in enumerate((xs, ys)):
            alone = sampler.fold(np.split(values[None], np.cumsum([len(b) for b in blocks])[:-1], axis=1))
            assert (acc.n, acc.mean[i], acc.comoment[i, i]) == (alone.n, alone.mean[0], alone.comoment[0, 0])
        # rounding of the means moves each product by about its rounding unit
        # times the other side's spread, so the tolerance scales with the
        # Cauchy-Schwarz bound sqrt(Sxx Syy), not with the co-moment itself
        bound = math.sqrt(float(dx @ dx) * float(dy @ dy))
        scale = max(float(np.abs(xs).max()), float(np.abs(ys).max()))
        assert acc.comoment[0, 1] == pytest.approx(float(dx @ dy), rel=1e-9,
                                                   abs=1e-9 * bound + xs.size * (1e-13 * scale) ** 2)
        if bound > 0.0:
            corr = acc.comoment[0, 1] / math.sqrt(acc.comoment[0, 0] * acc.comoment[1, 1])
            assert corr == pytest.approx(float(dx @ dy) / bound, abs=1e-7)

    def test_constant_side_has_zero_correlation(self):
        acc = sampler.fold([[[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]]])
        assert acc.comoment[0, 1] == 0.0
        # a constant column adds nothing to a delta-method error, whatever its coefficient
        assert acc.delta_se([1.0, math.inf]) == pytest.approx(acc.std_error(0), rel=1e-15)

    def test_block_sizes_must_match(self):
        with pytest.raises(ValueError):
            sampler.fold([np.ones((2, 3)), np.ones((3, 3))])

    def test_endpoint_pair_marginals_are_the_one_point_estimates(self, jump_model):
        f, g = ClippedExpObservable([0.5], 10.0), ClippedExpObservable([1.0], 100.0)
        acc = sampler.fold(sampler.endpoint_values(jump_model, 1.0, [[0.6], [0.0]], [f, g], 5000, 21))
        assert acc.estimate(0, 21) == hl.estimate_semigroup(jump_model, 1.0, [0.6], f, 5000, 21)
        assert acc.estimate(1, 21) == hl.estimate_semigroup(jump_model, 1.0, [0.0], g, 5000, 21)
        assert 0.5 < acc.comoment[0, 1] / math.sqrt(acc.comoment[0, 0] * acc.comoment[1, 1]) < 1.0

    @pytest.mark.parametrize("plane", [False, True])
    def test_semilinear_pair_marginals_are_the_one_point_estimates(self, scalar_model, nonnormal_model, plane):
        from harnacklab.testfuncs import drift_clipped_linear, drift_scaled_sine

        if plane:
            m, spec, x, y = nonnormal_model, drift_clipped_linear(nonnormal_model, 0.4), [0.2, 0.1], [-0.4, 0.3]
        else:
            m, spec, x, y = scalar_model, drift_scaled_sine(scalar_model, 0.5), [0.2], [-0.4]
        f, g = ExpObservable(np.full(m.dim, 0.3)), ExpObservable(np.full(m.dim, 0.6))
        acc = sampler.fold(sampler.semilinear_values(m, spec, 0.8, [x, y], [f, g], 5000, 16, 7))
        assert acc.estimate(0, 7) == hl.semilinear_estimate(m, spec, 0.8, x, f, 5000, 16, 7)
        assert acc.estimate(1, 7) == hl.semilinear_estimate(m, spec, 0.8, y, g, 5000, 16, 7)


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
    idx = gen.choice(j.atoms.shape[0], size=total, p=j.probs)
    sizes = j.atoms[idx]
    if isinstance(transport, sampler._EigenTransport):
        moved = transport.apply(ages, sizes)
    else:
        moved = np.empty_like(sizes)
        for i, (v, xi) in enumerate(zip(ages, sizes)):
            moved[i] = hl.linops.matrix_exponential(model.drift_matrix, float(v)) @ xi
    np.add.at(out, np.repeat(np.arange(size), counts), moved)
    return out


class _NormSums:
    """Stands in for a transport: it moves each jump to its norm, so that a
    jump block holds the sum of the jump norms of each replicate."""

    def apply(self, ages, sizes):
        return np.repeat(np.linalg.norm(sizes, axis=1)[:, None], sizes.shape[1], axis=1)


def _assert_matches_reference(m, t, seed, size):
    """The jump block against the jump-by-jump reference, from the same draws:
    bitwise in the eigenbasis, and for the interpolant within its certified
    bound times the sum of the jump norms of each replicate."""
    transport = sampler._jump_transport(m, t)
    got = sampler._jump_block(m, t, RngStream(seed, 0).generator(), size, transport)
    want = _reference_jump_block(m, t, RngStream(seed, 0).generator(), size, transport)
    assert got.shape == want.shape == (size, m.dim)
    if isinstance(transport, sampler._EigenTransport):
        assert np.array_equal(got, want)
    else:
        norm_sums = sampler._jump_block(m, t, RngStream(seed, 0).generator(), size, _NormSums())[:, 0]
        assert (np.linalg.norm(got - want, axis=1) <= transport.bound * norm_sums).all()
    return got


def _jordan_drift(rng, dim):
    """One Jordan block: equal diagonal, nonzero superdiagonal."""
    a = np.triu(rng.normal(0.0, 0.3, size=(dim, dim)), k=2)
    return a + np.diag(rng.uniform(0.5, 1.5, size=dim - 1), k=1) - np.eye(dim)


def _jump_law_model(drift, rate, atoms):
    d = drift.shape[0]
    jump = hl.CompoundPoissonSpec(rate=rate, atoms=atoms)
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
    raise KeyError(name)


class TestJumpBlockBitwise:
    """The block-at-a-time jump transport reproduces the jump-by-jump
    reference from the same draws: bit for bit in the eigenbasis, and within
    the certified bound of the interpolant for a drift without one."""

    @pytest.mark.parametrize("name", ["atoms_d1", "atoms_d2", "atoms_d3", "eigen_real", "eigen_complex",
                                      "jordan_d2", "jordan_d3"])
    def test_matches_reference(self, name):
        m = _jump_case(name)
        transport = sampler._jump_transport(m, 1.3)
        assert isinstance(transport, sampler._EigenTransport) == (not name.startswith("jordan"))
        for seed in range(3):
            _assert_matches_reference(m, 1.3, seed, 1000)

    @pytest.mark.parametrize("name", ["atoms_d2", "jordan_d3"])
    def test_block_without_jumps(self, name):
        m = _jump_case(name)
        tiny = _jump_law_model(m.drift_matrix, 1e-12, atoms=m.jump.atoms)
        assert not _assert_matches_reference(tiny, 1.0, 5, 64).any()

    @pytest.mark.parametrize("name", ["atoms_d3", "jordan_d2"])
    def test_block_with_some_empty_replicates(self, name):
        m = _jump_case(name)
        sparse = _jump_law_model(m.drift_matrix, 0.5, atoms=m.jump.atoms)
        empty = ~_assert_matches_reference(sparse, 1.0, 6, 500).any(axis=1)
        assert 0 < empty.sum() < 500


class TestSamplerStateMemo:
    """Sampler state is built once per model and shared by later calls."""

    def test_jump_transport_built_once(self, monkeypatch):
        """One eigen-decomposition per model, and one interpolant per (model, t)
        for a drift without a well-conditioned eigenbasis."""
        eigen, interpolants = [], []
        build_eigen, build_interpolant = sampler._eigen_transport, hl.linops.exp_interpolant
        monkeypatch.setattr(sampler, "_eigen_transport", lambda a: eigen.append(a) or build_eigen(a))
        monkeypatch.setattr(hl.linops, "exp_interpolant",
                            lambda a, t: interpolants.append(t) or build_interpolant(a, t))
        for name in ("eigen_real", "jordan_d3"):
            m = _jump_case(name)
            eigen.clear()
            interpolants.clear()
            first = sampler._jump_transport(m, 1.0)
            hl.estimate_semigroup(m, 1.0, np.zeros(m.dim), lambda pts: pts[:, 0], 200, 1)
            hl.estimate_semigroup(m, 0.5, np.full(m.dim, 0.1), lambda pts: pts[:, 1], 200, 2)
            assert sampler._jump_transport(m, np.float64(1.0)) is first
            assert len(eigen) == 1
            assert interpolants == ([] if name == "eigen_real" else [1.0, 0.5])

    def test_step_sampler_built_once(self, monkeypatch, scalar_model):
        from harnacklab.testfuncs import drift_scaled_sine

        built = []
        build = sampler._build_step_sampler
        monkeypatch.setattr(sampler, "_build_step_sampler",
                            lambda m, delta, weighted: built.append((delta, weighted)) or build(m, delta, weighted))
        spec = drift_scaled_sine(scalar_model, 0.3)
        for seed in (1, 2):
            hl.semilinear_estimate(scalar_model, spec, 0.8, [0.2], ExpObservable([0.3]), 200, 16, seed)
            list(sampler.semilinear_rho_moments(scalar_model, spec, 0.8, [0.2], [2.0], 200, 16, 3))
        delta = 0.8 / 16
        for weighted in (False, True):
            step = sampler._step_sampler(scalar_model, delta, weighted)
            assert step is sampler._step_sampler(scalar_model, np.float64(delta), weighted)
        assert built == [(delta, False), (delta, True)]  # one drift step and one weighted step, each built once

    def test_a_step_builds_only_the_factors_its_mode_reads(self, monkeypatch):
        """A drift step takes the snapshot's expm and the one of ``B``, and the
        snapshot's Gramian root; a weighted step adds the expm of ``C`` and the
        root of ``delta I - V'V`` instead of ``B``.  The two steps share the
        snapshot, so their propagators and roots are equal."""
        from harnacklab import linops
        from harnacklab.testfuncs import drift_scaled_sine

        m = OuLevyModel(drift_matrix=[[-1.0]], noise_cov=[[2.0]])
        spec = drift_scaled_sine(m, 0.3)
        calls = {"_expm": 0, "psd_sqrt_pinv": 0}
        for name in calls:
            def counting(*args, _f=getattr(linops, name), _name=name, **kw):
                calls[_name] += 1
                return _f(*args, **kw)
            monkeypatch.setattr(linops, name, counting)
        hl.semilinear_estimate(m, spec, 1.0, [0.2], ExpObservable([0.3]), 200, 128, 1)
        assert calls == {"_expm": 2, "psd_sqrt_pinv": 1}
        drifted = sampler._step_sampler(m, 1.0 / 128, False)
        assert drifted.whiten_t is None and drifted.residual_t is None
        list(sampler.semilinear_rho_moments(m, spec, 1.0, [0.2], [2.0], 200, 128, 2))
        assert calls == {"_expm": 3, "psd_sqrt_pinv": 2}
        weighted = sampler._step_sampler(m, 1.0 / 128, True)
        assert weighted.drift_t is None
        assert np.array_equal(weighted.propagator_t, drifted.propagator_t)
        assert np.array_equal(weighted.innovation_t, drifted.innovation_t)

    def test_one_path_loop_per_call(self, monkeypatch, scalar_model):
        """Every path estimator steps through `_paths`, once per call and not
        once per block (5000 replicates are two blocks)."""
        from harnacklab.testfuncs import drift_scaled_sine

        entries = []
        loop = sampler._paths
        monkeypatch.setattr(sampler, "_paths", lambda *args, **kw: entries.append(args[3]) or loop(*args, **kw))
        spec = drift_scaled_sine(scalar_model, 0.3)
        f = ExpObservable([0.3])
        calls = {
            "girsanov_functional_estimates": lambda: girsanov_functional_estimates(
                scalar_model, 0.8, np.array([[1.0]]), 16, 5000, 1, {"rho": np.exp}),
            "sample_coupled_pair": lambda: hl.sample_coupled_pair(scalar_model, 0.8, [0.4], [0.0], 16, RngStream(2, 0)),
            "semilinear_values": lambda: list(sampler.semilinear_values(
                scalar_model, spec, 0.8, [[0.2], [0.1]], [f, f], 5000, 16, 3)),
            "semilinear_rho_moments": lambda: list(sampler.semilinear_rho_moments(
                scalar_model, spec, 0.8, [0.2], [2.0], 5000, 16, 4)),
        }
        for name, call in calls.items():
            entries.clear()
            call()
            assert entries == [16], name

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["defective", "stiff", "singular_noise", "uncontrollable"]),
           dim=st.integers(1, 6), delta=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_whitened_step_rebuilds_the_joint_covariance(self, kind, dim, delta, seed):
        """The step draws ``eta = G^{1/2} z`` and the Brownian increment is
        ``V' z + U zeta``: the implied covariance of ``(eta, dW)`` must be the
        step Gramian of the pair, ``[[G, C], [C', delta I]]``, which an
        independent short-step ``scipy.linalg.expm`` with doubling gives.  The
        ``z`` part alone must carry ``Cov(eta) = G`` and ``Cov(eta, V' z) = C``.
        The drifts keep the step Gramian's conditioning away from the rank
        rule, or make it exactly singular: the whitening is exact on its range.
        The drift factor ``B = int_0^delta e^{sA} ds`` must satisfy ``A B = P - I``."""
        rng = np.random.default_rng(seed)
        if kind in ("defective", "stiff"):
            a, r = hard_drift("jordan" if kind == "defective" else "stiff", dim, rng), make_psd(rng, dim, ridge=0.1)
        elif kind == "singular_noise":  # rank d - 1, and the pair stays controllable
            a, r = make_stable(rng, dim), make_psd(rng, dim, rank=max(dim - 1, 1))
        else:  # noise reaches only the first half, which the second does not feed
            a, h = make_stable(rng, dim), (dim + 1) // 2
            a[h:, :h] = 0.0
            r = np.zeros((dim, dim))
            r[:h, :h] = make_psd(rng, h, ridge=0.1)
        m = OuLevyModel(drift_matrix=a, noise_cov=r)
        step = sampler._step_sampler(m, delta, True)
        root, v_t, u = step.innovation_t.T, step.whiten_t, step.residual_t.T

        # the pair (X, W) is an OU process with drift diag(A, 0) and noise factor [R^(1/2); I]
        pair_drift = np.zeros((2 * dim, 2 * dim))
        pair_drift[:dim, :dim] = a
        factor = np.vstack([m.noise_sqrt().sqrt_matrix, np.eye(dim)])
        block = np.block([[pair_drift, factor @ factor.T], [np.zeros((2 * dim, 2 * dim)), -pair_drift.T]])
        k = max(0, math.ceil(math.log2(np.linalg.norm(pair_drift, 1) * delta + 1e-300)) + 1)
        e = scipy.linalg.expm(math.ldexp(delta, -k) * block)
        prop, want = e[:2 * dim, :2 * dim], e[:2 * dim, 2 * dim:] @ e[:2 * dim, :2 * dim].T
        for _ in range(k):
            want, prop = want + prop @ want @ prop.T, prop @ prop
        load = np.block([[root, np.zeros((dim, dim))], [v_t, u]])
        scale = np.abs(want).max()
        assert np.abs(load @ load.T - want).max() <= 1e-12 * scale
        assert np.abs(root @ root.T - want[:dim, :dim]).max() <= 1e-12 * scale
        assert np.abs(root @ v_t.T - want[:dim, dim:]).max() <= 1e-12 * scale
        b = sampler._step_sampler(m, delta, False).drift_t.T
        gap = np.abs(a @ b - (step.propagator_t.T - np.eye(dim))).max()
        assert gap <= 1e-12 * (1.0 + np.abs(a).max() * np.abs(b).max())

    def test_sampler_state_refers_only_to_arrays(self):
        import gc
        import weakref

        m = _jump_case("jordan_d2")
        hl.estimate_semigroup(m, 1.0, [0.0, 0.0], lambda pts: pts[:, 0], 200, 1)
        sampler._step_sampler(m, 0.1, False)
        sampler._step_sampler(m, 0.1, True)
        ref = weakref.ref(m)
        gc.disable()
        try:
            del m
            assert ref() is None
        finally:
            gc.enable()


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

    def test_rejected_null_control_is_a_named_value_error(self, scalar_model, monkeypatch):
        monkeypatch.setattr(hl.control, "TERMINAL_RESIDUAL_TOL", -1.0)  # no residual passes
        with pytest.raises(sampler.ControlRejectedError, match="null control rejected") as info:
            hl.sample_coupled_pair(scalar_model, 1.0, [0.4], [0.0], 16, RngStream(0, 0))
        assert isinstance(info.value, ValueError)

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

    def test_linear_drift_against_the_perturbed_ou_closed_form(self):
        # F(x) = B x turns dX = A X dt + R^(1/2) dW into the OU model with drift A + B,
        # whose exponential moment is exact; B = 0.2 keeps the weights light-tailed
        m = OuLevyModel(drift_matrix=[[-0.5]], noise_cov=[[1.0]])
        spec = hl.SemilinearSpec(drift_fn=lambda p: 0.2 * p, k1=0.0, k2=0.04)
        est = hl.semilinear_estimate(m, spec, 1.0, [1.0], ExpObservable([0.3]), 100_000, 32, 212)
        target = analytic.mehler_exponential(OuLevyModel(drift_matrix=[[-0.3]], noise_cov=[[1.0]]), 1.0, [0.3], [1.0])
        assert est.std_error <= 0.002 * target
        assert within_sigma(est.mean, est.std_error, target)

    def test_frozen_drift_bias_shrinks_like_one_over_k(self):
        """F(x) = x / 2 on A = -1/2, R = 1 has the exact value of the driftless
        model.  On the grid, P + B / 2 = 1, so X_t = x + N(0, V_K), V_K = K (1 -
        e^{-1/K}) = 1 - 1 / (2K) + O(1/K^2): the estimate must find that law's
        mean, and K times its error stay about -0.045 / 2 e^{0.345} = -0.032."""
        m = OuLevyModel(drift_matrix=[[-0.5]], noise_cov=[[1.0]])
        spec = hl.SemilinearSpec(drift_fn=lambda p: 0.5 * p, k1=0.0, k2=0.25)
        exact = analytic.mehler_exponential(OuLevyModel(drift_matrix=[[0.0]], noise_cov=[[1.0]]), 1.0, [0.3], [1.0])
        for K in (1, 2, 4, 8):
            est = hl.semilinear_estimate(m, spec, 1.0, [1.0], ExpObservable([0.3]), 200_000, K, 7)
            grid_law = math.exp(0.3 + 0.045 * K * -math.expm1(-1.0 / K))
            assert within_sigma(est.mean, est.std_error, grid_law), K
            assert abs(grid_law - exact) > 3.0 * est.std_error, K  # the bias is resolved
            assert -0.045 - 4.0 * K * est.std_error <= K * (est.mean - exact) <= -0.02 + 4.0 * K * est.std_error, K

    def test_long_horizon_direct_paths_beat_the_weight(self, scalar_model):
        """At t = 20 the perturbed-drift paths estimate E f(X_t) with at most
        half the standard error of E[rho f] on OU paths, the loop's weight,
        and the two agree."""
        from harnacklab.testfuncs import drift_scaled_sine

        spec, f, x0, t = drift_scaled_sine(scalar_model, 0.5), ClippedExpObservable([0.5], 8.0), [[0.5]], 20.0
        direct = hl.semilinear_estimate(scalar_model, spec, t, x0[0], f, 20_000, 128, 3)
        drift = sampler._checked_drift(scalar_model, spec)
        root = scalar_model.noise_sqrt().pinv_sqrt_matrix.T
        paths = sampler._paths(scalar_model, t, np.array(x0), 128, sampler._stream_blocks(4, 20_000),
                               shift=lambda k, states: drift(states) @ root)
        weighted = sampler.fold(np.exp(lr)[None] * f(ends[0])[None] for _, ends, _, lr, _ in paths).estimate(0, 4)
        assert direct.std_error <= 0.5 * weighted.std_error
        assert abs(direct.mean - weighted.mean) <= 4.0 * math.hypot(direct.std_error, weighted.std_error)

    def test_weight_is_probability_density(self, scalar_model):
        from harnacklab.testfuncs import drift_scaled_sine

        spec = drift_scaled_sine(scalar_model, 0.5)
        est = hl.semilinear_estimate(scalar_model, spec, 1.0, [0.3], ConstantObservable(1.0), 100_000, 128, 211)
        assert (est.mean, est.std_error) == (1.0, 0.0)  # the paths carry no weight: a constant is exact

    def test_plane_model_weight_is_probability_density(self, nonnormal_model):
        from harnacklab.testfuncs import drift_clipped_linear

        spec = drift_clipped_linear(nonnormal_model, 0.4)
        est = hl.semilinear_estimate(nonnormal_model, spec, 0.8, [0.3, -0.2],
                                     ConstantObservable(1.0), 60_000, 128, 216)
        assert (est.mean, est.std_error) == (1.0, 0.0)

    def test_rho_moments_keep_the_full_weight(self):
        """A constant shift psi = 1 over one step of delta = 2 (A = -2, R = 1):
        the full log-weight is N(-1, 2), so E rho^2 = e^2, not the E L^2 =
        exp(C^2 / G) = 2.62 of its mean L given the endpoint."""
        m = OuLevyModel(drift_matrix=[[-2.0]], noise_cov=[[1.0]])
        spec = drift_constant(m, [1.0])
        est = sampler.fold(sampler.semilinear_rho_moments(m, spec, 2.0, [0.0], [2.0], 100_000, 1, 5)).estimate(0, 5)
        assert within_sigma(est.mean, est.std_error, math.e ** 2)
        cross, gram = (1.0 - math.exp(-4.0)) / 2.0, (1.0 - math.exp(-8.0)) / 4.0
        assert abs(est.mean - math.exp(cross ** 2 / gram)) > 4.0 * est.std_error

    @pytest.mark.parametrize("K", [1, 16])
    def test_rho_moments_of_a_constant_drift_are_lognormal(self, K):
        """A constant drift ``b`` on a non-normal plane model with correlated
        noise: ``log rho`` is exactly ``N(-s2 / 2, s2)``, ``s2 = t |R^{-1/2}
        b|^2``, on any grid, so ``E rho^p = exp(p (p - 1) s2 / 2)``."""
        m = OuLevyModel(drift_matrix=[[-1.0, 1.5], [0.0, -2.0]], noise_cov=[[1.0, 0.6], [0.6, 0.8]])
        b, t = np.array([0.4, -0.3]), 0.8
        sig2 = t * float(np.sum(m.noise_sqrt().apply_pinv_sqrt(b) ** 2))
        acc = sampler.fold(sampler.semilinear_rho_moments(m, drift_constant(m, b), t, [0.3, -0.2], [2.0, -0.5],
                                                          40_000, K, 21))
        for i, p in enumerate([2.0, -0.5]):
            assert within_sigma(acc.mean[i], acc.std_error(i), math.exp(p * (p - 1.0) * sig2 / 2.0))

    def test_full_weight_has_mean_one(self, nonnormal_model):
        # the raw weight of the path loop, not a moment's control variate (identically 1 at p = 1)
        spec = drift_scaled_sine(nonnormal_model, 0.5)
        drift, rfac = sampler._checked_drift(nonnormal_model, spec), nonnormal_model.noise_sqrt()
        paths = sampler._paths(nonnormal_model, 0.8, np.array([[0.3, -0.2]]), 32, sampler._stream_blocks(22, 40_000),
                               shift=lambda k, states: rfac.apply_pinv_sqrt(drift(states)))
        est = sampler.fold(np.exp(log_rho)[None] for *_, log_rho, _ in paths).estimate(0, 22)
        assert est.std_error > 0.0 and within_sigma(est.mean, est.std_error, 1.0)

    def test_the_martingale_variate_agrees_with_the_plain_moments(self, nonnormal_model):
        # E rho^2 and E rho^(-1/2) of a bounded drift on a non-normal plane model: the
        # variate's 4096 paths against the plain rho^p of 2^17 paths, within 4 combined
        # errors, with less spread per path
        spec, x, t, K, powers = drift_scaled_sine(nonnormal_model, 0.5), [0.3, -0.2], 0.8, 16, [2.0, -0.5]
        variate = sampler.fold(sampler.semilinear_rho_moments(nonnormal_model, spec, t, x, powers, 4096, K, 23))
        drift, rfac = sampler._checked_drift(nonnormal_model, spec), nonnormal_model.noise_sqrt()
        paths = sampler._paths(nonnormal_model, t, np.array([x]), K, sampler._stream_blocks(24, 1 << 17),
                               shift=lambda k, states: rfac.apply_pinv_sqrt(drift(states)))
        plain = sampler.fold(np.stack([np.exp(p * log_rho) for p in powers]) for *_, log_rho, _ in paths)
        for i in range(len(powers)):
            se = math.hypot(variate.std_error(i), plain.std_error(i))
            assert abs(variate.mean[i] - plain.mean[i]) <= 4.0 * se, powers[i]
            assert variate.std_error(i) * math.sqrt(variate.n) < plain.std_error(i) * math.sqrt(plain.n)

    def test_full_weight_takes_one_start(self, scalar_model):
        """One normal per replicate carries every start's full weight only if
        there is one start: several would share it, wrongly correlated."""
        paths = sampler._paths(scalar_model, 0.8, np.zeros((2, 1)), 8, sampler._stream_blocks(1, 200),
                               shift=lambda k, states: np.zeros(states.shape))
        with pytest.raises(ValueError, match="one start"):
            next(paths)

    def test_normals_per_step_and_dimension(self, monkeypatch, nonnormal_model):
        """An endpoint estimator draws d normals per step and replicate, shared
        by every start; a moment of the weight draws one more per replicate."""
        from harnacklab.testfuncs import drift_clipped_linear

        drawn = count_normals(monkeypatch)
        spec = drift_clipped_linear(nonnormal_model, 0.4)
        f = ConstantObservable(1.0)
        n, K, d = 5000, 8, nonnormal_model.dim
        list(sampler.semilinear_values(nonnormal_model, spec, 0.8, [[0.3, -0.2], [0.1, 0.0]], [f, f], n, K, 1))
        assert sum(drawn) == K * n * d
        drawn.clear()
        list(sampler.semilinear_rho_moments(nonnormal_model, spec, 0.8, [0.3, -0.2], [2.0], n, K, 2))
        assert sum(drawn) == K * n * d + n

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

    def test_drift_range_failure_is_a_named_value_error(self):
        m = OuLevyModel(drift_matrix=np.diag([-1.0, -1.0]), noise_cov=np.diag([1.0, 0.0]))
        spec = hl.SemilinearSpec(drift_fn=lambda pts: np.stack([np.zeros(len(pts)), pts[:, 0]], axis=1),
                                 k1=1.0, k2=1.0)
        with pytest.raises(sampler.DriftRangeError) as info:
            hl.semilinear_estimate(m, spec, 1.0, [0.0, 0.0], ConstantObservable(1.0), 200, 8, 0)
        assert isinstance(info.value, ValueError)

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


class TestOuTwin:
    """The drift-free twin that `sampler._paths` carries beside a perturbed-drift
    path, ``X0 <- P X0 + eta`` on the same innovations, is an exact OU path, so
    ``Q + f(X_t) - f(X0_t)`` with ``Q = E f(X0_t)`` exact is an unbiased
    estimate of ``E f(X_t)`` on the grid (control variate of coefficient 1)."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_twin_endpoints_have_the_exact_ou_law(self, scalar_model, nonnormal_model, d):
        # z-tests of the twin's mean P_t x and of each entry of its covariance G_t, whose
        # product estimator has variance G_ii G_jj + G_ij^2 for a Gaussian law
        m = scalar_model if d == 1 else nonnormal_model
        x0, t, n = np.linspace(0.5, -0.3, d), 0.8, 1 << 16
        paths = sampler._paths(m, t, x0[None], 8, sampler._stream_blocks(3, n),
                               drift=sampler._checked_drift(m, drift_scaled_sine(m, 0.5)))
        blocks = [(states[0], twins[0]) for _, states, twins, *_ in paths]
        ends, twins = (np.concatenate(part) for part in zip(*blocks))
        snap = m.snapshot(t)
        dev, g = twins - snap.propagator @ x0, snap.gramian
        z_mean = dev.mean(axis=0) / np.sqrt(np.diag(g) / n)
        z_cov = (dev.T @ dev / n - g) / np.sqrt((np.outer(np.diag(g), np.diag(g)) + g * g) / n)
        assert np.abs(z_mean).max() < 4.0 and np.abs(z_cov).max() < 4.0
        assert np.abs((ends - twins).mean(axis=0)).max() > 0.05  # the drift moved the paths themselves

    @pytest.mark.parametrize("drift", ["scaled_sine", "clipped_linear", "constant"])
    @pytest.mark.parametrize("f", [ClippedExpObservable([0.5], 3.0), TanhObservable([1.0]),
                                   IndicatorObservable([1.0], 0.2)], ids=["clipped_exp", "tanh", "indicator"])
    def test_the_twin_estimate_agrees_with_a_plain_one(self, scalar_model, drift, f):
        spec = {"scaled_sine": drift_scaled_sine(scalar_model, 0.5),
                "clipped_linear": drift_clipped_linear(scalar_model, 0.5),
                "constant": drift_constant(scalar_model, [0.5])}[drift]
        t, K, x, n = 1.0, 16, [0.3], 4096
        means = hl.verify._ridge_sides(scalar_model, t, f, n, [x], lambda mean, ends: [mean(lambda v: v, 0)])
        twin = sampler.fold(sampler.semilinear_twin_values(scalar_model, spec, t, [x], [f], means, n, K, 5))
        plain = hl.semilinear_estimate(scalar_model, spec, t, x, f, 1 << 16, K, 6)
        twin_se = twin.std_error(0)
        assert abs(twin.mean[0] - plain.mean) <= 4.0 * math.hypot(twin_se, plain.std_error)
        assert twin_se * math.sqrt(n) < plain.std_error * math.sqrt(plain.n)  # less spread per replicate


def reference_paths(model, t, starts, K, blocks, drift=None, shift=None):
    """`sampler._paths` as one thread draws it: one ``standard_normal`` call
    per step for ``z_k``, and with a shift one normal ``xi`` per replicate
    after the last step, which adds ``sqrt(s) xi - s / 2``, ``s`` the sum of
    the steps' ``|u_k|^2``, and the bracket ``sum_k |v_k|^2 + s``.  With a
    drift, the drift-free twin steps beside."""
    starts = np.stack([np.asarray(x, dtype=float).reshape(-1) for x in starts])
    n_starts, d = starts.shape
    step = sampler._step_sampler(model, t / K, shift is not None)
    for gen, size in blocks:
        x = twin = np.repeat(starts, size, axis=0)  # start-major stacked states
        log_rho, s, q = np.zeros(size), np.zeros(size), np.zeros(size)
        for k in range(K):
            z = gen.standard_normal((size, d))
            if shift is not None:
                psi = shift(k, x)
                v, u = np.dot(psi, step.whiten_t), np.dot(psi, step.residual_t)
                log_rho += np.einsum("ij,ij->i", v, z - 0.5 * v)
                q += np.einsum("ij,ij->i", v, v)
                s += np.einsum("ij,ij->i", u, u)
            moved, eta = np.dot(x, step.propagator_t), np.tile(np.dot(z, step.innovation_t), (n_starts, 1))
            if drift is not None:
                moved += np.dot(drift(x), step.drift_t)
                twin = np.dot(twin, step.propagator_t) + eta
            x = moved + eta
        if shift is not None:
            log_rho += np.sqrt(s) * gen.standard_normal(size) - 0.5 * s
            q += s
        twin = twin if drift is not None else x
        yield gen, x.reshape(n_starts, size, d), twin.reshape(n_starts, size, d), log_rho, q


def against_reference(monkeypatch, call):
    """``call()`` through `reference_paths`, then through the path loop."""
    with monkeypatch.context() as m:
        m.setattr(sampler, "_paths", reference_paths)
        want = call()
    return want, call()


def _plane_model(d):
    """A stable non-normal drift with correlated full-rank noise."""
    rng = np.random.default_rng(40 + d)
    return OuLevyModel(drift_matrix=make_stable(rng, d), noise_cov=make_psd(rng, d, ridge=0.5))


def _chunk_steps(which, c):
    return {"1": 1, "c-1": c - 1, "c": c, "2c+1": 2 * c + 1}[which]


STEPS = pytest.mark.parametrize("steps", ["1", "c-1", "c", "2c+1"])


class TestStepNormalsLookAhead:
    """The path loop draws its step normals a chunk of ``c`` steps at a time,
    the next chunk on a helper thread: every estimate is bitwise that of the
    one-draw-per-step reference loop, and no helper outlives its block."""

    N = 300  # one block of 300 replicates

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        """Let the process see two CPUs, so the worker runs whatever the
        host's affinity."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @STEPS
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("n_starts", [1, 2])
    def test_semilinear_values(self, monkeypatch, steps, d, n_starts):
        from harnacklab.testfuncs import drift_clipped_linear

        m = _plane_model(d)
        spec = drift_clipped_linear(m, 0.4)
        K = _chunk_steps(steps, sampler.PATH_CHUNK // (self.N * d))
        starts = [np.linspace(-0.3, 0.4, d) * (s + 1) for s in range(n_starts)]
        fs = [ExpObservable(np.full(d, 0.3))] * n_starts
        want, got = against_reference(monkeypatch, lambda: list(
            sampler.semilinear_values(m, spec, 0.8, starts, fs, self.N, K, 11)))
        assert len(want) == len(got) == 1 and np.array_equal(want[0], got[0])

    @STEPS
    @pytest.mark.parametrize("d", [1, 3])
    def test_semilinear_twin_values(self, monkeypatch, steps, d):
        m = _plane_model(d)
        spec = drift_clipped_linear(m, 0.4)
        n = sampler.PATH_FIRST_BLOCK  # one block of the control-variate ladder
        K = _chunk_steps(steps, sampler.PATH_CHUNK // (n * d))
        starts, fs = [np.linspace(-0.3, 0.4, d), np.full(d, 0.2)], [ExpObservable(np.full(d, 0.3))] * 2
        want, got = against_reference(monkeypatch, lambda: list(
            sampler.semilinear_twin_values(m, spec, 0.8, starts, fs, [1.5, 2.5], n, K, 11)))
        assert len(want) == len(got) == 1 and np.array_equal(want[0], got[0])

    @STEPS
    @pytest.mark.parametrize("d", [1, 3])
    def test_rho_moments(self, monkeypatch, steps, d):
        from harnacklab.testfuncs import drift_clipped_linear

        m = _plane_model(d)
        spec = drift_clipped_linear(m, 0.4)
        n = sampler.PATH_FIRST_BLOCK  # one block of the control-variate ladder
        K = _chunk_steps(steps, sampler.PATH_CHUNK // (n * d))
        want, got = against_reference(monkeypatch, lambda: list(sampler.semilinear_rho_moments(
            m, spec, 0.8, np.full(d, 0.2), [2.0, -0.5], n, K, 12)))
        assert len(want) == len(got) == 1 and np.array_equal(want[0], got[0])

    @STEPS
    @pytest.mark.parametrize("d", [1, 3])
    def test_girsanov_functionals(self, monkeypatch, steps, d):
        m = _plane_model(d)
        K = _chunk_steps(steps, sampler.PATH_CHUNK // (self.N * d))
        funcs = {"rho": np.exp, "log_rho": lambda lr: lr}
        want, got = against_reference(monkeypatch, lambda: girsanov_functional_estimates(
            m, 0.8, np.full((1, d), 0.5), K, self.N, 13, funcs))
        assert want == got

    def test_blocks_of_several_sizes(self, monkeypatch):
        """5000 replicates are the path ladder's blocks 128, 128, 256, 512,
        1024, 2048 and 904, so ``c`` is 256, 256, 128, 64, 32, 16 and 36
        steps: over 41 steps the first four draw inline, the last three
        through the helper."""
        from harnacklab.testfuncs import drift_clipped_linear

        m = _plane_model(1)
        spec = drift_clipped_linear(m, 0.4)
        want, got = against_reference(monkeypatch, lambda: list(sampler.semilinear_rho_moments(
            m, spec, 0.8, [0.2], [2.0], 5000, 41, 14)))
        assert [w.shape[1] for w in want] == [128, 128, 256, 512, 1024, 2048, 904]
        assert len(want) == len(got) and all(np.array_equal(w, g) for w, g in zip(want, got))

    @STEPS
    @pytest.mark.parametrize("d", [1, 3])
    def test_one_replicate_coupled_pair(self, monkeypatch, steps, d):
        """`sample_coupled_pair` draws a block of one replicate; with a chunk
        of ``4 d`` normals, ``c`` is 4 steps.  The driftless model keeps the
        null control exact on every grid."""
        monkeypatch.setattr(sampler, "PATH_CHUNK", 4 * d)
        m = OuLevyModel(drift_matrix=np.zeros((d, d)), noise_cov=make_psd(np.random.default_rng(d), d, ridge=0.5))
        K = _chunk_steps(steps, 4)
        want, got = against_reference(monkeypatch, lambda: hl.sample_coupled_pair(
            m, 0.8, np.full(d, 0.4), np.zeros(d), K, RngStream(15, 0)))
        assert np.array_equal(want[0], got[0]) and want[1] == got[1]

    def test_coupled_pair_jumps_follow_the_path_draws(self, monkeypatch):
        """The jumps are drawn from each block's generator after the path, so
        equal endpoints prove the generator stands exactly past the path's
        draws when the jumps are drawn: ``c`` is 4 steps in the first block
        (4096 replicates) and 18 in the second (904), over 32 steps."""
        m = OuLevyModel(drift_matrix=[[-1.0, 0.3], [0.0, -2.0]], noise_cov=np.eye(2),
                        jump=hl.CompoundPoissonSpec(rate=2.0, atoms=[[1.0, 0.5], [-0.3, 0.2]]))
        want, got = against_reference(monkeypatch, lambda: list(sampler._coupled_blocks(
            m, 1.0, [0.3, 0.1], [0.0, 0.0], 32, sampler._stream_blocks(16, 5000))))
        assert len(want) == len(got) == 2
        for (ends_w, lr_w, sq_w), (ends_g, lr_g, sq_g) in zip(want, got):
            assert np.array_equal(ends_w, ends_g) and np.array_equal(lr_w, lr_g) and sq_w == sq_g

    def test_drift_range_error_mid_path_leaves_no_thread(self, monkeypatch):
        """The model of `test_drift_leaving_the_range_mid_path_aborts`: the
        first block holds ``MC_FIRST_BLOCK`` replicates, so ``c`` is 16 steps
        and 32 steps are two chunks.  The error still propagates, and the
        helper that was running is joined."""
        before, seen = threading.active_count(), []

        def drift(pts):
            seen.append(threading.active_count())
            return np.stack([np.zeros(len(pts)), pts[:, 0]], axis=1)

        m = OuLevyModel(drift_matrix=np.diag([-1.0, -1.0]), noise_cov=np.diag([1.0, 0.0]))
        spec = hl.SemilinearSpec(drift_fn=drift, k1=1.0, k2=1.0)
        with pytest.raises(sampler.DriftRangeError, match="range"):
            hl.semilinear_estimate(m, spec, 1.0, [0.0, 0.0], ConstantObservable(1.0), 5000, 32, 0)
        assert sampler.PATH_CHUNK // (sampler.MC_FIRST_BLOCK * 2) == 16
        assert seen == [before + 1, before + 1]  # a helper ran while the path was drawn
        assert threading.active_count() == before

    def test_closed_generators_leave_no_thread(self, monkeypatch, scalar_model):
        before = threading.active_count()
        paths = sampler._paths(scalar_model, 0.8, np.zeros((1, 1)), 40, sampler._stream_blocks(1, 9000),
                               shift=lambda k, states: np.zeros(states.shape))
        next(paths)
        assert threading.active_count() == before
        paths.close()
        assert threading.active_count() == before
        steps = sampler._step_normals(RngStream(1, 0).generator(), 40, (8192, 1))  # 10 chunks of 4 steps
        next(steps)
        assert threading.active_count() == before + 1
        steps.close()
        assert threading.active_count() == before

    def test_one_cpu_draws_inline(self, monkeypatch):
        """A process that may run on one CPU only draws every chunk inline (here
        9 steps in chunks of 4): the bits of one draw per step, and no thread."""
        shape, K = (8192, 1), 9
        gen = RngStream(1, 0).generator()
        want = [gen.standard_normal(shape) for _ in range(K)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        before = threading.active_count()
        normals = sampler._step_normals(RngStream(1, 0).generator(), K, shape)
        got = [next(normals)]
        assert threading.active_count() == before
        got += normals
        assert len(got) == K and all(np.array_equal(w, g) for w, g in zip(want, got))

    def test_a_failed_draw_is_raised_on_the_loop_thread(self, monkeypatch):
        before = threading.active_count()

        class FailsSecond:
            def __init__(self):
                self.calls = 0

            def standard_normal(self, shape):
                self.calls += 1
                if self.calls == 2:
                    raise MemoryError("no room for the chunk")
                return np.zeros(shape)

        steps = sampler._step_normals(FailsSecond(), 40, (8192, 1))
        with pytest.raises(MemoryError, match="no room"):
            for _ in steps:
                pass
        assert threading.active_count() == before

    def test_concurrent_callers_keep_their_bits(self, monkeypatch, scalar_model):
        """Four callers at once, each with its own helper, on a switch interval
        of 1 us: each gets the reference bits."""
        from harnacklab.testfuncs import drift_scaled_sine

        spec = drift_scaled_sine(scalar_model, 0.3)
        f = ExpObservable([0.3])

        def values(seed):
            return np.concatenate(list(sampler.semilinear_values(scalar_model, spec, 0.8, [[0.2]], [f], 5000, 24, seed)),
                                  axis=1)

        with monkeypatch.context() as m:
            m.setattr(sampler, "_paths", reference_paths)
            want = [values(seed) for seed in range(4)]
        got = [None] * 4

        def run(i):
            got[i] = values(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for th in callers:
                th.start()
            for th in callers:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in callers)
        assert all(g is not None and np.array_equal(w, g) for w, g in zip(want, got))
