"""Exact stochastic simulation of the OU-Levy dynamics.

Endpoint samples are exact in distribution: the Gaussian part is drawn from
the factorized time-``t`` Gramian and each compound-Poisson jump is moved
by the propagator ``e^{vA}`` over a uniform age ``v``, a block of jumps at a
time, so no inequality check pays a time-discretization penalty unless it
needs paths.  The jump transport works in the drift's eigenbasis when its
eigenvectors are well conditioned, and otherwise through the certified
Chebyshev interpolant `linops.exp_interpolant` of ``e^{vA}`` on ``[0, t]``,
built once per (model, ``t``): no matrix exponential is taken per jump.
Path-based functionality (stochastic convolution, change-of-measure weights,
the coupled pair, the perturbed-drift estimator) uses a fixed grid whose
only approximation is the left-point rule in the stochastic integral of the
weight exponent; the discrete weight is still an exact martingale for
previsible integrands.

Randomness comes from counter-based Philox streams keyed by
``(seed, stream_id)``.  Monte Carlo estimators assign one stream per block
of ``MC_BLOCK`` replicates and merge each block's centered moments into one
``RunningMoments`` accumulator in stream order, so results are bitwise
reproducible regardless of how blocks are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import linops
from .control import min_energy_control
from .model import DRIFT_RANGE_TOL, OuLevyModel, SemilinearSpec

#: Replicates per RNG stream in vectorized Monte Carlo estimators.
MC_BLOCK = 4096

_MASK64 = (1 << 64) - 1


def mix_seed(*parts: int) -> int:
    """Derive an independent 64-bit sub-seed from integer parts (splitmix)."""
    z = 0x9E3779B97F4A7C15
    for p in parts:
        z = (z + (int(p) & _MASK64)) & _MASK64
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & _MASK64
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
    return z


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Identical keys reproduce identical draws regardless of scheduling; the
    draw index is the Philox counter advanced by the generator itself.
    """

    seed: int
    stream_id: int

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _stream_blocks(seed: int, n: int) -> Iterator[tuple[np.random.Generator, int]]:
    """Fixed-size replicate blocks, one keyed stream per block, for ``n >= 100`` replicates."""
    if n < 100:
        raise ValueError("at least 100 replicates are required")
    return ((RngStream(seed, block).generator(), min(MC_BLOCK, n - done))
            for block, done in enumerate(range(0, n, MC_BLOCK)))


def _grid_step(t: float, K: int) -> float:
    """Step ``t / K`` of a path estimator's grid of ``K >= 1`` steps."""
    if K < 1:
        raise ValueError("grid size must be at least 1")
    return t / K


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error (sample stdev / sqrt(n))."""

    mean: float
    std_error: float
    n: int
    seed: int


@dataclass(frozen=True)
class GirsanovWeight:
    """Change-of-measure weight in log form, with the control's squared size."""

    log_rho: float
    integral_psi_sq: float

    @property
    def rho(self) -> float:
        return float(np.exp(self.log_rho))


class NonFiniteValueError(ValueError):
    """An observable or a weight turned non-finite during estimation."""


class ControlRejectedError(ValueError, RuntimeError):
    """The null control of the coupled pair missed zero by more than its terminal
    tolerance.  A `ValueError`, so the command line exits 3, and a
    `RuntimeError` for callers that catch this failure as one."""


class DriftRangeError(ValueError, RuntimeError):
    """A perturbed-drift value left the range of ``R^{1/2}`` along a path.  A
    `ValueError`, so the command line exits 3, and a `RuntimeError` for callers
    that catch this failure as one."""


class RunningMoments:
    """Streaming count, mean and central sums ``M2``-``M4`` of blocks of values.

    Each block is centered on its own mean, and its moments are merged into
    the running ones in block order by the pairwise update of Chan, Golub &
    LeVeque (1983), extended to ``M3`` and ``M4`` by Pebay (2008).  No power
    sum of raw values is formed, so a common offset does not cancel the
    spread.  This is the one place that rejects non-finite values.
    """

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self._m2 = self._m3 = self._m4 = 0.0

    def add(self, values) -> None:
        v = np.asarray(values, dtype=float).reshape(-1)
        na, nb = self.n, v.shape[0]
        mb = float(v.mean())
        if not math.isfinite(mb):  # a non-finite value, or a block sum that overflows
            bad = int(np.count_nonzero(~np.isfinite(v)))
            raise NonFiniteValueError(f"{bad} non-finite value(s) in the block at replicate {na}")
        n = na + nb
        dev = v - mb
        dev2 = dev * dev
        m2b, m3b, m4b = float(dev2.sum()), float((dev2 * dev).sum()), float((dev2 * dev2).sum())
        delta = mb - self.mean
        cross = delta * delta * na * nb / n
        self._m4 += (m4b + cross * delta * delta * (na * na - na * nb + nb * nb) / (n * n)
                     + 6.0 * delta * delta * (na * na * m2b + nb * nb * self._m2) / (n * n)
                     + 4.0 * delta * (na * m3b - nb * self._m3) / n)
        self._m3 += m3b + cross * delta * (na - nb) / n + 3.0 * delta * (na * m2b - nb * self._m2) / n
        self._m2 += m2b + cross
        self.mean += delta * (nb / n)
        self.n = n

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        return self._m2 / (self.n - 1)

    @property
    def variance_se(self) -> float:
        """Standard error of ``variance``: ``sqrt((mu4 - variance^2) / n)``."""
        return math.sqrt(max(self._m4 / self.n - self.variance**2, 0.0) / self.n)

    @property
    def std_error(self) -> float:
        """Standard error of ``mean``."""
        return math.sqrt(self.variance / self.n)

    def estimate(self, seed: int) -> McEstimate:
        return McEstimate(mean=self.mean, std_error=self.std_error, n=self.n, seed=seed)


def eval_rows(f: Callable, pts: np.ndarray) -> np.ndarray:
    """Evaluate a vectorized ``f`` on row-stacked points ``(m, d)``; it must return ``(m,)``."""
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != (pts.shape[0],):
        raise ValueError(f"observable returned shape {vals.shape} for {pts.shape[0]} points; "
                         f"it must map (m, d) points to (m,) values")
    return vals


# ---------------------------------------------------------------------------
# jump transport
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _EigenTransport:
    """Jump transport in a well-conditioned eigenbasis of the drift."""

    modes: np.ndarray
    rates: np.ndarray
    modes_inv: np.ndarray

    def apply(self, ages: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """``e^{v A} xi`` for each (age v, jump xi) pair."""
        w = self.modes_inv @ sizes.T
        w = w * np.exp(np.multiply.outer(self.rates, ages))
        return (self.modes @ w).T.real


def _jump_transport(model: OuLevyModel, t: float) -> _EigenTransport | linops.ExpInterpolant:
    """The eigenbasis transport of the model's drift if it has a well-conditioned one,
    else the certified interpolant of ``e^{vA}`` on ``[0, t]``; both memoized on the model."""
    eigen = model._memoized("jump_eigenbasis", lambda: _eigen_transport(model.drift_matrix))
    if eigen is not None:
        return eigen
    return model.exp_interpolant(t)


def _eigen_transport(a: np.ndarray) -> _EigenTransport | None:
    """The eigenbasis transport, or None when the eigenvectors are ill-conditioned."""
    try:
        rates, modes = np.linalg.eig(a)
        modes_inv = np.linalg.inv(modes)
        ok = (
            np.linalg.cond(modes) < 1e8
            and np.abs((modes * rates) @ modes_inv - a).max() <= 1e-10 * (1.0 + np.abs(a).max())
        )
    except np.linalg.LinAlgError:
        ok = False
    return _EigenTransport(*map(linops.read_only, (modes, rates, modes_inv))) if ok else None


def _jump_block(model: OuLevyModel, t: float, gen: np.random.Generator, size: int,
                transport: _EigenTransport | linops.ExpInterpolant) -> np.ndarray:
    """Compound-Poisson contribution for a block of replicates."""
    j = model.jump
    counts = gen.poisson(j.rate * t, size=size)
    total = int(counts.sum())
    if total == 0:
        return np.zeros((size, model.dim))
    ages = gen.uniform(0.0, t, size=total)
    if j.atoms is not None:
        sizes = np.take(j.atoms, gen.choice(j.atoms.shape[0], size=total, p=j.probs), axis=0)
    else:
        sizes = np.atleast_2d(np.asarray(j.sampler(gen, total), dtype=float))
    moved = transport.apply(ages, sizes)
    rows = np.repeat(np.arange(size), counts)
    # bincount adds in the order of ``rows`` from 0.0, bitwise as np.add.at
    return np.stack([np.bincount(rows, weights=col, minlength=size) for col in moved.T], axis=1)


# ---------------------------------------------------------------------------
# endpoint sampling
# ---------------------------------------------------------------------------


def _endpoint_noise_block(model: OuLevyModel, t: float, gen: np.random.Generator, size: int,
                          snap: linops.SemigroupSnapshot,
                          transport: _EigenTransport | linops.ExpInterpolant | None) -> np.ndarray:
    """Endpoint minus the propagated start: drift shift + Gaussian + jumps."""
    z = gen.standard_normal((size, model.dim))
    noise = snap.mean_shift + z @ snap.gramian_sqrt.sqrt_matrix.T
    if model.has_jumps:
        noise = noise + _jump_block(model, t, gen, size, transport)
    return noise


def sample_ou_endpoint(model: OuLevyModel, t: float, x, rng: RngStream) -> np.ndarray:
    """One exact draw of the state at time ``t`` started at ``x``.

    The Gaussian part is ``N(e^{tA} x + m_t, R_t)`` via the Gramian
    factorization; each of the ``Poisson(rate*t)`` jumps is transported by
    the propagator over an independent uniform age.  No time grid enters.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    snap = model.snapshot(t)
    transport = _jump_transport(model, t) if model.has_jumps else None
    noise = _endpoint_noise_block(model, t, rng.generator(), 1, snap, transport)
    return snap.propagator @ x + noise[0]


def iter_endpoint_noise(model: OuLevyModel, t: float, n: int, seed: int) -> Iterator[np.ndarray]:
    """Blocks of endpoint noise, shared across start points.

    Yields ``(block, d)`` arrays of ``X_t - e^{tA} X_0`` realizations; adding
    ``e^{tA} x`` gives endpoint samples started at ``x``.  Reusing one block
    for several starts gives common-random-number coupling.
    """
    snap = model.snapshot(t)
    transport = _jump_transport(model, t) if model.has_jumps else None
    for gen, size in _stream_blocks(seed, n):
        yield _endpoint_noise_block(model, t, gen, size, snap, transport)


def estimate_semigroup(model: OuLevyModel, t: float, x, f: Callable, n: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of ``E f(X_t)`` started at ``x``.

    ``f`` must be vectorized: it maps row-stacked points ``(m, d)`` to
    ``(m,)`` values, and any other shape raises ``ValueError``.  Estimation
    aborts on the first non-finite value of ``f``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    start = model.snapshot(t).propagator @ x
    acc = RunningMoments()
    for noise in iter_endpoint_noise(model, t, n, seed):
        acc.add(eval_rows(f, start + noise))
    return acc.estimate(seed)


# ---------------------------------------------------------------------------
# stochastic convolution paths and change-of-measure weights
# ---------------------------------------------------------------------------


def wa_path(model: OuLevyModel, grid, rng: RngStream) -> np.ndarray:
    """Sample the stochastic convolution on a grid by exact recursion.

    The marginal at each grid time is exactly Gaussian with the Gramian
    covariance of the elapsed time: each step propagates the previous value
    and adds an independent Gaussian innovation with the step Gramian.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.shape[0] < 2 or grid[0] != 0.0 or (np.diff(grid) <= 0).any():
        raise ValueError("grid must increase strictly from 0")
    gen = rng.generator()
    d = model.dim
    out = np.zeros((grid.shape[0], d))
    for k in range(grid.shape[0] - 1):
        snap = model.snapshot(float(grid[k + 1] - grid[k]))
        out[k + 1] = snap.propagator @ out[k] + snap.gramian_sqrt.sqrt_matrix @ gen.standard_normal(d)
    return out


def girsanov_weight(model: OuLevyModel, grid, increments, u) -> GirsanovWeight:
    """Fold a control and Brownian increments into a change-of-measure weight.

    Left-point (previsible) rule: ``log rho = sum u_k . dW_k - sum |u_k|^2
    dt_k / 2``, accumulated in the log domain.  ``u`` may be given on the
    left points ``(K, d)`` or on the full grid ``(K+1, d)`` (last value
    unused).  The pairing uses plain inner products: a control of size
    ``|u|`` corresponds to a drift perturbation ``R^{1/2} u``.
    """
    grid = np.asarray(grid, dtype=float)
    deltas = np.diff(grid)
    if (deltas <= 0).any():
        raise ValueError("grid must be strictly increasing")
    k = deltas.shape[0]
    increments = np.atleast_2d(np.asarray(increments, dtype=float))
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if increments.shape[0] != k:
        raise ValueError(f"expected {k} increments, got {increments.shape[0]}")
    if u.shape[0] == k + 1:
        u = u[:k]
    if u.shape != increments.shape:
        raise ValueError("control and increment shapes are incompatible")
    if u.shape[1] != model.dim:
        raise ValueError("control dimension does not match the model")
    sq = float(np.sum(np.sum(u * u, axis=1) * deltas))
    log_rho = float(np.sum(u * increments)) - 0.5 * sq
    return GirsanovWeight(log_rho=log_rho, integral_psi_sq=sq)


def girsanov_functional_estimates(
    model: OuLevyModel,
    t: float,
    u,
    K: int,
    n: int,
    seed: int,
    funcs: dict[str, Callable[[np.ndarray], np.ndarray]],
) -> dict[str, McEstimate]:
    """Monte Carlo estimates of functionals of the weight for a fixed control.

    ``u`` is a callable of time or an array on the left points / full grid;
    each entry of ``funcs`` maps the vector of log-weights of a block to
    per-replicate values.  One pass over the increments serves all
    functionals, with one accumulator per functional.
    """
    delta = _grid_step(t, K)
    grid = np.linspace(0.0, t, K + 1)
    if callable(u):
        uvals = np.array([np.asarray(u(s), dtype=float).reshape(-1) for s in grid[:-1]])
    else:
        uvals = np.atleast_2d(np.asarray(u, dtype=float))
        if uvals.shape[0] == 1:
            uvals = np.repeat(uvals, K, axis=0)
        elif uvals.shape[0] == K + 1:
            uvals = uvals[:K]
    if uvals.shape != (K, model.dim):
        raise ValueError("control values have the wrong shape")
    half_sq = 0.5 * delta * float(np.sum(uvals * uvals))
    root = np.sqrt(delta)

    accs = {name: RunningMoments() for name in funcs}
    for gen, size in _stream_blocks(seed, n):
        acc = np.zeros(size)
        for k in range(K):
            dw = gen.standard_normal((size, model.dim)) * root
            acc += dw @ uvals[k]
        log_rho = acc - half_sq
        for name, fn in funcs.items():
            accs[name].add(fn(log_rho))
    return {name: acc.estimate(seed) for name, acc in accs.items()}


# ---------------------------------------------------------------------------
# joint increments for path estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _StepSampler:
    """Joint draw of a Brownian increment and the matching convolution
    innovation over one step, with the exact cross-covariance."""

    propagator: np.ndarray
    cross_over_delta: np.ndarray
    cond_root: np.ndarray
    root_delta: float

    def draw(self, gen: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        d = self.propagator.shape[0]
        dw = gen.standard_normal((size, d)) * self.root_delta
        zeta = gen.standard_normal((size, d))
        eta = dw @ self.cross_over_delta.T + zeta @ self.cond_root.T
        return dw, eta


def _step_sampler(model: OuLevyModel, delta: float) -> _StepSampler:
    return model._memoized(("step_sampler", float(delta)), lambda: _build_step_sampler(model, float(delta)))


def _build_step_sampler(model: OuLevyModel, delta: float) -> _StepSampler:
    snap = model.snapshot(delta)
    cross = linops.convolution_factor(model.drift_matrix, model.noise_sqrt().sqrt_matrix, delta)
    cond = snap.gramian - (cross @ cross.T) / delta
    cond_root = linops.psd_sqrt_pinv(0.5 * (cond + cond.T)).sqrt_matrix
    return _StepSampler(
        propagator=snap.propagator,
        cross_over_delta=linops.read_only(cross / delta),
        cond_root=cond_root,
        root_delta=float(np.sqrt(delta)),
    )


# ---------------------------------------------------------------------------
# coupled pair
# ---------------------------------------------------------------------------


def _coupled_blocks(model, t, x, y, K, blocks):
    """Coupled endpoints started at ``y``, one ``(size, d)`` array per
    ``(generator, size)`` block, with their log-weights and the control's
    squared size: yields ``(endpoints, log_rho, integral_psi_sq)``."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    ctrl = min_energy_control(model, t, y - x, K)
    if not ctrl.feasible:
        raise ValueError("x - y is outside the steerable domain at this horizon")
    if not ctrl.accepted:
        raise ControlRejectedError(f"null control rejected: terminal residual {ctrl.terminal_residual:.3e}")
    u = ctrl.values[:-1]
    delta = _grid_step(t, K)
    step = _step_sampler(model, delta)
    snap = model.snapshot(t)
    transport = _jump_transport(model, t) if model.has_jumps else None
    base = snap.propagator @ y + snap.mean_shift
    sq = delta * float(np.sum(u * u))
    for gen, size in blocks:
        conv = np.zeros((size, model.dim))
        acc = np.zeros(size)
        for k in range(K):
            dw, eta = step.draw(gen, size)
            acc += dw @ u[k]
            conv = conv @ step.propagator.T + eta
        endpoints = base + conv
        if model.has_jumps:
            endpoints = endpoints + _jump_block(model, t, gen, size, transport)
        yield endpoints, acc - 0.5 * sq, sq


def sample_coupled_pair(model: OuLevyModel, t: float, x, y, K: int, rng: RngStream):
    """One draw of the coupled endpoint and its change-of-measure weight.

    Simulates the path started at ``y`` and, from the same Brownian
    increments, the weight of the drift shift that carries the law started at
    ``x`` onto it: under the reweighted measure the returned endpoint is a
    sample of the dynamics started at ``x``.  The two trajectories differ by
    the steered state of the null control, so re-integrating from ``x`` with
    the shifted noise reproduces the endpoint up to the control's terminal
    residual (at most 1e-8 relative for accepted controls).
    """
    [(endpoints, log_rho, sq)] = _coupled_blocks(model, t, x, y, K, [(rng.generator(), 1)])
    return endpoints[0], GirsanovWeight(log_rho=float(log_rho[0]), integral_psi_sq=sq)


def coupled_expectation(model: OuLevyModel, t: float, x, y,
                        g: Callable[[np.ndarray, np.ndarray], np.ndarray],
                        n: int, K: int, seed: int) -> McEstimate:
    """Monte Carlo mean of ``g(rho, endpoint)`` over coupled-pair replicates."""
    acc = RunningMoments()
    for endpoints, log_rho, _ in _coupled_blocks(model, t, x, y, K, _stream_blocks(seed, n)):
        acc.add(g(np.exp(log_rho), endpoints))
    return acc.estimate(seed)


# ---------------------------------------------------------------------------
# perturbed-drift (weak-solution) estimation
# ---------------------------------------------------------------------------


def _require_semilinear_setting(model: OuLevyModel) -> None:
    if model.has_jumps:
        raise ValueError("perturbed-drift estimation requires a jump-free model")
    if float(np.abs(model.drift_offset).max(initial=0.0)) != 0.0:
        raise ValueError("perturbed-drift estimation requires a zero drift offset")


def _semilinear_blocks(model, spec, t, x, K, seed, n):
    """Path blocks for the perturbed-drift weight: yields per-block final
    convolution values and log-weights."""
    x = np.asarray(x, dtype=float).reshape(-1)
    delta = _grid_step(t, K)
    step = _step_sampler(model, delta)
    rfac = model.noise_sqrt()
    pinv_root = rfac.pinv_sqrt_matrix

    # deterministic mean path e^{t_k A} x at the left grid points
    mean_path = np.empty((K, model.dim))
    mean_path[0] = x
    for k in range(1, K):
        mean_path[k] = step.propagator @ mean_path[k - 1]

    for gen, size in _stream_blocks(seed, n):
        conv = np.zeros((size, model.dim))
        log_rho = np.zeros(size)
        for k in range(K):
            state = conv + mean_path[k]
            drift = np.asarray(spec.drift_fn(state), dtype=float)
            if drift.shape != state.shape:
                raise ValueError("drift function must map (m, d) states to (m, d) values")
            if rfac.rank < model.dim:  # only a null space of R^{1/2} can fail the range test
                bad = np.flatnonzero(~rfac.in_range(drift, DRIFT_RANGE_TOL))
                if bad.size:
                    raise DriftRangeError(f"drift value leaves the range of R^(1/2) at state {state[bad[0]]}")
            psi = drift @ pinv_root.T
            dw, eta = step.draw(gen, size)
            log_rho += np.einsum("ij,ij->i", psi, dw) - 0.5 * delta * np.einsum("ij,ij->i", psi, psi)
            conv = conv @ step.propagator.T + eta
        yield conv, log_rho


def semilinear_estimate(model: OuLevyModel, spec: SemilinearSpec, t: float, x,
                        f: Callable, n: int, K: int, seed: int) -> McEstimate:
    """Weighted Monte Carlo estimate of the perturbed-drift expectation.

    Per replicate the stochastic convolution is advanced exactly on the grid;
    the drift perturbation enters only through the previsible weight
    ``rho = exp(sum psi_k . dW_k - sum |psi_k|^2 dt / 2)`` with
    ``psi = R^{-1/2} F(state)``, and the estimate is the mean of
    ``rho * f(endpoint)``, from one pass on the given grid: the weight is an
    exact martingale at every ``K``, so no finer grid would move its mean.
    """
    _require_semilinear_setting(model)
    x = np.asarray(x, dtype=float).reshape(-1)
    end_term = model.snapshot(t).propagator @ x
    value = RunningMoments()
    for conv, log_rho in _semilinear_blocks(model, spec, t, x, K, seed, n):
        value.add(np.exp(log_rho) * eval_rows(f, conv + end_term))
    return value.estimate(seed)


def semilinear_rho_moments(model: OuLevyModel, spec: SemilinearSpec, t: float, x,
                           powers, n: int, K: int, seed: int) -> dict[float, McEstimate]:
    """Monte Carlo moments ``E rho^p`` of the perturbed-drift weight."""
    _require_semilinear_setting(model)
    accs = {float(p): RunningMoments() for p in powers}
    for _, log_rho in _semilinear_blocks(model, spec, t, x, K, seed, n):
        for p, acc in accs.items():
            acc.add(np.exp(p * log_rho))
    return {p: acc.estimate(seed) for p, acc in accs.items()}
