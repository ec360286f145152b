"""Exact stochastic simulation of the OU-Levy dynamics.

Endpoint samples are exact in distribution: the Gaussian part is drawn from
the factorized time-``t`` Gramian and each compound-Poisson jump is moved
by the propagator ``e^{vA}`` over a uniform age ``v``, a block of jumps at a
time, so no inequality check pays a time-discretization penalty unless it
needs paths.  The jump transport works in the drift's eigenbasis when its
eigenvectors are well conditioned, and otherwise through the certified
Chebyshev interpolant `linops.exp_interpolant` of ``e^{vA}`` on ``[0, t]``,
built once per (model, ``t``): no matrix exponential is taken per jump.
Path-based functionality (change-of-measure weights, the coupled pair, the
perturbed-drift estimator) uses a fixed grid whose only approximation is the
left-point rule: in the stochastic integral of the weight exponent, whose
discrete weight is still an exact martingale for previsible integrands, and
in the perturbed drift, held over each step.  All of them step through one
path loop, `_paths`, of exact OU steps with ``d`` normals per replicate: the
perturbed-drift estimators of ``E f(X_t)`` add the drift ``F`` to the state
and carry its drift-free twin, an exact OU path, as a control variate; the
weight's estimands (the coupled pair, the Girsanov functionals, the
perturbed-drift weight's moments) accumulate the weight of a drift shift, the
null control, a fixed control or ``R^{-1/2} F``, with one more normal.

Randomness comes from counter-based Philox streams keyed by
``(seed, stream_id)``.  Monte Carlo estimators assign one stream per block
of replicates and yield each block's per-replicate values as the columns
of a ``(k, size)`` array; `fold` merges the blocks' column means and
co-moments into one `Moments` accumulator in stream order, so results are
bitwise reproducible regardless of how blocks are scheduled.  The blocks
of endpoints and of perturbed-drift paths form the doubling ladder of
`_stream_blocks`, from ``PATH_FIRST_BLOCK`` for the control-variate paths;
weighted path blocks hold ``MC_BLOCK`` replicates each.  Given a check's
margin, `fold` stops at the first block boundary where the margin is
decided; the moments there are those of a cap at that boundary.
An estimator of several start points makes one pass whose draws serve all
of them (common random numbers), one column per start.  The path loop's
step normals are drawn a chunk ahead on a helper thread (`_step_normals`),
bitwise those of a single thread.
"""

from __future__ import annotations

import math
import os
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from . import linops
from .control import min_energy_control
from .model import DRIFT_RANGE_TOL, OuLevyModel, SemilinearSpec

#: Replicates per RNG stream in vectorized Monte Carlo estimators, the
#: largest block of the ladder.
MC_BLOCK = 4096

#: Normals per chunk of the path loop's step draws (see `_step_normals`), at
#: least one step: the look-ahead buffer.
PATH_CHUNK = 1 << 15

#: First block of the ladder (see `_stream_blocks`): the first look
#: of `fold`'s stop rule comes after this many replicates.
MC_FIRST_BLOCK = 1024

#: First block of the control-variate path ladder (see `semilinear_twin_values`).
PATH_FIRST_BLOCK = 128

#: z boundary of `fold`'s stop rule: a margin that is not positive reads
#: above it at one look with a chance of about 1e-9 (normal tail), so over
#: the looks of a check (one per block boundary below its cap) an early stop
#: is far less likely to be wrong than the final one-sigma rule.
EARLY_Z = 6.0

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


def _stream_blocks(seed: int, n: int, first: int = MC_BLOCK) -> Iterator[tuple[np.random.Generator, int]]:
    """Replicate blocks, one keyed stream per block, for ``n >= 100`` replicates:
    ``first`` replicates, then as many as have been drawn, up to ``MC_BLOCK``
    a block, the last cut to ``n``.  The default is blocks of ``MC_BLOCK``;
    ``first = MC_FIRST_BLOCK`` gives the ladder 1024, 1024, 2048,
    then 4096 each, whose boundaries fall at 1024, 2048, 4096, 8192, ...,
    and ``first = PATH_FIRST_BLOCK`` the ladder 128, 128, 256, 512, ..."""
    if n < 100:
        raise ValueError("at least 100 replicates are required")
    sizes, done = [], 0
    while done < n:
        sizes.append(min(MC_BLOCK, max(first, done), n - done))
        done += sizes[-1]
    return ((RngStream(seed, block).generator(), size) for block, size in enumerate(sizes))


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


class Moments:
    """Streaming count, column means and co-moment matrix ``C`` of ``(k, size)``
    column blocks, one row per column and one entry per replicate.

    Each block is centered on its own column means, and its co-moment is
    merged into the running one in stream order by ``C <- C + C_b + d d'
    na nb / n`` (Pebay 2008; Schubert & Gertz 2018), ``d`` the gap between
    the block's means and the running ones.  No power sum of raw values is
    formed, so a common offset does not cancel the spread.  The diagonal is
    summed row by row, so each column's mean and variance are bitwise those
    of the column folded alone.  This is the one place that rejects
    non-finite values.
    """

    def __init__(self, k: int):
        self.n = 0
        self.mean = np.zeros(k)
        self.comoment = np.zeros((k, k))

    def add(self, block) -> None:
        v = np.asarray(block, dtype=float)
        na, nb = self.n, v.shape[1]
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is caught as a non-finite mean
            mb = v[:, 0] + (v - v[:, :1]).mean(axis=1)  # centred on the first replicate: exact for equal values
        if not np.isfinite(mb).all():  # a non-finite value, or a block sum that overflows
            bad = int(np.count_nonzero(~np.isfinite(v).all(axis=0)))  # replicates, not entries
            raise NonFiniteValueError(f"{bad} non-finite value(s) in the block at replicate {na}")
        n = na + nb
        dev = v - mb[:, None]
        cb = dev @ dev.T
        np.fill_diagonal(cb, (dev * dev).sum(axis=1))
        delta = mb - self.mean
        self.comoment += cb + np.outer(delta, delta) * na * nb / n
        self.mean += delta * (nb / n)
        self.n = n

    def std_error(self, i: int) -> float:
        """Standard error of the mean of column ``i``, ``sqrt(C_ii / (n - 1) / n)``."""
        return math.sqrt(self.comoment[i, i] / (self.n - 1) / self.n)

    def delta_se(self, grad) -> float:
        """Delta-method standard error of a smooth function of the column
        means whose gradient there is ``grad``: ``sqrt(grad' S grad / n)``,
        ``S`` the unbiased sample covariance.  A column without spread adds
        nothing, so a saturated ``inf`` coefficient scales it to zero, not to
        NaN; the sum is scaled by its largest term, so it does not overflow."""
        spread = np.sqrt(np.diag(self.comoment))
        live = spread > 0.0
        terms = np.asarray(grad, dtype=float)[live] * (spread[live] / math.sqrt((self.n - 1) * self.n))
        scale = float(np.abs(terms).max(initial=0.0))
        if scale == 0.0 or math.isinf(scale):
            return scale
        a = terms / scale
        corr = self.comoment[np.ix_(live, live)] / np.outer(spread[live], spread[live])
        return scale * math.sqrt(max(float(a @ corr @ a), 0.0))

    def estimate(self, i: int, seed: int) -> McEstimate:
        return McEstimate(mean=float(self.mean[i]), std_error=self.std_error(i), n=self.n, seed=seed)


@dataclass(frozen=True)
class EarlyHolds:
    """What `fold`'s stop rule reads of a check that holds when its margin is
    positive: the cap ``n`` of replicates its blocks sum to, and ``margin``,
    which maps the running moments to the margin and its standard error."""

    n: int
    margin: Callable[[Moments], tuple[float, float]]


def fold(blocks: Iterable, decided: EarlyHolds | None = None) -> Moments:
    """Add ``(k, size)`` column blocks to one `Moments` in stream order: the
    one loop through which every Monte Carlo estimate passes.

    With ``decided``, a group-sequential rule (Jennison & Turnbull 2000)
    reads the running moments after each block but the last, and the fold
    draws no further block once the margin exceeds ``EARLY_Z`` times a
    positive standard error.  Block ``b`` comes from stream ``b``, so the
    moments at a stop are bitwise those of a cap at that count."""
    acc = None
    for block in blocks:
        if acc is None:
            acc = Moments(len(block))
        acc.add(block)
        if decided is not None and acc.n < decided.n:
            margin, margin_se = decided.margin(acc)
            if margin_se > 0.0 and margin > EARLY_Z * margin_se:
                break
    return acc


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
    sizes = np.take(j.atoms, gen.choice(j.atoms.shape[0], size=total, p=j.probs), axis=0)
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
    noise = gen.standard_normal((size, model.dim)) @ snap.gramian_sqrt.sqrt_matrix.T
    noise += snap.mean_shift  # in place: one (size, d) array at a time
    if model.has_jumps:
        noise += _jump_block(model, t, gen, size, transport)
    return noise


def endpoint_values(model: OuLevyModel, t: float, starts, fs, n: int, seed: int) -> Iterator[np.ndarray]:
    """Blocks ``(S, size)`` of ``f_s(X_t^{x_s})`` for ``S`` start points from one noise pass.

    In this linear model ``X_t^y = X_t^x - e^{tA}(x - y)`` path by path,
    jumps included, so every start shares every draw (common random
    numbers).  ``fs`` holds one vectorized observable per start; each
    start's endpoints are formed and evaluated before the next start's.
    The noise blocks ``X_t - e^{tA} X_0`` form the ladder that starts at
    ``MC_FIRST_BLOCK``.
    """
    snap = model.snapshot(t)
    transport = _jump_transport(model, t) if model.has_jumps else None
    terms = [snap.propagator @ np.asarray(x, dtype=float).reshape(-1) for x in starts]
    for gen, size in _stream_blocks(seed, n, MC_FIRST_BLOCK):
        noise = _endpoint_noise_block(model, t, gen, size, snap, transport)
        yield np.stack([eval_rows(f, term + noise) for f, term in zip(fs, terms, strict=True)])
        del noise  # not held while the next block is drawn


def estimate_semigroup(model: OuLevyModel, t: float, x, f: Callable, n: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of ``E f(X_t)`` started at ``x``.

    ``f`` must be vectorized: it maps row-stacked points ``(m, d)`` to
    ``(m,)`` values, and any other shape raises ``ValueError``.  Estimation
    aborts on the first non-finite value of ``f``.
    """
    return fold(endpoint_values(model, t, [x], [f], n, seed)).estimate(0, seed)


# ---------------------------------------------------------------------------
# change-of-measure weights
# ---------------------------------------------------------------------------


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
    per-replicate values.  One pass of `_paths` serves all functionals, one
    column per functional.
    """
    _grid_step(t, K)  # rejects K < 1 before the control is read
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
    paths = _paths(model, t, np.zeros((1, model.dim)), K, _stream_blocks(seed, n),
                   shift=lambda k, states: np.broadcast_to(uvals[k], states.shape))
    moments = fold(np.stack([fn(log_rho) for fn in funcs.values()]) for *_, log_rho in paths)
    return {name: moments.estimate(i, seed) for i, name in enumerate(funcs)}


# ---------------------------------------------------------------------------
# joint increments and the one path loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _StepSampler:
    """One grid step of ``delta``, innovation first: ``P'``, ``G^{1/2}'``, ``B'``,
    ``V'`` and ``U'``, C-contiguous for ``np.dot`` on row-stacked states: the
    step's propagator, Gramian root (the innovation is ``eta = G^{1/2} z``,
    ``z`` standard normal) and ``B = int_0^delta e^{sA} ds``, which moves a
    drift held over the step.  With ``C = int_0^delta e^{sA} R^{1/2} ds``, ``dW
    = V' z + U zeta`` in law, ``V = G^{+1/2} C``, ``U = (delta I - V'V)^{1/2}``.
    A weighted step builds ``V`` and ``U`` and no ``B``, a drift step only
    ``B``; the factors a step does not build are None."""

    propagator_t: np.ndarray
    innovation_t: np.ndarray
    drift_t: np.ndarray | None
    whiten_t: np.ndarray | None
    residual_t: np.ndarray | None


def _step_sampler(model: OuLevyModel, delta: float, weighted: bool) -> _StepSampler:
    return model._memoized(("step_sampler", float(delta), weighted),
                           lambda: _build_step_sampler(model, float(delta), weighted))


def _build_step_sampler(model: OuLevyModel, delta: float, weighted: bool) -> _StepSampler:
    snap = model.snapshot(delta)
    a, eye = model.drift_matrix, np.eye(snap.dim)
    if weighted:
        cross = linops.convolution_factor(a, model.noise_sqrt().sqrt_matrix, delta)
        whiten = snap.gramian_sqrt.pinv_sqrt_matrix @ cross
        extra = None, whiten, linops.psd_sqrt_pinv(delta * eye - whiten.T @ whiten).sqrt_matrix
    else:
        extra = linops.convolution_factor(a, eye, delta), None, None
    return _StepSampler(*(None if m is None else linops.read_only(np.ascontiguousarray(m.T)) for m in (
        snap.propagator, snap.gramian_sqrt.sqrt_matrix, *extra)))


def _step_normals(gen, K, shape):
    """The path loop's step normals ``z_k`` for ``K`` steps, one ``shape =
    (size, d)`` array per step.  A chunk of about ``PATH_CHUNK`` normals is
    one ``gen.standard_normal`` call, whose C-order fill is the order of one
    draw per step, so the draws are bitwise those of a per-step loop.  One
    worker thread draws the next chunk while the caller works on the current
    one (numpy fills without the GIL); a single chunk, or a process that may
    run on one CPU only, is drawn inline.  No draw goes past step ``K``, a
    failed draw is raised on the caller's thread, and the worker is joined
    once the steps are out or the generator is closed, so the caller may
    draw from ``gen`` again."""
    from concurrent.futures import ThreadPoolExecutor  # on the first path, not at import

    c = max(1, PATH_CHUNK // math.prod(shape))
    chunks = (gen.standard_normal((min(c, K - k), *shape)) for k in range(0, K, c))
    if K <= c or hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) == 1:
        for chunk in chunks:  # nothing to overlap: a worker on one CPU only costs its hand-offs
            yield from chunk
        return
    chunk = next(chunks)
    with ThreadPoolExecutor(1, thread_name_prefix="harnacklab-step-normals") as pool:
        while chunk is not None:
            ahead = pool.submit(next, chunks, None)
            yield from chunk
            chunk = ahead.result()


def _paths(model, t, starts, K, blocks, drift=None, shift=None):
    """The one path loop: ``K`` grid steps ``X <- P X + B drift(X) + eta``
    (`_StepSampler`) of ``S`` start points on shared step normals from
    `_step_normals` (common random numbers), ``drift`` of the ``(S * size,
    d)`` stacked states held over each step; without it the step is the
    exact OU one.  With a drift, its twin ``X0 <- P X0 + eta`` on the same
    innovations is an exact OU path on any grid; without, the twin is ``X``.
    For one start and no drift, ``shift(k, X)`` gives the drift shift ``psi``
    whose weight ``rho = exp(sum psi_k . dW_k - |psi_k|^2 dt / 2)`` the loop
    carries in law: each step adds ``v . z - |v|^2 / 2``, ``v = V psi``, and
    one normal per replicate the rest, ``N(-s/2, s)`` given the ``z``, ``s =
    sum_k |U psi_k|^2``.  Yields ``(generator, states (S, size, d), twins (S,
    size, d), log_weights (size,))`` per ``(generator, size)`` block, zero
    log-weights without a shift, the generator past the path's draws and no
    helper left running."""
    starts = np.stack([np.asarray(x, dtype=float).reshape(-1) for x in starts])
    n_starts, d = starts.shape
    if shift is not None and (n_starts != 1 or drift is not None):
        raise ValueError("the full weight is drawn along exact OU paths of one start point only")
    step = _step_sampler(model, _grid_step(t, K), shift is not None)
    for gen, size in blocks:
        x = twin = np.broadcast_to(starts[:, None], (n_starts, size, d))
        log_rho, s = np.zeros(size), np.zeros(size)
        with closing(_step_normals(gen, K, (size, d))) as normals:
            for k, z in enumerate(normals):
                rows = x.reshape(-1, d)  # np.dot of a 3-d array takes no BLAS path
                if shift is not None:
                    psi = shift(k, rows)
                    v, u = np.dot(psi, step.whiten_t), np.dot(psi, step.residual_t)
                    log_rho += np.einsum("ij,ij->i", v, z - 0.5 * v)
                    s += np.einsum("ij,ij->i", u, u)
                moved = np.dot(rows, step.propagator_t)
                eta = np.dot(z, step.innovation_t)
                if drift is not None:
                    moved += np.dot(drift(rows), step.drift_t)
                    twin = np.dot(twin.reshape(-1, d), step.propagator_t).reshape(x.shape) + eta
                x = moved.reshape(x.shape) + eta
        if shift is not None:
            log_rho += np.sqrt(s) * gen.standard_normal(size) - 0.5 * s
        yield gen, x, (twin if drift is not None else x), log_rho


# ---------------------------------------------------------------------------
# coupled pair
# ---------------------------------------------------------------------------


def _coupled_blocks(model, t, x, y, K, blocks):
    """Coupled endpoints started at ``y``, one ``(size, d)`` array per
    ``(generator, size)`` block, with their log-weights and the control's
    squared size: yields ``(endpoints, log_rho, integral_psi_sq)``.  The
    drift shift is the null control; the jumps are drawn after the path."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    ctrl = min_energy_control(model, t, y - x, K)
    if not ctrl.feasible:
        raise ValueError("x - y is outside the steerable domain at this horizon")
    if not ctrl.accepted:
        raise ControlRejectedError(f"null control rejected: terminal residual {ctrl.terminal_residual:.3e}")
    u = ctrl.values[:-1]
    snap = model.snapshot(t)
    transport = _jump_transport(model, t) if model.has_jumps else None
    base = snap.propagator @ y + snap.mean_shift
    sq = _grid_step(t, K) * float(np.sum(u * u))
    for gen, conv, _, log_rho in _paths(model, t, np.zeros((1, model.dim)), K, blocks,
                                     shift=lambda k, states: np.broadcast_to(u[k], states.shape)):
        endpoints = base + conv[0]
        if model.has_jumps:
            endpoints = endpoints + _jump_block(model, t, gen, len(log_rho), transport)
        yield endpoints, log_rho, sq


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


# ---------------------------------------------------------------------------
# perturbed-drift (weak-solution) estimation
# ---------------------------------------------------------------------------


def _checked_drift(model: OuLevyModel, spec: SemilinearSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The perturbed drift ``F`` of a jump-free model with a zero drift offset,
    on row-stacked states ``(m, d)``: each call checks that ``F`` returned
    ``(m, d)`` values in the range of ``R^{1/2}``."""
    if model.has_jumps:
        raise ValueError("perturbed-drift estimation requires a jump-free model")
    if float(np.abs(model.drift_offset).max(initial=0.0)) != 0.0:
        raise ValueError("perturbed-drift estimation requires a zero drift offset")
    rfac = model.noise_sqrt()

    def drift(states):
        values = np.asarray(spec.drift_fn(states), dtype=float)
        if values.shape != states.shape:
            raise ValueError("drift function must map (m, d) states to (m, d) values")
        if rfac.rank < model.dim:  # only a null space of R^{1/2} can fail the range test
            bad = np.flatnonzero(~rfac.in_range(values, DRIFT_RANGE_TOL))
            if bad.size:
                raise DriftRangeError(f"drift value leaves the range of R^(1/2) at state {states[bad[0]]}")
        return values

    return drift


def semilinear_values(model: OuLevyModel, spec: SemilinearSpec, t: float, starts, fs,
                      n: int, K: int, seed: int) -> Iterator[np.ndarray]:
    """Blocks ``(S, size)`` of ``f_s(X_t^{x_s})`` on the perturbed-drift paths
    of ``S`` start points from one pass shared by all starts (common random
    numbers).  ``fs`` holds one observable per start.  The path blocks form
    the ladder that starts at ``MC_FIRST_BLOCK``, as the endpoint blocks do."""
    blocks = _stream_blocks(seed, n, MC_FIRST_BLOCK)
    for _, ends, *_ in _paths(model, t, starts, K, blocks, drift=_checked_drift(model, spec)):
        yield np.stack([eval_rows(f, x) for f, x in zip(fs, ends, strict=True)])


def semilinear_twin_values(model: OuLevyModel, spec: SemilinearSpec, t: float, starts, fs, means,
                           n: int, K: int, seed: int) -> Iterator[np.ndarray]:
    """`semilinear_values` with the twin ``X0`` of `_paths` as a control variate
    of coefficient 1 (Glasserman 2003, 4.1): blocks of ``means[s] + f_s(X_t) -
    f_s(X0_t)``, ``means[s] = E f_s(X0_t)`` the exact OU mean, unbiased for the
    grid law, on the ladder that starts at ``PATH_FIRST_BLOCK``."""
    blocks = _stream_blocks(seed, n, PATH_FIRST_BLOCK)
    for _, ends, twins, _ in _paths(model, t, starts, K, blocks, drift=_checked_drift(model, spec)):
        yield np.stack([q + (eval_rows(f, x) - eval_rows(f, x0))
                        for f, q, x, x0 in zip(fs, means, ends, twins, strict=True)])


def semilinear_estimate(model: OuLevyModel, spec: SemilinearSpec, t: float, x,
                        f: Callable, n: int, K: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of ``E f(X_t)`` for ``dX = (A X + F(X)) dt + R^{1/2} dW``.

    Each path takes ``K`` grid steps ``X <- P X + B F(X) + eta``, exact but
    for ``F``, held at its left-point value over each step: the law to which
    the previsible Girsanov weight of ``psi = R^{-1/2} F`` reweights exact OU
    paths.  For a state-dependent ``F`` the estimate carries that law's
    ``O(1/K)`` weak error (Kloeden & Platen 1992, ch. 14), which a finer grid
    shrinks; a constant ``F`` is exact on any grid.
    """
    return fold(semilinear_values(model, spec, t, [x], [f], n, K, seed)).estimate(0, seed)


def semilinear_rho_moments(model: OuLevyModel, spec: SemilinearSpec, t: float, x,
                           powers, n: int, K: int, seed: int) -> dict[float, McEstimate]:
    """Moments ``E rho^p`` of the perturbed-drift weight, ``psi = R^{-1/2}
    F(state)`` along exact OU paths."""
    powers = [float(p) for p in powers]
    drift, rfac = _checked_drift(model, spec), model.noise_sqrt()
    paths = _paths(model, t, np.asarray(x, dtype=float).reshape(1, -1), K, _stream_blocks(seed, n),
                   shift=lambda k, states: rfac.apply_pinv_sqrt(drift(states)))
    moments = fold(np.stack([np.exp(p * log_rho) for p in powers]) for *_, log_rho in paths)
    return {p: moments.estimate(i, seed) for i, p in enumerate(powers)}
