"""Null controllability of the deterministic part of the OU dynamics.

The control system is ``x' = A x + R^{1/2} u`` started from ``x0``.  The
minimum energy of a control steering ``x0`` to zero by time ``t`` equals the
squared image norm of ``R_t^{-1/2} e^{tA}`` applied to ``x0``, where ``R_t``
is the Gramian.  This module evaluates that norm, builds the minimizing
control and a weighted family of (generally suboptimal) null controls, and
evaluates the decay-certificate upper bound on the energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linops
from .model import HFunction, OuLevyModel, _adjoint_law, verify_h_condition

#: Terminal-state acceptance threshold, relative to ``1 + |x0|``.
TERMINAL_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class GammaNorm:
    """Minimum steering energy of a single state, with domain diagnostics.

    ``value`` is infinite exactly when the propagated state leaves the range
    of the Gramian square root (``in_domain`` false); ``residual`` is the
    relative range-membership defect of the propagated state.
    """

    value: float
    in_domain: bool
    residual: float

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True, eq=False)
class NullControl:
    """A time-gridded control steering the system to zero.

    ``values`` holds ``u`` at the grid times; ``energy`` is the squared
    ``L^2`` size of the control; ``terminal_residual`` is the norm of the
    steered state at the final time under fourth-order integration.  An
    infeasible request is reported with infinite energy rather than raised.
    """

    grid: np.ndarray
    values: np.ndarray
    energy: float
    terminal_residual: float
    x0: np.ndarray

    @property
    def feasible(self) -> bool:
        return bool(np.isfinite(self.energy))

    @property
    def accepted(self) -> bool:
        return self.feasible and self.terminal_residual <= TERMINAL_RESIDUAL_TOL * (
            1.0 + float(np.linalg.norm(self.x0))
        )


def gamma_norm(model: OuLevyModel, t: float, x) -> GammaNorm:
    """Minimum-energy norm of ``x`` at horizon ``t``.

    Computed as ``|R_t^{-1/2} e^{tA} x|`` when the propagated state lies in
    the range of ``R_t^{1/2}`` (range-projector residual test), infinite
    otherwise.
    """
    snap = model.snapshot(t)
    fac = snap.gramian_sqrt
    v = snap.propagator @ np.asarray(x, dtype=float).reshape(-1)
    residual = fac.range_residual(v)
    in_domain = residual <= linops.DEFAULT_RANK_TOL
    value = float(np.linalg.norm(fac.apply_pinv_sqrt(v))) if in_domain else float("inf")
    return GammaNorm(value=value, in_domain=in_domain, residual=residual)


def gamma_operator_norm(model: OuLevyModel, t: float) -> float:
    """Operator norm ``|G^{-1/2} e^{tA}|_2`` of the minimum-energy map at horizon ``t``.

    The propagator is invertible at finite dimension, so the range inclusion
    needed for boundedness holds iff the Gramian ``G`` has full rank; when it
    fails the norm is reported as infinite (this convention also covers the
    case of a map bounded only on a proper domain).  Memoized on the model
    per ``t``: at large ``d`` each value is one dense SVD.  `_adjoint_state`
    reads the norm of `build_adjoint` ``(model)`` off the same snapshot.
    """
    def build() -> float:
        snap = model.snapshot(t)
        fac = snap.gramian_sqrt
        if fac.rank < snap.dim:
            return float("inf")
        return float(np.linalg.norm(fac.pinv_sqrt_matrix @ snap.propagator, 2))

    return model._memoized(("gamma_operator_norm", float(t)), build)


def _adjoint_state(model: OuLevyModel, t: float) -> tuple[np.ndarray, float]:
    """``P* = S P' S^{-1}``, ``P = e^{tA}``, and `gamma_operator_norm` of `build_adjoint`
    ``(model)``, ``sqrt(lambda_max(P*' G*^{-1} P*))`` with ``G*^{-1} = S^{-1} + P' G^{-1} P``
    (Woodbury on ``G* = S - P* S P*'``): PSD terms, so nothing cancels.  Whitened by ``S``,
    ``G`` and ``G*`` are ``I - KK'`` and ``I - K'K``: of one rank.  No adjoint model or expm;
    memoized on the model per ``t``; raises as `build_adjoint` does."""
    mu = _adjoint_law(model)

    def build() -> tuple[np.ndarray, float]:
        snap = model.snapshot(t)
        p, fac = snap.propagator, snap.gramian_sqrt
        adj = linops.read_only(np.linalg.solve(mu.cov, p @ mu.cov).T)
        if fac.rank < snap.dim:
            return adj, float("inf")
        prec = mu.factor.pinv_matrix + p.T @ fac.pinv_matrix @ p
        return adj, float(np.sqrt(np.linalg.eigvalsh(adj.T @ prec @ adj)[-1]))

    return model._memoized(("adjoint_state", float(t)), build)


def _rk4_terminal(model: OuLevyModel, t: float, x0: np.ndarray, drive_half: np.ndarray) -> np.ndarray:
    """Integrate ``x' = A x + g(s)`` from ``x0``, ``g`` on the half-step grid."""
    k = (drive_half.shape[0] - 1) // 2
    h = t / k
    a = model.drift_matrix
    x = x0.astype(float).copy()
    for j in range(k):
        g0, g1, g2 = drive_half[2 * j], drive_half[2 * j + 1], drive_half[2 * j + 2]
        k1 = a @ x + g0
        k2 = a @ (x + 0.5 * h * k1) + g1
        k3 = a @ (x + 0.5 * h * k2) + g1
        k4 = a @ (x + h * k3) + g2
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def _finish(model: OuLevyModel, t: float, grid: np.ndarray, x0: np.ndarray,
            u_half: np.ndarray, energy: float) -> NullControl:
    r_sqrt = model.noise_sqrt().sqrt_matrix
    terminal = _rk4_terminal(model, t, x0, u_half @ r_sqrt)
    return NullControl(
        grid=grid,
        values=u_half[::2],
        energy=energy,
        terminal_residual=float(np.linalg.norm(terminal)),
        x0=x0,
    )


def _infeasible(grid: np.ndarray, d: int, x0: np.ndarray) -> NullControl:
    values = np.full((grid.shape[0], d), np.nan)
    return NullControl(grid=grid, values=values, energy=float("inf"), terminal_residual=float("inf"), x0=x0)


def min_energy_control(model: OuLevyModel, t: float, x0, K: int) -> NullControl:
    """Minimum-energy null control on a uniform grid of ``K`` steps.

    The optimizer is ``u(s) = -R^{1/2} e^{A'(t-s)} R_t^+ e^{tA} x0``; its
    energy equals the squared minimum-energy norm up to grid discretization
    (trapezoid rule), and the steered state is integrated to confirm the
    terminal residual.  States outside the reachable range are refused with
    an infinite-energy report.
    """
    if K < 1:
        raise ValueError("grid size must be at least 1")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    grid = np.linspace(0.0, t, K + 1)
    snap = model.snapshot(t)
    fac = snap.gramian_sqrt
    v = snap.propagator @ x0
    if not fac.in_range(v):
        return _infeasible(grid, model.dim, x0)
    w = fac.apply_pinv(v)

    # adjoint states e^{A'(t - s_j)} w on the half-step grid, filled
    # backwards with one exact half-step propagator
    half_prop_T = linops.matrix_exponential(model.drift_matrix, 0.5 * t / K).T
    y = np.empty((2 * K + 1, model.dim))
    y[2 * K] = w
    for j in range(2 * K - 1, -1, -1):
        y[j] = half_prop_T @ y[j + 1]
    u_half = -(y @ model.noise_sqrt().sqrt_matrix)
    energy = float(np.trapezoid(np.sum(u_half[::2] ** 2, axis=1), grid))
    return _finish(model, t, grid, x0, u_half, energy)


def weighted_control(model: OuLevyModel, t: float, x0, xi, K: int) -> NullControl:
    """Null control weighted by a strictly positive profile ``xi``.

    The control is ``u(s) = -(xi(s) / int_0^t xi) R^{-1/2} e^{sA} x0``; its
    energy, ``int xi^2 |R^{-1/2} e^{sA} x0|^2 / (int xi)^2``, upper-bounds the
    squared minimum-energy norm and is evaluated by `linops.integrate`, with
    ``e^{sA} x0`` from the model's certified interpolant, so that closed-form
    equality cases are reproduced to near machine precision.
    ``xi`` must be positive wherever sampled; states whose trajectory leaves
    the range of ``R^{1/2}`` get an infinite-energy report.  Raises
    `linops.InterpolantError` for a drift beyond the interpolant's table budget.
    """
    if K < 1:
        raise ValueError("grid size must be at least 1")
    if t <= 0:
        raise ValueError("horizon must be positive")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    grid = np.linspace(0.0, t, K + 1)
    rfac = model.noise_sqrt()

    def xi_at(s: np.ndarray) -> np.ndarray:
        return np.array([float(xi(v)) for v in s])

    half_grid = np.linspace(0.0, t, 2 * K + 1)
    xi_half = xi_at(half_grid)
    if (xi_half <= 0).any():
        raise ValueError("weight profile must be strictly positive on the grid")
    interp = model.exp_interpolant(t)

    def states(s: np.ndarray) -> np.ndarray:
        """``e^{sA} x0`` at each time of ``s``."""
        return interp.apply(s, np.broadcast_to(x0, (s.size, x0.size)))

    z = states(half_grid)
    if not rfac.in_range(z).all():
        return _infeasible(grid, model.dim, x0)

    denom = linops.integrate(xi_at, 0.0, t)
    energy = linops.integrate(lambda s: xi_at(s) ** 2 * np.sum(rfac.apply_pinv_sqrt(states(s)) ** 2, axis=1),
                              0.0, t) / denom**2

    u_half = -(xi_half[:, None] / denom) * rfac.apply_pinv_sqrt(z)
    return _finish(model, t, grid, x0, u_half, energy)


def h_bound(model: OuLevyModel, h: HFunction, t: float, x) -> float:
    """Decay-certificate upper bound on the squared minimum-energy norm.

    Returns ``|R^{-1/2} x|^2 / int_0^t h(s)^{-1} ds``, infinite when ``x``
    is not in the range of ``R^{1/2}``; `verify_h_condition` must certify ``h``.
    """
    if t <= 0:
        raise ValueError("horizon must be positive")
    verify_h_condition(model, h, t).require()
    x = np.asarray(x, dtype=float).reshape(-1)
    rfac = model.noise_sqrt()
    if not rfac.in_range(x):
        return float("inf")
    num = float(np.sum(rfac.apply_pinv_sqrt(x) ** 2))
    return num / h.integral_of_inverse(t)
