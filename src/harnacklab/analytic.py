"""Closed-form Gaussian calculators used as oracles and exact evaluators.

Everything in this module reduces to finite-dimensional Gaussian integrals:
exponential moments of the transition semigroup and of the convolution's
square integral, heat-kernel divergences and the kernel-level inequalities,
density norms and the hyper-boundedness constant, pushforwards, and the
entropy / transport / Fisher quantities of Gaussian measures.  Each closed
form is validated against an independent quadrature or Monte Carlo oracle
in the test suite before the verification layer is allowed to rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.integrate

from . import control, linops
from .model import AdjointModel, OuLevyModel, invariant_mean


class SingularityError(ValueError):
    """Raised when a density-based quantity does not exist (singular
    covariance on the relevant support)."""


@dataclass(frozen=True, eq=False)
class GaussianMeasure:
    """Mean-covariance pair, held as read-only copies; covariance must be symmetric PSD."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        cov = linops.check_psd(self.cov, "covariance")
        mean = np.array(self.mean, dtype=float).reshape(-1)
        if mean.shape[0] != cov.shape[0]:
            raise ValueError("mean and covariance dimensions differ")
        object.__setattr__(self, "mean", linops.read_only(mean))
        object.__setattr__(self, "cov", linops.read_only(cov))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        fac = linops.psd_sqrt_pinv(self.cov)
        z = gen.standard_normal((size, self.dim))
        return self.mean + z @ fac.sqrt_matrix.T


def invariant_measure(model: OuLevyModel) -> GaussianMeasure:
    """Gaussian steady-state law of a stable jump-free model (memoized on the model)."""
    if model.has_jumps:
        raise ValueError("no closed-form invariant law with a jump part")
    return model._memoized("invariant_measure", lambda: GaussianMeasure(
        mean=invariant_mean(model), cov=model.steady_covariance()))


def transition_law(model: OuLevyModel, t: float, x) -> GaussianMeasure:
    """Law of the state at time ``t`` started at ``x`` (jump-free models)."""
    if model.has_jumps:
        raise ValueError("transition law is Gaussian only without jumps")
    snap = model.snapshot(t)
    x = np.asarray(x, dtype=float).reshape(-1)
    return GaussianMeasure(mean=snap.propagator @ x + snap.mean_shift, cov=snap.gramian)


def ou_pushforward(model: OuLevyModel, nu: GaussianMeasure, t: float) -> GaussianMeasure:
    """Law at time ``t`` of the jump-free dynamics started from ``nu``."""
    if model.has_jumps:
        raise ValueError("pushforward is Gaussian only without jumps")
    snap = model.snapshot(t)
    mean = snap.propagator @ nu.mean + snap.mean_shift
    cov = snap.propagator @ nu.cov @ snap.propagator.T + snap.gramian
    return GaussianMeasure(mean=mean, cov=0.5 * (cov + cov.T))


def pushforward_adjoint(adjoint: AdjointModel, nu: GaussianMeasure, t: float) -> GaussianMeasure:
    """Law at time ``t`` of the adjoint dynamics started from ``nu``.

    The invariant law (steady-state mean and covariance of the base model)
    is a fixed point of this map.
    """
    prop = adjoint.propagator(t)
    mean = adjoint.m_inf + prop @ (nu.mean - adjoint.m_inf)
    cov = prop @ nu.cov @ prop.T + adjoint.gramian(t)
    return GaussianMeasure(mean=mean, cov=0.5 * (cov + cov.T))


def _solve_spd(s: np.ndarray, b: np.ndarray, name: str) -> np.ndarray:
    try:
        c = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"{name} is singular: density does not exist on the support") from exc
    y = np.linalg.solve(c, b)
    return np.linalg.solve(c.T, y)


def _logdet_spd(s: np.ndarray, name: str) -> float:
    sign, val = np.linalg.slogdet(s)
    if sign <= 0:
        raise SingularityError(f"{name} is singular: density does not exist on the support")
    return float(val)


def mehler_exponential(model: OuLevyModel, t: float, c, x) -> float:
    """Expected exponential ``E exp(<c, X_t>)`` started at ``x``, in closed form.

    The Gaussian part contributes ``exp(<c, T_t x + m_t> + <R_t c, c>/2)``;
    an atom jump part contributes
    ``exp(rate * int_0^t (E exp(<c, e^{sA} xi>) - 1) ds)`` with the time
    integral done by adaptive quadrature (exactly ``t*(E exp(<c, xi>)-1)``
    for zero drift).  Raises on a divergent exponential moment.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    snap = model.snapshot(t)
    log_val = float(c @ (snap.propagator @ x + snap.mean_shift) + 0.5 * c @ snap.gramian @ c)
    if model.has_jumps:
        j = model.jump
        if j.exp_moment is None:
            raise ValueError("jump law without exponential moment: closed form unavailable")

        def centered(s: float) -> float:
            prop = linops.matrix_exponential(model.drift_matrix, s)
            val = j.exp_moment(prop.T @ c)
            if not np.isfinite(val):
                raise ValueError("divergent jump exponential moment")
            return val - 1.0

        if np.abs(model.drift_matrix).max() == 0.0:
            integral = t * centered(0.0)
        else:
            integral, _ = scipy.integrate.quad(centered, 0.0, t, epsabs=1e-12, epsrel=1e-12, limit=200)
        log_val += j.rate * integral
    return float(np.exp(log_val))


def convolution_square_exp_moment(model: OuLevyModel, t: float, lam: float) -> float:
    """``E exp(lam int_0^t |W_A(s)|^2 ds)`` in closed form, ``inf`` where it diverges.

    The moment is ``det U(t)^{-1/2} exp(-t tr A / 2)`` for ``(U, V)`` the flow of
    ``H = [[-A, -R], [2 lam I, A']]`` from ``(I, 0)``; ``Q = V U^{-1}`` solves the
    Riccati equation ``Q' = A'Q + QA + QRQ + 2 lam I``, ``Q(0) = 0`` (Radon's lemma;
    Cameron-Martin for Brownian motion).  It is finite exactly when ``Q`` stays
    finite on ``[0, t]``, which the sign of ``det U(t)`` cannot tell (a double root
    touches zero without a sign change).  So ``Q`` is stepped by one exact flow of
    step ``h |H|_2 <= 1``, and each step must keep ``det U > 0`` and ``Q`` nondecreasing.
    """
    if lam < 0:
        raise ValueError("rate must be nonnegative")
    a, d = model.drift_matrix, model.dim
    ham = np.block([[-a, -model.noise_cov], [2.0 * lam * np.eye(d), a.T]])
    steps = max(1, int(np.ceil(t * np.linalg.norm(ham, 2))))
    flow = linops.matrix_exponential(ham, t / steps)
    q = np.zeros((d, d))
    log_det = 0.0
    for _ in range(steps):
        u = flow[:d, :d] + flow[:d, d:] @ q
        sign, step_log_det = np.linalg.slogdet(u)
        if sign <= 0:
            return float("inf")
        q_next = np.linalg.solve(u.T, (flow[d:, :d] + flow[d:, d:] @ q).T)  # (V U^{-1})'
        q_next = 0.5 * (q_next + q_next.T)
        if np.linalg.eigvalsh(q_next - q).min() < linops.psd_floor(q_next):
            return float("inf")
        log_det += step_log_det
        q = q_next
    return float(np.exp(-0.5 * log_det - 0.5 * t * np.trace(a)))


def _equal_cov_quadratic(model: OuLevyModel, t: float, x, y) -> float:
    """``<R_t^{-1} T_t(x-y), T_t(x-y)>`` for nonsingular ``R_t``."""
    if model.has_jumps:
        raise ValueError("kernel quantities require a jump-free model")
    snap = model.snapshot(t)
    delta = snap.propagator @ (np.asarray(x, dtype=float) - np.asarray(y, dtype=float)).reshape(-1)
    return float(delta @ _solve_spd(snap.gramian, delta, "time-t covariance"))


def heat_kernel_kl(model: OuLevyModel, t: float, x, y) -> float:
    """Relative entropy between the transition laws from ``x`` and from ``y``.

    Equals half the squared minimum-energy norm of ``x - y``; requires a
    stable jump-free model with nonsingular time-``t`` covariance.
    """
    if not model.is_stable():
        raise linops.UnstableMatrixError("heat-kernel comparison needs an invariant law")
    return 0.5 * _equal_cov_quadratic(model, t, x, y)


def kernel_harnack_lhs(model: OuLevyModel, t: float, x, y, alpha: float) -> float:
    """Sharpened kernel power integral
    ``int p_t(x,z) (p_t(x,z)/p_t(y,z))^{1/(alpha-1)} mu(dz)``.

    For equal-covariance Gaussian transition kernels the log density ratio is
    linear in ``z``, so the integral is a Gaussian exponential moment with
    value ``exp(alpha q / (2 (alpha-1)^2))`` where ``q`` is the quadratic
    form of ``x - y`` under the inverse time-``t`` covariance.  Validated
    against a Monte Carlo oracle in the tests.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if not model.is_stable():
        raise linops.UnstableMatrixError("kernel comparison needs an invariant law")
    q = _equal_cov_quadratic(model, t, x, y)
    return float(np.exp(alpha * q / (2.0 * (alpha - 1.0) ** 2)))


def gaussian_exp_integral(mu: GaussianMeasure, beta: float, x) -> float:
    """``int exp(-beta |x - y|^2) mu(dy)`` in closed form.

    Equals ``exp(-beta d' (I + 2 beta S)^{-1} d) / sqrt(det(I + 2 beta S))``
    for ``d = x - mean`` and covariance ``S``.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if beta == 0.0:
        return 1.0
    d = np.asarray(x, dtype=float).reshape(-1) - mu.mean
    s = np.eye(mu.dim) + 2.0 * beta * mu.cov
    val = -beta * float(d @ np.linalg.solve(s, d)) - 0.5 * _logdet_spd(s, "exp-integral matrix")
    return float(np.exp(val))


def _gaussian_power_integral(m1, s1, a: float, m2, s2, b: float) -> float:
    """``int q1(z)^a q2(z)^b dz`` for Gaussian densities q1, q2, a + b = 1.

    Returns ``inf`` when the combined precision ``a P1 + b P2`` is not
    positive definite (the moment diverges).
    """
    if abs(a + b - 1.0) > 1e-12:
        raise ValueError("exponents must sum to one")
    m1 = np.asarray(m1, dtype=float).reshape(-1)
    m2 = np.asarray(m2, dtype=float).reshape(-1)
    p1 = _solve_spd(np.asarray(s1, dtype=float), np.eye(m1.shape[0]), "first covariance")
    p2 = _solve_spd(np.asarray(s2, dtype=float), np.eye(m2.shape[0]), "second covariance")
    p = a * p1 + b * p2
    p = 0.5 * (p + p.T)
    if np.linalg.eigvalsh(p).min() <= 0:
        return float("inf")
    v = a * (p1 @ m1) + b * (p2 @ m2)
    c = a * float(m1 @ p1 @ m1) + b * float(m2 @ p2 @ m2)
    log_val = (
        -0.5 * a * _logdet_spd(np.asarray(s1, dtype=float), "first covariance")
        - 0.5 * b * _logdet_spd(np.asarray(s2, dtype=float), "second covariance")
        - 0.5 * _logdet_spd(p, "combined precision")
        + 0.5 * (float(v @ np.linalg.solve(p, v)) - c)
    )
    return float(np.exp(log_val))


def density_norm_bound(model: OuLevyModel, t: float, x, alpha: float) -> tuple[float, float]:
    """Transition-density norm and its closed-form upper bound.

    Returns ``(lhs, rhs)`` where ``lhs`` is the ``L^{alpha/(alpha-1)}`` norm
    (w.r.t. the invariant law) of the transition density from ``x`` and
    ``rhs`` is the reciprocal-exponential-integral bound.  A divergent
    moment is reported as an infinite ``lhs``.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    mu = invariant_measure(model)
    law = transition_law(model, t, x)
    conj = alpha / (alpha - 1.0)
    moment = _gaussian_power_integral(law.mean, law.cov, conj, mu.mean, mu.cov, 1.0 - conj)
    lhs = moment ** (1.0 / conj)
    op = control.gamma_operator_norm(model, t)
    if not np.isfinite(op):
        raise SingularityError("minimum-energy operator norm is infinite: no density bound")
    beta = alpha * op**2 / (2.0 * (alpha - 1.0))
    rhs = gaussian_exp_integral(mu, beta, x) ** (-1.0 / alpha)
    return lhs, rhs


def hyper_constant(model: OuLevyModel, t: float, alpha: float, eps: float) -> float:
    """Hyper-boundedness constant ``C(t, alpha, eps)``.

    The inner exponential integral has the closed form above; raising it to
    ``-(1+eps)`` and integrating over the invariant Gaussian law is a
    quadratic exponential moment, evaluated spectrally.  Divergence is
    reported as ``inf``.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    mu = invariant_measure(model)
    op = control.gamma_operator_norm(model, t)
    if not np.isfinite(op):
        raise SingularityError("minimum-energy operator norm is infinite")
    beta = alpha * op**2 / (2.0 * (alpha - 1.0))
    if beta == 0.0:
        return 1.0
    r = np.linalg.eigvalsh(mu.cov)
    log_det_term = 0.5 * (1.0 + eps) * float(np.sum(np.log1p(2.0 * beta * r)))
    s = beta * (1.0 + eps) * r / (1.0 + 2.0 * beta * r)
    if (2.0 * s >= 1.0).any():
        return float("inf")
    return float(np.exp(log_det_term - 0.5 * float(np.sum(np.log1p(-2.0 * s)))))


def gaussian_kl(nu: GaussianMeasure, mu: GaussianMeasure) -> float:
    """Relative entropy ``KL(nu || mu)`` of Gaussian measures."""
    if nu.dim != mu.dim:
        raise ValueError("dimension mismatch")
    d = nu.dim
    p2 = _solve_spd(mu.cov, np.eye(d), "reference covariance")
    diff = mu.mean - nu.mean
    logdet1 = _logdet_spd(nu.cov, "first covariance")
    logdet2 = _logdet_spd(mu.cov, "reference covariance")
    return 0.5 * float(np.trace(p2 @ nu.cov) + diff @ p2 @ diff - d + logdet2 - logdet1)


def gaussian_w2(nu: GaussianMeasure, mu: GaussianMeasure) -> float:
    """Quadratic transport distance between Gaussian measures."""
    if nu.dim != mu.dim:
        raise ValueError("dimension mismatch")
    root2 = linops.psd_sqrt_pinv(mu.cov).sqrt_matrix
    inner = root2 @ nu.cov @ root2
    cross = linops.psd_sqrt_pinv(0.5 * (inner + inner.T)).sqrt_matrix
    sq = float(np.sum((nu.mean - mu.mean) ** 2) + np.trace(nu.cov + mu.cov - 2.0 * cross))
    return float(np.sqrt(max(sq, 0.0)))


def fisher_information(model: OuLevyModel, nu: GaussianMeasure, mu: GaussianMeasure) -> float:
    """Noise-weighted Fisher information of ``nu`` relative to ``mu``.

    For ``f = sqrt(d nu / d mu)`` this is the ``mu``-integral of
    ``<R grad f, grad f>``.  The log density ratio of Gaussians is quadratic,
    so ``grad log f`` is affine and the integral (which collapses to a
    ``nu``-expectation of a quadratic form) is explicit.
    """
    if nu.dim != mu.dim or nu.dim != model.dim:
        raise ValueError("dimension mismatch")
    d = nu.dim
    p_nu = _solve_spd(nu.cov, np.eye(d), "first covariance")
    p_mu = _solve_spd(mu.cov, np.eye(d), "reference covariance")
    g = 0.5 * (p_mu - p_nu)
    b = 0.5 * (p_nu @ nu.mean - p_mu @ mu.mean)
    r = model.noise_cov
    shift = g @ nu.mean + b
    return float(np.trace(g.T @ r @ g @ nu.cov) + shift @ r @ shift)
