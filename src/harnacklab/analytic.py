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

import math
from dataclasses import dataclass, field

import numpy as np

from . import control, linops
from .model import OuLevyModel, invariant_mean


class SingularityError(ValueError):
    """Raised when a density-based quantity does not exist (singular
    covariance on the relevant support)."""


def _full_rank(fac: linops.PsdFactorization, name: str) -> linops.PsdFactorization:
    """``fac``, or `SingularityError` when its rank (`linops.psd_rank`) is below its dimension."""
    if fac.rank < fac.dim:
        raise SingularityError(f"{name} is singular: density does not exist on the support")
    return fac


@dataclass(frozen=True, eq=False)
class GaussianMeasure:
    """Mean-covariance pair, held as read-only copies; covariance must be symmetric PSD.
    ``factor``, its `linops.psd_factor` factorization (one ``eigh``), is the PSD check,
    and every closed form below reads it."""

    mean: np.ndarray
    cov: np.ndarray
    factor: linops.PsdFactorization = field(init=False, repr=False)

    def __post_init__(self):
        cov = linops.check_symmetric(self.cov, "covariance")
        mean = np.array(self.mean, dtype=float).reshape(-1)
        if mean.shape[0] != cov.shape[0]:
            raise ValueError("mean and covariance dimensions differ")
        object.__setattr__(self, "mean", linops.read_only(mean))
        object.__setattr__(self, "cov", linops.read_only(cov))
        object.__setattr__(self, "factor", linops.psd_factor(cov))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


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


def mehler_exponential(model: OuLevyModel, t: float, c, x) -> float:
    """Expected exponential ``E exp(<c, X_t>)`` started at ``x``, in closed form.

    The Gaussian part contributes ``exp(<c, T_t x + m_t> + <R_t c, c>/2)``;
    a jump part contributes ``exp(rate * int_0^t (E exp(<lam(s), xi>) - 1) ds)``
    with ``lam(s) = e^{sA'} c``, i.e. ``lam(s)_i = <c, e^{sA} e_i>``, from the
    model's certified interpolant of ``e^{sA}`` at all nodes of a round of
    `linops.integrate`, and ``exp_moment`` called once per node.  The moment is
    integrated before the ``- 1``: near ``c = 0`` the difference is rounding noise
    of about 1e-16 per node, far above the rule's tolerance relative to its size.
    Saturates to ``inf`` past the float range, the jump moment included: an atom
    law's moment is finite, so an ``inf`` one has only overflowed.  Raises
    `linops.InterpolantError` for a drift beyond the interpolant's table budget.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    snap = model.snapshot(t)
    log_val = float(c @ (snap.propagator @ x + snap.mean_shift) + 0.5 * c @ snap.gramian @ c)
    if model.has_jumps:
        j = model.jump
        interp = model.exp_interpolant(t)

        def moment(s: np.ndarray) -> np.ndarray:
            vals = np.array([j.exp_moment(lam) for lam in interp.apply_transpose(s, c)])
            if np.isinf(vals).any():
                raise OverflowError
            return vals

        try:
            log_val += j.rate * (linops.integrate(moment, 0.0, t) - t)
        except OverflowError:
            return float("inf")
    with np.errstate(over="ignore"):  # a value past the float range is inf
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


def saturating_exp(x: float) -> float:
    """Exponential that saturates to ``inf`` instead of overflowing."""
    return float("inf") if x > 700.0 else math.exp(x)


def _kernel_energy(model: OuLevyModel, t: float, x, y) -> float:
    """Squared minimum-energy norm of ``x - y`` (`control.gamma_norm`), ``inf`` off the Gramian's range."""
    if model.has_jumps:
        raise ValueError("kernel quantities require a jump-free model")
    if not model.is_stable():
        raise linops.UnstableMatrixError("kernel comparison needs an invariant law")
    return control.gamma_norm(model, t, np.asarray(x, dtype=float) - np.asarray(y, dtype=float)).value ** 2


def heat_kernel_kl(model: OuLevyModel, t: float, x, y) -> float:
    """Relative entropy between the transition laws from ``x`` and from ``y``.

    Equals half the squared minimum-energy norm of ``x - y``; requires a
    stable jump-free model.
    """
    return 0.5 * _kernel_energy(model, t, x, y)


def kernel_harnack_lhs(model: OuLevyModel, t: float, x, y, alpha: float) -> float:
    """Sharpened kernel power integral
    ``int p_t(x,z) (p_t(x,z)/p_t(y,z))^{1/(alpha-1)} mu(dz)``.

    For equal-covariance Gaussian transition kernels the log density ratio is
    linear in ``z``, so the integral is a Gaussian exponential moment with
    value ``exp(alpha q / (2 (alpha-1)^2))`` where ``q`` is the squared
    minimum-energy norm of ``x - y``.  Validated against a Monte Carlo
    oracle in the tests.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    return saturating_exp(alpha * _kernel_energy(model, t, x, y) / (2.0 * (alpha - 1.0) ** 2))


def gaussian_exp_integral(mu: GaussianMeasure, beta: float, x) -> float:
    """``int exp(-beta |x - y|^2) mu(dy)`` in closed form.

    Equals ``exp(-beta d' (I + 2 beta S)^{-1} d) / sqrt(det(I + 2 beta S))``
    for ``d = x - mean`` and covariance ``S``, read in the eigenbasis of ``S``.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if beta == 0.0:
        return 1.0
    z = mu.factor.eigenvectors.T @ (np.asarray(x, dtype=float).reshape(-1) - mu.mean)
    scaled = 2.0 * beta * mu.factor.eigenvalues
    return float(np.exp(-beta * float(np.sum(z**2 / (1.0 + scaled))) - 0.5 * float(np.sum(np.log1p(scaled)))))


def _gaussian_power_integral(m1, f1: linops.PsdFactorization, a: float,
                             m2, f2: linops.PsdFactorization, b: float) -> float:
    """``int q1(z)^a q2(z)^b dz`` for Gaussian densities q1, q2 with means
    ``m1, m2`` and covariance factorizations ``f1, f2``, a + b = 1.

    Returns ``inf`` when the combined precision ``P = a P1 + b P2`` is not
    positive definite (the moment diverges).  One ``eigh`` of ``P`` gives that
    test, its log-determinant and the solve.
    """
    if abs(a + b - 1.0) > 1e-12:
        raise ValueError("exponents must sum to one")
    p1 = _full_rank(f1, "first covariance").pinv_matrix
    p2 = _full_rank(f2, "second covariance").pinv_matrix
    p = a * p1 + b * p2
    w, v = np.linalg.eigh(0.5 * (p + p.T))
    if w.min() <= 0:
        return float("inf")
    u = v.T @ (a * (p1 @ m1) + b * (p2 @ m2))
    c = a * float(m1 @ p1 @ m1) + b * float(m2 @ p2 @ m2)
    log_det = a * np.log(f1.eigenvalues).sum() + b * np.log(f2.eigenvalues).sum() + np.log(w).sum()
    with np.errstate(over="ignore"):  # a moment past the float range is inf
        return float(np.exp(-0.5 * float(log_det) + 0.5 * (float(np.sum(u**2 / w)) - c)))


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
    snap = model.snapshot(t)
    conj = alpha / (alpha - 1.0)
    moment = _gaussian_power_integral(snap.propagator @ x + snap.mean_shift, snap.gramian_sqrt, conj,
                                      mu.mean, mu.factor, 1.0 - conj)
    lhs = moment ** (1.0 / conj)
    op = control.gamma_operator_norm(model, t)
    if not np.isfinite(op):
        raise SingularityError("minimum-energy operator norm is infinite: no density bound")
    beta = alpha * op**2 / (2.0 * (alpha - 1.0))
    with np.errstate(divide="ignore", over="ignore"):  # an integral that underflows bounds nothing
        rhs = float(np.float64(gaussian_exp_integral(mu, beta, x)) ** (-1.0 / alpha))
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
    r = mu.factor.eigenvalues
    log_det_term = 0.5 * (1.0 + eps) * float(np.sum(np.log1p(2.0 * beta * r)))
    s = beta * (1.0 + eps) * r / (1.0 + 2.0 * beta * r)
    if (2.0 * s >= 1.0).any():
        return float("inf")
    return float(np.exp(log_det_term - 0.5 * float(np.sum(np.log1p(-2.0 * s)))))


def gaussian_kl(nu: GaussianMeasure, mu: GaussianMeasure) -> float:
    """Relative entropy ``KL(nu || mu)`` of Gaussian measures: `_whitened_kl` with ``Q = I``."""
    if nu.dim != mu.dim:
        raise ValueError("dimension mismatch")
    return _whitened_kl(nu, mu, _full_rank(mu.factor, "reference covariance").pinv_sqrt_matrix)


def _whitened_kl(nu: GaussianMeasure, mu: GaussianMeasure, root: np.ndarray) -> float:
    """``KL(N(m + Q (m_nu - m), S + Q (Sigma_nu - S) Q') || mu)``, ``mu = N(m, S)``, ``root = S^{-1/2} Q``:
    the law at ``t`` from ``nu`` of dynamics of propagator ``Q`` that leave ``mu`` invariant.
    It is ``(sum (w - log1p w) + |root (m_nu - m)|^2) / 2`` for the eigenvalues ``w`` of
    ``root (Sigma_nu - S) root'``: nonnegative terms, so a small divergence keeps its relative
    accuracy, which ``tr(S^{-1} Sigma) - d + log det S - log det Sigma`` loses.
    `SingularityError` when ``1 + w`` fails the rank rule."""
    w = np.linalg.eigvalsh(root @ (nu.cov - mu.cov) @ root.T)
    if linops.psd_rank(1.0 + w) < len(w):
        raise SingularityError("first covariance is singular: density does not exist on the support")
    z = root @ (nu.mean - mu.mean)
    return 0.5 * float(np.sum(w - np.log1p(w)) + z @ z)


def gaussian_w2(nu: GaussianMeasure, mu: GaussianMeasure) -> float:
    """Quadratic transport distance between Gaussian measures."""
    if nu.dim != mu.dim:
        raise ValueError("dimension mismatch")
    root2 = mu.factor.sqrt_matrix
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
    p_nu = _full_rank(nu.factor, "first covariance").pinv_matrix
    p_mu = _full_rank(mu.factor, "reference covariance").pinv_matrix
    g = 0.5 * (p_mu - p_nu)
    b = 0.5 * (p_nu @ nu.mean - p_mu @ mu.mean)
    r = model.noise_cov
    shift = g @ nu.mean + b
    return float(np.trace(g.T @ r @ g @ nu.cov) + shift @ r @ shift)
