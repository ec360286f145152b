"""Executable inequality checks with explicit statistical verdicts.

Each check evaluates a left-hand side and a right-hand side, by closed form
where one exists (standard error zero) and by seeded Monte Carlo otherwise,
and classifies the margin:

* ``VIOLATED`` needs a breach beyond three combined standard errors (plus a
  relative slack of 1e-9 for exact evaluations); the shipped inequalities
  are theorems, so a violation is a bug detector by construction;
* ``HOLDS_EQUALITY`` flags margins within one standard error or 1e-9;
* ``HOLDS`` is a positive margin beyond the equality window;
* anything in between is ``INCONCLUSIVE`` with a suggestion to raise ``n``;
* an infinite right-hand side short-circuits to ``TRIVIAL_INFINITE_RHS``;
* a NaN side or standard error raises ``ValueError``: it is no verdict.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic, control, linops, sampler
from .model import HFunction, OuLevyModel, SemilinearSpec, build_adjoint, default_h_probes, verify_h_condition
from .testfuncs import ExpObservable

HOLDS = "HOLDS"
HOLDS_EQUALITY = "HOLDS_EQUALITY"
VIOLATED = "VIOLATED"
TRIVIAL_INFINITE_RHS = "TRIVIAL_INFINITE_RHS"
INCONCLUSIVE = "INCONCLUSIVE"

#: Verdicts that count as a pass for exit-code purposes.
PASS_VERDICTS = frozenset({HOLDS, HOLDS_EQUALITY, TRIVIAL_INFINITE_RHS})


@dataclass(frozen=True)
class CheckReport:
    """One inequality verdict: sides, standard errors, margin, verdict."""

    check_id: str
    lhs: float
    rhs: float
    lhs_se: float
    rhs_se: float
    margin: float
    verdict: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    @property
    def passed(self) -> bool:
        return self.verdict in PASS_VERDICTS


def classify(lhs: float, rhs: float, lhs_se: float = 0.0, rhs_se: float = 0.0) -> str:
    if any(math.isnan(v) for v in (lhs, rhs, lhs_se, rhs_se)):
        raise ValueError(f"NaN verdict input: lhs={lhs}, rhs={rhs}, lhs_se={lhs_se}, rhs_se={rhs_se}")
    if math.isinf(rhs) and rhs > 0:
        return TRIVIAL_INFINITE_RHS
    sigma = math.hypot(lhs_se, rhs_se)
    margin = rhs - lhs
    slack = 1e-9 * max(1.0, abs(lhs), abs(rhs))
    if abs(margin) <= max(slack, sigma):
        return HOLDS_EQUALITY
    if margin > 0:
        return HOLDS
    if margin < -(3.0 * sigma + slack):
        return VIOLATED
    return INCONCLUSIVE


def _exp(x: float) -> float:
    """Exponential that saturates to ``inf`` instead of overflowing."""
    if x > 700.0:
        return float("inf")
    return math.exp(x)


def _times(coef: float, v: float) -> float:
    """``coef * v``, where a saturated ``coef = inf`` stands for a finite number
    too large to hold: it scales an exact zero to zero, not to NaN."""
    return 0.0 if v == 0.0 else coef * v


def _report(check_id, lhs, rhs, lhs_se, rhs_se, params, seed, note=None) -> CheckReport:
    params = dict(params)
    verdict = classify(lhs, rhs, lhs_se, rhs_se)
    if verdict == INCONCLUSIVE:
        params.setdefault("note", "inconclusive margin; rerun with a larger sample size")
    if note:
        params["note"] = note if "note" not in params else params["note"] + "; " + note
    margin = float("inf") if math.isinf(rhs) and rhs > 0 else rhs - lhs
    return CheckReport(
        check_id=check_id,
        lhs=float(lhs),
        rhs=float(rhs),
        lhs_se=float(lhs_se),
        rhs_se=float(rhs_se),
        margin=float(margin),
        verdict=verdict,
        params=params,
        seed=int(seed),
    )


class _TrackMin:
    """Callable wrapper recording the smallest value seen (sign checks)."""

    def __init__(self, f):
        self.f = f
        self.min = math.inf

    def __call__(self, pts):
        vals = np.asarray(self.f(pts), dtype=float)
        if vals.size:
            self.min = min(self.min, float(vals.min()))
        return vals


def _power_fn(f, alpha: float):
    if isinstance(f, ExpObservable):
        return f.power(alpha)
    return lambda pts: np.asarray(f(pts), dtype=float) ** alpha


def _closed_form_available(model: OuLevyModel, f) -> bool:
    if not isinstance(f, ExpObservable):
        return False
    return not model.has_jumps or model.jump.exp_moment is not None


def _propagated_sq_integral(model: OuLevyModel, t: float, *points: np.ndarray) -> float:
    """Sum over the points of ``int_0^t |e^{sA} x|^2 ds = x' G x``, with ``G``
    the Gramian of ``(A', I)`` at ``t``: one augmented-block expm."""
    d = model.dim
    g = linops.semigroup_snapshot(model.drift_matrix.T, np.eye(d), np.zeros(d), t).gramian
    return float(sum(x @ g @ x for x in points))


def _echo(**kw) -> dict:
    out = {}
    for k, v in kw.items():
        if isinstance(v, np.ndarray):
            out[k] = v.tolist()
        elif isinstance(v, HFunction):
            out[k] = v.label
        elif isinstance(v, (np.floating, np.integer)):
            out[k] = float(v)
        elif v is None or isinstance(v, (int, float, str, bool, list, dict)):
            out[k] = v
        else:
            out[k] = repr(v)
    return out


def _measure_echo(nu: analytic.GaussianMeasure) -> dict:
    """``nu`` by its dimension and a digest of its mean and covariance bytes;
    the scenario already holds the matrices."""
    digest = hashlib.sha256(nu.mean.tobytes() + nu.cov.tobytes()).hexdigest()
    return {"dim": nu.dim, "sha256": digest[:16]}


# ---------------------------------------------------------------------------
# Harnack-type checks
# ---------------------------------------------------------------------------


def _energy_squared(model, t, x, y, bound_mode, h, user_control):
    delta = np.asarray(x, dtype=float).reshape(-1) - np.asarray(y, dtype=float).reshape(-1)
    note = None
    if bound_mode == "exact_gamma":
        if user_control is not None:
            if not user_control.feasible:
                return float("inf"), "user control infeasible"
            note = "exponent uses the supplied control energy"
            return float(user_control.energy), note
        return float(control.gamma_norm(model, t, delta)) ** 2, note
    if bound_mode == "operator_norm":
        norm = float(np.linalg.norm(delta))
        if norm == 0.0:
            return 0.0, note
        return (control.gamma_operator_norm(model, t) * norm) ** 2, note
    if bound_mode == "h_function":
        if h is None:
            raise ValueError("bound_mode 'h_function' needs a decay profile")
        return control.h_bound(model, h, t, delta), note
    raise ValueError(f"unknown bound_mode {bound_mode!r}")


def check_harnack(model: OuLevyModel, t: float, x, y, alpha: float, f,
                  bound_mode: str = "exact_gamma", n: int = 100_000, seed: int = 0,
                  h: HFunction | None = None, user_control=None,
                  check_id: str = "harnack") -> CheckReport:
    """Power-type comparison of the semigroup at two starting points.

    Verifies ``(P_t f(x))^alpha <= exp(alpha E^2 / (2 (alpha-1))) P_t
    f^alpha(y)`` with the exponent ``E^2`` chosen by ``bound_mode``: the
    squared minimum-energy norm of ``x - y`` (optionally replaced by the
    energy of a user-supplied null control), the operator-norm variant, or
    the decay-certificate bound.  Exponential observables on models with a
    tractable jump exponential moment are evaluated in closed form; anything
    else runs two independent Monte Carlo streams.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    e_sq, note = _energy_squared(model, t, x, y, bound_mode, h, user_control)
    params = _echo(t=t, x=x, y=y, alpha=alpha, bound_mode=bound_mode, n=n, f=f, h=h,
                   energy_sq=e_sq)
    if math.isinf(e_sq):
        return _report(check_id, 0.0, float("inf"), 0.0, 0.0, params, seed, note)
    coef = _exp(alpha * e_sq / (2.0 * (alpha - 1.0)))

    if _closed_form_available(model, f):
        px = analytic.mehler_exponential(model, t, f.c, x)
        py = analytic.mehler_exponential(model, t, alpha * f.c, y)
        return _report(check_id, px**alpha, coef * py, 0.0, 0.0, params, seed, note)

    fx = _TrackMin(f)
    est_x = sampler.estimate_semigroup(model, t, x, fx, n, sampler.mix_seed(seed, 1))
    fy = _TrackMin(_power_fn(f, alpha))
    est_y = sampler.estimate_semigroup(model, t, y, fy, n, sampler.mix_seed(seed, 2))
    if fx.min < 0 or fy.min < 0:
        raise ValueError("negative sample of the observable: Harnack check needs f >= 0")
    mean_x = max(est_x.mean, 0.0)
    lhs = mean_x**alpha
    lhs_se = alpha * mean_x ** (alpha - 1.0) * est_x.std_error
    return _report(check_id, lhs, _times(coef, est_y.mean), lhs_se, _times(coef, est_y.std_error),
                   params, seed, note)


def check_log_harnack(model: OuLevyModel, t: float, x, y, f,
                      n: int = 100_000, seed: int = 0,
                      check_id: str = "log_harnack") -> CheckReport:
    """Logarithmic comparison: ``P_t log f(x) <= log P_t f(y) + |op|^2
    |x-y|^2 / 2`` for observables at least 1.

    Observables dipping below 1 are clamped up to 1 (recorded in the
    params); an infinite operator norm makes the bound trivially infinite.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    op = control.gamma_operator_norm(model, t)
    params = _echo(t=t, x=x, y=y, n=n, f=f, operator_norm=op)
    if math.isinf(op):
        return _report(check_id, 0.0, float("inf"), 0.0, 0.0, params, seed,
                       "operator norm infinite (range inclusion fails)")

    clamped = _TrackMin(f)

    def g(pts):
        return np.maximum(np.asarray(clamped(pts), dtype=float), 1.0)

    est_x = sampler.estimate_semigroup(model, t, x, lambda pts: np.log(g(pts)), n, sampler.mix_seed(seed, 1))
    est_y = sampler.estimate_semigroup(model, t, y, g, n, sampler.mix_seed(seed, 2))
    note = None
    if clamped.min < 1.0:
        note = f"observable clamped up to 1 (minimum sample {clamped.min:.6g})"
    rhs = math.log(est_y.mean) + 0.5 * op**2 * float(np.sum((x - y) ** 2))
    return _report(check_id, est_x.mean, rhs, est_x.std_error, est_y.std_error / est_y.mean,
                   params, seed, note)


def check_gradient_estimate(model: OuLevyModel, t: float, x, y, f,
                            n: int = 100_000, seed: int = 0,
                            check_id: str = "gradient") -> CheckReport:
    """Two-point variance bound on the semigroup increment.

    Verifies ``|P_t f(x) - P_t f(y)|^2 <= (e^{G^2} - 1) min(Var_x, Var_y)``
    with ``G`` the minimum-energy norm of ``x - y``.  Both start points share
    the same noise realizations (common random numbers), which collapses the
    variance of the left side.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    gam = control.gamma_norm(model, t, x - y)
    params = _echo(t=t, x=x, y=y, n=n, f=f, gamma=gam.value)
    if not gam.in_domain:
        return _report(check_id, 0.0, float("inf"), 0.0, 0.0, params, seed,
                       "x - y outside the steerable domain")
    prop = model.snapshot(t).propagator
    term_x, term_y = prop @ x, prop @ y
    at_x, at_y, diff = sampler.RunningMoments(), sampler.RunningMoments(), sampler.RunningMoments()
    for noise in sampler.iter_endpoint_noise(model, t, n, sampler.mix_seed(seed, 1)):
        vx = sampler.eval_rows(f, term_x + noise)
        vy = sampler.eval_rows(f, term_y + noise)
        at_x.add(vx)
        at_y.add(vy)
        diff.add(vx - vy)
    lhs = diff.mean**2
    lhs_se = 2.0 * abs(diff.mean) * diff.std_error
    gam_sq = float(gam) ** 2
    factor = math.expm1(gam_sq) if gam_sq <= 700.0 else float("inf")
    low = at_x if at_x.variance <= at_y.variance else at_y
    return _report(check_id, lhs, _times(factor, low.variance), lhs_se, _times(factor, low.variance_se),
                   params, seed)


# ---------------------------------------------------------------------------
# kernel-level checks (jump-free, stationary)
# ---------------------------------------------------------------------------


def check_kernel_inequalities(model: OuLevyModel, t: float, x, y, alpha: float,
                              check_id: str = "kernel") -> tuple[CheckReport, CheckReport]:
    """Exact kernel-level comparisons against the invariant law.

    Returns the power-integral report (sharp exponent vs operator-norm
    exponent) and the kernel relative-entropy report (half the squared
    minimum-energy norm of ``x - y`` vs the operator-norm bound).  Equality
    holds exactly when ``x - y`` is a top singular direction, in particular
    always in dimension one.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    op = control.gamma_operator_norm(model, t)
    norm_sq = float(np.sum((x - y) ** 2))
    params = _echo(t=t, x=x, y=y, alpha=alpha, operator_norm=op)

    lhs_power = analytic.kernel_harnack_lhs(model, t, x, y, alpha)
    rhs_power = _exp(alpha * op**2 * norm_sq / (2.0 * (alpha - 1.0) ** 2))
    rep_power = _report(check_id + "_power", lhs_power, rhs_power, 0.0, 0.0, params, 0)

    lhs_kl = analytic.heat_kernel_kl(model, t, x, y)
    rhs_kl = 0.5 * op**2 * norm_sq
    rep_kl = _report(check_id + "_kl", lhs_kl, rhs_kl, 0.0, 0.0, params, 0)
    return rep_power, rep_kl


def check_density_norm(model: OuLevyModel, t: float, x, alpha: float,
                       check_id: str = "density_norm") -> CheckReport:
    """Transition-density norm against its closed-form bound."""
    lhs, rhs = analytic.density_norm_bound(model, t, np.asarray(x, dtype=float), alpha)
    params = _echo(t=t, x=np.asarray(x, dtype=float), alpha=alpha)
    return _report(check_id, lhs, rhs, 0.0, 0.0, params, 0)


def check_hyper_constant(model: OuLevyModel, t: float, alpha: float, eps: float,
                         check_id: str = "hyper_constant") -> CheckReport:
    """Hyper-boundedness constant, reported against its trivial floor 1."""
    c = analytic.hyper_constant(model, t, alpha, eps)
    params = _echo(t=t, alpha=alpha, eps=eps, constant=c)
    note = None if np.isfinite(c) else "constant diverges at these parameters"
    return _report(check_id, 1.0, c, 0.0, 0.0, params, 0, note)


# ---------------------------------------------------------------------------
# entropy-cost and HWI
# ---------------------------------------------------------------------------


def check_entropy_cost(model: OuLevyModel, nu: analytic.GaussianMeasure, t: float,
                       check_id: str = "entropy_cost") -> tuple[CheckReport, CheckReport]:
    """Entropy of the evolved measure against the transport cost.

    Two variants are emitted: the forward-semigroup bound (entropy of the
    adjoint-dynamics pushforward, operator norm of the adjoint
    minimum-energy map) and the adjoint-semigroup bound (entropy of the
    forward pushforward, original operator norm).  Neither is asserted to be
    the sharper one.
    """
    adj = build_adjoint(model)
    mu = analytic.invariant_measure(model)
    w2_sq = analytic.gaussian_w2(nu, mu) ** 2

    def variant(rid: str, push: analytic.GaussianMeasure, op: float, name: str) -> CheckReport:
        return _report(rid, analytic.gaussian_kl(push, mu), 0.5 * op**2 * w2_sq, 0.0, 0.0,
                       _echo(t=t, nu=_measure_echo(nu), variant=name, operator_norm=op), 0)

    return (variant(check_id, analytic.pushforward_adjoint(adj, nu, t), adj.gamma_operator_norm(t),
                    "forward_semigroup"),
            variant(check_id + "_adjoint", analytic.ou_pushforward(model, nu, t),
                    control.gamma_operator_norm(model, t), "adjoint_semigroup"))


def check_hwi(model: OuLevyModel, nu: analytic.GaussianMeasure, h: HFunction, t: float,
              use_h_bound: bool = False, check_id: str = "hwi") -> CheckReport:
    """Entropy bounded by Fisher information plus transport cost.

    ``KL(nu || mu) <= 2 I int_0^t h + coef * W2(nu, mu)^2`` with ``I`` the
    noise-weighted Fisher information and ``coef`` either half the squared
    adjoint operator norm or, in the symmetric variant, the reciprocal of
    twice the integral of ``1/h``.  The decay certificate is re-verified on a
    default grid before use.
    """
    cert = verify_h_condition(
        model, h,
        times=np.linspace(t / 8.0, t, 8),
        probes=default_h_probes(model.dim),
    )
    if not cert.certified:
        raise ValueError(f"decay profile not certified (worst ratio {cert.worst_ratio:.6g})")
    adj = build_adjoint(model)
    mu = analytic.invariant_measure(model)
    lhs = analytic.gaussian_kl(nu, mu)
    fisher = analytic.fisher_information(model, nu, mu)
    if use_h_bound:
        coef = 1.0 / (2.0 * h.integral_of_inverse(t))
        variant = "symmetric_h_bound"
    else:
        coef = 0.5 * adj.gamma_operator_norm(t) ** 2
        variant = "adjoint_operator_norm"
    rhs = 2.0 * fisher * h.integral_of_h(t) + coef * analytic.gaussian_w2(nu, mu) ** 2
    params = _echo(t=t, nu=_measure_echo(nu), h=h, variant=variant,
                   fisher=fisher, worst_ratio=cert.worst_ratio)
    return _report(check_id, lhs, rhs, 0.0, 0.0, params, 0)


# ---------------------------------------------------------------------------
# perturbed-drift checks
# ---------------------------------------------------------------------------


def _default_probes(model: OuLevyModel, *pts) -> list[np.ndarray]:
    probes = [np.zeros(model.dim)]
    probes += list(np.eye(model.dim))  # rows of one identity, not one identity per row
    probes += [2.0 * np.ones(model.dim)]
    probes += [np.asarray(p, dtype=float).reshape(-1) for p in pts]
    return probes


def _exp_moment_constant(model: OuLevyModel, spec: SemilinearSpec, t: float, r: float) -> float:
    """``E exp(2 r (2 r + 1) k2 int_0^t |W_A|^2)``: exactly 1 for ``k2 = 0``,
    otherwise in closed form, ``inf`` where it diverges."""
    if spec.k2 == 0.0:
        return 1.0
    return analytic.convolution_square_exp_moment(model, t, 2.0 * r * (2.0 * r + 1.0) * spec.k2)


_DIVERGENT_CONSTANT = "exponential-moment constant diverges at this horizon"


def check_semilinear_harnack(model: OuLevyModel, spec: SemilinearSpec, t: float, x, y,
                             alpha: float, p: float, q: float, f,
                             n: int = 100_000, K: int = 512, seed: int = 0,
                             check_id: str = "semilinear_harnack") -> CheckReport:
    """Power-type comparison for the perturbed-drift evolution.

    The right-hand side carries the two exponential-moment constants of the
    weight (exactly 1 for bounded perturbations with ``k2 = 0``, otherwise
    exact by `analytic.convolution_square_exp_moment`), the minimum-energy
    exponent rescaled by the comparison exponents ``p, q``, and the additive
    growth integral.  A divergent constant gives ``TRIVIAL_INFINITE_RHS``
    before any path is drawn.
    """
    if alpha <= 1 or p <= 1 or q <= 1:
        raise ValueError("alpha, p, q must exceed 1")
    if alpha / (p * q) <= 1:
        raise ValueError("alpha must exceed p*q")
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    spec.validate(model, _default_probes(model, x, y))
    gam = control.gamma_norm(model, t, x - y)
    params = _echo(t=t, x=x, y=y, alpha=alpha, p=p, q=q, n=n, K=K, f=f,
                   drift=spec.label, k1=spec.k1, k2=spec.k2, gamma=gam.value)
    if not gam.in_domain:
        return _report(check_id, 0.0, float("inf"), 0.0, 0.0, params, seed,
                       "x - y outside the steerable domain")
    cp = _exp_moment_constant(model, spec, t, p / (p - 1.0))
    cq = _exp_moment_constant(model, spec, t, 1.0 / (q - 1.0))
    if math.isinf(cp) or math.isinf(cq):
        return _report(check_id, 0.0, float("inf"), 0.0, 0.0, params, seed, _DIVERGENT_CONSTANT)

    beta_p = alpha * p / (2.0 * (p - 1.0))
    beta_q = alpha * q / (2.0 * (q - 1.0))
    growth_integral = (spec.k1 * t if spec.k2 == 0.0
                       else spec.k1 * t + spec.k2 * _propagated_sq_integral(model, t, x, y))
    log_exp_term = (
        alpha * q * float(gam) ** 2 / (2.0 * (alpha - q))
        + alpha * ((p + 1.0) / (p - 1.0) + (q + 1.0) / (q * (q - 1.0))) * growth_integral
    )

    fx = _TrackMin(f)
    est_x = sampler.semilinear_estimate(model, spec, t, x, fx, n, K, sampler.mix_seed(seed, 1))
    fy = _TrackMin(_power_fn(f, alpha))
    est_y = sampler.semilinear_estimate(model, spec, t, y, fy, n, K, sampler.mix_seed(seed, 2))
    if fx.min < 0 or fy.min < 0:
        raise ValueError("negative sample of the observable: Harnack check needs f >= 0")

    mean_x = max(est_x.mean, 0.0)
    lhs = mean_x**alpha
    lhs_se = alpha * mean_x ** (alpha - 1.0) * est_x.std_error
    rhs = _times(cp ** beta_p * cq ** beta_q * _exp(log_exp_term), est_y.mean)
    rhs_se = abs(rhs) * (est_y.std_error / est_y.mean) if est_y.std_error else 0.0
    return _report(check_id, lhs, rhs, lhs_se, rhs_se, params, seed)


def check_rho_moments(model: OuLevyModel, spec: SemilinearSpec, t: float, x,
                      p: float, delta: float, n: int = 100_000, K: int = 512, seed: int = 0,
                      check_id: str = "rho_moments") -> tuple[CheckReport, CheckReport]:
    """Positive and negative moments of the perturbed-drift weight against
    their growth bounds.

    For ``k2 = 0`` the bounds are ``exp(p (2p-1) k1 t / 2)`` and
    ``exp(delta (2 delta + 1) k1 t / 2)`` exactly; otherwise the square root
    of an exponential-moment constant, exact by
    `analytic.convolution_square_exp_moment`, multiplies them.  A divergent
    constant gives that row ``TRIVIAL_INFINITE_RHS``, and its moment is not
    sampled.
    """
    if p <= 1 or delta <= 0:
        raise ValueError("need p > 1 and delta > 0")
    x = np.asarray(x, dtype=float).reshape(-1)
    spec.validate(model, _default_probes(model, x))
    params = _echo(t=t, x=x, p=p, delta=delta, n=n, K=K, drift=spec.label,
                   k1=spec.k1, k2=spec.k2)
    consts = {p: _exp_moment_constant(model, spec, t, p), -delta: _exp_moment_constant(model, spec, t, delta)}
    powers = [power for power, c in consts.items() if math.isfinite(c)]
    moments = sampler.semilinear_rho_moments(model, spec, t, x, powers, n, K,
                                             sampler.mix_seed(seed, 1)) if powers else {}

    reports = []
    for power, growth, suffix in ((p, 0.5 * p * (2.0 * p - 1.0), "_positive"),
                                  (-delta, 0.5 * delta * (2.0 * delta + 1.0), "_negative")):
        rid = check_id + suffix
        if math.isinf(consts[power]):
            reports.append(_report(rid, 0.0, float("inf"), 0.0, 0.0, params, seed, _DIVERGENT_CONSTANT))
            continue
        if power > 0:
            integral = (spec.k1 * t if spec.k2 == 0.0
                        else spec.k1 * t + 2.0 * spec.k2 * _propagated_sq_integral(model, t, x))
        else:
            integral = t * (spec.k1 + 2.0 * spec.k2 * float(np.sum(x**2)))
        est = moments[float(power)]
        reports.append(_report(rid, est.mean, math.sqrt(consts[power]) * _exp(growth * integral),
                               est.std_error, 0.0, params, seed))
    return reports[0], reports[1]
