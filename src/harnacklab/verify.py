"""Executable inequality checks with explicit statistical verdicts.

Each check evaluates a left-hand side and a right-hand side, by closed form
where one exists, by one-dimensional quadrature for a ridge observable of a
jump-free model (both with standard error zero), and by seeded Monte Carlo
otherwise, says which in ``params["method"]``, and classifies the margin:

* ``VIOLATED`` needs a breach beyond three combined standard errors (plus a
  relative slack of 1e-9 for exact evaluations); the shipped inequalities
  are theorems, so a violation is a bug detector by construction;
* ``HOLDS_EQUALITY`` flags margins within one standard error or 1e-9;
* ``HOLDS`` is a positive margin beyond the equality window;
* anything in between is ``INCONCLUSIVE`` with a suggestion to raise ``n``;
* an infinite right-hand side short-circuits to ``TRIVIAL_INFINITE_RHS``;
* a NaN side or standard error raises ``ValueError``: it is no verdict.

A Monte Carlo check of two start points draws one noise pass for both and
folds per-replicate columns into one `sampler.Moments`; both sides are
smooth functions of its column means, so the delta method reads the
margin's joint standard error, which includes the correlation of the
sides, from its co-moment matrix.  ``VIOLATED`` still needs a breach beyond
three times the larger of that error and the sides' combined one.

Every sampled row is made by `_mc_report`, and ``params["n_used"]`` says
how many replicates it drew (0 for a row that draws nothing).  The
unweighted checks (``harnack``, ``log_harnack``, ``gradient`` and
``semilinear_harnack``) take ``n`` as a cap: their fold stops at the first
block boundary of the ladder (see ``sampler.MC_FIRST_BLOCK``, and
``sampler.PATH_FIRST_BLOCK`` for a control-variate ``semilinear_harnack`` row)
where the margin exceeds ``sampler.EARLY_Z`` times its positive joint error.
Every other verdict, the weighted ``rho_moments`` rows among them, is read
at the cap.
A negative margin whose right side has no spread raises ``ValueError``:
the sample missed the event that carries that side, so the margin is no
verdict.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic, control, linops, sampler
from .analytic import saturating_exp
from .model import HFunction, OuLevyModel, SemilinearSpec, _adjoint_law, verify_h_condition
from .testfuncs import ExpObservable, IndicatorObservable, RidgeObservable

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


def classify(lhs: float, rhs: float, lhs_se: float = 0.0, rhs_se: float = 0.0,
             margin_se: float | None = None) -> str:
    """Verdict on ``rhs - lhs``.  ``margin_se``, the joint standard error of
    the margin, replaces ``hypot(lhs_se, rhs_se)`` for the equality window and
    the inconclusive band; ``VIOLATED`` needs a breach beyond three times the
    larger of the two, because the delta-method error of skewed sides is
    smallest exactly where the margin reads low."""
    if any(math.isnan(v) for v in (lhs, rhs, lhs_se, rhs_se, 0.0 if margin_se is None else margin_se)):
        raise ValueError(f"NaN verdict input: lhs={lhs}, rhs={rhs}, lhs_se={lhs_se}, rhs_se={rhs_se}, "
                         f"margin_se={margin_se}")
    if math.isinf(rhs) and rhs > 0:
        return TRIVIAL_INFINITE_RHS
    sides_se = math.hypot(lhs_se, rhs_se)
    sigma = sides_se if margin_se is None else margin_se
    margin = rhs - lhs
    slack = _slack(lhs, rhs)
    if abs(margin) <= max(slack, sigma):
        return HOLDS_EQUALITY
    if margin > 0:
        return HOLDS
    if margin < -(3.0 * max(sigma, sides_se) + slack):
        return VIOLATED
    return INCONCLUSIVE


_DIVERGENT_CONSTANT = "exponential-moment constant diverges at this horizon"
_GROWTH_OVERFLOW = "growth factor exceeds the float range at this horizon"
#: Half-width of `_ridge_report`'s range in standard deviations; the normal density is 0 beyond 38.6.
RIDGE_RANGE = 40.0


def _slack(lhs: float, rhs: float) -> float:
    """Relative slack of the equality window, for exact evaluations."""
    return 1e-9 * max(1.0, abs(lhs), abs(rhs))


def _times(coef: float, v: float) -> float:
    """``coef * v``, where a saturated ``coef = inf`` stands for a finite number
    too large to hold: it scales an exact zero to zero, not to NaN."""
    return 0.0 if v == 0.0 else coef * v


def _report(check_id, lhs, rhs, lhs_se, rhs_se, params, seed, note=None, margin_se=None) -> CheckReport:
    params = {"method": "closed_form", **params}
    verdict = classify(lhs, rhs, lhs_se, rhs_se, margin_se)
    if margin_se is not None:
        params["margin_se"] = float(margin_se)
    if verdict == INCONCLUSIVE:
        params.setdefault("note", "inconclusive margin; rerun with a larger sample size")
    if note:
        params["note"] = note if "note" not in params else params["note"] + "; " + note
    margin = float("inf") if math.isinf(rhs) and rhs > 0 else rhs - lhs
    return CheckReport(check_id, float(lhs), float(rhs), float(lhs_se), float(rhs_se), float(margin), verdict,
                       params, int(seed))


def _power_fns(f, alpha: float):
    """``f`` and ``f^alpha`` for a power check, which needs ``f >= 0``: each raises on
    its first negative sample, so no block is drawn after a bad one."""
    if isinstance(f, ExpObservable):
        return f, f.power(alpha)

    def checked(pts):
        vals = np.asarray(f(pts), dtype=float)
        if (vals < 0.0).any():
            raise ValueError("negative sample of the observable: Harnack check needs f >= 0")
        return vals
    return checked, lambda pts: checked(pts) ** alpha


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
        elif hasattr(v, "spec"):
            out[k] = v.spec
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


def _energy_squared(model, t, x, y, bound_mode, h):
    delta = np.asarray(x, dtype=float).reshape(-1) - np.asarray(y, dtype=float).reshape(-1)
    if bound_mode == "exact_gamma":
        return float(control.gamma_norm(model, t, delta)) ** 2
    if bound_mode == "operator_norm":
        norm = float(np.linalg.norm(delta))
        return 0.0 if norm == 0.0 else (control.gamma_operator_norm(model, t) * norm) ** 2
    if bound_mode == "h_function":
        if h is None:
            raise ValueError("bound_mode 'h_function' needs a decay profile")
        return control.h_bound(model, h, t, delta)
    raise ValueError(f"unknown bound_mode {bound_mode!r}")


def check_harnack(model: OuLevyModel, t: float, x, y, alpha: float, f,
                  bound_mode: str = "exact_gamma", n: int = 100_000, seed: int = 0,
                  h: HFunction | None = None, check_id: str = "harnack") -> CheckReport:
    """Power-type comparison of the semigroup at two starting points.

    Verifies ``(P_t f(x))^alpha <= exp(alpha E^2 / (2 (alpha-1))) P_t
    f^alpha(y)`` with the exponent ``E^2`` chosen by ``bound_mode``: the
    squared minimum-energy norm of ``x - y``, the operator-norm variant, or
    the bound of `control.h_bound`, which certifies ``h`` first.
    A coefficient past the float range gives ``TRIVIAL_INFINITE_RHS`` before
    any draw.  Exponential observables are evaluated in closed form, jumps
    or not, and other ridge observables of a jump-free model by
    `_ridge_report`; anything else runs one Monte Carlo pass whose noise
    serves both starts, and the margin is judged by its joint standard error
    (``margin_se`` in the params).
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    e_sq = _energy_squared(model, t, x, y, bound_mode, h)
    params = _echo(t=t, x=x, y=y, alpha=alpha, bound_mode=bound_mode, n=n, n_used=0, f=f, h=h, energy_sq=e_sq)
    if math.isinf(e_sq):
        return _report(check_id, 0.0, float("inf"), 0.0, 0.0, params, seed)
    coef = saturating_exp(alpha * e_sq / (2.0 * (alpha - 1.0)))
    if math.isinf(coef):
        return _report(check_id, 0.0, coef, 0.0, 0.0, params, seed, _GROWTH_OVERFLOW)

    if isinstance(f, ExpObservable):
        with np.errstate(over="ignore"):
            lhs = np.float64(analytic.mehler_exponential(model, t, f.c, x)) ** alpha
        rhs = coef * analytic.mehler_exponential(model, t, alpha * f.c, y)
        return _report(check_id, lhs, rhs, 0.0, 0.0, params, seed, _GROWTH_OVERFLOW if math.isinf(rhs) else None)
    row = _ridge_report(check_id, params, seed, model, t, f, n, [x, y], _power_exact(alpha, coef))
    if row is not None:
        return row

    values = sampler.endpoint_values(model, t, [x, y], _power_fns(f, alpha), n, sampler.mix_seed(seed, 1))
    return _mc_report(check_id, params, seed, values, _power_sides(alpha, coef), cap=n)


def _power_exact(alpha, coef):
    """`_ridge_sides`' callback of a power check: the exact ``E f(X_t^x)`` and ``E f^alpha(X_t^y)``, or given a
    ``coef`` `_ridge_report`'s sides ``(E f(X_t^x))^alpha`` and ``coef E f^alpha(X_t^y)``."""
    g, g_alpha = _power_fns(lambda v: v, alpha)

    def exact(mean, ends):
        g(ends)  # the sign guard, before any integral
        means = mean(g, 0), mean(g_alpha, 1)
        return means if coef is None else (np.float64(means[0]) ** alpha, coef * means[1], None)
    return exact


def _power_sides(alpha, coef):
    """Sides of ``(mean_x)^alpha`` against ``coef * mean_y`` from the columns
    ``(x, y)``, with marginal side errors and the delta-method error of the
    margin: ``(lhs, rhs, lhs_se, rhs_se, margin_se)`` of the moments."""
    def sides(acc: sampler.Moments):
        mean_x = max(float(acc.mean[0]), 0.0)
        slope = alpha * mean_x ** (alpha - 1.0)
        return (mean_x**alpha, coef * float(acc.mean[1]), slope * acc.std_error(0), coef * acc.std_error(1),
                acc.delta_se([-slope, coef]))
    return sides


def _mc_report(check_id, params, seed, blocks, sides, cap=None, note=None) -> CheckReport:
    """The row of a Monte Carlo check, the one place where one is made: the
    blocks fold through `sampler.fold`, which with a ``cap`` stops once the
    margin net of the equality slack is decided (an early stop is a ``HOLDS``),
    and ``sides(acc)``, ``(lhs, rhs, lhs_se, rhs_se, margin_se)``, and ``note()``
    are read where the fold stopped.  A margin below the slack with a right
    side of no spread raises: the sample missed the event that carries it."""
    def margin(acc):
        lhs, rhs, *_, margin_se = sides(acc)
        return rhs - lhs - _slack(lhs, rhs), margin_se

    acc = sampler.fold(blocks, None if cap is None else sampler.EarlyHolds(cap, margin))
    lhs, rhs, lhs_se, rhs_se, margin_se = sides(acc)
    if rhs - lhs < -_slack(lhs, rhs) and rhs_se == 0.0:
        raise ValueError(f"collapsed estimate: the right side has no spread, so margin {rhs - lhs:.6g} "
                         f"at n_used={acc.n} is no verdict")
    return _report(check_id, lhs, rhs, lhs_se, rhs_se, {**params, "n_used": acc.n, "method": "monte_carlo"}, seed,
                   note and note(), margin_se=margin_se)


def _ridge_sides(model, t, f, n, starts, sides):
    """``sides(mean, ends)`` of a ridge observable ``f`` on a jump-free model whose ``sigma^2 = c'G_t c`` passes the
    rank rule: ``ends`` is the profile at ``mu_i +- RIDGE_RANGE sigma``, and ``mean(h, i) = E h(f(X_t^{x_i}))`` is
    ``h(1) p + h(0) q`` for the indicator, ``p`` and ``q`` each by erfc, else `linops.integrate` over that range.
    ``None`` where the check samples: the integrator cannot certify a side, or, before any integral, the profile's
    spread over the range is within ``1 / QUAD_TOL`` ulps, where a side that cancels its level would be rounding."""
    if model.has_jumps or not isinstance(f, RidgeObservable):
        return None
    snap = model.snapshot(t)
    var = float(f.c @ snap.gramian @ f.c)
    if not var > linops.DEFAULT_RANK_TOL * float(f.c @ f.c) * float(np.diag(snap.gramian).max()):
        return None
    if n < 100:
        raise ValueError("at least 100 replicates are required")
    sigma, cp = math.sqrt(var), f.c @ snap.propagator
    mus = [float(cp @ x + f.c @ snap.mean_shift) for x in starts]

    def mean(h, i):
        if isinstance(f, IndicatorObservable):
            a = (f.threshold - mus[i]) / (sigma * math.sqrt(2.0))
            return float(h(np.array([1.0, 0.0])) @ [0.5 * math.erfc(a), 0.5 * math.erfc(-a)])

        def integrand(u):
            vals = h(f.profile(mus[i] + sigma * u)) * np.exp(-0.5 * u * u)
            if not np.isfinite(vals).all():  # an overflow, which sampling would not certify either
                raise sampler.NonFiniteValueError(f"non-finite integrand of N({mus[i]:.6g}, {sigma:.6g}^2)")
            return vals
        return linops.integrate(integrand, -RIDGE_RANGE, RIDGE_RANGE) / math.sqrt(2.0 * math.pi)
    with np.errstate(over="ignore", invalid="ignore"):  # `integrand` names a non-finite value
        ends = f.profile(np.add.outer(mus, [-RIDGE_RANGE * sigma, RIDGE_RANGE * sigma]))
        spread = np.abs(ends[:, 1] - ends[:, 0])
        if ((spread > 0.0) & (spread < np.spacing(np.abs(ends).max(axis=1)) / linops.QUAD_TOL)).any():
            return None
        try:
            return sides(mean, ends)
        except linops.QuadratureError:
            return None


def _ridge_report(check_id, params, seed, model, t, f, n, starts, sides):
    """The exact row of `_ridge_sides`, whose ``sides`` give ``(lhs, rhs, note)``; ``None`` where the check samples."""
    exact = _ridge_sides(model, t, f, n, starts, sides)
    if exact is None:
        return None
    method = "closed_form" if isinstance(f, IndicatorObservable) else "quadrature"
    return _report(check_id, exact[0], exact[1], 0.0, 0.0, {**params, "method": method}, seed, exact[2])


def check_log_harnack(model: OuLevyModel, t: float, x, y, f, n: int = 100_000, seed: int = 0,
                      check_id: str = "log_harnack") -> CheckReport:
    """Logarithmic comparison: ``P_t log f(x) <= log P_t f(y) + |op|^2
    |x-y|^2 / 2`` for observables at least 1.

    Observables dipping below 1 are clamped up to 1 (recorded in the
    params); an infinite operator norm makes the bound trivially infinite.
    A ridge observable of a jump-free model is integrated by `_ridge_report`.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    op = control.gamma_operator_norm(model, t)
    params = _echo(t=t, x=x, y=y, n=n, n_used=0, f=f, operator_norm=op)
    if math.isinf(op):
        return _report(check_id, 0.0, float("inf"), 0.0, 0.0, params, seed,
                       "operator norm infinite (range inclusion fails)")
    lowest = math.inf

    def g(vals):
        nonlocal lowest
        vals = np.asarray(vals, dtype=float)
        lowest = min(lowest, float(vals.min()))
        return np.maximum(vals, 1.0)

    bound = 0.5 * op**2 * float(np.sum((x - y) ** 2))

    def sides(acc):
        mean_y = float(acc.mean[1])
        return (float(acc.mean[0]), math.log(mean_y) + bound, acc.std_error(0), acc.std_error(1) / mean_y,
                acc.delta_se([-1.0, 1.0 / mean_y]))

    def note():
        return f"observable clamped up to 1 (minimum sample {lowest:.6g})" if lowest < 1.0 else None

    row = _ridge_report(check_id, params, seed, model, t, f, n, [x, y],
                        lambda mean, ends: (mean(lambda v: np.log(g(v)), 0), math.log(mean(g, 1)) + bound, note()))
    if row is not None:
        return row
    lowest = math.inf  # a sampled row's note reads its samples alone
    values = sampler.endpoint_values(model, t, [x, y], [lambda pts: np.log(g(f(pts))), lambda pts: g(f(pts))], n,
                                     sampler.mix_seed(seed, 1))
    return _mc_report(check_id, params, seed, values, sides, cap=n, note=note)


def check_gradient_estimate(model: OuLevyModel, t: float, x, y, f, n: int = 100_000, seed: int = 0,
                            check_id: str = "gradient") -> CheckReport:
    """Two-point variance bound on the semigroup increment.

    Verifies ``|P_t f(x) - P_t f(y)|^2 <= (e^{G^2} - 1) min(Var_x, Var_y)``
    with ``G`` the minimum-energy norm of ``x - y``.  Both start points share
    the same noise realizations (common random numbers), which collapses the
    variance of the left side.  One pass folds the columns ``(v_x - v_y,
    v_x, u_x^2, v_y, u_y^2)``, ``v = f(X_t)`` and ``u = v - s`` for the
    first replicate's value ``s``: each variance is a smooth function of the
    means of ``v`` and ``u^2``, so the error of the right side and the joint
    error of the margin both come from their co-moment matrix.  A ridge
    observable of a jump-free model is integrated by `_ridge_report` instead,
    each variance centred on its mean.  A factor ``e^{G^2} - 1`` past the
    float range gives ``TRIVIAL_INFINITE_RHS`` before any draw.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    gam = control.gamma_norm(model, t, x - y)
    params = _echo(t=t, x=x, y=y, n=n, n_used=0, f=f, gamma=gam.value)
    gam_sq = float(gam) ** 2  # inf outside the steerable domain
    if gam_sq > 700.0:
        return _report(check_id, 0.0, float("inf"), 0.0, 0.0, params, seed,
                       _GROWTH_OVERFLOW if gam.in_domain else "x - y outside the steerable domain")
    factor = math.expm1(gam_sq)

    def exact(mean, ends):
        m = [mean(lambda v: v, i) for i in (0, 1)]
        return (m[0] - m[1]) ** 2, factor * min(mean(lambda v, mi=mi: (v - mi) ** 2, i) for i, mi in enumerate(m)), None

    row = _ridge_report(check_id, params, seed, model, t, f, n, [x, y], exact)
    if row is not None:
        return row
    shift = None

    def columns(v):
        nonlocal shift
        shift = v[:, :1] if shift is None else shift
        with np.errstate(invalid="ignore", over="ignore"):  # the fold rejects any non-finite value
            u = v - shift
            return np.stack([v[0] - v[1], v[0], u[0] * u[0], v[1], u[1] * u[1]])

    def sides(acc):
        diff = float(acc.mean[0])
        var = np.diag(acc.comoment) / (acc.n - 1)
        low = 1 if var[1] <= var[3] else 3  # the column of v at the start with the smaller variance
        var_grad = np.zeros(5)
        var_grad[low], var_grad[low + 1] = -2.0 * (acc.mean[low] - shift[low // 2, 0]), 1.0
        return (diff**2, factor * var[low], 2.0 * abs(diff) * acc.std_error(0),
                factor * acc.delta_se(var_grad), acc.delta_se([-2.0 * diff, *(factor * var_grad[1:])]))

    values = sampler.endpoint_values(model, t, [x, y], [f, f], n, sampler.mix_seed(seed, 1))
    return _mc_report(check_id, params, seed, map(columns, values), sides, cap=n)


# ---------------------------------------------------------------------------
# kernel-level checks (jump-free, stationary)
# ---------------------------------------------------------------------------


def _kernel_setup(model, t, x, y, alpha):
    """The points, the operator norm, ``|x - y|^2`` and the echoed params."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    op = control.gamma_operator_norm(model, t)
    return x, y, op, float(np.sum((x - y) ** 2)), _echo(t=t, x=x, y=y, alpha=alpha, operator_norm=op)


def kernel_power_report(model: OuLevyModel, t: float, x, y, alpha: float, check_id: str) -> CheckReport:
    """The power-integral row: the sharp exponent against the operator-norm
    exponent.  Equality holds exactly when ``x - y`` is a top singular
    direction, in particular always in dimension one, and at ``x = y``, where
    both sides are exact even when the operator norm is infinite."""
    x, y, op, norm_sq, params = _kernel_setup(model, t, x, y, alpha)
    lhs = analytic.kernel_harnack_lhs(model, t, x, y, alpha)  # rejects alpha <= 1 before the division below
    rhs = saturating_exp(_times(alpha * op**2 / (2.0 * (alpha - 1.0) ** 2), norm_sq))
    return _report(check_id, lhs, rhs, 0.0, 0.0, params, 0)


def kernel_kl_report(model: OuLevyModel, t: float, x, y, alpha: float, check_id: str) -> CheckReport:
    """The kernel relative-entropy row: half the squared minimum-energy norm
    of ``x - y`` against the operator-norm bound, with the same equality
    cases as `kernel_power_report`."""
    x, y, op, norm_sq, params = _kernel_setup(model, t, x, y, alpha)
    return _report(check_id, analytic.heat_kernel_kl(model, t, x, y), _times(0.5 * op**2, norm_sq),
                   0.0, 0.0, params, 0)


def check_density_norm(model: OuLevyModel, t: float, x, alpha: float, check_id: str = "density_norm") -> CheckReport:
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
    the sharper one.  Both read the model's snapshot at ``t`` (the adjoint's
    by `control._adjoint_state`); no pushforward law is formed.
    """
    mu = _adjoint_law(model)
    w2_sq = analytic.gaussian_w2(nu, mu) ** 2

    def variant(rid: str, q: np.ndarray, op: float, name: str) -> CheckReport:
        kl = analytic._whitened_kl(nu, mu, mu.factor.pinv_sqrt_matrix @ q)
        return _report(rid, kl, 0.5 * op**2 * w2_sq, 0.0, 0.0,
                       _echo(t=t, nu=_measure_echo(nu), variant=name, operator_norm=op), 0)

    return (variant(check_id, *control._adjoint_state(model, t), "forward_semigroup"),
            variant(check_id + "_adjoint", model.snapshot(t).propagator, control.gamma_operator_norm(model, t),
                    "adjoint_semigroup"))


def check_hwi(model: OuLevyModel, nu: analytic.GaussianMeasure, h: HFunction, t: float,
              use_h_bound: bool = False, check_id: str = "hwi") -> CheckReport:
    """Entropy bounded by Fisher information plus transport cost.

    ``KL(nu || mu) <= 2 I int_0^t h + coef * W2(nu, mu)^2`` with ``I`` the
    noise-weighted Fisher information and ``coef`` either half the squared
    adjoint operator norm or, in the symmetric variant, the reciprocal of
    twice the integral of ``1/h``.  `verify_h_condition` certifies ``h``
    first.
    """
    cert = verify_h_condition(model, h, t).require()
    mu = _adjoint_law(model)
    lhs = analytic.gaussian_kl(nu, mu)
    fisher = analytic.fisher_information(model, nu, mu)
    if use_h_bound:
        coef = 1.0 / (2.0 * h.integral_of_inverse(t))
        variant = "symmetric_h_bound"
    else:
        coef = 0.5 * control._adjoint_state(model, t)[1] ** 2
        variant = "adjoint_operator_norm"
    rhs = 2.0 * fisher * h.integral_of_h(t) + coef * analytic.gaussian_w2(nu, mu) ** 2
    params = _echo(t=t, nu=_measure_echo(nu), h=h, variant=variant, fisher=fisher, worst_ratio=cert.worst_ratio)
    return _report(check_id, lhs, rhs, 0.0, 0.0, params, 0)


# ---------------------------------------------------------------------------
# perturbed-drift checks
# ---------------------------------------------------------------------------


def _default_probes(model: OuLevyModel, *pts) -> list[np.ndarray]:
    d = model.dim
    return [np.zeros(d), *np.eye(d), 2.0 * np.ones(d), *(np.asarray(p, dtype=float).reshape(-1) for p in pts)]


def _exp_moment_constant(model: OuLevyModel, spec: SemilinearSpec, t: float, r: float) -> float:
    """``E exp(2 r (2 r + 1) k2 int_0^t |W_A|^2)``: exactly 1 for ``k2 = 0``,
    otherwise in closed form, ``inf`` where it diverges."""
    if spec.k2 == 0.0:
        return 1.0
    return analytic.convolution_square_exp_moment(model, t, 2.0 * r * (2.0 * r + 1.0) * spec.k2)


def check_semilinear_harnack(model: OuLevyModel, spec: SemilinearSpec, t: float, x, y,
                             alpha: float, p: float, q: float, f,
                             n: int = 100_000, K: int = 512, seed: int = 0,
                             check_id: str = "semilinear_harnack") -> CheckReport:
    """Power-type comparison for the perturbed-drift evolution.

    The right-hand side carries the two exponential-moment constants of the
    weight (exactly 1 for bounded perturbations with ``k2 = 0``, otherwise
    exact by `analytic.convolution_square_exp_moment`), the minimum-energy
    exponent rescaled by the comparison exponents ``p, q``, and the additive
    growth integral.  A divergent constant, or a coefficient past the float
    range, gives ``TRIVIAL_INFINITE_RHS`` before any path is drawn.  The sides
    are unweighted means over the ``K``-step perturbed-drift paths, with their
    ``O(1/K)`` grid bias, and ``n`` is a cap as for `check_harnack`: plain ones
    (`sampler.semilinear_values`), or, where `_ridge_sides` gives the exact OU
    means, those plus the mean gap to the drift-free twin
    (`sampler.semilinear_twin_values`, ``"control_variate": "ou_twin"``), which
    ``k1 = k2 = 0`` closes: ``F = 0``, so that row is exact.
    """
    if alpha <= 1 or p <= 1 or q <= 1:
        raise ValueError("alpha, p, q must exceed 1")
    if alpha / (p * q) <= 1:
        raise ValueError("alpha must exceed p*q")
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    spec.validate(model, _default_probes(model, x, y))
    gam = control.gamma_norm(model, t, x - y)
    params = _echo(t=t, x=x, y=y, alpha=alpha, p=p, q=q, n=n, n_used=0, K=K, f=f,
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
    coef = cp ** beta_p * cq ** beta_q * saturating_exp(log_exp_term)
    if math.isinf(coef):
        return _report(check_id, 0.0, coef, 0.0, 0.0, params, seed, _GROWTH_OVERFLOW)

    sampler._grid_step(t, K)  # rejects K < 1 where no path is drawn, too
    means = _ridge_sides(model, t, f, n, [x, y], _power_exact(alpha, None))  # the drift-free twin's exact OU means
    if means is not None and spec.k1 == spec.k2 == 0.0:  # the growth condition forces F = 0: X_t is the twin
        return _ridge_report(check_id, params, seed, model, t, f, n, [x, y],
                             lambda *_: (np.float64(means[0]) ** alpha, coef * means[1], None))
    fns = _power_fns(f, alpha)
    if means is None:
        values = sampler.semilinear_values(model, spec, t, [x, y], fns, n, K, sampler.mix_seed(seed, 1))
    else:
        params["control_variate"] = "ou_twin"
        values = sampler.semilinear_twin_values(model, spec, t, [x, y], fns, means, n, K, sampler.mix_seed(seed, 1))
    return _mc_report(check_id, params, seed, values, _power_sides(alpha, coef), cap=n)


def check_rho_moments(model: OuLevyModel, spec: SemilinearSpec, t: float, x,
                      p: float, delta: float, n: int = 100_000, K: int = 512, seed: int = 0,
                      check_id: str = "rho_moments") -> tuple[CheckReport, CheckReport]:
    """Positive and negative moments of the perturbed-drift weight against
    their growth bounds.

    For ``k2 = 0`` the bounds are ``exp(p (2p-1) k1 t / 2)`` and
    ``exp(delta (2 delta + 1) k1 t / 2)`` exactly; otherwise the square root
    of an exponential-moment constant, exact by
    `analytic.convolution_square_exp_moment`, multiplies them.  Both bounds
    come first: an infinite one, from a divergent constant or a growth
    factor past the float range, gives that row ``TRIVIAL_INFINITE_RHS``,
    and its moment is not sampled.
    """
    if p <= 1 or delta <= 0:
        raise ValueError("need p > 1 and delta > 0")
    x = np.asarray(x, dtype=float).reshape(-1)
    spec.validate(model, _default_probes(model, x))
    params = _echo(t=t, x=x, p=p, delta=delta, n=n, K=K, drift=spec.label, k1=spec.k1, k2=spec.k2)
    bounds = {}
    for power, growth in ((p, 0.5 * p * (2.0 * p - 1.0)), (-delta, 0.5 * delta * (2.0 * delta + 1.0))):
        const = _exp_moment_constant(model, spec, t, abs(power))
        if power > 0:
            integral = (spec.k1 * t if spec.k2 == 0.0
                        else spec.k1 * t + 2.0 * spec.k2 * _propagated_sq_integral(model, t, x))
        else:
            integral = t * (spec.k1 + 2.0 * spec.k2 * float(np.sum(x**2)))
        bounds[power] = (math.sqrt(const) * saturating_exp(growth * integral),
                         _DIVERGENT_CONSTANT if math.isinf(const) else _GROWTH_OVERFLOW)
    powers = [power for power, (bound, _) in bounds.items() if math.isfinite(bound)]
    moments = sampler.semilinear_rho_moments(model, spec, t, x, powers, n, K,
                                             sampler.mix_seed(seed, 1)) if powers else {}

    def row(power, suffix):
        bound, note = bounds[power]
        if power not in powers:
            return _report(check_id + suffix, 0.0, bound, 0.0, 0.0, {**params, "n_used": 0}, seed, note)
        est = moments[float(power)]
        return _report(check_id + suffix, est.mean, bound, est.std_error, 0.0,
                       {**params, "n_used": est.n, "method": "monte_carlo"}, seed)

    return row(p, "_positive"), row(-delta, "_negative")
