"""Model declarations: finite-dimensional OU dynamics with optional jumps.

An `OuLevyModel` is the data of the linear SDE
``dX_t = (A X_t + a) dt + noise``, where the noise has Gaussian covariance
rate ``R`` and, optionally, an independent compound-Poisson jump part.
The jump part is a finite-activity law on finitely many atoms.  This module
also hosts the decay-certificate check used by the sharpest inequalities
and the adjoint (time-reversed) dynamics, itself an `OuLevyModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linops


@dataclass(frozen=True, eq=False)
class CompoundPoissonSpec:
    """Finite-activity jump part: a positive finite rate and a finite atom law.

    Each jump is one of the ``atoms`` rows, drawn with ``probs`` (uniform when
    omitted).  `exp_moment` gives ``E exp(<c, xi>)`` for the closed-form checks.
    """

    rate: float
    atoms: np.ndarray
    probs: np.ndarray | None = None

    def __post_init__(self):
        if not 0 < self.rate < np.inf:
            raise ValueError(f"jump rate must be positive and finite, got {self.rate}")
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        if not np.isfinite(atoms).all():
            raise ValueError("jump atoms must be finite vectors")
        if self.probs is None:
            probs = np.full(atoms.shape[0], 1.0 / atoms.shape[0])
        else:
            probs = np.asarray(self.probs, dtype=float).reshape(-1)
        if probs.shape[0] != atoms.shape[0]:
            raise ValueError("atoms and probs length mismatch")
        if (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("atom probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    def exp_moment(self, c) -> float:
        """``E exp(<c, xi>)``, finite for an atom law: ``inf`` only past the float
        range.  An atom of probability zero adds nothing, whatever its exponent."""
        c = np.asarray(c, dtype=float)
        terms = np.zeros(len(self.probs))
        with np.errstate(over="ignore"):
            np.exp(self.atoms @ c, out=terms, where=self.probs > 0)
        return float(self.probs @ terms)


@dataclass(frozen=True, eq=False)
class OuLevyModel:
    """Finite-dimensional OU model: drift matrix, noise covariance, drift
    offset, optional compound-Poisson jump part.

    Checks ``A``, ``R`` and the offset once, when it is built: the noise root
    `linops.psd_factor` of ``R`` (one ``eigh``) is the PSD check, and it is
    the first memo entry.  Keeps read-only copies of its arrays and memoizes,
    with read-only arrays, what it derives from them: the snapshot per ``t``,
    whose propagator is the model's only ``e^{tA}``, the interpolant of
    ``e^{vA}`` per ``t``, the steady covariance, the invariant law, the adjoint
    dynamics, and the sampler's state: the drift's eigenbasis transport and
    path-step samplers.
    """

    drift_matrix: np.ndarray
    noise_cov: np.ndarray
    drift_offset: np.ndarray | None = None
    jump: CompoundPoissonSpec | None = None

    def __post_init__(self):
        a = linops.as_square_matrix(self.drift_matrix, "drift matrix").copy()
        r = linops.check_symmetric(self.noise_cov, "noise covariance")
        d = a.shape[0]
        if r.shape[0] != d:
            raise ValueError("drift and covariance dimensions differ")
        offset = np.zeros(d) if self.drift_offset is None else np.array(self.drift_offset, dtype=float).reshape(-1)
        if offset.shape[0] != d or not np.isfinite(offset).all():
            raise ValueError(f"drift offset must be a finite vector of dimension {d}")
        if self.jump is not None and self.jump.atoms.shape[1] != d:
            raise ValueError("jump atom dimension mismatch")
        object.__setattr__(self, "drift_matrix", linops.read_only(a))
        object.__setattr__(self, "noise_cov", linops.read_only(r))
        object.__setattr__(self, "drift_offset", linops.read_only(offset))
        object.__setattr__(self, "_memo", {"noise_sqrt": linops.psd_factor(r)})

    def _memoized(self, key, build):
        """``build()``, computed on the first request for ``key`` only.  A value
        must not refer back to the model: a cycle would outlive its last use."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def dim(self) -> int:
        return self.drift_matrix.shape[0]

    @property
    def has_jumps(self) -> bool:
        return self.jump is not None

    def snapshot(self, t: float) -> linops.SemigroupSnapshot:
        return self._memoized(("snapshot", float(t)), lambda: linops.semigroup_snapshot(
            self.drift_matrix, self.noise_cov, self.drift_offset, t))

    def noise_sqrt(self) -> linops.PsdFactorization:
        return self._memo["noise_sqrt"]

    def steady_covariance(self) -> np.ndarray:
        """Solution ``S`` of ``A S + S A' = -R`` by `linops.lyapunov_solve`, which raises
        `linops.UnstableMatrixError` for a non-Hurwitz drift; a failed solve is not memoized."""
        return self._memoized("steady_covariance", lambda: linops.read_only(
            linops.lyapunov_solve(self.drift_matrix, self.noise_cov)))

    def exp_interpolant(self, t: float) -> linops.ExpInterpolant:
        """The certified interpolant `linops.exp_interpolant` of ``e^{vA}`` on ``[0, t]``."""
        return self._memoized(("exp_interpolant", float(t)), lambda: linops.exp_interpolant(self.drift_matrix, t))


@dataclass(frozen=True)
class HFunction:
    """Positive time profile ``h`` with optional closed-form integrals.

    ``inv_integral(t)`` is ``int_0^t ds / h(s)`` and ``integral(t)`` is
    ``int_0^t h(s) ds``; `linops.integrate` fills in whichever closed form
    is missing, calling ``fn`` once per node.
    """

    fn: Callable[[float], float]
    inv_integral: Callable[[float], float] | None = None
    integral: Callable[[float], float] | None = None
    label: str = "h"

    @staticmethod
    def exponential(rate: float) -> "HFunction":
        """``h(t) = exp(-rate*t)`` with both integrals in closed form; past the float range
        each is ``inf``, with no overflow warning."""
        if rate == 0.0:
            return HFunction.constant(1.0)
        quiet = np.errstate(over="ignore")
        return HFunction(
            fn=quiet(lambda t: float(np.exp(-rate * t))),
            inv_integral=lambda t: float("inf") if rate * t > 700.0 else float(np.expm1(rate * t) / rate),
            integral=quiet(lambda t: float(-np.expm1(-rate * t) / rate)),
            label=f"exp(-{rate:g} t)",
        )

    @staticmethod
    def constant(value: float) -> "HFunction":
        if value <= 0:
            raise ValueError("constant profile must be positive")
        return HFunction(
            fn=lambda t: float(value),
            inv_integral=lambda t: t / value,
            integral=lambda t: value * t,
            label=f"{value:g}",
        )

    def __call__(self, t: float) -> float:
        return float(self.fn(t))

    def integral_of_inverse(self, t: float) -> float:
        if self.inv_integral is not None:
            return float(self.inv_integral(t))
        return linops.integrate(lambda s: np.array([1.0 / self(v) for v in s]), 0.0, t)

    def integral_of_h(self, t: float) -> float:
        if self.integral is not None:
            return float(self.integral(t))
        return linops.integrate(lambda s: np.array([self(v) for v in s]), 0.0, t)


@dataclass(frozen=True)
class HConditionReport:
    """Outcome of sampling the decay certificate over its (time, probe) grid."""

    certified: bool
    worst_ratio: float
    n_checked: int
    failures: tuple = ()

    def __bool__(self) -> bool:
        return self.certified

    def require(self) -> "HConditionReport":
        """The report itself; raises `ValueError` unless the profile is certified."""
        if not self.certified:
            raise ValueError(f"decay profile not certified (worst ratio {self.worst_ratio:.6g})")
        return self


H_CONDITION_SLACK = 1e-9
#: The certificate's grid is ``s = j t / H_CONDITION_STEPS``, ``j = 1 .. H_CONDITION_STEPS``.
H_CONDITION_STEPS = 8
#: Relative residual up to which a drift value counts as inside the range of ``R^{1/2}``.
DRIFT_RANGE_TOL = 1e-8


def verify_h_condition(model: OuLevyModel, h: HFunction, t: float) -> HConditionReport:
    """Sample-check ``|R^{-1/2} T_s R x| <= sqrt(h(s)) |R^{1/2} x|`` on the probes
    `default_h_probes` at ``s = j t / 8``, ``j = 1 .. 8``, stepping ``R x`` by one
    expm of ``A t / 8``.  Sampled, not proven; the ratio is infinite where ``T_s R x``
    leaves the range of ``R^{1/2}``.  ``h(s) = 0`` (underflow) counts; a negative
    or NaN value raises `ValueError`.
    """
    rfac = model.noise_sqrt()
    x = default_h_probes(model.dim)
    sqrt_norms = np.linalg.norm(rfac.apply_sqrt(x), axis=1)
    step = linops.matrix_exponential(model.drift_matrix, t / H_CONDITION_STEPS).T
    v = x @ model.noise_cov
    worst, failures = 0.0, []
    for j in range(1, H_CONDITION_STEPS + 1):
        s = j * t / H_CONDITION_STEPS
        hv = h(s)
        if not hv >= 0:
            raise ValueError(f"decay profile must be nonnegative, got h({s}) = {hv}")
        rhs = float(np.sqrt(hv)) * sqrt_norms
        v = v @ step
        lhs = np.linalg.norm(rfac.apply_pinv_sqrt(v), axis=1)
        if rfac.rank < model.dim or not np.isfinite(v).all():  # a full-rank R's range holds every finite v
            lhs[~rfac.in_range(v)] = np.inf  # and the range test raises on a non-finite one
        ratio = np.divide(lhs, rhs, out=np.full_like(lhs, np.inf), where=rhs > 0)
        ratio[(lhs <= H_CONDITION_SLACK) & (rhs <= H_CONDITION_SLACK)] = 0.0
        worst = max(worst, float(ratio.max()))
        failures += [(s, int(i), float(lhs[i]), float(rhs[i]))
                     for i in np.flatnonzero(lhs > rhs + H_CONDITION_SLACK)]
    return HConditionReport(not failures, worst, n_checked=H_CONDITION_STEPS * len(x), failures=tuple(failures))


def default_h_probes(dim: int) -> np.ndarray:
    """Deterministic probe rows: the coordinate axes plus two mixed unit directions (one at ``dim = 1``)."""
    mixed = np.array([np.ones(dim), (-1.0) ** np.arange(dim)][: 2 if dim > 1 else 1]) / np.sqrt(dim)
    return np.vstack([np.eye(dim), mixed])


@dataclass(frozen=True)
class SemilinearSpec:
    """State-dependent drift perturbation with quadratic growth constants.

    ``drift_fn`` maps row-stacked states ``(m, d)`` to row-stacked drift
    values; its range must stay inside the range of ``R^{1/2}`` and satisfy
    ``|R^{-1/2} F(x)|^2 <= k1 + k2 |x|^2``.  Both conditions are spot-checked
    on probe states, not proven.
    """

    drift_fn: Callable[[np.ndarray], np.ndarray]
    k1: float
    k2: float
    label: str = "F"

    def __post_init__(self):
        if self.k1 < 0 or self.k2 < 0:
            raise ValueError("growth constants must be nonnegative")

    def validate(self, model: OuLevyModel, probes) -> None:
        rfac = model.noise_sqrt()
        for x in probes:
            x = np.asarray(x, dtype=float).reshape(-1)
            fv = np.asarray(self.drift_fn(x[None, :]), dtype=float).reshape(-1)
            if not rfac.in_range(fv, DRIFT_RANGE_TOL):
                raise ValueError(f"{self.label}(x) leaves the range of R^(1/2) at probe {x}")
            val = float(np.sum(rfac.apply_pinv_sqrt(fv) ** 2))
            bound = self.k1 + self.k2 * float(np.sum(x**2))
            if val > bound + 1e-9:
                raise ValueError(f"growth condition fails at probe {x}: {val:.6g} > {bound:.6g}")


def _adjoint_law(model: OuLevyModel):
    """The invariant law ``N(m, S)`` of a model that has adjoint dynamics; the
    `ValueError` of `build_adjoint` otherwise."""
    from .analytic import invariant_measure

    if model.has_jumps:
        raise ValueError("adjoint construction requires a jump-free model")
    mu = invariant_measure(model)
    if mu.factor.rank < model.dim:
        raise ValueError("steady-state covariance is singular: adjoint construction fails in this truncation")
    return mu


def build_adjoint(model: OuLevyModel) -> OuLevyModel:
    """The adjoint of the transition semigroup in ``L^2`` of the invariant law
    ``mu = N(m, S)``, again an OU model: drift ``A* = S A' S^{-1}``, noise ``R``
    and offset ``-A* m``, so that ``mu`` is its invariant law too.  Memoized on
    the model; the checks read what they need of it off the model's snapshot.

    Requires a jump-free stable model with invertible steady-state
    covariance; otherwise the time-reversal is not an OU model of the same
    class and the construction fails in this truncation.
    """
    mu = _adjoint_law(model)

    def build() -> OuLevyModel:
        drift = mu.cov @ np.linalg.solve(mu.cov, model.drift_matrix).T
        return OuLevyModel(drift_matrix=drift, noise_cov=model.noise_cov, drift_offset=-drift @ mu.mean)

    return model._memoized("adjoint", build)
