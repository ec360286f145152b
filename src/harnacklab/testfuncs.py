"""Registries of built-in observables and drift perturbations.

Scenario files select functions by name so that runs stay declarative and
reproducible.  Observables act on row-stacked points ``(m, d)`` and return
``(m,)``; drift perturbations map ``(m, d)`` to ``(m, d)``.  Exponential
observables carry their direction so the verification layer can switch to
closed forms.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

import numpy as np

from .model import DRIFT_RANGE_TOL, OuLevyModel, SemilinearSpec


@dataclass(frozen=True)
class ExpObservable:
    """``exp(<c, z>)``: positive, unbounded, closed-form friendly."""

    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).reshape(-1))

    def __call__(self, pts):
        with np.errstate(over="ignore"):  # an overflow is an inf that `sampler.Moments` names
            return np.exp(np.atleast_2d(pts) @ self.c)

    def power(self, alpha: float) -> "ExpObservable":
        return ExpObservable(alpha * self.c)


@dataclass(frozen=True)
class ClippedExpObservable:
    """``min(exp(<c, z>), cap)``: bounded positive."""

    c: np.ndarray
    cap: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).reshape(-1))
        if self.cap <= 0:
            raise ValueError("cap must be positive")

    def __call__(self, pts):
        with np.errstate(over="ignore"):  # an overflow is capped
            return np.minimum(np.exp(np.atleast_2d(pts) @ self.c), self.cap)


@dataclass(frozen=True)
class TanhObservable:
    """``tanh(<c, z>)``: bounded, sign changing."""

    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).reshape(-1))

    def __call__(self, pts):
        return np.tanh(np.atleast_2d(pts) @ self.c)


@dataclass(frozen=True)
class OnePlusSigmoid:
    """``1 + sigmoid(<c, z>)``: bounded in (1, 2), suited to log bounds."""

    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).reshape(-1))

    def __call__(self, pts):
        z = np.atleast_2d(pts) @ self.c
        return 1.0 + 1.0 / (1.0 + np.exp(-z))


@dataclass(frozen=True)
class IndicatorObservable:
    """``1 if <c, z> > threshold else 0``."""

    c: np.ndarray
    threshold: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).reshape(-1))

    def __call__(self, pts):
        return (np.atleast_2d(pts) @ self.c > self.threshold).astype(float)


@dataclass(frozen=True)
class ConstantObservable:
    value: float = 1.0

    def __call__(self, pts):
        return np.full(np.atleast_2d(pts).shape[0], self.value)


def observable_from_spec(spec: dict, dim: int):
    """Build an observable from its scenario description ``f``."""
    kind = spec.get("kind")
    if kind == "exp":
        return ExpObservable(spec_vector(spec, "c", dim, "f"))
    if kind == "clipped_exp":
        return ClippedExpObservable(spec_vector(spec, "c", dim, "f"), _number(spec, "cap", "f", 10.0))
    if kind == "tanh":
        return TanhObservable(spec_vector(spec, "c", dim, "f"))
    if kind == "one_plus_sigmoid":
        return OnePlusSigmoid(spec_vector(spec, "c", dim, "f"))
    if kind == "indicator":
        return IndicatorObservable(spec_vector(spec, "c", dim, "f"), _number(spec, "threshold", "f", 0.0))
    if kind == "one":
        return ConstantObservable(1.0)
    raise ValueError(f"f.kind: unknown observable kind {kind!r}")


def spec_vector(spec: dict, key: str, dim: int, path: str) -> np.ndarray:
    """Field ``key`` of ``spec``, a list of ``dim`` numbers; `ValueError` naming ``path.key`` otherwise."""
    v = spec.get(key)
    if type(v) is not list or len(v) != dim or not {*map(type, v)} <= {int, float}:
        raise ValueError(f"{path}.{key}: must be a list of numbers of length {dim}, got {reprlib.repr(v)}")
    return np.array(v, dtype=float)


def _number(spec: dict, key: str, path: str, default: float | None = None) -> float:
    v = spec.get(key, default)
    if type(v) not in (int, float):
        raise ValueError(f"{path}.{key}: must be a number, got {reprlib.repr(v)}")
    return float(v)


# ---------------------------------------------------------------------------
# drift perturbations
# ---------------------------------------------------------------------------


def drift_zero(dim: int) -> SemilinearSpec:
    return SemilinearSpec(drift_fn=lambda pts: np.zeros_like(np.atleast_2d(pts)), k1=0.0, k2=0.0, label="zero")


def drift_constant(model: OuLevyModel, b) -> SemilinearSpec:
    """Constant perturbation ``F(x) = b`` (``b`` must lie in range R^{1/2})."""
    b = np.asarray(b, dtype=float).reshape(-1)
    rfac = model.noise_sqrt()
    if not rfac.in_range(b, DRIFT_RANGE_TOL):
        raise ValueError("constant drift must lie in the range of R^(1/2)")
    k1 = float(np.sum(rfac.apply_pinv_sqrt(b) ** 2))
    return SemilinearSpec(
        drift_fn=lambda pts: np.broadcast_to(b, np.atleast_2d(pts).shape).copy(),
        k1=k1,
        k2=0.0,
        label="constant",
    )


def _unit_bounded_drift(model: OuLevyModel, k: float, fn, label: str) -> SemilinearSpec:
    """``F(x) = k fn(x)`` for an elementwise ``|fn| <= 1``, so that
    ``|R^{-1/2} F|^2 <= (|k| |R^{-1/2}|_2)^2 d``; needs full-rank noise."""
    rfac = model.noise_sqrt()
    if rfac.rank < model.dim:
        raise ValueError(f"{label} drift needs full-rank noise covariance")
    k1 = (abs(k) * float(np.linalg.norm(rfac.pinv_sqrt_matrix, 2))) ** 2 * model.dim
    return SemilinearSpec(drift_fn=lambda pts: k * fn(np.atleast_2d(pts)), k1=k1, k2=0.0, label=label)


def drift_scaled_sine(model: OuLevyModel, k: float) -> SemilinearSpec:
    """``F(x) = k sin(x)`` elementwise; bounded, needs full-rank noise."""
    return _unit_bounded_drift(model, k, np.sin, "scaled_sine")


def drift_clipped_linear(model: OuLevyModel, k: float) -> SemilinearSpec:
    """``F(x) = k clip(x, -1, 1)`` elementwise; bounded, needs full-rank noise."""
    return _unit_bounded_drift(model, k, lambda x: np.clip(x, -1.0, 1.0), "clipped_linear")


def drift_from_spec(spec: dict, model: OuLevyModel) -> SemilinearSpec:
    kind = spec.get("kind")
    if kind == "zero":
        return drift_zero(model.dim)
    if kind == "constant":
        return drift_constant(model, spec_vector(spec, "b", model.dim, "F"))
    if kind == "scaled_sine":
        return drift_scaled_sine(model, _number(spec, "k", "F"))
    if kind == "clipped_linear":
        return drift_clipped_linear(model, _number(spec, "k", "F"))
    raise ValueError(f"F.kind: unknown drift kind {kind!r}")
