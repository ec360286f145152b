"""Registries of built-in observables and drift perturbations.

Scenario files select functions by name so that runs stay declarative and
reproducible.  Observables act on row-stacked points ``(m, d)`` and return
``(m,)``; drift perturbations map ``(m, d)`` to ``(m, d)``.  Every
observable but the constant is a `RidgeObservable`, which carries its
direction and profile so that the verification layer can switch to closed
forms and one-dimensional quadrature.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .model import DRIFT_RANGE_TOL, OuLevyModel, SemilinearSpec


@dataclass(frozen=True)
class RidgeObservable:
    """``g(<c, z>)`` for a scalar ``profile`` ``g``, monotone in every kind
    here and called where an overflow is no error; `spec` is the scenario
    description ``f`` that builds it.  `verify` integrates ``g`` against the
    normal law of ``<c, X_t>`` of a jump-free model."""

    c: np.ndarray
    kind: ClassVar[str]

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).reshape(-1))

    def __call__(self, pts):
        with np.errstate(over="ignore"):  # an overflow of exp is capped, or an inf that `sampler.Moments` names
            return self.profile(np.atleast_2d(pts) @ self.c)

    @property
    def spec(self) -> dict:
        return {"kind": self.kind, "c": self.c.tolist(), **{k.name: getattr(self, k.name) for k in fields(self)[1:]}}


class ExpObservable(RidgeObservable):
    """``exp(<c, z>)``: positive, unbounded, closed-form friendly."""

    kind = "exp"
    profile = staticmethod(np.exp)

    def power(self, alpha: float) -> "ExpObservable":
        return ExpObservable(alpha * self.c)


@dataclass(frozen=True)
class ClippedExpObservable(RidgeObservable):
    """``min(exp(<c, z>), cap)``: bounded positive."""

    cap: float = 10.0
    kind = "clipped_exp"

    def __post_init__(self):
        super().__post_init__()
        if self.cap <= 0:
            raise ValueError("cap must be positive")

    def profile(self, z):
        return np.minimum(np.exp(z), self.cap)


class TanhObservable(RidgeObservable):
    """``tanh(<c, z>)``: bounded, sign changing."""

    kind = "tanh"
    profile = staticmethod(np.tanh)


class OnePlusSigmoid(RidgeObservable):
    """``1 + sigmoid(<c, z>)``: bounded in (1, 2), suited to log bounds."""

    kind = "one_plus_sigmoid"

    def profile(self, z):
        return 1.0 + 1.0 / (1.0 + np.exp(-z))


@dataclass(frozen=True)
class IndicatorObservable(RidgeObservable):
    """``1 if <c, z> > threshold else 0``."""

    threshold: float = 0.0
    kind = "indicator"

    def profile(self, z):
        return (z > self.threshold).astype(float)


@dataclass(frozen=True)
class ConstantObservable:
    value: float = 1.0

    def __call__(self, pts):
        return np.full(np.atleast_2d(pts).shape[0], self.value)


_RIDGE_KINDS = (ExpObservable, ClippedExpObservable, TanhObservable, OnePlusSigmoid, IndicatorObservable)


def observable_from_spec(spec: dict, dim: int):
    """Build an observable from its scenario description ``f``."""
    kind = spec.get("kind")
    if kind == "one":
        return ConstantObservable(1.0)
    cls = next((cls for cls in _RIDGE_KINDS if cls.kind == kind), None)
    if cls is None:
        raise ValueError(f"f.kind: unknown observable kind {kind!r}")
    return cls(spec_vector(spec, "c", dim, "f"), *(_number(spec, k.name, "f", k.default) for k in fields(cls)[1:]))


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
