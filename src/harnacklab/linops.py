"""Dense linear-algebra primitives for Ornstein-Uhlenbeck semigroup calculus.

Everything here is plain dense numpy at desk scale (d up to a few hundred):
matrix exponentials, mean-square Gramians computed by the augmented-block
(Van Loan) device, symmetric PSD square roots with rank-revealing
pseudo-inverses, and Lyapunov solves for the steady-state covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

#: Relative tolerance used to decide that an eigenvalue of a PSD matrix is zero.
DEFAULT_RANK_TOL = 1e-10

#: Relative symmetry tolerance for matrices tagged symmetric.
SYMMETRY_TOL = 1e-12


class UnstableMatrixError(ValueError):
    """Raised when a computation needs a Hurwitz drift but the spectral
    abscissa is nonnegative (no invariant measure in this truncation)."""


class NotPsdError(ValueError):
    """Raised when a matrix required to be PSD has a negative eigenvalue
    beyond tolerance."""


def as_square_matrix(a, name="matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


def check_symmetric(s, name="matrix") -> np.ndarray:
    s = as_square_matrix(s, name)
    scale = 1.0 + np.abs(s).max(initial=0.0)
    if np.abs(s - s.T).max(initial=0.0) > SYMMETRY_TOL * scale:
        raise ValueError(f"{name} is not symmetric within tolerance")
    return 0.5 * (s + s.T)


def psd_floor(s) -> float:
    """Most negative eigenvalue that roundoff may give a PSD matrix of the size of ``s``."""
    return -DEFAULT_RANK_TOL * max(1.0, float(np.abs(s).max(initial=0.0)))


def psd_rank(w) -> int:
    """Rank of a PSD matrix with eigenvalues ``w``: those above ``DEFAULT_RANK_TOL`` times the largest."""
    return int(np.count_nonzero(w > DEFAULT_RANK_TOL * np.max(w, initial=0.0)))


def check_psd(s, name="matrix") -> np.ndarray:
    """Symmetrize ``s``; raise `NotPsdError` for an eigenvalue below `psd_floor`."""
    s = check_symmetric(s, name)
    wmin = float(np.linalg.eigvalsh(s).min(initial=0.0))
    if wmin < psd_floor(s):
        raise NotPsdError(f"{name} has negative eigenvalue {wmin:.3e} beyond tolerance")
    return s


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only, so that an in-place edit of a shared array raises."""
    a.setflags(write=False)
    return a


def spectral_abscissa(a) -> float:
    """Largest real part of the eigenvalues of ``a``."""
    return float(np.linalg.eigvals(as_square_matrix(a)).real.max())


def matrix_exponential(a, t: float) -> np.ndarray:
    """Return ``exp(t*a)`` by scaling-and-squaring (Pade approximant).

    ``t`` must be nonnegative; the result satisfies the semigroup law
    ``exp((s+t)a) = exp(s a) exp(t a)`` to roundoff.
    """
    a = as_square_matrix(a, "drift matrix")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return sla.expm(t * a)


def matrix_exponentials(a: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``exp(t*a)`` for each ``t >= 0`` in ``times``, stacked ``(len(times), d, d)``;
    scipy runs one Pade routine per slice, so each is bitwise `matrix_exponential`."""
    return sla.expm(np.multiply.outer(times, a))


@dataclass(frozen=True, eq=False)
class PsdFactorization:
    """Rank-revealing spectral factorization of a symmetric PSD matrix.

    Eigenvalues are sorted nonincreasing, with everything at or below
    ``DEFAULT_RANK_TOL * max eigenvalue`` treated as exactly zero.  The factorization
    exposes the symmetric square root, its pseudo-inverse (defined on the
    range), and the orthogonal projector onto the range, all read-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        v, w = self.eigenvectors, self.eigenvalues
        return read_only((v * w) @ v.T)

    @cached_property
    def sqrt_matrix(self) -> np.ndarray:
        v = self.eigenvectors
        return read_only((v * np.sqrt(self.eigenvalues)) @ v.T)

    @cached_property
    def pinv_sqrt_matrix(self) -> np.ndarray:
        v, w = self.eigenvectors, self.eigenvalues
        inv = np.zeros_like(w)
        inv[: self.rank] = 1.0 / np.sqrt(w[: self.rank])
        return read_only((v * inv) @ v.T)

    @cached_property
    def pinv_matrix(self) -> np.ndarray:
        v, w = self.eigenvectors, self.eigenvalues
        inv = np.zeros_like(w)
        inv[: self.rank] = 1.0 / w[: self.rank]
        return read_only((v * inv) @ v.T)

    @cached_property
    def range_projector(self) -> np.ndarray:
        vr = self.eigenvectors[:, : self.rank]
        return read_only(vr @ vr.T)

    def apply_sqrt(self, x) -> np.ndarray:
        return np.asarray(x) @ self.sqrt_matrix.T if np.ndim(x) > 1 else self.sqrt_matrix @ np.asarray(x)

    def apply_pinv_sqrt(self, x) -> np.ndarray:
        m = self.pinv_sqrt_matrix
        return np.asarray(x) @ m.T if np.ndim(x) > 1 else m @ np.asarray(x)

    def apply_pinv(self, x) -> np.ndarray:
        m = self.pinv_matrix
        return np.asarray(x) @ m.T if np.ndim(x) > 1 else m @ np.asarray(x)

    def range_residual(self, x):
        """Relative distance ``|x - Px| / max(1, |x|)`` from the range: of a vector, or per row of ``(m, d)``."""
        x = np.asarray(x, dtype=float)
        res = np.linalg.norm(x - x @ self.range_projector, axis=-1) / np.maximum(1.0, np.linalg.norm(x, axis=-1))
        if np.isnan(res).any():  # a NaN is neither in the range nor out of it
            raise ValueError("range test of a non-finite vector")
        return res if x.ndim > 1 else float(res)

    def in_range(self, x, tol: float = DEFAULT_RANK_TOL):
        """`range_residual` at most ``tol``: a bool, or one per row of an ``(m, d)`` array."""
        return self.range_residual(x) <= tol


def psd_sqrt_pinv(s) -> PsdFactorization:
    """Factor a symmetric PSD matrix; rank 0 is allowed.

    Eigenvalues below `psd_floor` are rejected as a genuine PSD violation;
    small negatives from roundoff are clipped to zero.
    """
    s = check_symmetric(s, "PSD matrix")
    w, v = np.linalg.eigh(s)
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    if w.size and w[-1] < psd_floor(s):
        raise NotPsdError(f"matrix has negative eigenvalue {w[-1]:.3e} beyond tolerance")
    rank = psd_rank(w)
    w[rank:] = 0.0
    return PsdFactorization(eigenvalues=read_only(w), eigenvectors=read_only(v), rank=rank)


@dataclass(frozen=True, eq=False)
class SemigroupSnapshot:
    """State of the linear semigroup at a fixed time.

    Holds the propagator ``e^{tA}``, the mean-square Gramian
    ``int_0^t e^{sA} R e^{sA'} ds`` with its spectral factorization, and the
    accumulated drift offset ``int_0^t e^{sA} a ds``, all read-only.
    """

    t: float
    propagator: np.ndarray
    gramian: np.ndarray
    mean_shift: np.ndarray

    @cached_property
    def gramian_sqrt(self) -> PsdFactorization:
        return psd_sqrt_pinv(self.gramian)

    @property
    def dim(self) -> int:
        return self.propagator.shape[0]


def semigroup_snapshot(a, r, offset, t: float) -> SemigroupSnapshot:
    """Compute the snapshot (propagator, Gramian, drift shift) at time ``t``.

    The Gramian and drift integral are evaluated with the augmented-block
    matrix exponential: exponentiating ``[[A, R], [0, -A']] t`` yields
    ``int_0^t e^{(t-s)A} R e^{-sA'} ds`` in the top-right block, which equals
    the Gramian after right-multiplication by ``e^{tA'}``.  One code path,
    one error budget, no quadrature grid.
    """
    a = as_square_matrix(a, "drift matrix")
    r = check_psd(r, "noise covariance")
    offset = np.asarray(offset, dtype=float).reshape(-1)
    d = a.shape[0]
    if r.shape[0] != d or offset.shape[0] != d:
        raise ValueError("dimension mismatch between drift, covariance and offset")
    if t <= 0:
        raise ValueError(f"snapshot time must be positive, got {t}")

    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = a
    block[:d, d:] = r
    block[d:, d:] = -a.T
    e = sla.expm(t * block)
    propagator = read_only(e[:d, :d])
    gramian = e[:d, d:] @ propagator.T
    gramian = read_only(0.5 * (gramian + gramian.T))

    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d] = a
    aug[:d, d] = offset
    mean_shift = read_only(sla.expm(t * aug)[:d, d])
    return SemigroupSnapshot(t=float(t), propagator=propagator, gramian=gramian, mean_shift=mean_shift)


def convolution_factor(a, r_sqrt, t: float) -> np.ndarray:
    """``int_0^t e^{sA} R^{1/2} ds`` by the same augmented-block device."""
    a = as_square_matrix(a)
    d = a.shape[0]
    aug = np.zeros((2 * d, 2 * d))
    aug[:d, :d] = a
    aug[:d, d:] = np.asarray(r_sqrt, dtype=float)
    return sla.expm(t * aug)[:d, d:]


def lyapunov_solve(a, r) -> np.ndarray:
    """Steady-state covariance: solve ``A X + X A' = -R`` for Hurwitz ``A``.

    Raises `UnstableMatrixError` when the spectral abscissa of ``A`` is
    nonnegative, i.e. when the model has no invariant measure in this
    truncation.
    """
    a = as_square_matrix(a, "drift matrix")
    r = check_symmetric(r, "noise covariance")
    if spectral_abscissa(a) >= 0:
        raise UnstableMatrixError(
            "drift matrix is not Hurwitz: no invariant measure in this truncation"
        )
    x = sla.solve_continuous_lyapunov(a, -r)
    return 0.5 * (x + x.T)
