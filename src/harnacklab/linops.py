"""Dense linear-algebra primitives for Ornstein-Uhlenbeck semigroup calculus, in
numpy alone at desk scale (d up to a few hundred): one Padé expm kernel; Gramians
from one short-step expm (of the Van Loan block) and exact doubling;
PSD square roots with rank-revealing pseudo-inverses; Lyapunov solves by squared
Smith iteration, which decide stability too; and the one integration rule over time, `integrate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev, legendre

#: Relative tolerance used to decide that an eigenvalue of a PSD matrix is zero.
DEFAULT_RANK_TOL = 1e-10

#: Relative symmetry tolerance for matrices tagged symmetric.
SYMMETRY_TOL = 1e-12


class UnstableMatrixError(ValueError):
    """Raised when a computation needs a Hurwitz drift and `lyapunov_solve`, the
    one stability rule, finds that it is not (no invariant measure in this truncation)."""


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


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only, so that an in-place edit of a shared array raises."""
    a.setflags(write=False)
    return a


#: ``(m, theta_m, b)`` of `_expm`: each Padé degree, the largest 1-norm at which it meets double
#: precision unscaled (Higham 2005, Table 2.3), and its numerator ``b_j = (2m-j)! m! / ((2m)! j! (m-j)!)``.
_PADE = [(m, theta, [math.perm(m, j) / (math.perm(2 * m, j) * math.factorial(j)) for j in range(m + 1)])
         for m, theta in ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1), (7, 9.504178996162932e-1),
                          (9, 2.097847961257068e0), (13, 5.371920351148152e0))]


def _expm(a: np.ndarray, split: int = 0) -> np.ndarray:
    """``e^a`` of a square matrix or a stack ``(k, n, n)`` by Padé scaling and squaring
    (Higham 2005): ``(V - U)^{-1} (V + U)``, the even and odd parts of the numerator of
    the lowest degree whose ``theta_m`` covers the largest 1-norm; past ``theta_13``,
    degree 13 of ``a / 2^s`` squared ``s`` times.  An ``a`` of 96 rows or more, zero below
    its diagonal blocks at ``split``, is multiplied and solved by blocks at half the flops."""
    k = split if a.shape[-1] >= 96 else 0  # below, the slicing costs more than it saves

    def mul(x, y):
        if not k:
            return x @ y
        return np.block([[x[:k, :k] @ y[:k, :k], x[:k] @ y[:, k:]], [np.zeros((len(x) - k, k)), x[k:, k:] @ y[k:, k:]]])

    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    m, theta, b = next((p for p in _PADE if norm <= p[1]), _PADE[-1])
    s = math.ceil(math.log2(norm / theta)) if norm > theta else 0
    a = math.ldexp(1.0, -s) * a
    even = [np.eye(a.shape[-1]), mul(a, a)]  # I, a^2, a^4, ...: up to a^6 for degree 13
    while len(even) < (4 if m == 13 else m // 2 + 1):
        even.append(mul(even[-1], even[1]))
    poly = lambda c: sum(cj * p for cj, p in zip(c, even))  # noqa: E731
    if m == 13:
        u = mul(a, mul(even[3], poly(b[7::2])) + poly(b[1:7:2]))
        v = mul(even[3], poly(b[6::2])) + poly(b[0:6:2])
    else:
        u, v = mul(a, poly(b[1::2])), poly(b[0::2])
    del even  # its n x n powers are the bulk of the memory
    q, e = v - u, v + u
    if k:
        e[k:, k:] = np.linalg.solve(q[k:, k:], e[k:, k:])
        e[:k] = np.linalg.solve(q[:k, :k], e[:k] - q[:k, k:] @ e[k:])
    else:
        e = np.linalg.solve(q, e)
    for _ in range(s):
        e = mul(e, e)
    return e


def _short_step(a: np.ndarray, block: np.ndarray, t: float, split: int = 0) -> tuple[int, np.ndarray]:
    """``k = max(0, ceil(log2(|A|_1 t)))`` for ``t > 0``, and the expm of ``block`` times
    ``h = t / 2^k``, the one step from which a Gramian is doubled.  The 1-norm costs no SVD."""
    norm = float(np.linalg.norm(a, 1))
    k = max(0, math.ceil(math.log2(norm) + math.log2(t))) if norm > 0 else 0
    return k, _expm(math.ldexp(t, -k) * block, split)


def matrix_exponential(a, t: float) -> np.ndarray:
    """``exp(t*a)`` for finite ``t >= 0``: one `_expm`, whose own scaling sets the squarings."""
    a = as_square_matrix(a, "drift matrix")
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    return _expm(t * a)


#: Error that `exp_interpolant` certifies, relative to ``max(1, max_v |e^{vA}|_2)``.
INTERPOLANT_TOL = 1e-12

#: Highest Chebyshev degree per piece that `exp_interpolant` may use.
INTERPOLANT_MAX_DEGREE = 30

#: Bytes that the table of piece starts ``e^{phA}`` of `exp_interpolant` may hold.
INTERPOLANT_TABLE_BYTES = 8 << 20


class InterpolantError(ValueError):
    """Raised when `exp_interpolant` cannot certify its error bound within its
    degree and table budget (a drift too stiff for ``t``, or ``e^{tA}`` overflowing)."""


@dataclass(frozen=True, eq=False)
class ExpInterpolant:
    """Certified piecewise Chebyshev interpolant of ``v -> e^{vA}`` on ``[0, t]``.

    With ``v = p h + u``, ``u`` in ``[0, h]``, ``mu = tr A / d`` and
    ``B = A - mu I``, it evaluates ``e^{phA} e^{u mu} P(u)``, where ``P``
    interpolates ``e^{uB}`` at the ``degree + 1`` first-kind Chebyshev nodes of
    ``[0, h]``.  ``bound`` is the proven error bound in the 2-norm, at most
    `INTERPOLANT_TOL` times ``max(1, max_v |e^{vA}|_2)``.  Arrays are read-only.
    """

    t: float
    piece: float
    shift: float
    starts: np.ndarray  # (pieces, d, d): e^{phA}
    columns: np.ndarray  # (d, degree + 1, d): columns[j, k] is column j of the k-th coefficient
    bound: float

    @property
    def pieces(self) -> int:
        return self.starts.shape[0]

    @property
    def degree(self) -> int:
        return self.columns.shape[1] - 1

    def _basis(self, ages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Piece index of each age, and ``e^{u mu} T_k`` at its offset ``u`` in the piece."""
        p = np.minimum((ages / self.piece).astype(np.intp), self.pieces - 1)
        u = ages - p * self.piece
        return p, chebyshev.chebvander(2.0 * u / self.piece - 1.0, self.degree) * np.exp(self.shift * u)[:, None]

    def apply(self, ages: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """``e^{vA} xi`` for each (age ``v`` in ``[0, t]``, row ``xi`` of ``sizes``) pair."""
        p, vand = self._basis(ages)
        out = np.zeros(sizes.shape)
        for j, col in enumerate(self.columns):
            out += sizes[:, j, None] * (vand @ col)
        if self.pieces > 1:
            order = np.argsort(p, kind="stable")
            groups = np.split(order, np.searchsorted(p[order], np.arange(1, self.pieces)))
            for start, idx in zip(self.starts[1:], groups[1:]):
                out[idx] = out[idx] @ start.T
        return out

    def apply_transpose(self, ages: np.ndarray, c: np.ndarray) -> np.ndarray:
        """``e^{vA'} c`` for each age ``v`` in ``[0, t]``, as rows: ``c' e^{phA}``
        per piece, then the coefficients, at ``d`` times less work than `apply`
        on the ``d`` unit vectors."""
        p, vand = self._basis(ages)
        rows = (c @ self.starts)[p]
        return (vand[:, :, None] * rows[:, None, :]).reshape(len(ages), -1) @ self.columns.reshape(len(c), -1).T


#: Terms of the power series of each ``I_k`` that `_bessel_i` sums.
_BESSEL_TERMS = 16

#: ``n!`` for every factorial in those terms.
_FACTORIALS = np.array([float(math.factorial(n)) for n in range(INTERPOLANT_MAX_DEGREE + 40 + _BESSEL_TERMS)])


def _bessel_i(rho: float) -> np.ndarray:
    """``I_k(rho)`` for ``k = 1 .. INTERPOLANT_MAX_DEGREE + 40`` and ``0 <= rho <= 1``:
    ``I_k(rho) = sum_j (rho/2)^(2j+k) / (j! (j+k)!)`` summed over its first
    `_BESSEL_TERMS` terms, smallest first; the next is below 1e-30 of the first."""
    k = np.arange(1, INTERPOLANT_MAX_DEGREE + 41)[:, None]
    j = np.arange(_BESSEL_TERMS - 1, -1, -1)
    return ((rho / 2.0) ** (2 * j + k) / (_FACTORIALS[j] * _FACTORIALS[j + k])).sum(axis=1)


def _bessel_tails(rho: float) -> np.ndarray:
    """``sum_{k > m} I_k(rho)`` for ``m = 0 .. INTERPOLANT_MAX_DEGREE``.  The sum
    stops 40 terms later: for ``rho <= 1`` the rest is below 1e-100."""
    return np.cumsum(_bessel_i(rho)[::-1])[::-1][: INTERPOLANT_MAX_DEGREE + 1]


def exp_interpolant(a, t: float) -> ExpInterpolant:
    """Build and certify the `ExpInterpolant` of ``e^{vA}`` on ``[0, t]``.

    The piece length ``h`` keeps ``rho = |B|_2 h / 2 <= 1``: the Chebyshev
    coefficients of ``e^{uB}`` grow like ``e^rho`` while the result stays of
    order one, so a longer piece loses digits to cancellation at any degree.
    Since ``e^{uB} = e^{hB/2} e^{xM}`` with ``x`` in ``[-1, 1]`` and
    ``M = hB/2``, and ``e^{xM} = I_0(M) + 2 sum_k I_k(M) T_k(x)`` with
    ``|I_k(M)| <= I_k(rho)``, interpolation at the nodes errs by at most
    ``4 |e^{hB/2}| sum_{k > m} I_k(rho)`` (aliasing at most doubles the
    truncation tail), with ``|e^{hB/2}| <= e^rho``.  Rounding adds
    ``(m + 1) e^{2 rho} eps``.  Times ``max_p |e^{phA}|`` and
    ``max(1, e^{mu h})``, this bounds the error of ``e^{vA}``; the smallest
    degree ``m`` whose bound is at most `INTERPOLANT_TOL` times
    ``max(1, max |e^{vA}|_2)``, taken over the piece starts and ``e^{tA}``, is
    used.

    The piece starts are products of ``e^{hA}``, by doubling, not one expm
    each: an expm of ``phA`` squares its scaled argument many times, and on
    a strongly non-normal drift it was seen to err by 1e-10 relative where
    the products err by 1e-14 (against a 50-digit oracle).  The bound above
    is on top of their rounding.  So a build makes two expm calls: one of
    ``hB``, one stacked over the nodes.

    Raises `InterpolantError` when the table of piece starts would exceed
    `INTERPOLANT_TABLE_BYTES`, when ``e^{vA}`` overflows, or when no degree up
    to `INTERPOLANT_MAX_DEGREE` meets the bound.
    """
    if not 0 < t < math.inf:
        raise ValueError(f"interpolation horizon must be positive and finite, got {t}")
    d = a.shape[0]
    shift = float(np.trace(a)) / d
    b = a - shift * np.eye(d)
    b_norm = float(np.linalg.norm(b, 2))
    pieces = max(1, math.ceil(b_norm * t / 2.0))
    if pieces * a.nbytes > INTERPOLANT_TABLE_BYTES:
        raise InterpolantError(f"e^(vA) on [0, {t:g}] needs {pieces} pieces of |A - mu I| = {b_norm:.3g}: "
                               f"the table of piece starts exceeds {INTERPOLANT_TABLE_BYTES >> 20} MiB")
    h = t / pieces
    rho = b_norm * h / 2.0
    starts = np.empty((pieces + 1, d, d))  # the last is e^{tA}
    starts[0] = np.eye(d)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        starts[1] = np.exp(shift * h) * _expm(h * b)
        done = 1
        while done < pieces:  # e^{(j + k)hA} = e^{jhA} e^{khA}: log2(pieces) stacked products
            step = min(done, pieces - done)
            starts[done + 1:done + 1 + step] = starts[1:1 + step] @ starts[done]
            done += step
    if not np.isfinite(starts).all():
        raise InterpolantError(f"e^(vA) overflows on [0, {t:g}]")
    norms = np.linalg.norm(starts, 2, axis=(1, 2))
    degrees = np.arange(INTERPOLANT_MAX_DEGREE + 1)
    bounds = (math.exp(rho) * norms[:-1].max() * max(1.0, math.exp(shift * h))
              * (4.0 * _bessel_tails(rho) + (degrees + 1) * math.exp(2.0 * rho) * np.finfo(float).eps))
    ok = np.flatnonzero(bounds <= INTERPOLANT_TOL * max(1.0, norms.max()))
    if not ok.size:
        raise InterpolantError(f"no Chebyshev degree up to {INTERPOLANT_MAX_DEGREE} certifies e^(vA) "
                               f"on [0, {t:g}] within {INTERPOLANT_TOL:g} (best bound {bounds.min():.3g})")
    m = int(ok[0])
    nodes = chebyshev.chebpts1(m + 1)
    values = _expm(np.multiply.outer(h * (nodes + 1.0) / 2.0, b)).reshape(m + 1, d * d)
    coef = chebyshev.chebvander(nodes, m).T @ values * (2.0 / (m + 1))
    coef[0] /= 2.0
    return ExpInterpolant(t=float(t), piece=h, shift=shift, starts=read_only(starts[:pieces]),
                          columns=read_only(np.ascontiguousarray(coef.reshape(m + 1, d, d).transpose(2, 0, 1))),
                          bound=float(bounds[m]))


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
    return psd_factor(check_symmetric(s, "PSD matrix"))


def psd_factor(s: np.ndarray) -> PsdFactorization:
    """`psd_sqrt_pinv` of a matrix that `check_symmetric` has already checked and symmetrized."""
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

    One expm of the Van Loan block ``[[A, R, a], [0, -A', 0], [0, 0, 0]] h``,
    at the step ``h = t / 2^k`` of `_short_step`, holds ``P = e^{hA}``, the
    shift ``m = int_0^h e^{sA} a ds`` and ``G P'^{-1}`` for the Gramian ``G``
    at ``h``.  Then ``k`` doublings: ``G <- G + P G P'``, ``m <- m + P m``,
    ``P <- P^2``.  The step rule exists because the ``-A'`` half of the block
    grows like ``e^{|lambda| t}``, so a Gramian read off one expm at ``t``
    loses digits exponentially in ``t``; a doubling only adds a PSD term.

    The inputs are a model's: `OuLevyModel` checks ``A``, ``R`` and ``a`` once,
    when it is built, so only ``t`` is checked here.
    """
    a, r, offset = (np.asarray(v, dtype=float) for v in (a, r, offset))
    d = a.shape[0]
    if not 0 < t < math.inf:
        raise ValueError(f"snapshot time must be positive and finite, got {t}")
    block = np.zeros((2 * d + 1, 2 * d + 1))
    block[:d, :d] = a
    block[:d, d:2 * d] = r
    block[:d, 2 * d] = offset
    block[d:2 * d, d:2 * d] = -a.T
    k, e = _short_step(a, block, t, d)
    p, m = e[:d, :d], e[:d, 2 * d]
    g = e[:d, d:2 * d] @ p.T
    for _ in range(k):
        g = g + p @ g @ p.T
        m = m + p @ m
        p = p @ p
    return SemigroupSnapshot(t=float(t), propagator=read_only(p), gramian=read_only(0.5 * (g + g.T)),
                             mean_shift=read_only(m))


def convolution_factor(a, r_sqrt, t: float) -> np.ndarray:
    """``int_0^t e^{sA} R^{1/2} ds`` by the same augmented-block device."""
    d = a.shape[0]
    aug = np.zeros((2 * d, 2 * d))
    aug[:d, :d] = a
    aug[:d, d:] = r_sqrt
    return _expm(t * aug)[:d, d:]


def lyapunov_solve(a, r) -> np.ndarray:
    """Steady-state covariance: solve ``A X + X A' = -R``, and decide that ``A`` is Hurwitz.

    With ``q = |det A|^{1/d}``, ``M = (qI - A)^{-1}`` and the Cayley transform ``U = M (qI + A)``,
    ``X = sum_k U^k X_0 U'^k`` with ``X_0 = 2q M R M'``, summed by squared Smith iteration
    (Smith 1968): ``X <- X + U X U'``, ``U <- U^2``, until the increment is below ``1e-17 |X|``;
    then only ``U`` is squared.  ``A`` is Hurwitz exactly when the powers ``U^(2^k)`` vanish
    (``rho(U) < 1``), the package's one stability rule: raises `UnstableMatrixError` when
    ``qI - A`` is singular (``q = 0`` included), an iterate is not finite, or ``max |U^(2^k)|``
    is not below 1e-17 within 52 rounds.  The increments alone would accept a mode that ``R``
    does not reach, and an overflowed ``X``.
    """
    d = len(a)
    q = math.exp(np.linalg.slogdet(a)[1] / d)
    try:
        m = np.linalg.inv(q * np.eye(d) - a)
    except np.linalg.LinAlgError:  # A has the eigenvalue q > 0, or q = 0 and A is singular
        m = np.full((d, d), np.nan)  # fails the first round's finiteness test
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite iterate raises below
        u = m @ (q * np.eye(d) + a)
        x = 2.0 * q * m @ r @ m.T
        converged = False
        for _ in range(52):  # 2^52 = 1/eps terms: powers not vanished by then have rho(U) = 1 to roundoff
            if not converged:
                step = u @ x @ u.T
                x = x + step
                scale = np.abs(x).max()
                converged = np.abs(step).max() <= 1e-17 * scale
            size = np.abs(u).max()
            if not (scale < math.inf and size < math.inf):
                break
            if converged and size <= 1e-17:
                return 0.5 * (x + x.T)
            u = u @ u
    raise UnstableMatrixError("drift matrix is not Hurwitz: no invariant measure in this truncation")


#: Relative error at which `integrate` accepts, against the integral of ``|f|``.
QUAD_TOL = 1e-13

#: Subintervals that `integrate` may bisect ``[a, b]`` into.
QUAD_MAX_PIECES = 200

#: Gauss-Legendre nodes on ``[-1, 1]`` of the paired 10- and 20-point rules, with their weights.
_GAUSS_NODES = np.concatenate([legendre.leggauss(10)[0], legendre.leggauss(20)[0]])
_GAUSS_COARSE, _GAUSS_FINE = legendre.leggauss(10)[1], legendre.leggauss(20)[1]


class QuadratureError(ValueError):
    """Raised when `integrate` meets a non-finite integrand, or cannot meet
    `QUAD_TOL` within `QUAD_MAX_PIECES` subintervals."""


def integrate(f, a: float, b: float) -> float:
    """``int_a^b f(s) ds`` by paired Gauss-Legendre rules with bisection.

    ``f`` maps a 1-d array of nodes to the array of its values there; each
    round of the rule passes all of its new nodes in one call.  Every subinterval
    gets the 10- and the 20-point rule, and the difference of the two is its
    error estimate.  The rule stops when the estimates sum to at most
    `QUAD_TOL` times the integral of ``|f|``, and returns the sum of the
    20-point values.  Otherwise it bisects every subinterval whose estimate
    exceeds its length's share of that tolerance, and the worst one; where
    that would pass `QUAD_MAX_PIECES`, only the worst ones up to the cap.
    The rounding error of each value of ``f`` must be small against the value
    itself: an ``f`` that cancels against a constant (``g - 1`` near ``g = 1``)
    is integrated as ``g``, and the constant's integral subtracted after.

    Raises `QuadratureError` on a non-finite value of ``f``, and when the
    tolerance is not met with `QUAD_MAX_PIECES` subintervals.
    """
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    parts = np.empty((0, 5))  # rows of (lo, hi, value, integral of |f|, error estimate)
    while True:
        half = (hi - lo) / 2.0
        nodes = ((lo + hi) / 2.0)[:, None] + half[:, None] * _GAUSS_NODES
        vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
        if not np.isfinite(vals).all():
            raise QuadratureError(f"integrand is not finite on [{a:g}, {b:g}]")
        coarse, fine = half * (vals[:, :10] @ _GAUSS_COARSE), half * (vals[:, 10:] @ _GAUSS_FINE)
        parts = np.concatenate([parts, np.column_stack(
            [lo, hi, fine, half * (np.abs(vals[:, 10:]) @ _GAUSS_FINE), np.abs(fine - coarse)])])
        tol = QUAD_TOL * parts[:, 3].sum()
        if parts[:, 4].sum() <= tol:
            return float(parts[:, 2].sum())
        split = parts[:, 4] > tol * (parts[:, 1] - parts[:, 0]) / (b - a)
        split[np.argmax(parts[:, 4])] = True
        room = QUAD_MAX_PIECES - len(parts)  # each bisection adds one subinterval
        if room <= 0:
            raise QuadratureError(f"integral over [{a:g}, {b:g}] not within {QUAD_TOL:g} relative "
                                  f"in {QUAD_MAX_PIECES} subintervals (error estimate {parts[:, 4].sum():.3g})")
        if np.count_nonzero(split) > room:
            split = np.isin(np.arange(len(parts)), np.argsort(parts[:, 4])[-room:])
        mid = (parts[split, 0] + parts[split, 1]) / 2.0
        lo, hi = np.concatenate([parts[split, 0], mid]), np.concatenate([mid, parts[split, 1]])
        parts = parts[~split]
