"""Independent oracles and deterministic model generators for the tests.

Everything here deliberately avoids the code paths it is used to check:
Gramians come from composite Simpson quadrature of the matrix integrand,
density norms from scalar quadrature of the density ratio, expectations over
the invariant law from direct Gaussian sampling.
"""

import numpy as np
import scipy.integrate
import scipy.linalg as sla
import scipy.special


def simpson_gramian(a, r, t, panels=2000):
    """Composite-Simpson evaluation of ``int_0^t e^{sA} R e^{sA'} ds``."""
    a = np.asarray(a, dtype=float)
    r = np.asarray(r, dtype=float)
    s = np.linspace(0.0, t, panels + 1)
    vals = np.stack([e @ r @ e.T for e in (sla.expm(si * a) for si in s)])
    return scipy.integrate.simpson(vals, x=s, axis=0)


def simpson_mean_shift(a, offset, t, panels=2000):
    a = np.asarray(a, dtype=float)
    offset = np.asarray(offset, dtype=float)
    s = np.linspace(0.0, t, panels + 1)
    vals = np.stack([sla.expm(si * a) @ offset for si in s])
    return scipy.integrate.simpson(vals, x=s, axis=0)


def lyapunov_truncated_integral(a, r, horizon=50.0, panels_head=2000, panels_tail=2000):
    """Graded Simpson quadrature of the steady-state covariance integral."""
    split = min(5.0, horizon)
    head = simpson_gramian(a, r, split, panels_head)
    s = np.linspace(split, horizon, panels_tail + 1)
    vals = np.stack([sla.expm(si * np.asarray(a)) @ r @ sla.expm(si * np.asarray(a)).T for si in s])
    return head + scipy.integrate.simpson(vals, x=s, axis=0)


def make_stable(rng, dim, margin=0.5, scale=0.4):
    """Random matrix with spectral abscissa at most ``-margin``."""
    a = rng.normal(0.0, scale, size=(dim, dim))
    ab = float(np.linalg.eigvals(a).real.max())
    return a - (max(ab, 0.0) + margin) * np.eye(dim)


def make_psd(rng, dim, ridge=0.0, rank=None):
    cols = dim if rank is None else rank
    b = rng.normal(size=(dim, cols))
    return b @ b.T / dim + ridge * np.eye(dim)


def gaussian_logpdf(z, mean, cov):
    z = np.atleast_2d(z)
    d = z.shape[1]
    diff = z - mean
    sol = np.linalg.solve(cov, diff.T).T
    _, logdet = np.linalg.slogdet(cov)
    return -0.5 * (np.einsum("ij,ij->i", diff, sol) + logdet + d * np.log(2.0 * np.pi))


def sample_gaussian(rng, mean, cov, n):
    w, v = np.linalg.eigh(cov)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return np.asarray(mean) + rng.standard_normal((n, len(mean))) @ root


def mc_mean(values):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n))


def within_sigma(estimate, se, target, k=4.0):
    return abs(estimate - target) <= k * max(se, 1e-300)


def mc_convolution_square_exp_moment(model, t, lam, n, K, seed):
    """Monte Carlo ``E exp(lam int_0^t |W_A(s)|^2 ds)`` with its standard error.

    The convolution is advanced exactly on a ``K``-step grid (propagator plus
    a Gaussian innovation with the step Gramian) and the time integral is the
    trapezoid rule, whose ``O(K^-2)`` bias shows at small ``K``.
    """
    snap = model.snapshot(t / K)
    w, v = np.linalg.eigh(snap.gramian)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    rng = np.random.default_rng(seed)
    conv = np.zeros((n, model.dim))
    integral = np.zeros(n)
    for _ in range(K):
        nxt = conv @ snap.propagator.T + rng.standard_normal((n, model.dim)) @ root
        integral += 0.5 * (t / K) * (np.sum(conv**2, axis=1) + np.sum(nxt**2, axis=1))
        conv = nxt
    return mc_mean(np.exp(lam * integral))


def convolution_covariance_eigenvalues(a, r, t, nodes=300):
    """Nystrom eigenvalues of the covariance operator of ``W_A`` on ``L^2([0, t])``.

    Gauss-Legendre nodes ``s_i`` with weights ``w_i``; the kernel is
    ``Cov(W_A(s), W_A(u)) = e^{(s-u)A} G(u)`` for ``s >= u``, with the Gramian
    ``G(u) = S - e^{uA} S e^{uA'}`` from the steady covariance ``S`` of a
    stable ``A``.  Then ``E exp(lam int |W_A|^2) = prod (1 - 2 lam mu_i)^{-1/2}``,
    finite exactly when ``2 lam max mu_i < 1``.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    x, w = np.polynomial.legendre.leggauss(nodes)
    s, w = 0.5 * t * (x + 1.0), 0.5 * t * w
    steady = sla.solve_continuous_lyapunov(a, -np.asarray(r, dtype=float))
    fwd = np.stack([sla.expm(si * a) for si in s])
    gram = steady - fwd @ steady @ fwd.transpose(0, 2, 1)
    back = np.stack([sla.expm(-si * a) for si in s]) @ gram
    blocks = np.einsum("iab,jbc->ijac", fwd, back)  # Cov(W_A(s_i), W_A(s_j)) for i >= j
    lower = np.tril(np.ones((nodes, nodes), dtype=bool))[:, :, None, None]
    blocks = np.where(lower, blocks, blocks.transpose(1, 0, 3, 2))
    kernel = blocks.transpose(0, 2, 1, 3).reshape(nodes * d, nodes * d)
    root_w = np.repeat(np.sqrt(w), d)
    return np.linalg.eigvalsh(root_w[:, None] * kernel * root_w[None, :])


def expm_marching(a, ages):
    """``e^{vA}`` at increasing ages ``v >= 0``, each reached from the one
    before by products of ``scipy.linalg.expm`` steps of 2-norm at most 1.

    No step squares a large argument.  On strongly non-normal drifts a single
    expm of ``vA`` was seen to err by up to 5e-11 relative to a 50-digit
    ``mpmath.expm``, where the marched products stay within about 1e-14.
    """
    a = np.asarray(a, dtype=float)
    norm = float(np.linalg.norm(a, 2))
    out = np.empty((len(ages), a.shape[0], a.shape[0]))
    current, previous = np.eye(a.shape[0]), 0.0
    for i, v in enumerate(ages):
        steps = max(1, int(np.ceil((v - previous) * norm)))
        step = sla.expm((v - previous) / steps * a)
        for _ in range(steps):
            current = current @ step
        out[i], previous = current, v
    return out


def hard_drift(kind, dim, rng):
    """A random drift of one numerically hard kind."""
    if kind == "zero":
        return np.zeros((dim, dim))
    if kind in ("jordan", "unstable"):  # one Jordan block, spectral abscissa up to +0.5 when unstable
        lam = rng.uniform(0.0, 0.5) if kind == "unstable" else rng.uniform(-2.0, 0.0)
        return lam * np.eye(dim) + np.diag(rng.uniform(0.5, 1.5, dim - 1), 1) + np.triu(rng.normal(0, 0.3, (dim, dim)), 2)
    if kind == "stiff":  # eigenvalues down to -300
        return np.diag(-np.exp(rng.uniform(np.log(0.1), np.log(300.0), dim))) + np.triu(rng.normal(0, 1, (dim, dim)), 1)
    if kind == "nonnormal":  # off-diagonal entries up to 100
        return np.diag(-rng.uniform(0.1, 3.0, dim)) + np.triu(rng.uniform(-100.0, 100.0, (dim, dim)), 1)
    if kind == "rotating":  # 2x2 rotation blocks of frequency up to 50, damped or not
        a = np.diag(-rng.uniform(0.0, 2.0, dim))
        for i in range(0, dim - 1, 2):
            w = rng.uniform(-50.0, 50.0)
            a[i, i + 1], a[i + 1, i] = w, -w
        return a
    raise KeyError(kind)


def marched_expm(a, t):
    """``s -> e^{sA}`` on ``[0, t]``: one ``scipy.linalg.expm`` of a step of 2-norm
    at most 1 times the nearest lower entry of an `expm_marching` table."""
    a = np.asarray(a, dtype=float)
    h = t / max(1, int(np.ceil(t * np.linalg.norm(a, 2))))
    grid = h * np.arange(int(round(t / h)) + 1)
    table = expm_marching(a, grid)

    def at(s):
        k = min(int(s / h), len(grid) - 1)
        return sla.expm((s - grid[k]) * a) @ table[k]

    return at


def quadpack_mehler_exponential(model, t, c, x):
    """``E exp(<c, X_t>)`` with the jump integral by QUADPACK over `marched_expm`;
    the Gaussian part from the model's snapshot."""
    c = np.asarray(c, dtype=float)
    snap = model.snapshot(t)
    log_val = float(c @ (snap.propagator @ np.asarray(x, dtype=float) + snap.mean_shift) + 0.5 * c @ snap.gramian @ c)
    if model.has_jumps:
        at = marched_expm(model.drift_matrix, t)
        integral, _ = scipy.integrate.quad(lambda s: model.jump.exp_moment(at(s).T @ c) - 1.0, 0.0, t,
                                           epsabs=1e-13, epsrel=1e-13, limit=500)
        log_val += model.jump.rate * integral
    return float(np.exp(log_val))


def quadpack_weighted_energy(model, t, x0, xi):
    """``int xi^2 |R^{-1/2} e^{sA} x0|^2 / (int xi)^2`` by QUADPACK over `marched_expm`,
    for a nonsingular noise covariance ``R``."""
    at = marched_expm(model.drift_matrix, t)
    r = model.noise_cov

    def weighted_sq(s):
        z = at(s) @ x0
        return xi(s) ** 2 * float(z @ np.linalg.solve(r, z))

    num, _ = scipy.integrate.quad(weighted_sq, 0.0, t, epsabs=0.0, epsrel=1e-13, limit=500)
    denom, _ = scipy.integrate.quad(xi, 0.0, t, epsabs=0.0, epsrel=1e-13, limit=500)
    return num / denom**2


def scipy_bessel_tails(rho):
    """``sum_{k > m} I_k(rho)`` for ``m = 0 .. 30`` from ``scipy.special.iv``, 40 terms on."""
    terms = scipy.special.iv(np.arange(1, 71), rho)
    return np.cumsum(terms[::-1])[::-1][:31]
