"""Seeded scenario generators for the four benchmark workloads.

Every workload is a list of scenario dicts in the format the `harnacklab`
command reads.  The generators use only numpy and scipy, so the inputs
depend on the seed and on this file, never on the program under test.
Each generator returns the scenarios and, per scenario index, the
closed-form values of an independent oracle computed without harnacklab
(highdim_suite only).  `properties` measures the input properties recorded
in BENCHMARK.json: the share of drifts whose eigenvector matrix has
condition >= 1e8, and the checks per distinct (model, t).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

#: Eigenvector condition number from which the sampler abandons the
#: eigen-decomposition jump transport (the per-jump expm fallback).
DEFECTIVE_COND = 1e8


def _gen(seed: int, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed & (2**63 - 1), salt]))


def _sym_sqrt(s: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(s)
    return (v * np.sqrt(w)) @ v.T


def _eigvec_cond(a: np.ndarray) -> float:
    _, vecs = np.linalg.eig(a)
    return float(np.linalg.cond(vecs))


# ---------------------------------------------------------------------------
# highdim_suite: jump-free closed-form and Gaussian Monte Carlo checks
# ---------------------------------------------------------------------------

HIGHDIM_DIMS = (50, 50, 50, 200, 200)
HIGHDIM_MC_N = 20_000


def _highdim_model(gen: np.random.Generator, d: int, index: int, seed: int) -> tuple[dict, dict]:
    b = gen.normal(size=(d, d))
    r = b @ b.T / d + 0.5 * np.eye(d)
    # A = R^{1/2} M R^{-1/2} with sym(M) <= -kappa I, so the decay profile
    # h(t) = exp(-kappa t) is certified for hwi on every probe.
    kappa = float(gen.uniform(0.6, 1.2))
    w = gen.normal(size=(d, d)) * (0.5 / np.sqrt(d))
    g = gen.normal(size=(d, d)) / np.sqrt(d)
    m = -kappa * np.eye(d) + (w - w.T) - 0.2 * (g @ g.T) / d
    r_half = _sym_sqrt(r)
    a = r_half @ m @ np.linalg.inv(r_half)
    t = float(gen.uniform(0.6, 1.2))
    x = gen.normal(size=d) * (0.5 / np.sqrt(d))
    u = gen.normal(size=d)
    y = x + 0.3 * u / np.linalg.norm(u)
    c_exp = gen.normal(size=d) * (0.3 / np.sqrt(d))
    c_bounded = gen.normal(size=d) * (1.0 / np.sqrt(d))
    nu_b = gen.normal(size=(d, d)) / np.sqrt(d)
    nu = {"mean": (gen.normal(size=d) * (0.5 / np.sqrt(d))).tolist(),
          "cov": (0.3 * nu_b @ nu_b.T + 0.5 * np.eye(d)).tolist()}
    alpha = float(gen.uniform(1.8, 3.0))
    common = {"t": t, "x": x.tolist(), "y": y.tolist()}
    checks = [
        {"kind": "harnack", "id": "harnack_exact", **common, "alpha": alpha,
         "f": {"kind": "exp", "c": c_exp.tolist()}, "bound_mode": "exact_gamma"},
        {"kind": "harnack", "id": "harnack_opnorm", **common, "alpha": alpha,
         "f": {"kind": "exp", "c": c_exp.tolist()}, "bound_mode": "operator_norm"},
        {"kind": "log_harnack", "id": "log_harnack", **common,
         "f": {"kind": "one_plus_sigmoid", "c": c_bounded.tolist()}, "n": HIGHDIM_MC_N},
        {"kind": "gradient", "id": "gradient", **common,
         "f": {"kind": "tanh", "c": c_bounded.tolist()}, "n": HIGHDIM_MC_N},
        {"kind": "kernel_harnack", "id": "kernel_power", **common, "alpha": 2.0},
        {"kind": "kernel_kl", "id": "kernel_kl", **common},
        {"kind": "density_norm", "id": "density_norm", "t": t, "x": x.tolist(), "alpha": 2.0},
        {"kind": "hyper_constant", "id": "hyper_constant", "t": t, "alpha": 2.0, "epsilon": 0.002},
        {"kind": "entropy_cost", "id": "entropy_cost", "t": t, "nu": nu},
        {"kind": "hwi", "id": "hwi", "t": t, "nu": nu,
         "h": {"kind": "exponential", "rate": kappa}},
    ]
    cfg = {"dim": d, "A": a.tolist(), "R": r.tolist(), "a": [0.0] * d,
           "seed": int(seed * 1000 + index), "checks": checks}
    return cfg, _closed_form_oracle(a, r, t, x, y, c_exp, alpha)


def _closed_form_oracle(a, r, t, x, y, c, alpha) -> dict:
    """Harnack closed form by a route the program does not take.

    The Gramian comes from the Lyapunov identity
    ``R_t = S - e^{tA} S e^{tA'}`` with ``A S + S A' = -R``; the program
    uses the Van Loan augmented block instead.
    """
    prop = sla.expm(t * a)
    s = sla.solve_continuous_lyapunov(a, -r)
    gram = s - prop @ s @ prop.T
    gram = 0.5 * (gram + gram.T)
    v = prop @ (x - y)
    energy_sq = float(v @ np.linalg.solve(gram, v))
    log_px = float(c @ prop @ x + 0.5 * c @ gram @ c)
    log_py = float(alpha * c @ prop @ y + 0.5 * alpha**2 * c @ gram @ c)
    return {
        "energy_sq": energy_sq,
        "log_lhs": alpha * log_px,
        "log_rhs": alpha * energy_sq / (2.0 * (alpha - 1.0)) + log_py,
    }


def highdim_suite(seed: int) -> tuple[list[dict], dict]:
    gen = _gen(seed, 1)
    cfgs, oracles = [], {}
    for i, d in enumerate(HIGHDIM_DIMS):
        cfg, oracles[i] = _highdim_model(gen, d, i, seed)
        cfgs.append(cfg)
    return cfgs, oracles


# ---------------------------------------------------------------------------
# jump workloads: compound-Poisson Harnack checks by Monte Carlo
# ---------------------------------------------------------------------------

JUMP_SUITE_COUNT = 50
JUMP_SUITE_N = 20_000
JUMP_DEFECTIVE_COUNT = 40
JUMP_DEFECTIVE_N = 3_000


def _energy_step(gen: np.random.Generator, a, r, t: float, energy_sq: float) -> np.ndarray:
    """A random ``x - y`` whose squared minimum-energy norm is ``energy_sq``.

    With a fixed energy the Harnack margin stays far outside the Monte
    Carlo error on every seed; a tiny energy would make it a coin toss.
    """
    d = a.shape[0]
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d], block[:d, d:], block[d:, d:] = a, r, -a.T
    e = sla.expm(t * block)
    prop = e[:d, :d]
    gram = e[:d, d:] @ prop.T
    u = gen.normal(size=d)
    u *= np.sqrt(energy_sq) / np.linalg.norm(u)
    return -np.linalg.solve(prop, _sym_sqrt(0.5 * (gram + gram.T)) @ u)


def _jump_classes(gen: np.random.Generator, count: int, defective: bool) -> list[tuple]:
    """Per-scenario (dim, complex spectrum, load, observable, atoms), dealt
    from a fixed pool in a seeded order.

    The cost of a check follows these classes, so a fixed pool keeps the
    work of a repetition, and the spread of per-check times, the same on
    every seed; only the matrices and points inside each class are random.
    """
    # expected jumps per path (rate * t); the per-jump expm fallback makes
    # each jump costly, so the defective workload gets a sixth of the load
    top_load = 0.5 if defective else 3.0
    loads = np.linspace(top_load / 6.0, top_load, count)
    dims = (2, 3) if defective else (1, 2, 3)
    kinds = ("clipped_exp", "one_plus_sigmoid", "indicator")
    pool = []
    for i in range(count):
        dim = dims[i % len(dims)]
        # complex eigenvalues make the eigen-path transport run in complex
        # arithmetic, so half of the multi-dimensional drifts get them
        cplx = not defective and dim > 1 and (i // len(dims)) % 2 == 1
        pool.append((dim, cplx, float(loads[i]), kinds[(i // 3) % 3], 1 + (i // 9) % 3))
    return [pool[i] for i in gen.permutation(count)]


def _jump_scenarios(gen: np.random.Generator, seed: int, count: int, n: int, defective: bool) -> list[dict]:
    cfgs = []
    for i, (dim, cplx, load, kind, n_atoms) in enumerate(_jump_classes(gen, count, defective)):
        if defective:
            # one Jordan block: equal diagonal, nonzero superdiagonal
            a = np.triu(gen.normal(0.0, 0.3, size=(dim, dim)), k=2)
            a += np.diag(gen.uniform(0.5, 1.5, size=dim - 1), k=1)
            a -= float(gen.uniform(0.8, 1.3)) * np.eye(dim)
        else:
            while True:
                a = gen.normal(0.0, 0.4, size=(dim, dim))
                eig = np.linalg.eigvals(a)
                if bool(np.any(eig.imag != 0.0)) == cplx:
                    break
            a -= (max(float(eig.real.max()), 0.0) + 0.5 + float(gen.uniform(0.0, 0.5))) * np.eye(dim)
        b = gen.normal(0.0, 1.0, size=(dim, dim))
        r = b @ b.T / dim + 0.3 * np.eye(dim)
        atoms = gen.uniform(-1.2, 1.2, size=(n_atoms, dim))
        probs = gen.uniform(0.2, 1.0, size=n_atoms)
        probs = probs / probs.sum()
        x = gen.uniform(-1.0, 1.0, size=dim)
        t = float(gen.uniform(0.4, 1.6))
        y = x + _energy_step(gen, a, r, t, float(gen.uniform(1.2, 2.4)))
        f_spec = {"kind": kind, "c": gen.uniform(-0.6, 0.6, size=dim).tolist()}
        if kind == "clipped_exp":
            f_spec["cap"] = 10.0
        cfgs.append({
            "dim": dim,
            "A": a.tolist(),
            "R": r.tolist(),
            "a": [0.0] * dim,
            "jump": {"rate": load / t, "atoms": atoms.tolist(), "probs": probs.tolist()},
            "seed": int(seed * 1000 + i),
            "checks": [{
                "kind": "harnack",
                "id": f"jump_harnack#{i:03d}",
                "t": t,
                "x": x.tolist(),
                "y": y.tolist(),
                "alpha": float(gen.uniform(1.5, 3.0)),
                "f": f_spec,
                "bound_mode": "exact_gamma",
                "n": n,
            }],
        })
    return cfgs


def jump_suite(seed: int) -> tuple[list[dict], dict]:
    return _jump_scenarios(_gen(seed, 2), seed, JUMP_SUITE_COUNT, JUMP_SUITE_N, defective=False), {}


def jump_defective(seed: int) -> tuple[list[dict], dict]:
    return _jump_scenarios(_gen(seed, 3), seed, JUMP_DEFECTIVE_COUNT, JUMP_DEFECTIVE_N, defective=True), {}


# ---------------------------------------------------------------------------
# semilinear_paths: perturbed-drift path checks (criterion 10 shape)
# ---------------------------------------------------------------------------

SEMILINEAR_COUNT = 14
SEMILINEAR_N = 2_048
SEMILINEAR_K = 256


def semilinear_paths(seed: int) -> tuple[list[dict], dict]:
    gen = _gen(seed, 4)
    cfgs = []
    for i in range(SEMILINEAR_COUNT):
        lam = float(gen.uniform(0.7, 1.3))
        x = float(gen.uniform(-0.6, 0.6))
        y = x + float(gen.uniform(-0.6, 0.6))
        k = float(gen.uniform(0.3, 0.6))
        f = {"kind": "clipped_exp", "c": [float(gen.uniform(0.2, 0.5))], "cap": 8.0}
        drift = {"kind": "scaled_sine", "k": k}
        common = {"t": 1.0, "n": SEMILINEAR_N, "K": SEMILINEAR_K, "F": drift}
        cfgs.append({
            "dim": 1, "A": [[-lam]], "R": [[2.0]], "a": [0.0],
            "seed": int(seed * 1000 + i),
            "checks": [
                {"kind": "semilinear_harnack", "id": "semilinear", **common, "x": [x], "y": [y],
                 "alpha": 4.0, "p": 1.3, "q": 1.3, "f": f},
                {"kind": "semilinear_harnack", "id": "semilinear_mirror", **common, "x": [x], "y": [2.0 * x - y],
                 "alpha": 4.0, "p": 1.3, "q": 1.3, "f": f},
                {"kind": "rho_moments", "id": "rho_moments", **common, "x": [x], "p": 2.0, "delta": 0.5},
            ],
        })
    return cfgs, {}


WORKLOADS = {
    "highdim_suite": highdim_suite,
    "jump_suite": jump_suite,
    "jump_defective": jump_defective,
    "semilinear_paths": semilinear_paths,
}


def properties(cfgs: list[dict]) -> dict:
    """Input properties that a later change may claim to depend on."""
    conds = [_eigvec_cond(np.asarray(cfg["A"])) for cfg in cfgs]
    keys = {(i, float(c["t"])) for i, cfg in enumerate(cfgs) for c in cfg["checks"]}
    n_checks = sum(len(cfg["checks"]) for cfg in cfgs)
    return {
        "defective_drift_share": sum(c >= DEFECTIVE_COND for c in conds) / len(conds),
        "checks_per_model_t": n_checks / len(keys),
        "checks_per_rep": n_checks,
        "max_dim": max(int(cfg["dim"]) for cfg in cfgs),
    }
