"""Scenario-driven command-line front end.

A scenario is a JSON file declaring one model and a list of checks; the
runner executes every check (or a selected one), writes machine-readable
reports (CSV or JSON lines), and exits 0 only when every verdict passes.
Sweeps rerun a single check over a grid of one numeric parameter and emit
plot-ready rows.

Exit codes: 0 all pass, 1 some check VIOLATED, 2 some check INCONCLUSIVE,
3 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import reprlib
import sys
from dataclasses import dataclass

import numpy as np

from . import analytic, verify
from .model import CompoundPoissonSpec, HFunction, OuLevyModel
from .sampler import mix_seed
from .testfuncs import drift_from_spec, observable_from_spec, spec_vector

#: Documented defaults; everything else in a scenario is explicit.
DEFAULT_SAMPLES = 100_000
DEFAULT_GRID_STEPS = 512

CHECK_KINDS = (
    "harnack",
    "log_harnack",
    "gradient",
    "kernel_harnack",
    "kernel_kl",
    "density_norm",
    "hyper_constant",
    "entropy_cost",
    "hwi",
    "semilinear_harnack",
    "rho_moments",
)

CSV_HEADER = ["check_id", "param_json", "lhs", "rhs", "lhs_se", "rhs_se", "margin", "verdict", "seed"]
SWEEP_HEADER = ["parameter", "lhs", "rhs", "lhs_se", "rhs_se", "margin", "verdict"]


class SchemaError(ValueError):
    """Scenario validation failure, carrying the offending field path."""


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise SchemaError(f"{path}.{key}: missing required field")
    return d[key]


def _rows(d, key, path, dim, count=None):
    """Field ``key``, a list of ``count`` rows (at least one without a count), each
    read by `spec_vector` as ``dim`` JSON numbers; ``count = dim`` reads a square matrix."""
    raw = _need(d, key, path)
    if type(raw) is not list or not raw or (count is not None and len(raw) != count):
        raise SchemaError(f"{path}.{key}: must be a list of {count or 'one or more'} row(s), got {reprlib.repr(raw)}")
    return np.array([spec_vector({f"{key}[{i}]": row}, f"{key}[{i}]", dim, path) for i, row in enumerate(raw)])


def _vector(d, key, path, dim, default=None):
    if default is not None and key not in d:
        return default
    _need(d, key, path)
    return spec_vector(d, key, dim, path)


def _typed(d: dict, key: str, path: str, kind: type, default=None):
    """Field ``key`` of type ``int``, ``float``, ``bool``, ``str`` or ``dict``, required without a
    ``default``; a float with an integral value (``1e5``) is an ``int``, and an ``int`` is a ``float``."""
    v = _need(d, key, path) if default is None else d.get(key, default)
    if kind is int and isinstance(v, float) and v.is_integer():
        v = int(v)
    elif kind is float and type(v) is int:
        v = float(v)
    if type(v) is not kind:  # True is no int, and 0 no bool
        want = {int: "an integer", float: "a number", bool: "true or false", str: "a string", dict: "an object"}
        raise SchemaError(f"{path}.{key}: must be {want[kind]}, got {reprlib.repr(v)}")
    return v


def _reject_non_finite(node, path: str) -> None:
    """Raise `SchemaError` at the first number under ``node`` that is no finite float: JSON
    ``NaN``, ``Infinity``, ``1e999`` or an integer beyond the float range."""
    if isinstance(node, dict):
        for key, value in node.items():
            _reject_non_finite(value, f"{path}.{key}")
    elif isinstance(node, list):
        with contextlib.suppress(TypeError, OverflowError):  # one C-level float sum clears a list of numbers
            if math.isfinite(sum(node, 0.0)):
                return
        for i, value in enumerate(node):
            _reject_non_finite(value, f"{path}[{i}]")
    elif isinstance(node, (int, float)) and not abs(node) <= sys.float_info.max:  # NaN compares False
        raise SchemaError(f"{path}: non-finite number {reprlib.repr(node)}")


def parse_model(cfg: dict, path: str = "") -> OuLevyModel:
    dim = _need(cfg, "dim", path or "config")
    if not isinstance(dim, int) or dim < 1:
        raise SchemaError(f"{path}.dim: must be a positive integer")
    a = _rows(cfg, "A", path, dim, dim)
    r = _rows(cfg, "R", path, dim, dim)
    offset = _vector(cfg, "a", path, dim, default=np.zeros(dim))
    jump = None
    if cfg.get("jump") is not None:
        j = _typed(cfg, "jump", path, dict)
        rate = _typed(j, "rate", f"{path}.jump", float)
        atoms = _rows(j, "atoms", f"{path}.jump", dim)
        probs = None if j.get("probs") is None else spec_vector(j, "probs", len(atoms), f"{path}.jump")
        try:
            jump = CompoundPoissonSpec(rate=rate, atoms=atoms, probs=probs)
        except ValueError as exc:
            raise SchemaError(f"{path}.jump: {exc}") from exc
    try:
        return OuLevyModel(drift_matrix=a, noise_cov=r, drift_offset=offset, jump=jump)
    except ValueError as exc:
        raise SchemaError(f"{path}.R: {exc}") from exc


def _parse_h(entry: dict, path: str) -> HFunction:
    spec, path = _typed(entry, "h", path, dict), f"{path}.h"
    kind = spec.get("kind")
    if kind == "exponential":
        return HFunction.exponential(_typed(spec, "rate", path, float))
    if kind == "constant":
        return HFunction.constant(_typed(spec, "value", path, float))
    raise SchemaError(f"{path}.kind: unknown decay profile {kind!r}")


def _parse_nu(entry: dict, path: str, dim: int) -> analytic.GaussianMeasure:
    spec, path = _typed(entry, "nu", path, dict), f"{path}.nu"
    mean = _vector(spec, "mean", path, dim)
    cov = _rows(spec, "cov", path, dim, dim)
    try:
        return analytic.GaussianMeasure(mean=mean, cov=cov)
    except ValueError as exc:
        raise SchemaError(f"{path}.cov: {exc}") from exc


@dataclass
class Scenario:
    """Parsed scenario: model plus normalized check descriptions."""

    model: OuLevyModel
    checks: list[dict]
    seed: int | None

    @staticmethod
    def parse(cfg: dict) -> "Scenario":
        if not isinstance(cfg, dict):
            raise SchemaError("config: top level must be an object")
        _reject_non_finite(cfg, "config")
        model = parse_model(cfg, "config")
        top_seed = None if cfg.get("seed") is None else _typed(cfg, "seed", "config", int)
        raw_checks = _need(cfg, "checks", "config")
        if not isinstance(raw_checks, list) or not raw_checks:
            raise SchemaError("config.checks: must be a non-empty list")
        checks = []
        seen = set()
        for i, entry in enumerate(raw_checks):
            path = f"config.checks[{i}]"
            if not isinstance(entry, dict):
                raise SchemaError(f"{path}: must be an object")
            kind = _need(entry, "kind", path)
            if kind not in CHECK_KINDS:
                raise SchemaError(f"{path}.kind: unknown check kind {kind!r}")
            cid = _typed(entry, "id", path, str, f"{kind}#{i:03d}")
            if cid in seen:
                raise SchemaError(f"{path}.id: duplicate check id {cid!r}")
            seen.add(cid)
            if entry.get("seed") is not None:
                seed = _typed(entry, "seed", path, int)
            elif top_seed is None:
                raise SchemaError(f"{path}.seed: no seed given and no top-level seed to derive from")
            else:
                seed = mix_seed(top_seed, i)
            checks.append({**entry, "id": cid, "seed": seed})
        return Scenario(model=model, checks=checks, seed=top_seed)

    def to_dict(self) -> dict:
        m = self.model
        out: dict = {"dim": m.dim, "A": m.drift_matrix.tolist(), "R": m.noise_cov.tolist(),
                     "a": m.drift_offset.tolist()}
        if m.jump is not None:
            out["jump"] = {"rate": m.jump.rate, "atoms": m.jump.atoms.tolist(), "probs": m.jump.probs.tolist()}
        if self.seed is not None:
            out["seed"] = self.seed
        out["checks"] = [dict(c) for c in self.checks]
        return out


def _run_check(model: OuLevyModel, entry: dict, samples: int | None) -> list[verify.CheckReport]:
    kind = entry["kind"]
    cid = entry["id"]
    path = f"check {cid}"
    dim = model.dim
    seed = entry["seed"]
    n = samples if samples is not None else _typed(entry, "n", path, int, DEFAULT_SAMPLES)
    grid = _typed(entry, "K", path, int, DEFAULT_GRID_STEPS)
    t = _typed(entry, "t", path, float)

    def num(key: str, default=None) -> float:
        return _typed(entry, key, path, float, default)

    if kind in ("harnack", "log_harnack", "gradient", "semilinear_harnack"):
        x = _vector(entry, "x", path, dim)
        y = _vector(entry, "y", path, dim)
        f = observable_from_spec(_typed(entry, "f", path, dict), dim)
        if kind == "harnack":
            h = _parse_h(entry, path) if entry.get("h") else None
            return [verify.check_harnack(
                model, t, x, y, num("alpha"), f, bound_mode=entry.get("bound_mode", "exact_gamma"),
                n=n, seed=seed, h=h, check_id=cid)]
        if kind == "log_harnack":
            return [verify.check_log_harnack(model, t, x, y, f, n=n, seed=seed, check_id=cid)]
        if kind == "gradient":
            return [verify.check_gradient_estimate(model, t, x, y, f, n=n, seed=seed, check_id=cid)]
        spec = drift_from_spec(_typed(entry, "F", path, dict), model)
        return [verify.check_semilinear_harnack(
            model, spec, t, x, y, num("alpha"), num("p"), num("q"), f, n=n, K=grid, seed=seed, check_id=cid)]

    if kind in ("kernel_harnack", "kernel_kl"):
        x = _vector(entry, "x", path, dim)
        y = _vector(entry, "y", path, dim)
        report = verify.kernel_power_report if kind == "kernel_harnack" else verify.kernel_kl_report
        return [report(model, t, x, y, num("alpha", 2.0), cid)]

    if kind == "density_norm":
        x = _vector(entry, "x", path, dim)
        return [verify.check_density_norm(model, t, x, num("alpha"), check_id=cid)]

    if kind == "hyper_constant":
        return [verify.check_hyper_constant(model, t, num("alpha"), num("epsilon"), check_id=cid)]

    if kind == "entropy_cost":
        return list(verify.check_entropy_cost(model, _parse_nu(entry, path, dim), t, check_id=cid))

    if kind == "hwi":
        nu = _parse_nu(entry, path, dim)
        return [verify.check_hwi(model, nu, _parse_h(entry, path), t,
                                 use_h_bound=_typed(entry, "use_h_bound", path, bool, False), check_id=cid)]

    if kind == "rho_moments":
        x = _vector(entry, "x", path, dim)
        spec = drift_from_spec(_typed(entry, "F", path, dict), model)
        return list(verify.check_rho_moments(
            model, spec, t, x, num("p"), num("delta"), n=n, K=grid, seed=seed, check_id=cid))

    raise SchemaError(f"{path}: unknown check kind {kind!r}")


def run_scenario(scenario: Scenario, samples: int | None = None,
                 only_check: str | None = None) -> list[verify.CheckReport]:
    """Execute the scenario's checks and return reports sorted by check id."""
    reports: list[verify.CheckReport] = []
    matched = False
    for entry in scenario.checks:
        if only_check is not None and entry["id"] != only_check:
            continue
        matched = True
        reports.extend(_run_check(scenario.model, entry, samples))
    if only_check is not None and not matched:
        raise SchemaError(f"config.checks: no check with id {only_check!r}")
    return sorted(reports, key=lambda r: r.check_id)


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(float(x))


def _param_json(params: dict) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"), default=repr)


def render_reports(reports, fmt: str = "csv") -> str:
    if fmt == "json":
        lines = []
        for r in reports:
            lines.append(json.dumps({
                "check_id": r.check_id,
                "params": r.params,
                "lhs": _fmt(r.lhs), "rhs": _fmt(r.rhs),
                "lhs_se": _fmt(r.lhs_se), "rhs_se": _fmt(r.rhs_se),
                "margin": _fmt(r.margin), "verdict": r.verdict, "seed": r.seed,
            }, sort_keys=True, separators=(",", ":"), default=repr))
        return "\n".join(lines) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in reports:
        writer.writerow([r.check_id, _param_json(r.params), _fmt(r.lhs), _fmt(r.rhs),
                         _fmt(r.lhs_se), _fmt(r.rhs_se), _fmt(r.margin), r.verdict, r.seed])
    return buf.getvalue()


def exit_code(reports) -> int:
    verdicts = {r.verdict for r in reports}
    if verify.VIOLATED in verdicts:
        return 1
    if verify.INCONCLUSIVE in verdicts:
        return 2
    return 0


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _apply_sweep_value(entry: dict, name: str, value: float, dim: int) -> dict:
    out = dict(entry)
    if name == "delta":
        path = f"check {entry['id']}"
        x, y = _vector(entry, "x", path, dim), _vector(entry, "y", path, dim)
        direction = y - x
        norm = float(np.linalg.norm(direction))
        unit = direction / norm if norm > 0 else np.eye(dim)[0]
        out["y"] = (x + value * unit).tolist()
        return out
    if name not in out or not isinstance(out[name], (int, float)):
        raise SchemaError(f"sweep: parameter {name!r} is not a numeric scalar of the check")
    out[name] = value
    return out


def run_sweep(scenario: Scenario, check_id: str, name: str, grid,
              samples: int | None = None) -> list[tuple[float, verify.CheckReport]]:
    """Rerun one check over a parameter grid; first report per point."""
    entry = next((e for e in scenario.checks if e["id"] == check_id), None)
    if entry is None:
        raise SchemaError(f"sweep: no check with id {check_id!r}")
    rows = []
    for value in grid:
        modified = _apply_sweep_value(entry, name, float(value), scenario.model.dim)
        reports = _run_check(scenario.model, modified, samples)
        rows.append((float(value), reports[0]))
    return rows


def render_sweep(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for value, r in rows:
        writer.writerow([_fmt(value), _fmt(r.lhs), _fmt(r.rhs), _fmt(r.lhs_se),
                         _fmt(r.rhs_se), _fmt(r.margin), r.verdict])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _override_seed(cfg, seed: int):
    """``cfg`` with top-level seed ``seed`` and no per-check seeds; a config
    that is not an object with a list of checks is left for `Scenario.parse`
    to reject."""
    if not isinstance(cfg, dict) or not isinstance(cfg.get("checks"), list):
        return cfg
    checks = [{k: v for k, v in c.items() if k != "seed"} if isinstance(c, dict) else c for c in cfg["checks"]]
    return {**cfg, "seed": seed, "checks": checks}


def _parse_sweep_flag(text: str):
    parts = text.split(":")
    if len(parts) != 4:
        raise SchemaError("sweep: expected NAME:START:STOP:STEPS")
    name, start, stop, steps = parts
    try:
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError as exc:
        raise SchemaError(f"sweep: bad grid ({exc})") from exc
    for raw, value in ((parts[1], start), (parts[2], stop)):
        if not math.isfinite(value):
            raise SchemaError(f"sweep: non-finite grid value {raw!r}")
    if steps < 1:
        raise SchemaError("sweep: STEPS must be at least 1")
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(start, stop, steps)
    if not np.isfinite(grid).all():
        raise SchemaError(f"sweep: grid {parts[1]}:{parts[2]} overflows")
    return name, grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="harnacklab", description="Run inequality checks from a JSON scenario.")
    parser.add_argument("--config", required=True, help="path to the scenario JSON file")
    parser.add_argument("--check", default=None, help="run only the check with this id")
    parser.add_argument("--samples", type=int, default=None, help="override the Monte Carlo sample cap")
    parser.add_argument("--seed", type=int, default=None, help="override the top-level seed")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--sweep", default=None, metavar="NAME:START:STOP:STEPS",
                        help="sweep one numeric parameter of the selected check")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    try:
        scenario = Scenario.parse(cfg if args.seed is None else _override_seed(cfg, args.seed))
        if args.sweep is not None:
            if args.check is None:
                raise SchemaError("sweep: --check ID is required with --sweep")
            name, grid = _parse_sweep_flag(args.sweep)
            rows = run_sweep(scenario, args.check, name, grid, samples=args.samples)
            text = render_sweep(rows)
            code = exit_code([r for _, r in rows])
        else:
            reports = run_scenario(scenario, samples=args.samples, only_check=args.check)
            text = render_reports(reports, fmt=args.format)
            code = exit_code(reports)
    except (SchemaError, KeyError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
