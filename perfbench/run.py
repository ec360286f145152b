"""harnacklab benchmark: time to verdict on four seeded workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop: one caller in this process runs the
workload's checks back to back along the path the ``harnacklab`` command
takes (``cli.Scenario.parse`` -> ``cli.run_scenario`` ->
``cli.render_reports``), one repetition after another, until ``--seconds``
would be exceeded (at least two repetitions).  Every repetition parses the
scenario dicts again, so no model object outlives a repetition.

Timings: on a shared 2-core machine the same repetition was measured to
take up to 70 % longer while neighbours were busy, in phases lasting from
a few seconds to a minute.  So the end-to-end times are floors, as
``timeit`` takes them, over units short enough to fall between such
phases: every check and every rendering is timed in each repetition and
keeps its fastest time.  ``wall_s`` is the sum of these floors, i.e.
one repetition from the first check to the last rendered report with the
interference taken out; ``check_p50_s`` and ``check_tail_s`` are
percentiles of the check floors over the workload's distinct checks.
``setup_s`` is the floor of fresh-interpreter probes spread over the run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs the
per-module trace of `layertrace.py` and reports the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary.
"""

from __future__ import annotations

import os

#: BLAS threads for every process of the benchmark.  Pinned before numpy
#: is imported: the thread count changes highdim_suite by about 2x on a
#: 2-core machine, so both commits of a comparison must use the same value.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Timed repetitions per run, at least; two are needed for the byte gate.
MIN_REPS = 2
#: Fresh interpreters started per run to measure set-up time, spread
#: evenly over the measuring window.
SETUP_RUNS = 9
#: Every traced repetition must charge this share of the time spent in
#: ``cli.run_scenario`` to the layers below ``cli``.
MIN_COVERAGE = 0.95
#: Closed-form rows must match the independent oracle this closely.
ORACLE_RTOL = 1e-7
#: The tail percentile is the highest of these with >= 10 checks beyond it.
TAIL_LADDER = (99.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: Rows each check kind returns, as suffixes of the check id.
ROW_SUFFIXES = {"entropy_cost": ("", "_adjoint"), "rho_moments": ("_negative", "_positive")}


def declared_units(trace: int) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _fail_setup(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "none (not a git checkout)"
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "harnacklab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _openblas_threads(package) -> str:
    """Thread count reported by the OpenBLAS bundled with ``package``."""
    libs = glob.glob(os.path.join(os.path.dirname(package.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pinned": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_numpy": _openblas_threads(numpy),
        "blas_threads_scipy": _openblas_threads(scipy),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------


def measure_setup(payload: str) -> float:
    """Import harnacklab and parse the scenarios in a fresh interpreter."""
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py")], input=payload,
                         capture_output=True, text=True, timeout=120, cwd=ROOT)
    if out.returncode != 0:
        _fail_setup(f"set-up probe failed:\n{out.stderr}")
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------


class Outcome:
    """Checks, rows and failures seen over a run."""

    def __init__(self):
        self.checks = 0
        self.failed = 0
        self.rows = 0
        self.inconclusive = 0
        self.problems: list[str] = []

    def fail(self, cid: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{cid}: {why}")


def _row_problem(r, verdicts) -> str | None:
    values = {"lhs": r.lhs, "rhs": r.rhs, "lhs_se": r.lhs_se, "rhs_se": r.rhs_se, "margin": r.margin}
    for name, v in values.items():
        if math.isnan(v):
            return f"{name} is NaN"
    if r.verdict == verdicts.VIOLATED:
        return "VIOLATED"
    if r.verdict not in verdicts.PASS_VERDICTS and r.verdict != verdicts.INCONCLUSIVE:
        return f"unknown verdict {r.verdict!r}"
    if r.verdict != verdicts.TRIVIAL_INFINITE_RHS:
        for name, v in values.items():
            if math.isinf(v):
                return f"{name} is infinite without a TRIVIAL_INFINITE_RHS verdict"
    return None


def _oracle_problem(rows: list, oracle: dict | None) -> str | None:
    """Compare closed-form rows of a highdim model with the oracle."""
    if oracle is None:
        return None
    by_id = {r.check_id: r for r in rows}

    def off(got, want):
        return abs(got - want) > ORACLE_RTOL * max(1.0, abs(want))

    exact = by_id.get("harnack_exact")
    if exact is not None:
        if off(exact.params["energy_sq"], oracle["energy_sq"]):
            return "harnack_exact: energy differs from the Lyapunov oracle"
        if off(math.log(exact.lhs), oracle["log_lhs"]) or off(math.log(exact.rhs), oracle["log_rhs"]):
            return "harnack_exact: closed form differs from the Lyapunov oracle"
    kl = by_id.get("kernel_kl")
    if kl is not None and off(kl.lhs, 0.5 * oracle["energy_sq"]):
        return "kernel_kl: relative entropy differs from half the oracle energy"
    return None


def run_rep(cli, verdicts, cfgs, oracles, outcome: Outcome):
    """Parse, run and render every scenario once.

    Returns (wall seconds from the first check to the last rendered report,
    seconds per (scenario index, check id or "render"), rendered texts,
    all reports).
    """
    scenarios = [cli.Scenario.parse(cfg) for cfg in cfgs]
    texts, check_times, all_reports = [], {}, []
    start = perf_counter()
    for index, sc in enumerate(scenarios):
        reports = []
        for entry in sc.checks:
            cid = entry["id"]
            t0 = perf_counter()
            try:
                rows = cli.run_scenario(sc, only_check=cid)
            except Exception as exc:  # a raising check is a failed check, and the run goes on
                rows = None
                err = f"raised {type(exc).__name__}: {exc}"
            check_times[index, cid] = perf_counter() - t0
            outcome.checks += 1
            if rows is None:
                outcome.fail(cid, err)
                continue
            expected = sorted(cid + s for s in ROW_SUFFIXES.get(entry["kind"], ("",)))
            problem = None if sorted(r.check_id for r in rows) == expected else (
                f"rows {[r.check_id for r in rows]} != {expected}")
            for r in rows:
                outcome.rows += 1
                outcome.inconclusive += r.verdict == verdicts.INCONCLUSIVE
                problem = problem or _row_problem(r, verdicts)
            if problem:
                outcome.fail(cid, problem)
            reports.extend(rows)
        reports.sort(key=lambda r: r.check_id)
        problem = _oracle_problem(reports, oracles.get(index))
        if problem:
            outcome.fail(f"scenario {index}", problem)
        t0 = perf_counter()
        texts.append(cli.render_reports(reports))
        check_times[index, "render"] = perf_counter() - t0
        all_reports.extend(reports)
    return perf_counter() - start, check_times, texts, all_reports


def digest(texts: list[str]) -> str:
    return hashlib.sha256("\x1e".join(texts).encode()).hexdigest()


def tail_level(n: int) -> float:
    """Highest ladder percentile with at least 10 of ``n`` samples beyond it."""
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


def mc_rel_se_p50(reports) -> float:
    vals = [math.hypot(r.lhs_se, r.rhs_se) / max(abs(r.lhs), abs(r.rhs))
            for r in reports
            if (r.lhs_se > 0 or r.rhs_se > 0) and math.isfinite(r.rhs) and max(abs(r.lhs), abs(r.rhs)) > 0]
    return statistics.median(vals) if vals else 0.0


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "harnacklab" / "__init__.py").is_file():
        _fail_setup(f"no harnacklab sources under {SRC.relative_to(ROOT)}/; run from a source checkout")

    import numpy as np
    import workloads

    cfgs, oracles = workloads.WORKLOADS[args.workload](args.seed)
    props = workloads.properties(cfgs)
    prov = provenance()
    payload = json.dumps(cfgs)

    tracer = None
    if args.trace:
        import layertrace as trace_mod

        tracer = trace_mod.Tracer()
        trace_mod.install_expm(tracer)
    sys.path.insert(0, str(SRC))
    import harnacklab
    from harnacklab import cli
    from harnacklab import verify as verdicts

    if Path(harnacklab.__file__).resolve().parent != SRC / "harnacklab":
        _fail_setup(f"imported harnacklab from {harnacklab.__file__}, not from the checkout")
    if tracer is not None:
        patches = trace_mod.install(tracer)

    outcome = Outcome()
    # warm-up: lazy imports and first-call costs, checked but not timed
    _, _, warm_texts, _ = run_rep(cli, verdicts, cfgs[:1], oracles, outcome)

    walls, digests, setup_times = [], [], []
    floor: dict[tuple[int, str], float] = {}
    traced, traced_walls, plain_walls, coverages = [], [], [], []
    reports = []
    warm_matches = True
    start = perf_counter()
    while True:
        while (tracer is None and len(setup_times) < SETUP_RUNS
               and len(setup_times) * args.seconds <= SETUP_RUNS * (perf_counter() - start)):
            setup_times.append(measure_setup(payload))
        # traced and untraced repetitions alternate; an untraced one runs
        # the original functions, so the two give the trace's overhead
        trace_this = tracer is not None and len(traced) <= len(plain_walls)
        if tracer is not None:
            tracer.reset()
            patches.apply(trace_this)
            tracer.active = trace_this
        wall, times, texts, reports = run_rep(cli, verdicts, cfgs, oracles, outcome)
        if tracer is not None:
            tracer.active = False
            if trace_this:
                traced.append(tracer.metrics())
                traced_walls.append(wall)
                coverages.append(tracer.coverage())
                extra_layers = tracer.extra_layers()
            else:
                plain_walls.append(wall)
        walls.append(wall)
        for key, sec in times.items():
            floor[key] = min(sec, floor.get(key, math.inf))
        digests.append(digest(texts))
        warm_matches = warm_matches and texts[0] == warm_texts[0]
        elapsed = perf_counter() - start
        enough = len(walls) >= MIN_REPS and (tracer is None or (len(traced) >= 2 and plain_walls))
        if enough and elapsed + statistics.median(walls) > args.seconds:
            break

    while tracer is None and len(setup_times) < SETUP_RUNS:
        setup_times.append(measure_setup(payload))

    problems = list(outcome.problems)
    if len(set(digests)) != 1 or not warm_matches:
        problems.append("repetitions rendered different bytes (criterion 11)")
    if tracer is not None:
        for name in trace_mod.COUNT_METRICS:
            seen = {rep[name] for rep in traced}
            if len(seen) != 1:
                problems.append(f"trace count {name} differs between repetitions: {sorted(seen)}")
        if min(coverages) < MIN_COVERAGE:
            problems.append(f"trace coverage {min(coverages):.3f} < {MIN_COVERAGE}")

    rows = max(outcome.rows, 1)
    fail_share = outcome.failed / max(outcome.checks, 1)
    inconclusive_share = outcome.inconclusive / rows
    if outcome.inconclusive:
        problems.append(f"{outcome.inconclusive} INCONCLUSIVE row(s)")
    correct = not problems and outcome.failed == 0

    print("== provenance")
    for k, v in prov.items():
        print(f"  {k}: {v}")
    print(f"== workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for k, v in props.items():
        print(f"  {k}: {v:g}" if isinstance(v, float) else f"  {k}: {v}")
    print(f"  repetitions: {len(walls)} ({len(traced)} traced)" if tracer else f"  repetitions: {len(walls)}")
    print(f"  report_digest: {digests[0]}")
    print(f"  checks attempted: {outcome.checks}, failed: {outcome.failed}, "
          f"fail_share: {fail_share:g}, inconclusive_share: {inconclusive_share:g} (ratio)")
    for p in problems:
        print(f"  PROBLEM: {p}", file=sys.stderr)

    if tracer is None:
        floors = [sec for (_, cid), sec in floor.items() if cid != "render"]
        q = tail_level(len(floors))
        metrics = {
            "setup_s": min(setup_times),
            "wall_s": sum(floor.values()),
            "check_p50_s": statistics.median(floors),
            "check_tail_s": float(np.percentile(floors, q)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"  floors over {len(walls)} repetitions; whole repetitions took {min(walls):.4g} s "
              f"(fastest) to {max(walls):.4g} s; check_tail_s is p{q:g} over {len(floors)} distinct "
              f"checks; setup_s is the fastest of {len(setup_times)} fresh interpreters")
    else:
        metrics = trace_mod.median_metrics(traced)
        metrics["sampler.mc_rel_se_p50"] = mc_rel_se_p50(reports)
        metrics["verify.fail_share"] = fail_share
        metrics["verify.inconclusive_share"] = inconclusive_share
        metrics["trace.coverage"] = statistics.median(coverages)
        metrics["trace.overhead"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
        print(f"  patched attributes: {len(patches.items)}; coverage of cli.run_scenario: "
              f"{min(coverages):.4f} (lowest repetition); trace.overhead is against untraced repetitions")
        for layer, sec in sorted(extra_layers.items()):
            print(f"  layer {layer} (not in BENCHMARK.json): self_s = {sec:.6g} s")
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    metrics = {k: metrics[k] for k in units}
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.checks,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
