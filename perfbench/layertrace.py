"""Per-layer trace of harnacklab, installed from outside the package.

The layers are the package's modules, found by listing the package rather
than from a fixed list, so a module added later is traced too.  Every
function and method defined in a module, private ones included, is
replaced by a wrapper that records a span (layer, name, duration); spans
nest on one stack, so a layer's self time is its spans' durations minus
the time covered by their child spans.  A generator function gets a span
per step, so its work is charged to its own layer, not to the consumer.
Two calls into third-party code get spans of their own:
``scipy.linalg.expm`` (layer ``expm``) and every draw from a `RngStream`
generator (layer ``rng``), so ``linops.self_s`` and ``sampler.self_s``
exclude them.

Nothing under ``src/`` changes.  The expm wrapper must be installed before
harnacklab is imported (`install_expm`), so that a later
``from scipy.linalg import expm`` binds the counted function; the rest
(`install`) wraps the imported modules and rebinds every module-level
alias of a wrapped function, such as ``verify.build_adjoint`` or the
re-exports in ``harnacklab/__init__``.  `install` returns the patches, and
``Patches.apply(False)`` puts every original back, so untraced
repetitions run the unwrapped program.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import pkgutil
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

#: Layers that BENCHMARK.json reports; any other module of the package is
#: traced as a layer of its own and printed in the summary.
LAYERS = ("linops", "model", "control", "sampler", "analytic", "testfuncs", "verify", "cli")

#: The span whose time the trace must account for: coverage is the share
#: of it spent outside the ``cli`` layer's own code.
RUN_SPAN = "cli.run_scenario"

#: Draw methods of `numpy.random.Generator` whose output counts as normals.
_NORMAL_DRAWS = ("standard_normal", "normal", "multivariate_normal")

#: Special methods that do a layer's work; other dunders are not wrapped.
_WRAPPED_DUNDERS = ("__init__", "__post_init__", "__call__")


class Tracer:
    """Span stack and counters of one traced repetition."""

    def __init__(self):
        self.active = False
        self.expm_patch: tuple | None = None  # (original, wrapper), set by `install_expm`
        self.reset()

    def reset(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.layer_calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.run_s = 0.0
        self.run_cli_self_s = 0.0
        self._run_depth = 0
        self._stack: list[list[float]] = []
        self._snapshot_keys: set[bytes] = set()
        self._streams: set[tuple[int, int]] = set()

    def span(self, layer: str, name: str, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        frame = [0.0]
        self._stack.append(frame)
        is_run = name == RUN_SPAN
        self._run_depth += is_run
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            own = elapsed - frame[0]
            self.self_s[layer] += own
            self.total_s[name] += elapsed
            self.calls[name] += 1
            self.layer_calls[layer] += 1
            if layer == "cli" and self._run_depth:
                self.run_cli_self_s += own
            if is_run:
                self._run_depth -= 1
                if not self._run_depth:
                    self.run_s += elapsed
            if self._stack:
                self._stack[-1][0] += elapsed

    def coverage(self) -> float:
        """Share of `RUN_SPAN` time spent in traced layers below ``cli``.

        Time that no wrapper sees stays in the self time of the ``cli``
        code that called it, so an untraced module lowers this share.
        """
        return 1.0 - self.run_cli_self_s / self.run_s if self.run_s else 0.0

    # counters recorded at layer boundaries -------------------------------

    def note_snapshot(self, *inputs) -> None:
        """Record the inputs (A, R, a, t) of one semigroup snapshot."""
        h = hashlib.blake2b(digest_size=16)
        for part in inputs:
            h.update(np.ascontiguousarray(np.asarray(part, dtype=float)).tobytes())
        self._snapshot_keys.add(h.digest())

    def note_stream(self, key: tuple[int, int]) -> bool:
        """Record a stream opening; return True if the key was opened before."""
        reopened = key in self._streams
        self._streams.add(key)
        if reopened:
            self.counts["sampler.stream_reopens"] += 1
        return reopened

    def extra_layers(self) -> dict[str, float]:
        """Self time of traced modules outside `LAYERS`."""
        return {layer: s for layer, s in self.self_s.items() if layer not in LAYERS + ("expm", "rng")}

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers of the repetition since the last `reset`."""
        c, calls, tot = self.counts, self.calls, self.total_s
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = float(self.layer_calls[layer])
        snaps = calls["linops.semigroup_snapshot"]
        out.update({
            "linops.expm_s": self.self_s["expm"],
            "linops.expm_calls": float(calls["scipy.linalg.expm"]),
            "linops.expm_n3": float(c["linops.expm_n3"]),
            "linops.snapshot_calls": float(snaps),
            "linops.snapshot_redundancy": snaps / max(len(self._snapshot_keys), 1),
            "linops.factor_calls": float(calls["linops.psd_sqrt_pinv"]),
            "model.snapshot_requests": float(calls["model.OuLevyModel.snapshot"]),
            "model.noise_sqrt_calls": float(calls["model.OuLevyModel.noise_sqrt"]),
            "model.adjoint_builds": float(calls["model.build_adjoint"]),
            "model.h_condition_s": tot["model.verify_h_condition"],
            "sampler.rng_s": self.self_s["rng"],
            "sampler.normals_drawn": float(c["sampler.normals_drawn"]),
            "sampler.jumps_drawn": float(c["sampler.jumps_drawn"]),
            "sampler.stream_reopens": float(c["sampler.stream_reopens"]),
            "sampler.useful_replicate_ratio": (
                c["sampler.first_open_replicates"] / max(c["sampler.replicates"], 1)),
            "testfuncs.observable_s": tot["testfuncs.observable"],
            "testfuncs.observable_points": float(c["testfuncs.observable_points"]),
            "testfuncs.drift_s": tot["testfuncs.drift"],
            "testfuncs.drift_points": float(c["testfuncs.drift_points"]),
            "cli.parse_s": tot["cli.Scenario.parse"],
            "cli.render_s": tot["cli.render_reports"],
        })
        return out


#: Per-layer metrics that are counts: they must repeat exactly.
COUNT_METRICS = tuple(
    [f"{layer}.calls" for layer in LAYERS]
    + ["linops.expm_calls", "linops.expm_n3", "linops.snapshot_calls", "linops.snapshot_redundancy",
       "linops.factor_calls", "model.snapshot_requests", "model.noise_sqrt_calls",
       "model.adjoint_builds", "sampler.normals_drawn", "sampler.jumps_drawn",
       "sampler.stream_reopens", "sampler.useful_replicate_ratio",
       "testfuncs.observable_points", "testfuncs.drift_points"]
)


class _CountingGenerator:
    """Forwards every call to a `numpy.random.Generator`, timing and
    counting the draws; the draws themselves are unchanged."""

    def __init__(self, gen, tracer: Tracer, reopened: bool):
        self._gen = gen
        self._tracer = tracer
        self._reopened = reopened
        self._sized = False

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr
        tracer = self._tracer

        def draw(*args, **kwargs):
            out = tracer.span("rng", "rng." + name, attr, args, kwargs)
            self._count(name, out)
            return out

        return draw

    def _count(self, name: str, out) -> None:
        counts = self._tracer.counts
        arr = np.asarray(out)
        if name in _NORMAL_DRAWS:
            counts["sampler.normals_drawn"] += arr.size
        elif name == "poisson":
            counts["sampler.jumps_drawn"] += int(arr.sum())
        if not self._sized:
            # replicates of a stream: leading size of its first draw
            self._sized = True
            size = arr.shape[0] if arr.ndim else 1
            counts["sampler.replicates"] += size
            if not self._reopened:
                counts["sampler.first_open_replicates"] += size


class Patches:
    """Every attribute the trace replaced, as (owner, name, original, traced)."""

    def __init__(self):
        self.items: list[tuple[object, str, object, object]] = []

    def add(self, owner, name: str, original, traced) -> None:
        self.items.append((owner, name, original, traced))

    def apply(self, traced: bool) -> None:
        """Install the traced attributes, or put the originals back."""
        for owner, name, original, wrapped in self.items:
            setattr(owner, name, wrapped if traced else original)


def install_expm(tracer: Tracer) -> None:
    """Count ``scipy.linalg.expm``; call before harnacklab is imported."""
    if "harnacklab" in sys.modules:
        raise RuntimeError("install_expm must run before harnacklab is imported")
    import scipy.linalg

    original = scipy.linalg.expm

    @functools.wraps(original)
    def expm(a, *args, **kwargs):
        if tracer.active:
            tracer.counts["linops.expm_n3"] += int(np.shape(a)[-1]) ** 3
        return tracer.span("expm", "scipy.linalg.expm", original, (a,) + args, kwargs)

    scipy.linalg.expm = expm
    tracer.expm_patch = (original, expm)


def _wrapper(tracer: Tracer, layer: str, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_steps(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                try:
                    item = tracer.span(layer, name, next, (steps,), {})
                except StopIteration:
                    return
                yield item

        return traced_steps

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.span(layer, name, fn, args, kwargs)

    return traced


def package_modules() -> dict[str, object]:
    """Every module of the harnacklab package, imported, by short name."""
    import harnacklab

    names = sorted(m.name for m in pkgutil.iter_modules(harnacklab.__path__) if m.name != "__main__")
    return {name: importlib.import_module(f"harnacklab.{name}") for name in names}


def install(tracer: Tracer) -> Patches:
    """Wrap every function and method of the harnacklab modules."""
    modules = package_modules()
    missing = sorted(set(LAYERS) - set(modules))
    if missing:
        raise RuntimeError(f"harnacklab has no module(s) {missing}")
    patches = Patches()
    replaced: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
    special = {
        "linops.semigroup_snapshot": _snapshot_hook,
        "testfuncs.drift_from_spec": _drift_hook,
    }

    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("__") or not _defined_in(obj, mod):
                continue
            qual = f"{layer}.{name}"
            if inspect.isfunction(obj):
                hook = special.get(qual)
                fn = hook(tracer, obj) if hook else obj
                replaced[id(obj)] = (obj, _wrapper(tracer, layer, qual, fn))
            elif inspect.isclass(obj):
                _wrap_class(tracer, patches, layer, qual, obj, mod)

    for cls in _observable_classes(modules["testfuncs"]):
        patches.add(cls, "__call__", vars(cls)["__call__"], _observable_wrapper(tracer, vars(cls)["__call__"]))

    # RngStream.generator returns a counting proxy
    rng_cls = modules["sampler"].RngStream
    generator = vars(rng_cls)["generator"]

    def counted_generator(self):
        reopened = tracer.note_stream((self.seed, self.stream_id)) if tracer.active else False
        gen = generator(self)
        return _CountingGenerator(gen, tracer, reopened) if tracer.active else gen

    patches.add(rng_cls, "generator", generator,
                _wrapper(tracer, "sampler", "sampler.RngStream.generator", counted_generator))

    # rebind every module-level alias, including re-exports and
    # ``from .x import name`` copies in sibling modules
    if tracer.expm_patch is not None:
        import scipy.linalg

        patches.add(scipy.linalg, "expm", *tracer.expm_patch)
        replaced[id(tracer.expm_patch[1])] = tracer.expm_patch
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "harnacklab" and not mod_name.startswith("harnacklab."):
            continue
        for name, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None:
                patches.add(mod, name, *hit)
    patches.apply(True)
    return patches


def _defined_in(obj, mod) -> bool:
    return getattr(obj, "__module__", None) == mod.__name__


def _wrap_class(tracer: Tracer, patches: Patches, layer: str, qual: str, cls, mod) -> None:
    for attr, member in list(vars(cls).items()):
        if attr.startswith("__") and attr not in _WRAPPED_DUNDERS:
            continue
        name = f"{qual}.{attr}"
        if name == "sampler.RngStream.generator" or (layer == "testfuncs" and attr == "__call__"):
            continue  # `install` wraps these with counting wrappers of their own
        if isinstance(member, staticmethod):
            wrapped = staticmethod(_wrapper(tracer, layer, name, member.__func__))
        elif isinstance(member, classmethod):
            wrapped = classmethod(_wrapper(tracer, layer, name, member.__func__))
        elif isinstance(member, functools.cached_property):
            wrapped = functools.cached_property(_wrapper(tracer, layer, name, member.func))
            wrapped.__set_name__(cls, attr)
        elif inspect.isfunction(member) and member.__code__.co_filename == mod.__file__:
            # the file test skips methods that dataclass generates
            wrapped = _wrapper(tracer, layer, name, member)
        else:
            continue
        patches.add(cls, attr, member, wrapped)


def _observable_classes(testfuncs):
    for obj in vars(testfuncs).values():
        if inspect.isclass(obj) and obj.__module__ == testfuncs.__name__ and "__call__" in vars(obj):
            yield obj


def _observable_wrapper(tracer: Tracer, call):
    @functools.wraps(call)
    def traced(self, pts):
        if tracer.active:
            tracer.counts["testfuncs.observable_points"] += np.atleast_2d(pts).shape[0]
        return tracer.span("testfuncs", "testfuncs.observable", call, (self, pts), {})

    return traced


def _snapshot_hook(tracer: Tracer, fn):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        if tracer.active:
            bound = signature.bind(*args, **kwargs)
            tracer.note_snapshot(*bound.arguments.values())
        return fn(*args, **kwargs)

    return hooked


def _drift_hook(tracer: Tracer, fn):
    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        out = fn(*args, **kwargs)
        drift = out.drift_fn

        def traced_drift(pts):
            if tracer.active:
                tracer.counts["testfuncs.drift_points"] += np.atleast_2d(pts).shape[0]
            return tracer.span("testfuncs", "testfuncs.drift", drift, (pts,), {})

        return dataclasses.replace(out, drift_fn=traced_drift)

    return hooked


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(rep[k] for rep in per_rep) for k in per_rep[0]}
