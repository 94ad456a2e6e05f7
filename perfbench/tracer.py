"""Outside-in tracer: wraps public functions of hypokit and the scipy kernels it calls.

Nothing here is imported by an untraced run.  `Tracer.install()` replaces every
module attribute bound to a traced function (so `from .spectral import x` copies
in `cli` and `hypo` are wrapped too), patches `RngStream.normal` on its class,
and wraps `ThreadPoolExecutor.submit` so that a span opened on a pool thread is
the child of the span that submitted the work.

Self time: at each instant the innermost open span of every thread is running,
unless it is waiting for an open child on another thread; running spans share
the instant equally.  On one thread this is the usual "span minus its
children"; across threads it makes the self times of all spans sum to the
covered wall time, never more.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

# (layer, module, attribute); a dotted attribute is a method patched on its class.
FUNCTIONS = [
    ("spectral", "hypokit.spectral", "build_basis"),
    ("spectral", "hypokit.spectral", "assemble_generator"),
    ("spectral", "hypokit.spectral", "reduced_generator"),
    ("spectral", "hypokit.spectral", "spectral_gap"),
    ("spectral", "hypokit.spectral", "solve_poisson"),
    ("spectral", "hypokit.spectral", "solve_poisson_overdamped"),
    ("spectral", "hypokit.spectral", "project_phase_function"),
    ("spectral", "hypokit.spectral", "poincare_constant"),
    ("hypo", "hypokit.hypo", "tune_modified_norm_epsilon"),
    ("hypo", "hypokit.hypo", "modified_norm_dissipation"),
    ("hypo", "hypokit.hypo", "resolvent_norm"),
    ("hypo", "hypokit.hypo", "verify_schur_bound"),
    ("hypo", "hypokit.hypo", "resolvent_lower_bound"),
    ("hypo", "hypokit.hypo", "gamma_scan"),
    ("hypo", "hypokit.hypo", "ode_trajectory"),
    ("sde", "hypokit.sde", "simulate"),
    ("sde", "hypokit.sde", "RngStream.normal"),
    ("estimators", "hypokit.estimators", "asymptotic_variance_acf"),
    ("estimators", "hypokit.estimators", "batch_means_variance"),
    ("cli", "hypokit.cli", "main"),
]

# The kernel layer: scipy entry points, dense and sparse.  The sparse ones are
# wrapped even while no hypokit module calls them yet.
KERNELS = [
    ("scipy.linalg", name)
    for name in ("eigvals", "eigh", "eigvalsh", "svdvals", "solve", "null_space", "expm")
] + [("scipy.sparse.linalg", name) for name in ("eigs", "eigsh", "svds", "splu", "spsolve")]

_CSV_OUT_FLAGS = ("--out", "--dump-eigs")
_CSV_IN_FLAGS = ("--input",)


def function_names() -> list[str]:
    return [f"{layer}.{attr}" for layer, _, attr in FUNCTIONS]


def kernel_names() -> list[str]:
    return [f"linalg.{name}" for _, name in KERNELS]


class Span:
    __slots__ = ("name", "parent", "tid", "start", "end", "order", "counts")

    def __init__(self, name, parent, tid, start, order):
        self.name = name
        self.parent = parent
        self.tid = tid
        self.start = start
        self.end = None
        self.order = [order, None]  # global event order, breaks clock ties
        self.counts = {}


def _array_bytes(obj) -> int:
    if dataclasses.is_dataclass(obj):
        values = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        values = list(getattr(obj, "__dict__", {}).values())
    return sum(int(v.nbytes) for v in values if hasattr(v, "nbytes") and hasattr(v, "dtype"))


def _flag_paths(argv, flags) -> list[str]:
    argv = list(argv or [])
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in flags]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Collects spans in memory; `self_times` and `metrics` turn them into numbers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._order = itertools.count()
        self._undo: list = []

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Innermost open span of this thread, else the span that submitted its work."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "adopted", None)

    def begin(self, name: str) -> Span:
        span = Span(name, self.current(), threading.get_ident(), self.clock(), next(self._order))
        self.spans.append(span)
        self._stack().append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self.clock()
        span.order[1] = next(self._order)
        self._stack().remove(span)

    def wrap(self, name: str, fn, probe=None):
        """Wrap `fn` in a span; `probe(span, bound_args, result)` may add counts."""
        try:
            sig = inspect.signature(fn) if probe else None
        except (TypeError, ValueError):
            sig = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(span)
            if probe is not None:
                bound = sig.bind(*args, **kwargs).arguments if sig else dict(enumerate(args))
                probe(span, bound, result)
            return result

        return traced

    def wrap_submit(self, submit):
        """Make work submitted to a pool run under the submitter's current span."""
        tracer = self

        def traced_submit(pool, fn, /, *args, **kwargs):
            parent = tracer.current()

            def adopted(*a, **k):
                prev = getattr(tracer._local, "adopted", None)
                tracer._local.adopted = parent
                try:
                    return fn(*a, **k)
                finally:
                    tracer._local.adopted = prev

            return submit(pool, adopted, *args, **kwargs)

        return traced_submit

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        """Patch the traced functions in every loaded hypokit module."""
        import hypokit.cli  # noqa: F401 - loads every module the CLI uses

        kernel_mods = [importlib.import_module(m) for m in sorted({m for m, _ in KERNELS})]
        hypokit_mods = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "hypokit"]
        for mod_name, name in KERNELS:
            original = getattr(importlib.import_module(mod_name), name)
            wrapper = self.wrap(f"linalg.{name}", original, probe=_kernel_probe)
            self._rebind_everywhere(original, wrapper, kernel_mods + hypokit_mods)
        for layer, mod_name, attr in FUNCTIONS:
            mod = importlib.import_module(mod_name)
            name = f"{layer}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, meth, self.wrap(name, cls.__dict__[meth], _PROBES.get(name)))
            else:
                original = getattr(mod, attr)
                wrapper = self.wrap(name, original, _PROBES.get(name))
                self._rebind_everywhere(original, wrapper, hypokit_mods)
        pool = concurrent.futures.ThreadPoolExecutor
        self._set(pool, "submit", self.wrap_submit(pool.__dict__["submit"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ---------------------------------------------------------

    def self_times(self, spans=None) -> dict:
        """Self time of each span (see the module docstring for the rule)."""
        spans = self.spans if spans is None else spans
        events = []
        for s in spans:
            events.append((s.start, s.order[0], True, s))
            events.append((s.end, s.order[1], False, s))
        events.sort(key=lambda e: (e[0], e[1]))
        stacks: dict = defaultdict(list)
        open_children: dict = defaultdict(int)
        own = {id(s): 0.0 for s in spans}
        prev_t = None
        for t, _, is_begin, s in events:
            if prev_t is not None and t > prev_t:
                running = {
                    id(st[-1]) for st in stacks.values() if st and open_children[id(st[-1])] == 0
                }
                for key in running:
                    own[key] += (t - prev_t) / len(running)
            prev_t = t
            if is_begin:
                stacks[s.tid].append(s)
                if s.parent is not None:
                    open_children[id(s.parent)] += 1
            else:
                stacks[s.tid].remove(s)
                if s.parent is not None:
                    open_children[id(s.parent)] -= 1
        return own

    def metrics(self, spans=None) -> dict:
        """Per-name calls, self time and counts for one set of spans."""
        spans = self.spans if spans is None else spans
        own = self.self_times(spans)
        out: dict = {}
        for name in function_names() + kernel_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for name in kernel_names():
            out[f"{name}.n_max"] = 0
        counts: dict = defaultdict(float)
        maxima: dict = defaultdict(int)
        inclusive: dict = defaultdict(float)
        for s in spans:
            out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
            out[f"{s.name}.self_s"] = out.get(f"{s.name}.self_s", 0.0) + own[id(s)]
            inclusive[s.name] += s.end - s.start
            for key, value in s.counts.items():
                if key.endswith("_max"):
                    maxima[f"{s.name}.{key}"] = max(maxima[f"{s.name}.{key}"], value)
                else:
                    counts[f"{s.name}.{key}"] += value
        for name in kernel_names():
            out[f"{name}.n_max"] = maxima.get(f"{name}.n_max", 0)
        out["spectral.assemble_generator.bytes"] = maxima.get("spectral.assemble_generator.bytes_max", 0)
        out["spectral.reduced_generator.bytes"] = maxima.get("spectral.reduced_generator.bytes_max", 0)
        out["spectral.reduced_generator.dim_max"] = maxima.get("spectral.reduced_generator.dim_max", 0)
        steps = int(counts.get("sde.simulate.steps", 0))
        out["sde.simulate.steps"] = steps
        out["sde.simulate.records"] = int(counts.get("sde.simulate.records", 0))
        out["sde.simulate.us_per_step"] = 1e6 * inclusive["sde.simulate"] / steps if steps else 0.0
        out["estimators.asymptotic_variance_acf.n"] = int(counts.get("estimators.asymptotic_variance_acf.n", 0))
        out["hypo.gamma_scan.rows"] = int(counts.get("hypo.gamma_scan.rows", 0))
        out["hypo.gamma_scan.workers"] = max(
            (len({c.tid for c in spans if c.parent is s and c.tid != s.tid})
             for s in spans if s.name == "hypo.gamma_scan"),
            default=0,
        )
        out["cli.main.csv_bytes_written"] = int(counts.get("cli.main.csv_bytes_written", 0))
        out["cli.main.csv_bytes_read"] = int(counts.get("cli.main.csv_bytes_read", 0))
        return out


# -- probes: counts recorded at the boundary where the work happens ----------


def _kernel_probe(span, bound, result):
    first = next(iter(bound.values()), None)
    shape = getattr(first, "shape", ())
    span.counts["n_max"] = int(max(shape)) if shape else 0


def _bytes_probe(span, bound, result):
    span.counts["bytes_max"] = _array_bytes(result)


def _reduced_probe(span, bound, result):
    span.counts["bytes_max"] = _array_bytes(result)
    span.counts["dim_max"] = int(getattr(result, "dim", 0))


def _simulate_probe(span, bound, result):
    span.counts["steps"] = int(bound.get("n_steps", 0))
    span.counts["records"] = int(len(getattr(result, "times", ())))


def _acf_probe(span, bound, result):
    span.counts["n"] = int(len(bound.get("values", ())))


def _scan_probe(span, bound, result):
    span.counts["rows"] = len(list(bound.get("gammas", ())))


def _cli_probe(span, bound, result):
    argv = bound.get("argv") or []
    span.counts["csv_bytes_written"] = sum(_file_size(p) for p in _flag_paths(argv, _CSV_OUT_FLAGS))
    span.counts["csv_bytes_read"] = sum(_file_size(p) for p in _flag_paths(argv, _CSV_IN_FLAGS))


_PROBES = {
    "spectral.assemble_generator": _bytes_probe,
    "spectral.reduced_generator": _reduced_probe,
    "sde.simulate": _simulate_probe,
    "estimators.asymptotic_variance_acf": _acf_probe,
    "hypo.gamma_scan": _scan_probe,
    "cli.main": _cli_probe,
}
