"""Per-layer tracing of susyxyz from outside the package.

``Tracer.install()`` wraps every public function of the layer modules
(``elliptic``, ``spinchain``, ``supercharge``, ``eightvertex``, ``fermion``,
and ``cli.main``) in every ``susyxyz`` module namespace that holds it, since
``from .spinchain import project`` binds a second name for the same object.
A wrapper records no span object per call; it adds the call to per-thread
aggregates (calls, total time, self time), because a single Bethe op makes
tens of thousands of theta calls. Self time is span time minus the time of
child spans in the same thread. Spans that start with an empty stack outside
the main thread run in ``cli._run_jobs`` workers; their intervals are kept, so
that ``cli.main`` self time excludes the work it waited for and the overlap of
parallel workers can be measured.

A tracer is installed in the forked child that runs one op and reports once,
when the op has finished.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import threading
import time
import warnings

import numpy as np

LAYERS = ("elliptic", "spinchain", "supercharge", "eightvertex", "fermion", "cli")

# (name, unit, better); values are totals over one pass of the workload
PER_LAYER = [
    ("elliptic.theta.calls", "count", "lower"),
    ("elliptic.theta.elems", "count", "lower"),
    ("elliptic.theta.self_s", "s", "lower"),
    ("eightvertex.path_state_vector.calls", "count", "lower"),
    ("eightvertex.path_state_vector.self_s", "s", "lower"),
    ("eightvertex.path_matrix.self_s", "s", "lower"),
    ("eightvertex.path_rank.self_s", "s", "lower"),
    ("eightvertex.path_complement.self_s", "s", "lower"),
    ("eightvertex.transfer_matrix.calls", "count", "lower"),
    ("eightvertex.transfer_matrix.self_s", "s", "lower"),
    ("eightvertex.hamiltonian_from_transfer.self_s", "s", "lower"),
    ("eightvertex.appendixB_decomposition.self_s", "s", "lower"),
    ("eightvertex.find_bethe_roots.calls", "count", "lower"),
    ("eightvertex.find_bethe_roots.self_s", "s", "lower"),
    ("eightvertex.find_bethe_roots.solutions", "count", "higher"),
    ("eightvertex.bethe_residual.calls", "count", "lower"),
    ("eightvertex.bethe_vector.self_s", "s", "lower"),
    ("spinchain.build_sector_basis.misses", "count", "lower"),
    ("spinchain.build_sector_basis.hit_ratio", "ratio", "higher"),
    ("spinchain.build_sector_basis.self_s", "s", "lower"),
    ("spinchain.project.calls", "count", "lower"),
    ("spinchain.project.self_s", "s", "lower"),
    ("spinchain.project.bytes_computed", "bytes", "lower"),
    ("spinchain.spectrum.calls", "count", "lower"),
    ("spinchain.spectrum.self_s", "s", "lower"),
    ("spinchain.spectrum.dim_max", "count", "lower"),
    ("spinchain.xyz_hamiltonian_full.self_s", "s", "lower"),
    ("supercharge.build_supercharges.calls", "count", "lower"),
    ("supercharge.build_supercharges.repeat_ratio", "ratio", "lower"),
    ("supercharge.build_supercharges.self_s", "s", "lower"),
    ("supercharge.local_q.self_s", "s", "lower"),
    ("supercharge.cohomology_dimension.self_s", "s", "lower"),
    ("supercharge.verify_algebra.self_s", "s", "lower"),
    ("supercharge.rank_warnings", "count", "lower"),
    ("fermion.hardcore_basis.calls", "count", "lower"),
    ("fermion.hardcore_basis.self_s", "s", "lower"),
    ("fermion.fermion_hamiltonian.self_s", "s", "lower"),
    ("fermion.t3_sector_basis.self_s", "s", "lower"),
    ("fermion.fermion_spectrum.self_s", "s", "lower"),
    ("fermion.spectral_comparison.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.worker_threads", "count", "lower"),
    ("cli.parallel_overlap_s", "s", "higher"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# one-line helpers called per basis state or per theta evaluation: a wrapper
# would cost more than they do, so their time stays with their callers
UNTRACED = {"spinchain.rotate_left", "spinchain.reverse_bits", "elliptic.h", "elliptic.w"}

# counters merged across ops and threads by max instead of sum
_MAX_COUNTERS = {"spinchain.spectrum.dim_max", "cli.worker_threads"}


def _merge(parts):
    """Sum (spans, counters) pairs; counters in _MAX_COUNTERS take the max."""
    spans, counters = {}, {}
    for part_spans, part_counters in parts:
        for name, row in part_spans.items():
            total = spans.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(row):
                total[i] += value
        for name, value in part_counters.items():
            old = counters.get(name, 0)
            counters[name] = max(old, value) if name in _MAX_COUNTERS else old + value
    return spans, counters


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _peak_concurrency(intervals):
    events = sorted([(a, 1) for a, _ in intervals] + [(b, -1) for _, b in intervals])
    peak = level = 0
    for _, step in events:
        level += step
        peak = max(peak, level)
    return peak


class Tracer:
    """Aggregating spans around the public functions of the susyxyz layers."""

    def __init__(self):
        self._local = threading.local()
        self._threads = []  # (spans, counters) of every thread that traced a call
        self._worker_intervals = []
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._built = set()
        self._sector_cache = None

    def _state(self):
        local = self._local
        try:
            return local.spans, local.counters, local.stack
        except AttributeError:
            local.spans, local.counters, local.stack = {}, {}, []
            self._threads.append((local.spans, local.counters))
            return local.spans, local.counters, local.stack

    def count(self, name, amount=1):
        counters = self._state()[1]
        counters[name] = counters.get(name, 0) + amount

    def wrap(self, name, fn, hook=None):
        state, main = self._state, self._main
        intervals = self._worker_intervals
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, counters, stack = state()
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                row = spans.get(name)
                if row is None:
                    row = spans[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += end - start
                row[2] += end - start - frame[0]
                if stack:
                    stack[-1][0] += end - start
                elif threading.get_ident() != main:
                    intervals.append((start, end))
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    # --- counters computed at layer boundaries ---------------------------

    @staticmethod
    def _theta_hook(counters, args, kwargs, result):
        z = args[1] if len(args) > 1 else kwargs["z"]
        counters["elliptic.theta.elems"] = counters.get("elliptic.theta.elems", 0) + int(np.size(z))

    @staticmethod
    def _project_hook(counters, args, kwargs, result):
        # dense embeddings of 2^n x dim complex128 entries, counted as computed
        touched = 16 * sum((1 << b.n) * b.dim for b in (result.domain, result.codomain))
        key = "spinchain.project.bytes_computed"
        counters[key] = counters.get(key, 0) + touched

    @staticmethod
    def _spectrum_hook(counters, args, kwargs, result):
        key = "spinchain.spectrum.dim_max"
        counters[key] = max(counters.get(key, 0), len(result))

    @staticmethod
    def _bethe_hook(counters, args, kwargs, result):
        key = "eightvertex.find_bethe_roots.solutions"
        counters[key] = counters.get(key, 0) + len(result)

    def _supercharge_hook(self, counters, args, kwargs, result):
        with self._lock:
            repeat = (result.n, result.zeta) in self._built
            self._built.add((result.n, result.zeta))
        if repeat:
            self.count("supercharge.build_supercharges.repeats")

    def install(self):
        """Wrap the layer functions in every susyxyz module; count rank warnings."""
        package = importlib.import_module("susyxyz")
        modules = [importlib.import_module(f"susyxyz.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        hooks = {
            "elliptic.theta": self._theta_hook,
            "spinchain.project": self._project_hook,
            "spinchain.spectrum": self._spectrum_hook,
            "eightvertex.find_bethe_roots": self._bethe_hook,
            "supercharge.build_supercharges": self._supercharge_hook,
        }
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"susyxyz.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                if layer == "cli" and attr != "main":
                    continue  # the rest of the cli layer counts as cli.main self time
                name = f"{layer}.{attr}"
                if name in UNTRACED:
                    continue
                wrapped[id(obj)] = (obj, self.wrap(name, obj, hooks.get(name)))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    setattr(module, attr, wrapped[id(obj)][1])
        sector_basis = importlib.import_module("susyxyz.spinchain").build_sector_basis
        self._sector_cache = getattr(sector_basis, "__wrapped__", None)

        warnings.simplefilter("always")
        show = warnings.showwarning

        def counting_show(message, category, *args, **kwargs):
            if "ill-conditioned rank" in str(message):
                self.count("supercharge.rank_warnings")
            show(message, category, *args, **kwargs)

        warnings.showwarning = counting_show
        return self

    def report(self, output_bytes=0):
        """Merged spans and counters of the finished op (JSON-serialisable)."""
        spans, counters = _merge(self._threads)
        counters["cli.output_bytes"] = output_bytes
        workers = self._worker_intervals
        if "cli.main" in spans:
            spans["cli.main"][2] -= _union_length(workers)
        counters["cli.parallel_overlap_s"] = sum(b - a for a, b in workers) - _union_length(workers)
        counters["cli.worker_threads"] = _peak_concurrency(workers)
        if hasattr(self._sector_cache, "cache_info"):
            info = self._sector_cache.cache_info()
            counters["spinchain.build_sector_basis.hits"] = info.hits
            counters["spinchain.build_sector_basis.misses"] = info.misses
        return {"spans": spans, "counters": counters}


def layer_metrics(reports):
    """Per-layer metric values of one pass, from the reports of its ops."""
    spans, counters = _merge((rep["spans"], rep["counters"]) for rep in reports)

    def ratio(num, den):
        return num / den if den else 0.0

    hits = counters.get("spinchain.build_sector_basis.hits", 0)
    misses = counters.get("spinchain.build_sector_basis.misses", 0)
    supercharges = spans.get("supercharge.build_supercharges", [0])[0]
    derived = {
        "spinchain.build_sector_basis.hit_ratio": ratio(hits, hits + misses),
        "supercharge.build_supercharges.repeat_ratio": ratio(
            counters.get("supercharge.build_supercharges.repeats", 0), supercharges),
    }
    values = {}
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]
        elif field in ("calls", "self_s") and span in spans:
            values[name] = spans[span][0 if field == "calls" else 2]
        else:
            values[name] = counters.get(name, 0)
    return values


def self_time_shares(reports):
    """{span name: share of all traced self time} over the given op reports."""
    spans, _ = _merge((rep["spans"], {}) for rep in reports)
    totals = {name: row[2] for name, row in spans.items()}
    whole = sum(totals.values()) or 1.0
    return {name: value / whole for name, value in totals.items()}
