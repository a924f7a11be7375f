"""Span tracer for the benchmark's traced run.

The tracer wraps the seams where paclab's modules call each other: the
attribute each caller looks up at call time. Every wrapped call records a
span (layer, name, start, end, parent span). Thread-pool tasks inherit the
span that submitted them, so work on worker threads still has a parent.
Wrappers are installed on module attributes at run time and removed
afterwards; no file of paclab changes.

Self time of a span is its duration minus the union of its children's
intervals. Children that run concurrently on worker threads can cover the
same instant twice; that excess is reported as overlap, so that

    sum of layer self times + uncovered = traced wall time + overlap

holds exactly, where "uncovered" is the self time of the benchmark's own
root spans (time spent in no wrapped layer).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
import weakref
from contextlib import contextmanager

import numpy as np

METHODS = ("mca", "eps", "mvl", "cv", "kld")
LAYERS = ("synthesis", "filters", "comodulogram", "measures", "spectral", "io", "cli")

# (layer, module, attribute path, kind). An attribute path is "name",
# "Class.name" or "DICT[key]". The kind selects what the wrapper records.
SEAMS = (
    ("synthesis", "paclab.synthesis", "synth_pac", "call"),
    ("synthesis", "paclab.comodulogram", "synth_pac", "call"),
    ("synthesis", "paclab.cli", "synth_pac", "call"),
    ("filters", "paclab.filters", "bandpass", "filter"),
    ("filters", "paclab.filters", "morlet_bandpass", "filter"),
    ("comodulogram", "paclab.comodulogram", "FilterBank.gabor", "bank"),
    ("comodulogram", "paclab.comodulogram", "FilterBank.morlet", "bank"),
    ("comodulogram", "paclab.comodulogram", "compute_matrix", "call"),
    ("comodulogram", "paclab.comodulogram", "normalize", "call"),
    ("comodulogram", "paclab.comodulogram", "argmax", "call"),
    ("comodulogram", "paclab.comodulogram", "run_comparison", "call"),
    ("comodulogram", "paclab.comodulogram", "ThreadPoolExecutor", "pool"),
    ("comodulogram", "paclab.cli", "compute_matrix", "call"),
    ("comodulogram", "paclab.cli", "normalize", "call"),
    ("comodulogram", "paclab.cli", "argmax", "call"),
    ("comodulogram", "paclab.io", "argmax", "call"),
) + tuple(
    ("measures", "paclab.comodulogram", f"_MEASURE_FNS[{m}]", "measure") for m in METHODS
) + (
    ("measures", "paclab.measures", "hilbert", "call"),
    ("measures", "paclab.measures", "envelope_phase", "call"),
    ("spectral", "paclab.measures", "coherence", "call"),
    ("io", "paclab.io", "read_signal_csv", "read"),
    ("io", "paclab.io", "read_matrix_csv", "read"),
    ("io", "paclab.io", "read_json", "read"),
    ("io", "paclab.io", "write_signal_csv", "write"),
    ("io", "paclab.io", "write_matrix_csv", "write"),
    ("io", "paclab.io", "write_json", "write"),
    ("io", "paclab.io", "write_manifest", "call"),
    ("io", "paclab.io", "write_pgm", "write"),
    ("cli", "paclab.cli", "main", "call"),
)

_ZERO_CELL_ERRORS = ("OutOfBandError", "DegeneratePhaseError", "DegenerateDistributionError")


class Span:
    __slots__ = ("sid", "parent", "layer", "name", "seam", "t0", "t1", "info")

    def __init__(self, sid, parent, layer, name, seam, t0):
        self.sid = sid
        self.parent = parent
        self.layer = layer
        self.name = name
        self.seam = seam
        self.t0 = t0
        self.t1 = t0
        self.info = None


def _resolve(module, path):
    """Return (container, key, is_item) for an attribute path, or None."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    if path.endswith("]"):
        name, key = path[:-1].split("[")
        container = getattr(mod, name, None)
        if not isinstance(container, dict) or key not in container:
            return None
        return container, key, True
    *owners, attr = path.split(".")
    obj = mod
    for o in owners:
        obj = getattr(obj, o, None)
        if obj is None:
            return None
    if not hasattr(obj, attr):
        return None
    return obj, attr, False


class Tracer:
    """Records spans from wrapped seams; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.pools = []
        self.seams = {}  # seam id -> "absent" | "installed"
        self.enabled = False
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._undo = []
        self._bank_ids = weakref.WeakKeyDictionary()

    # -- span bookkeeping -------------------------------------------------
    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current(self):
        st = self._stack()
        return st[-1] if st else None

    def open(self, layer, name, seam=None, parent=None):
        st = self._stack()
        if parent is None and st:
            parent = st[-1]
        sp = Span(next(self._ids), parent.sid if parent is not None else 0,
                  layer, name, seam, time.perf_counter())
        st.append(sp)
        return sp

    def close(self, sp):
        sp.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(sp)

    @contextmanager
    def root(self, name):
        """One of the benchmark's own root spans, while tracing is on."""
        sp = self.open("bench", name) if self.enabled else None
        try:
            yield
        finally:
            if sp is not None:
                self.close(sp)

    # -- installing wrappers -----------------------------------------------
    def install(self):
        for layer, module, path, kind in SEAMS:
            seam = f"{module}.{path}"
            where = _resolve(module, path)
            if where is None:
                self.seams[seam] = "absent"
                continue
            container, key, is_item = where
            orig = container[key] if is_item else getattr(container, key)
            wrapped = self._wrap(layer, kind, seam, key, orig)
            if is_item:
                container[key] = wrapped
            else:
                setattr(container, key, wrapped)
            self._undo.append((container, key, is_item, orig))
            self.seams[seam] = "installed"
        self.enabled = True

    def uninstall(self):
        self.enabled = False
        for container, key, is_item, orig in reversed(self._undo):
            if is_item:
                container[key] = orig
            else:
                setattr(container, key, orig)
        self._undo.clear()

    def _wrap(self, layer, kind, seam, key, fn):
        if kind == "pool":
            return self._pool_class(fn)
        tracer = self
        name = f"{layer}.{key}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sp = tracer.open(layer, name, seam)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                sp.info = ("raised", type(e).__name__)
                raise
            finally:
                tracer.close(sp)
            tracer._record(kind, sp, key, args, out)
            return out

        return wrapper

    def _record(self, kind, sp, key, args, out):
        if kind == "measure":
            sp.info = ("value", float(out))
        elif kind == "filter":
            arr = getattr(out, "samples", None)
            if arr is None:
                arr = out.values
            sp.info = ("bytes", int(arr.nbytes))
        elif kind == "bank":
            bank, center, width = args[0], float(args[1]), float(args[2])
            with self._lock:
                bid = self._bank_ids.get(bank)
                if bid is None:
                    bid = self._bank_ids[bank] = next(self._ids)
            sp.info = ("key", (bid, key, center, width))
        elif kind in ("read", "write"):
            try:
                sp.info = ("bytes", os.path.getsize(args[0]))
            except (OSError, TypeError, IndexError):
                sp.info = ("bytes", 0)

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """Thread pool whose tasks record a span under the submitter."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                owner = tracer.current()
                self._bench_kind = "run" if owner is not None and owner.name.endswith(
                    "run_comparison") else "cell"
                self._bench_t0 = time.perf_counter()
                self._bench_busy = 0.0

            def submit(self, fn, /, *args, **kwargs):
                if not tracer.enabled:
                    return super().submit(fn, *args, **kwargs)
                parent = tracer.current()

                def task():
                    sp = tracer.open("comodulogram", "comodulogram.pool_task",
                                     "paclab.comodulogram.ThreadPoolExecutor", parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer.close(sp)
                        with tracer._lock:
                            self._bench_busy += sp.t1 - sp.t0

                return super().submit(task)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                if tracer.enabled:
                    tracer.pools.append((self._bench_kind, self._max_workers,
                                         time.perf_counter() - self._bench_t0,
                                         self._bench_busy))

        return TracedPool


# -- analysis ----------------------------------------------------------------
def _union_length(intervals):
    total = 0.0
    end = -np.inf
    start = None
    for a, b in sorted(intervals):
        if a > end:
            if start is not None:
                total += end - start
            start, end = a, b
        elif b > end:
            end = b
    if start is not None:
        total += end - start
    return total


def self_times(spans):
    """Per-span self time and the concurrent-children overlap, by span id."""
    children = {}
    for sp in spans:
        children.setdefault(sp.parent, []).append(sp)
    self_t = {}
    overlap = 0.0
    for sp in spans:
        kids = children.get(sp.sid, ())
        clipped = [(max(c.t0, sp.t0), min(c.t1, sp.t1)) for c in kids]
        clipped = [(a, b) for a, b in clipped if b > a]
        covered = _union_length(clipped)
        self_t[sp.sid] = (sp.t1 - sp.t0) - covered
        overlap += sum(b - a for a, b in clipped) - covered
    return self_t, overlap


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of a finished traced run, as name -> (value, unit)."""
    spans = tracer.spans
    by_id = {sp.sid: sp for sp in spans}
    self_t, overlap = self_times(spans)
    children = {}
    for sp in spans:
        children.setdefault(sp.parent, []).append(sp)

    def parent_of(sp):
        return by_id.get(sp.parent)

    def method_of(sp):
        # nearest enclosing measure span decides which method the work serves
        while sp is not None:
            if sp.layer == "measures" and sp.name.split(".")[-1] in METHODS:
                return sp.name.split(".")[-1]
            sp = parent_of(sp)
        return None

    m = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    uncovered = 0.0
    for sp in spans:
        if sp.layer == "bench":
            uncovered += self_t[sp.sid]
        else:
            layer_self[sp.layer] += self_t[sp.sid]
    wall = sum(sp.t1 - sp.t0 for sp in spans if sp.layer == "bench" and sp.parent == 0)

    def busy(pred):
        return sum(sp.t1 - sp.t0 for sp in spans if pred(sp))

    def count(pred):
        return sum(1 for sp in spans if pred(sp))

    # synthesis
    m["synthesis.calls"] = (count(lambda s: s.layer == "synthesis"), "count")
    m["synthesis.busy_s"] = (busy(lambda s: s.layer == "synthesis"), "s")

    # filters, split by the span that asked for the band
    fills = env = other = 0
    nbytes = 0
    for sp in spans:
        if sp.layer != "filters":
            continue
        nbytes += sp.info[1] if sp.info and sp.info[0] == "bytes" else 0
        par = parent_of(sp)
        if par is not None and par.seam and par.seam.startswith("paclab.comodulogram.FilterBank"):
            fills += 1
        elif par is not None and par.name == "measures.envelope_phase":
            env += 1
        else:
            other += 1
    m["filters.bank_fills"] = (fills, "count")
    m["filters.envelope_passes"] = (env, "count")
    m["filters.other_passes"] = (other, "count")
    m["filters.busy_s"] = (busy(lambda s: s.layer == "filters"), "s")
    m["filters.bytes_computed"] = (nbytes, "bytes")

    # filter-bank lookups: a miss is a lookup that had to filter
    lookups = misses = 0
    keys = set()
    held = {}
    for sp in spans:
        if not (sp.seam and sp.seam.startswith("paclab.comodulogram.FilterBank")):
            continue
        lookups += 1
        fills_here = [c for c in children.get(sp.sid, ()) if c.layer == "filters"]
        if fills_here and sp.info and sp.info[0] == "key":
            misses += 1
            key = sp.info[1]
            if key not in keys:
                keys.add(key)
                size = fills_here[0].info[1] if fills_here[0].info else 0
                held[key[0]] = held.get(key[0], 0) + size
    m["comodulogram.bank_lookups"] = (lookups, "count")
    m["comodulogram.bank_misses"] = (misses, "count")
    m["comodulogram.bank_hit_ratio"] = (1.0 - misses / lookups if lookups else 0.0, "ratio")
    m["comodulogram.bank_bytes_held"] = (max(held.values(), default=0), "bytes")
    m["comodulogram.bank_duplicate_fills"] = (misses - len(keys), "count")

    m["comodulogram.self_s"] = (layer_self["comodulogram"], "s")
    m["comodulogram.normalize_argmax_s"] = (
        busy(lambda s: s.name in ("comodulogram.normalize", "comodulogram.argmax")), "s")
    for kind in ("all", "cell", "run"):
        pools = [p for p in tracer.pools if kind == "all" or p[0] == kind]
        capacity = sum(p[1] * p[2] for p in pools)
        eff = sum(p[3] for p in pools) / capacity if capacity > 0 else 0.0
        name = "comodulogram.pool_efficiency" if kind == "all" else \
            f"comodulogram.{kind}_pool_efficiency"
        m[name] = (eff, "ratio")

    # measures, per method
    cells_by = {meth: [] for meth in METHODS}
    for sp in spans:
        if sp.layer == "measures" and sp.name.split(".")[-1] in METHODS:
            cells_by[sp.name.split(".")[-1]].append(sp)
    method_self = {meth: 0.0 for meth in METHODS}
    hilbert_by = {meth: 0 for meth in METHODS}
    env_by = {meth: 0 for meth in METHODS}
    for sp in spans:
        if sp.layer not in ("measures", "filters"):
            continue
        meth = method_of(sp)
        if meth is None:
            continue
        if sp.layer == "measures":
            method_self[meth] += self_t[sp.sid]
            if sp.name == "measures.hilbert":
                hilbert_by[meth] += 1
        elif (parent_of(sp) is not None and parent_of(sp).name == "measures.envelope_phase"):
            env_by[meth] += 1
    zero_errors = 0
    for meth in METHODS:
        cells = cells_by[meth]
        durs_ms = [(c.t1 - c.t0) * 1e3 for c in cells]
        scored = sum(1 for c in cells if c.info and c.info[0] == "value" and c.info[1] > 0)
        zero_errors += sum(1 for c in cells if c.info and c.info[0] == "raised"
                           and c.info[1] in _ZERO_CELL_ERRORS)
        m[f"measures.{meth}.cells"] = (len(cells), "count")
        m[f"measures.{meth}.cell_p50_ms"] = (_pct(durs_ms, 50), "ms")
        m[f"measures.{meth}.cell_p99_ms"] = (_pct(durs_ms, 99), "ms")
        m[f"measures.{meth}.self_s"] = (method_self[meth], "s")
        m[f"measures.{meth}.scored_ratio"] = (scored / len(cells) if cells else 0.0, "ratio")
    m["measures.zero_cell_errors"] = (zero_errors, "count")
    m["measures.hilbert_calls"] = (count(lambda s: s.name == "measures.hilbert"), "count")
    n_mca = len(cells_by["mca"])
    m["measures.fft_passes_per_cell"] = (
        (hilbert_by["mca"] + env_by["mca"]) / n_mca if n_mca else 0.0, "count")
    m["measures.self_s"] = (layer_self["measures"], "s")

    # spectral
    m["spectral.coherence_calls"] = (count(lambda s: s.layer == "spectral"), "count")
    m["spectral.busy_s"] = (busy(lambda s: s.layer == "spectral"), "s")

    # io
    def io_busy(fn):
        return busy(lambda s: s.name == f"io.{fn}")

    m["io.read_signal_s"] = (io_busy("read_signal_csv"), "s")
    m["io.write_signal_s"] = (io_busy("write_signal_csv"), "s")
    m["io.write_matrix_s"] = (io_busy("write_matrix_csv"), "s")
    m["io.write_json_s"] = (io_busy("write_json"), "s")
    m["io.bytes_read"] = (sum(s.info[1] for s in spans if s.layer == "io" and s.info
                              and s.info[0] == "bytes" and s.name.startswith("io.read")),
                          "bytes")
    m["io.bytes_written"] = (sum(s.info[1] for s in spans if s.layer == "io" and s.info
                                 and s.info[0] == "bytes" and s.name.startswith("io.write")),
                             "bytes")
    m["io.self_s"] = (layer_self["io"], "s")
    m["cli.self_s"] = (layer_self["cli"], "s")
    for layer in ("synthesis", "filters", "spectral"):
        m[f"{layer}.self_s"] = (layer_self[layer], "s")

    # accounting: sum(layer self) + uncovered = wall + overlap
    m["trace.wall_s"] = (wall, "s")
    m["trace.uncovered_s"] = (uncovered, "s")
    m["trace.overlap_s"] = (overlap, "s")
    m["trace.balance_error_s"] = (sum(layer_self.values()) + uncovered - overlap - wall, "s")
    m["trace.spans"] = (len(spans), "count")
    fired = {sp.seam for sp in spans if sp.seam}
    status = seam_status(tracer, fired)
    m["trace.seams_wrapped"] = (sum(1 for v in status.values() if v != "absent"), "count")
    m["trace.seams_fired"] = (sum(1 for v in status.values() if v == "fired"), "count")
    m["trace.seams_absent"] = (sum(1 for v in status.values() if v == "absent"), "count")
    return m, layer_self, status


def seam_status(tracer, fired):
    """fired / idle / absent for every seam the tracer knows."""
    return {
        seam: "absent" if state == "absent" else ("fired" if seam in fired else "idle")
        for seam, state in tracer.seams.items()
    }
