"""Spans around the package's public functions, recorded from outside it.

`Tracer` replaces every public function of the modules in LAYERS with a
wrapper, in every szilard module namespace that binds the function: the
modules import each other's functions by name, so patching only the defining
module would miss most calls.  Each call records a span (function, start,
end, parent span, thread) in per-thread buffers held in memory; `drain`
hands the spans over as a `Trace`, and `layer_metrics` turns one traced pass
into the per-layer metrics.  Nothing under src/ is modified on disk.
"""

import functools
import inspect
import itertools
import threading
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import szilard
from szilard import barrier, cli, cycle, ensembles, potentials, sweeps
from szilard.ensembles import MuMode, TruncationPolicy
from szilard.potentials import Barrier

LAYERS = ("potentials", "barrier", "ensembles", "cycle", "sweeps")
_NAMESPACES = (szilard, potentials, barrier, ensembles, cycle, sweeps, cli)
# Spans of this function parent the top-level spans of worker threads.
ROOT = "sweeps.run_sweep"


# Each note runs after its span has ended and returns what the span keeps
# beyond its interval: the argument key for duplicate counting, or a size.
def _level_note(result, potential, n, barrier=Barrier.ABSENT):
    size = int(np.size(n))
    first = int(np.ravel(n)[0]) if size else 0
    return potential, barrier, first, size


def _prefactor_note(result, potential):
    return potential


def _mu_note(result, potential, count, temperature, barrier, mode,
             policy=TruncationPolicy()):
    return potential, count, temperature, barrier, mode, policy


def _branches_note(result, *args, **kwargs):
    return len(result)


_NOTES = {
    "potentials.level_energy": _level_note,
    "potentials.omega_prefactor": _prefactor_note,
    "ensembles.chemical_potential": _mu_note,
    "barrier.even_levels": _branches_note,
}

# name -> (unit, which direction is better); the order of the printed output
PER_LAYER = {
    "potentials.level_energy.calls": ("count", "lower"),
    "potentials.level_energy.terms": ("count", "lower"),
    "potentials.level_energy.terms_per_call": ("terms/call", "lower"),
    "potentials.level_energy.s": ("s", "lower"),
    "potentials.level_energy.unique_ratio": ("ratio", "higher"),
    "potentials.omega_prefactor.calls": ("count", "lower"),
    "potentials.omega_prefactor.s": ("s", "lower"),
    "potentials.omega_prefactor.unique_ratio": ("ratio", "higher"),
    "ensembles.chemical_potential.calls": ("count", "lower"),
    "ensembles.chemical_potential.s": ("s", "lower"),
    "ensembles.chemical_potential.unique_ratio": ("ratio", "higher"),
    "ensembles.occupancy_total.calls": ("count", "lower"),
    "ensembles.occupancy_total.s": ("s", "lower"),
    "ensembles.occupancy_per_root": ("calls/root", "lower"),
    "ensembles.log_relative_partition.calls": ("count", "lower"),
    "ensembles.log_relative_partition.s": ("s", "lower"),
    "ensembles.internal_energy.calls": ("count", "lower"),
    "ensembles.internal_energy.s": ("s", "lower"),
    "ensembles.canonical_stage_properties.calls": ("count", "lower"),
    "ensembles.canonical_stage_properties.s": ("s", "lower"),
    "ensembles.self_s": ("s", "lower"),
    "cycle.run_cycle.calls": ("count", "lower"),
    "cycle.run_cycle.self_s": ("s", "lower"),
    "barrier.even_levels.calls": ("count", "lower"),
    "barrier.even_levels.s": ("s", "lower"),
    "barrier.even_levels.useful_ratio": ("ratio", "higher"),
    "sweeps.validate.s": ("s", "lower"),
    "sweeps.run_sweep.self_s": ("s", "lower"),
    "sweeps.write_s": ("s", "lower"),
    "sweeps.csv_bytes": ("bytes", "lower"),
    "sweeps.busy_share": ("ratio", "higher"),
    # measured by run.py around the traced passes, not from the spans
    "sweeps.failed_share": ("ratio", "lower"),
    "sweeps.max_rel_err": ("ratio", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


class _Buffer:
    """One thread's spans as parallel arrays; span id = base + index."""

    def __init__(self, base, generation):
        self.base = base
        self.generation = generation
        self.thread = threading.get_ident()
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.notes = []          # (fid, note)
        self.stack = []          # ids of this thread's open spans


class Trace:
    """The spans of one drained interval as parallel numpy arrays."""

    def __init__(self, names, buffers):
        self.names = names

        def cat(field, dtype):
            return np.concatenate(
                [np.array(getattr(b, field), dtype=dtype) for b in buffers]
                or [np.zeros(0, dtype)])

        self.fid = cat("fid", np.int64)
        self.start = cat("start", float)
        self.end = cat("end", float)
        self.parent = cat("parent", np.int64)
        self.span = np.concatenate(
            [b.base + np.arange(len(b.fid), dtype=np.int64) for b in buffers]
            or [np.zeros(0, np.int64)])
        self.thread = np.concatenate(
            [np.full(len(b.fid), b.thread, dtype=np.uint64) for b in buffers]
            or [np.zeros(0, np.uint64)])
        self.notes = defaultdict(list)
        for b in buffers:
            for fid, note in b.notes:
                self.notes[names[fid]].append(note)

    def self_times(self):
        """Each span's duration minus the union of its children's intervals.

        Children in one thread never overlap; children in worker threads
        (the top-level spans of a pooled sweep) may, hence the union.
        """
        covered = np.zeros(len(self.fid))
        row = {span: i for i, span in enumerate(self.span.tolist())}
        order = np.lexsort((self.start, self.parent))
        parents = self.parent[order].tolist()
        starts = self.start[order].tolist()
        ends = self.end[order].tolist()
        i = 0
        while i < len(order):
            parent, lo, hi, total = parents[i], starts[i], ends[i], 0.0
            i += 1
            while i < len(order) and parents[i] == parent:
                if starts[i] > hi:
                    total += hi - lo
                    lo, hi = starts[i], ends[i]
                else:
                    hi = max(hi, ends[i])
                i += 1
            if parent in row:
                covered[row[parent]] = total + hi - lo
        return self.end - self.start - covered

    def write_csv(self, path):
        lines = ["name,start,end,span,parent,thread"]
        lines += [f"{self.names[f]},{s!r},{e!r},{i},{p},{t}" for f, s, e, i, p, t
                  in zip(self.fid.tolist(), self.start.tolist(),
                         self.end.tolist(), self.span.tolist(),
                         self.parent.tolist(), self.thread.tolist())]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class Tracer:
    """Context manager: patch on entry, restore on exit.

    Spans accumulate across entries until `drain`; drain only while no
    traced call is running.
    """

    def __init__(self):
        self._local = threading.local()
        self._slots = itertools.count()
        self._lock = threading.Lock()
        self._buffers = []
        self._generation = 0
        self._root = -1
        self._patches = []
        self._wrappers = []      # (original, wrapper)
        self.names = []          # function id -> "layer.function"
        for layer in LAYERS:
            module = getattr(szilard, layer)
            for attr in module.__all__:
                func = getattr(module, attr)
                if not (inspect.isfunction(func)
                        and func.__module__ == module.__name__):
                    continue
                name = f"{layer}.{attr}"
                self._wrappers.append((func, self._wrap(
                    len(self.names), func, _NOTES.get(name), name == ROOT)))
                self.names.append(name)

    def __enter__(self):
        for func, wrapper in self._wrappers:
            for namespace in _NAMESPACES:
                bound = [k for k, v in vars(namespace).items() if v is func]
                for key in bound:
                    self._patches.append((namespace, key, func))
                    setattr(namespace, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            namespace, key, func = self._patches.pop()
            setattr(namespace, key, func)

    def drain(self):
        """The spans recorded so far; the buffers start again empty."""
        with self._lock:
            buffers, self._buffers = self._buffers, []
            self._generation += 1
        return Trace(self.names, buffers)

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None or buf.generation != self._generation:
            with self._lock:
                buf = _Buffer(next(self._slots) << 40, self._generation)
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _wrap(self, fid, func, note, is_root):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            buf = self._buffer()
            index = len(buf.fid)
            span = buf.base + index
            buf.fid.append(fid)
            buf.parent.append(buf.stack[-1] if buf.stack else self._root)
            buf.end.append(0.0)
            buf.stack.append(span)
            if is_root:
                outer, self._root = self._root, span
            buf.start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                buf.end[index] = perf_counter()
                buf.stack.pop()
                if is_root:
                    self._root = outer
            if note is not None:
                buf.notes.append((fid, note(result, *args, **kwargs)))
            return result
        return traced


def layer_metrics(trace, outcomes):
    """Per-layer metrics of one traced pass whose sweeps returned `outcomes`."""
    names = trace.names
    fid = {name: i for i, name in enumerate(names)}
    size = len(names)
    duration = trace.end - trace.start
    calls = np.bincount(trace.fid, minlength=size)
    total = np.bincount(trace.fid, weights=duration, minlength=size)
    own = np.bincount(trace.fid, weights=trace.self_times(), minlength=size)

    def ratio(a, b):
        return a / b if b else 0.0

    def count(name):
        return int(calls[fid[name]])

    m = {}
    for name in ("potentials.level_energy", "potentials.omega_prefactor",
                 "ensembles.chemical_potential", "ensembles.occupancy_total",
                 "ensembles.log_relative_partition", "ensembles.internal_energy",
                 "ensembles.canonical_stage_properties", "barrier.even_levels"):
        m[f"{name}.calls"] = count(name)
        m[f"{name}.s"] = float(total[fid[name]])
    for name in ("potentials.level_energy", "potentials.omega_prefactor",
                 "ensembles.chemical_potential"):
        m[f"{name}.unique_ratio"] = ratio(len(set(trace.notes[name])),
                                          count(name))
    terms = sum(key[3] for key in trace.notes["potentials.level_energy"])
    m["potentials.level_energy.terms"] = terms
    m["potentials.level_energy.terms_per_call"] = ratio(
        terms, count("potentials.level_energy"))
    solved = sum(key[4] is MuMode.SOLVED
                 for key in trace.notes["ensembles.chemical_potential"])
    m["ensembles.occupancy_per_root"] = ratio(
        count("ensembles.occupancy_total"), solved)
    m["ensembles.self_s"] = float(sum(
        own[i] for i, name in enumerate(names) if name.startswith("ensembles.")))
    m["cycle.run_cycle.calls"] = count("cycle.run_cycle")
    m["cycle.run_cycle.self_s"] = float(own[fid["cycle.run_cycle"]])
    m["barrier.even_levels.useful_ratio"] = ratio(
        count("barrier.even_levels"), sum(trace.notes["barrier.even_levels"]))

    validate = fid["sweeps.validate"]
    run_sweep = fid[ROOT]
    m["sweeps.validate.s"] = float(total[validate])
    m["sweeps.run_sweep.self_s"] = float(own[run_sweep])
    evaluating = sum(o.wall_clock for o in outcomes)
    m["sweeps.write_s"] = float(total[run_sweep] - evaluating - total[validate])
    m["sweeps.csv_bytes"] = sum(Path(o.csv_path).stat().st_size
                                for o in outcomes)
    # top-level evaluation spans: children of run_sweep other than validate
    roots = trace.span[trace.fid == run_sweep]
    top = np.isin(trace.parent, roots) & (trace.fid != validate)
    m["sweeps.busy_share"] = ratio(
        float(duration[top].sum()),
        sum(o.wall_clock * o.spec.workers for o in outcomes))
    return m
