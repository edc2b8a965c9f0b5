"""In-memory spans around the calls ``run_belief`` makes, and the per-layer
metrics derived from them.

The tracer patches the names ``run_belief`` looks up in
``beliefsel.selection`` for the duration of one traced selection and puts
them back afterwards.  Each span records name, wall start/end, process CPU
start/end, parent span and selection id.  Counts are read from the objects
the wrapped calls return (or receive) after the selection has finished, so
counting never lands inside a timed span.  Per-pair functions are not
wrapped: a wrapper per call would distort what it measures.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

# Names run_belief resolves in beliefsel.selection.
WRAPPED = ("zscore_normalize", "partition", "draw_sample", "neighborhood",
           "estimate_batch", "merge_stats", "belief_weights", "compute_mcr",
           "sfs")
ROOT = "select"            # harness span: input handed over .. result back
RUN = "run_belief"
PARSE = "parse_libsvm"


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    sel: int
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    args: tuple = ()
    result: object = None

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start

    def to_json_obj(self) -> dict:
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "sel": self.sel, "start": self.start, "end": self.end,
                "cpu_start": self.cpu_start, "cpu_end": self.cpu_end}


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    sel: int = 0

    @contextlib.contextmanager
    def span(self, name: str, args: tuple = ()):
        s = Span(len(self.spans), name,
                 self._stack[-1].sid if self._stack else None, self.sel,
                 time.perf_counter(), time.process_time(), args=args)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.cpu_end = time.process_time()
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name, args) as s:
                s.result = fn(*args, **kwargs)
            return s.result
        return traced

    @contextlib.contextmanager
    def patched(self, module):
        """Wrap every name of WRAPPED that ``module`` still has.

        Returns (via ``as``) the names that are absent, so a refactor that
        drops one reports it instead of crashing the run.
        """
        saved = {n: getattr(module, n) for n in WRAPPED if hasattr(module, n)}
        try:
            for n, fn in saved.items():
                setattr(module, n, self.wrap(n, fn))
            yield sorted(set(WRAPPED) - set(saved))
        finally:
            for n, fn in saved.items():
                setattr(module, n, fn)

    def selection_spans(self, sel: int) -> list:
        return [s for s in self.spans if s.sel == sel]

    def release(self, sel: int) -> None:
        """Drop the argument/result references of one selection's spans."""
        for s in self.selection_spans(sel):
            s.args, s.result = (), None


def self_times(spans: list) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s.sid, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = s.wall - covered
    return out


# metric name -> unit; the order is the report order.
LAYER_METRICS = {
    "dataset.parse_s": "s",
    "dataset.normalize_s": "s",
    "dataset.sample_s": "s",
    "neighbors.search_s": "s",
    "neighbors.cpu_util": "ratio",
    "neighbors.query_rows": "count",
    "neighbors.distance_pairs": "count",
    "neighbors.ns_per_pair": "ns",
    "neighbors.locator_records": "count",
    "neighbors.locator_bytes": "bytes",
    "neighbors.byte_ratio": "ratio",
    "neighbors.keep_ratio": "ratio",
    "estimation.estimate_s": "s",
    "estimation.cpu_util": "ratio",
    "estimation.neighbor_pairs": "count",
    "estimation.collision_pairs": "count",
    "estimation.tracked_max": "count",
    "estimation.collision_cells": "count",
    "estimation.ns_per_cell": "ns",
    "estimation.joint_bytes": "bytes",
    "estimation.merge_s": "s",
    "estimation.weights_s": "s",
    "redundancy.mcr_s": "s",
    "redundancy.joint_nnz": "count",
    "selection.sfs_s": "s",
    "selection.glue_s": "s",
    "selection.success": "score",
    "trace.overhead_frac": "ratio",
}

# Which wrapped span feeds each timed metric; absent spans make it n/a.
_TIME_SOURCES = {
    "dataset.parse_s": (PARSE,),
    "dataset.normalize_s": ("zscore_normalize",),
    "dataset.sample_s": ("partition", "draw_sample"),
    "neighbors.search_s": ("neighborhood",),
    "estimation.estimate_s": ("estimate_batch",),
    "estimation.merge_s": ("merge_stats",),
    "estimation.weights_s": ("belief_weights",),
    "redundancy.mcr_s": ("compute_mcr",),
    "selection.sfs_s": ("sfs",),
    "selection.glue_s": (RUN,),
}


def _ratio(num, den):
    return num / den if num is not None and den else None


def _read(get):
    """A count read from the objects a call got or returned; None (n/a) when
    a refactor changed their shape, so the run reports the gap instead of
    crashing."""
    try:
        return get()
    except (AttributeError, TypeError, KeyError, IndexError):
        return None


def selection_layers(spans: list) -> dict:
    """Per-layer numbers of one traced selection.

    A value is ``None`` (reported as n/a) when the layer did not run on
    this selection, e.g. no parse on dense input or no collision work at
    theta 0.  Keys cover LAYER_METRICS except the two that need more than
    one selection (success, overhead_frac).
    """
    st = self_times(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def self_sum(names):
        hit = [s for n in names for s in by_name.get(n, [])]
        return sum(st[s.sid] for s in hit) if hit else None

    out = {m: self_sum(names) for m, names in _TIME_SOURCES.items()}

    search = by_name.get("neighborhood", [])
    if search:
        pairs = _read(lambda: sum(len(s.args[1]) * s.args[0].dataset.n_instances
                                  for s in search))
        loc_bytes = _read(lambda: sum(s.result.emitted_bytes for s in search))
        out.update({
            "neighbors.cpu_util": _ratio(sum(s.cpu for s in search),
                                         sum(s.wall for s in search)),
            "neighbors.query_rows": _read(lambda: sum(len(s.args[1]) for s in search)),
            "neighbors.distance_pairs": pairs,
            "neighbors.ns_per_pair": _ratio(out["neighbors.search_s"] * 1e9, pairs),
            "neighbors.locator_records": _read(
                lambda: sum(s.result.emitted_records for s in search)),
            "neighbors.locator_bytes": loc_bytes,
            "neighbors.byte_ratio": _ratio(loc_bytes, _read(
                lambda: sum(s.result.full_instance_bytes for s in search))),
        })

    est = by_name.get("estimate_batch", [])
    if est:
        accumulated = _read(lambda: int(sum(
            s.result.hit_count.sum() + s.result.miss_count.sum() for s in est)))
        tables = _read(lambda: [s.result.collisions for s in est]) or []
        n = _read(lambda: est[0].args[0].dataset.n_features)
        collided = _read(lambda: sum(t.pair_count for t in tables)) or None
        cells = collided and _read(
            lambda: sum(t.pair_count * t.tracked.size * n for t in tables))
        out.update({
            "estimation.cpu_util": _ratio(sum(s.cpu for s in est),
                                          sum(s.wall for s in est)),
            "estimation.neighbor_pairs": accumulated,
            "estimation.collision_pairs": collided,
            "estimation.tracked_max": collided and _read(
                lambda: max(t.tracked.size for t in tables)),
            "estimation.collision_cells": cells or None,
            "estimation.ns_per_cell": _ratio(out["estimation.estimate_s"] * 1e9, cells),
            "estimation.joint_bytes": collided and _read(
                lambda: max(t.joint.nbytes for t in tables)),
            "neighbors.keep_ratio": _ratio(
                accumulated, out.get("neighbors.locator_records")),
        })

    mcr = by_name.get("compute_mcr", [])
    if mcr:
        out["redundancy.joint_nnz"] = _read(
            lambda: sum(int(np.count_nonzero(s.args[0].joint)) for s in mcr))
    return out


def accounted(spans: list) -> float:
    """Sum of self times of every span except the harness root."""
    st = self_times(spans)
    return sum(st[s.sid] for s in spans if s.name != ROOT)
