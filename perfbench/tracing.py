"""Layer spans for the benchmark's traced runs.

The program is measured, not changed: :func:`traced` wraps the public
functions of each layer from the outside for the duration of one
operation and restores the originals afterwards.  Each wrapped call
records a span ``(id, parent, root, name, start, end, thread)`` in
memory, plus the counts that only the call's arguments or result can
give (substeps, messages, bytes, cache hits).

Breakdown rule (:func:`breakdown`): every instant of an operation's
wall time goes to the innermost open span of each thread that has one,
shared equally when several threads do; instants with no open span go
to ``observe.unattributed_s``.  Single-threaded workloads thus get the
usual self times (span minus children), and the parts sum to the
operation's wall time on every workload, threaded service included.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

clock = time.perf_counter

#: Span name -> per-layer time metric (each is the span's self time).
TIME_METRICS = {
    "chemistry.integrate": "chemistry.integrate_s",
    "chemistry.vertical": "chemistry.vertical_s",
    "chemistry.aerosol": "chemistry.aerosol_s",
    "transport.solve": "transport.solve_s",
    "io.inputhour": "io.inputhour_s",
    "io.pretrans": "io.pretrans_s",
    "io.outputhour": "io.outputhour_s",
    "model.run": "model.self_s",
    "model.replay": "model.self_s",
    "datasets.build": "datasets.build_s",
    "fx.plan": "fx.plan_s",
    "vm.charge_comm": "vm.charge_comm_s",
    "vm.charge_compute": "vm.charge_compute_s",
    "sched.plan": "sched.plan_s",
    "sched.execute": "sched.execute_s",
    "sched.cache_get": "sched.cache_get_s",
    "sched.cache_put": "sched.cache_put_s",
    "service.journal_append": "service.journal_append_s",
    "service.http": "service.http_s",
}
UNATTRIBUTED = "observe.unattributed_s"


class Recorder:
    """In-memory spans and counts, grouped by the operation (root)."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self.roots: List[Tuple[int, str, float, float]] = []
        self.counts: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.root: Optional[int] = None
        self.pool_marks: Dict[object, List[dict]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def op(self, name: str):
        """Make everything traced inside the block one operation."""
        sid = next(self._ids)
        self.pool_marks = {}
        t0 = clock()
        self.root = sid
        try:
            yield
        finally:
            t1 = clock()
            self.root = None
            self.roots.append((sid, name, t0, t1))
            self._close_pools(sid)

    def count(self, key: str, amount: float = 1.0) -> None:
        root = self.root
        if root is not None:
            with self._lock:
                self.counts[root][key] += amount

    def call(self, name: str, fn: Callable, args, kwargs,
             after: Optional[Callable] = None):
        root = self.root
        if root is None:
            return fn(*args, **kwargs)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else root
        stack.append(sid)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = clock()
            stack.pop()
            self.spans.append(
                (sid, parent, root, name, t0, t1, threading.get_ident()))
        if after is not None:
            after(self, args, kwargs, result)
        return result

    # -- tile pools: busy time is read from the pool's own accounting ---
    def mark_pool(self, pool) -> None:
        if self.root is not None and pool not in self.pool_marks:
            self.pool_marks[pool] = pool.snapshot()

    def _close_pools(self, root: int) -> None:
        busy = tasks = 0.0
        workers = 0
        for pool, before in self.pool_marks.items():
            for old, new in zip(before, pool.snapshot()):
                busy += new["busy_s"] - old["busy_s"]
                tasks += new["tasks"] - old["tasks"]
            workers = max(workers, pool.workers)
        if workers:
            counts = self.counts[root]
            counts["tiling.busy_s"] += busy
            counts["tiling.tasks"] += tasks
            counts["tiling.workers"] = workers
        self.pool_marks = {}


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------
def _after_integrate(rec, args, kwargs, result) -> None:
    rec.count("chemistry.calls")
    stats = kwargs.get("stats")
    if stats is not None:
        rec.count("chemistry.substeps", stats.substeps_total)


def _after_transport(rec, args, kwargs, result) -> None:
    rec.count("transport.calls")


def _after_comm(rec, args, kwargs, result) -> None:
    rec.count("vm.charge_calls")
    traffic = result.traffic or {}
    rec.count("vm.messages", sum(t.messages_sent for t in traffic.values()))
    rec.count("vm.bytes_moved", sum(t.bytes_sent for t in traffic.values()))


def _after_compute(rec, args, kwargs, result) -> None:
    rec.count("vm.charge_calls")


def _after_cache_get(rec, args, kwargs, result) -> None:
    rec.count("sched.cache_gets")
    if result is not None:
        rec.count("sched.cache_hits")


def _after_science(rec, args, kwargs, result) -> None:
    rec.count("sched.science_runs")


def _after_append(rec, args, kwargs, result) -> None:
    rec.count("service.journal_appends")


def _wrap(rec: Recorder, name: str, fn: Callable,
          after: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, after)
    return spanned


def _plan_wrapper(rec: Recorder, fn: Callable) -> Callable:
    from repro.fx import redistribute

    @functools.wraps(fn)
    def plan(source, target, itemsize):
        if rec.root is not None:
            rec.count("fx.plan_calls")
            if (source, target, int(itemsize)) in redistribute._PLAN_CACHE:
                rec.count("fx.plan_hits")
        return rec.call("fx.plan", fn, (source, target, itemsize), {})
    return plan


def _pool_wrapper(rec: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def run(pool, *args, **kwargs):
        rec.mark_pool(pool)
        return fn(pool, *args, **kwargs)
    return run


def _targets():
    """(owner, attribute, span name, after-hook) to wrap."""
    from repro.chemistry.aerosol import AerosolModel
    from repro.chemistry.vertical import VerticalDiffusion
    from repro.chemistry.youngboris import YoungBorisSolver
    from repro.datasets.generators import Dataset
    from repro.io import hourly
    from repro.model import batched, dataparallel, taskparallel
    from repro.model.physics import AirshedPhysics
    from repro.model.sequential import SequentialAirshed
    from repro.sched import executors
    from repro.sched.cache import ResultCache
    from repro.sched.runner import CampaignRunner
    from repro.service.client import ServiceClient
    from repro.service.jobstore import JournalJobStore
    from repro.vm.cluster import Cluster

    return [
        (YoungBorisSolver, "integrate", "chemistry.integrate",
         _after_integrate),
        (VerticalDiffusion, "step", "chemistry.vertical", None),
        (AerosolModel, "step", "chemistry.aerosol", None),
        (AirshedPhysics, "transport_layer", "transport.solve",
         _after_transport),
        (hourly, "inputhour", "io.inputhour", None),
        (hourly, "pretrans", "io.pretrans", None),
        (hourly, "outputhour", "io.outputhour", None),
        (SequentialAirshed, "run", "model.run", None),
        (batched, "run_batched", "model.run", None),
        (dataparallel, "replay_data_parallel", "model.replay", None),
        (taskparallel, "replay_task_parallel", "model.replay", None),
        (Dataset, "__init__", "datasets.build", None),
        (Cluster, "charge_communication", "vm.charge_comm", _after_comm),
        (Cluster, "charge_compute", "vm.charge_compute", _after_compute),
        (CampaignRunner, "plan", "sched.plan", None),
        (executors, "execute_job", "sched.execute", None),
        (executors, "execute_science", "sched.execute", _after_science),
        (ResultCache, "get_science", "sched.cache_get", _after_cache_get),
        (ResultCache, "get_job", "sched.cache_get", _after_cache_get),
        (ResultCache, "put_science", "sched.cache_put", None),
        (ResultCache, "put_job", "sched.cache_put", None),
        (JournalJobStore, "append", "service.journal_append",
         _after_append),
        (ServiceClient, "submit", "service.http", None),
        (ServiceClient, "status", "service.http", None),
        (ServiceClient, "results", "service.http", None),
    ]


@contextmanager
def traced(rec: Recorder):
    """Wrap every layer boundary for the duration of the block.

    A module-level function is replaced in every loaded ``repro``
    module that imported it by name, so callers see the wrapper
    whichever import path they used.
    """
    from repro.chemistry.tiling import TilePool
    from repro.fx import redistribute

    targets = [(owner, attr, _wrap(rec, name, getattr(owner, attr), after))
               for owner, attr, name, after in _targets()]
    targets.append((redistribute, "plan_redistribution",
                    _plan_wrapper(rec, redistribute.plan_redistribution)))
    targets.append((TilePool, "run", _pool_wrapper(rec, TilePool.run)))

    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if n == "repro" or n.startswith("repro.")]
    for owner, attr, wrapper in targets:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            if getattr(module, attr, None) is original:
                undo.append((module, attr, original))
                setattr(module, attr, wrapper)
    try:
        yield rec
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# breakdown
# ---------------------------------------------------------------------------
def _leaf_segments(spans, t0: float, t1: float):
    """(start, end, span name, thread) pieces where a span is innermost."""
    children = defaultdict(list)
    for span in spans:
        children[(span[1], span[6])].append(span)
    segments = []
    for span in spans:
        sid, _, _, name, s0, s1, tid = span
        s0, s1 = max(s0, t0), min(s1, t1)
        cursor = s0
        for child in sorted(children.get((sid, tid), ()), key=lambda c: c[4]):
            c0, c1 = max(child[4], t0), min(child[5], t1)
            if c0 > cursor:
                segments.append((cursor, c0, name, tid))
            cursor = max(cursor, c1)
        if s1 > cursor:
            segments.append((cursor, s1, name, tid))
    return segments


def spans_by_root(rec: Recorder) -> Dict[int, List[Tuple]]:
    grouped: Dict[int, List[Tuple]] = defaultdict(list)
    for span in rec.spans:
        grouped[span[2]].append(span)
    return grouped


def breakdown(spans: List[Tuple], root: Tuple[int, str, float, float]
              ) -> Dict[str, float]:
    """Seconds of one operation's wall time per time metric.

    ``spans`` are the spans recorded under ``root``.
    """
    _, _, t0, t1 = root
    events = []
    for a, b, name, tid in _leaf_segments(spans, t0, t1):
        if b > a:
            events.append((a, 1, name, tid))
            events.append((b, 0, name, tid))
    events.sort(key=lambda e: (e[0], e[1]))
    out: Dict[str, float] = defaultdict(float)
    active: Dict[int, str] = {}
    last = t0
    for when, is_start, name, tid in events:
        if when > last:
            share = (when - last) / len(active) if active else 0.0
            for leaf in active.values():
                out[TIME_METRICS[leaf]] += share
            if not active:
                out[UNATTRIBUTED] += when - last
            last = when
        if is_start:
            active[tid] = name
        elif active.get(tid) == name:
            del active[tid]
    out[UNATTRIBUTED] += max(t1 - last, 0.0)
    return out
