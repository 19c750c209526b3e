"""Persistent worker pool for the tiled multi-core chemistry engine.

The Airshed chemistry operator is data-parallel over grid columns — the
premise of the paper's HPF column distribution — so the shared-memory
engine partitions the column axis of each solver stage into contiguous
tiles and runs the tiles on a persistent pool of worker threads.

Bitwise identity is structural, not approximate (the ground rules are
verified in ``docs/PERFORMANCE.md`` §3 and pinned by
``tests/chemistry/test_tiled.py``):

* every tiled stage is **elementwise per column** — each output element
  is computed from the same inputs by the same IEEE-754 instruction
  sequence regardless of which tile (or thread) computes it;
* tiles write **disjoint column ranges** of shared workspace buffers,
  so there are no write races and no accumulation-order dependence;
* the two BLAS matmuls and the ``np.exp`` asymptotic update — the only
  width/operand-sensitive stages — stay on the main thread with
  exactly the operands the sequential path feeds them.

Hence results are SHA-identical to the sequential run for every worker
count and tile size; the pool only changes wall-clock time.

The pool's threads hold no Python-visible shared state beyond the
locked accounting counters below; the numeric work happens inside the
C fused kernels' GIL-releasing ctypes calls, so tiles genuinely overlap
on multi-core hosts.  Only the C kernel tiles: without it the solver
runs its reference path, which ignores the pool.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = ["TilePool", "tile_spans"]

#: A tile task: ``fn(span_index, col0, col1)`` computes columns
#: ``[col0, col1)`` of the current stage.
TileFn = Callable[[int, int, int], None]


def tile_spans(
    m: int, workers: int, tile_cols: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Contiguous column spans covering ``[0, m)``.

    With ``tile_cols=None`` the axis splits into one balanced tile per
    worker (ceil division, last tile ragged); an explicit ``tile_cols``
    fixes the tile width instead (the last tile is ragged, and
    ``tile_cols=1`` degenerates to one column per tile).  The choice
    never affects results — only load balance.
    """
    if m <= 0:
        return []
    if tile_cols is not None and tile_cols > 0:
        size = int(tile_cols)
    else:
        size = -(-m // max(int(workers), 1))
    return [(s, min(s + size, m)) for s in range(0, m, size)]


class TilePool:
    """A persistent pool of ``workers`` daemon threads running tiles.

    Tile-to-worker assignment is static and deterministic (span ``i``
    goes to worker ``i % workers``), which keeps the per-worker
    accounting reproducible; the *results* are assignment-invariant by
    the disjoint-write ground rule above.

    ``busy_s`` / ``tasks`` / ``cols`` accumulate per-worker wall time,
    dispatch counts and column counts under ``_lock`` — observability
    only (they feed the per-worker tile spans in ``repro.observe``),
    never any science state.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self._queues: List["queue.SimpleQueue"] = [
            queue.SimpleQueue() for _ in range(self.workers)
        ]
        self._done: "queue.SimpleQueue" = queue.SimpleQueue()
        self._lock = threading.Lock()
        self.busy_s = [0.0] * self.workers
        self.tasks = [0] * self.workers
        self.cols = [0] * self.workers
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop, args=(w,),
                name=f"chem-tile-{w}", daemon=True,
            )
            for w in range(self.workers)
        ]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------------
    def _worker_loop(self, widx: int) -> None:
        q = self._queues[widx]
        while True:
            # Drop the last task before blocking: its closure references
            # the caller's kernel workspace, which must not outlive it.
            item = fn = share = err = None
            item = q.get()
            if item is None:
                return
            fn, share = item
            err: Optional[BaseException] = None
            ncols = 0
            t0 = time.perf_counter()
            try:
                for si, c0, c1 in share:
                    fn(si, c0, c1)
                    ncols += c1 - c0
            except BaseException as exc:  # noqa: BLE001 - re-raised by run()
                err = exc
            dt = time.perf_counter() - t0
            with self._lock:
                self.busy_s[widx] += dt
                self.tasks[widx] += 1
                self.cols[widx] += ncols
            self._done.put(err)

    # ------------------------------------------------------------------
    def run(self, fn: TileFn, spans: Sequence[Tuple[int, int]]) -> None:
        """Execute ``fn`` over every span; blocks until all complete.

        Raises the first worker exception encountered (after draining
        the remaining completions, so the pool stays consistent).
        """
        if self._closed:
            raise RuntimeError("TilePool is closed")
        outstanding = 0
        for w in range(self.workers):
            share = [
                (i, spans[i][0], spans[i][1])
                for i in range(w, len(spans), self.workers)
            ]
            if share:
                self._queues[w].put((fn, share))
                outstanding += 1
        first_err: Optional[BaseException] = None
        for _ in range(outstanding):
            err = self._done.get()
            if err is not None and first_err is None:
                first_err = err
        if first_err is not None:
            raise first_err

    # ------------------------------------------------------------------
    def snapshot(self) -> List[dict]:
        """Per-worker accounting: ``[{worker, busy_s, tasks, cols}]``."""
        with self._lock:
            return [
                {
                    "worker": w,
                    "busy_s": self.busy_s[w],
                    "tasks": self.tasks[w],
                    "cols": self.cols[w],
                }
                for w in range(self.workers)
            ]

    def close(self) -> None:
        """Stop the worker threads (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for q in self._queues:
            q.put(None)
        for t in self._threads:
            t.join(timeout=5.0)
