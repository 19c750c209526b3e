"""Content-addressed on-disk result caches for campaign jobs.

:class:`ResultCache` — the reference
:class:`~repro.sched.interfaces.ResultStore` — lays out entries under
its root::

    science/<k[:2]>/<k>.pkl   one AirshedResult per science key
    jobs/<k[:2]>/<k>.pkl      job payload: spec, science key, timing
    scratch/<science_key>/    in-flight checkpoint chunks (see runner)

Science results (the expensive sequential numerics) are stored once per
*science* key; a job entry references its science key instead of
duplicating the arrays, so a machine-comparison grid shares one science
pickle across all its replay jobs.  Keys are the
:class:`~repro.sched.job.JobSpec` content hashes, and builders are
deterministic, so a cache hit returns a bitwise-identical result.

Writes are atomic (temp file + ``os.replace``): a campaign killed
mid-write never leaves a truncated entry behind.  Unreadable entries
are treated as misses and removed on the get path; :meth:`iter_jobs`
merely skips them (a status scan must not abort — or delete — anything
because one entry rotted).  Every cache instance keeps hit/miss/
eviction/corrupt tallies, exposed by :meth:`stats` together with
per-shard occupancy (for the plain cache the ``<k[:2]>`` fan-out
directories are the shards).

:class:`ShardedResultCache` is the service-grade evolution: a fixed
shard count (stable hash of the key, so occupancy is inspectable per
shard), a total size cap, and LRU eviction — reads touch the entry's
mtime, and a put that pushes the cache over ``max_bytes`` evicts the
least-recently-used entries (jobs before science, then oldest first)
until it fits, so an always-on service can absorb millions of
overlapping submissions without unbounded disk growth.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

__all__ = ["ResultCache", "ShardedResultCache"]


class ResultCache:
    """Campaign result store rooted at a directory."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self._stats_lock = threading.Lock()
        self._counters = {
            "hits": 0, "misses": 0, "evictions": 0, "corrupt_entries": 0,
        }

    # -- pickling (the process executor ships the cache to workers) ----
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        del state["_stats_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._stats_lock = threading.Lock()

    # -- stats ---------------------------------------------------------
    def _bump(self, name: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def stats(self) -> Dict[str, Any]:
        """Counter totals plus on-disk occupancy, per kind and shard."""
        kinds: Dict[str, Any] = {}
        for kind in ("science", "jobs"):
            shards: Dict[str, Dict[str, int]] = {}
            entries = nbytes = 0
            base = self.root / kind
            if base.is_dir():
                for path in sorted(base.glob("*/*.pkl")):
                    shard = shards.setdefault(
                        path.parent.name, {"entries": 0, "bytes": 0}
                    )
                    size = path.stat().st_size
                    shard["entries"] += 1
                    shard["bytes"] += size
                    entries += 1
                    nbytes += size
            kinds[kind] = {
                "entries": entries,
                "bytes": nbytes,
                "shards": {k: shards[k] for k in sorted(shards)},
            }
        with self._stats_lock:
            counters = dict(self._counters)
        return {
            "root": str(self.root),
            "counters": counters,
            "kinds": kinds,
            "total_bytes": sum(k["bytes"] for k in kinds.values()),
            "total_entries": sum(k["entries"] for k in kinds.values()),
        }

    # -- paths ---------------------------------------------------------
    def _shard(self, key: str) -> str:
        return key[:2]

    def _entry(self, kind: str, key: str) -> Path:
        return self.root / kind / self._shard(key) / f"{key}.pkl"

    def science_path(self, science_key: str) -> Path:
        return self._entry("science", science_key)

    def job_path(self, key: str) -> Path:
        return self._entry("jobs", key)

    def scratch_dir(self, science_key: str) -> Path:
        """Checkpoint scratch area for one in-flight science run."""
        d = self.root / "scratch" / science_key
        d.mkdir(parents=True, exist_ok=True)
        return d

    def clear_scratch(self, science_key: str) -> None:
        d = self.root / "scratch" / science_key
        if d.is_dir():
            for p in d.iterdir():
                p.unlink()
            d.rmdir()

    # -- low-level pickle I/O ------------------------------------------
    def _load(self, path: Path) -> Optional[Any]:
        if not path.is_file():
            return None
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except Exception:
            # A corrupt entry is a miss; drop it so it gets rebuilt.
            self._bump("corrupt_entries")
            path.unlink(missing_ok=True)
            return None

    def _store(self, path: Path, obj: Any) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        # One temp file per writer: concurrent puts of one key must not
        # interleave their bytes before the atomic replace.
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.tmp.")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        self._after_store(path)

    def _after_store(self, path: Path) -> None:
        """Hook for subclasses (size accounting / eviction)."""

    def _touch(self, path: Path) -> None:
        """Hook for subclasses (LRU recency on reads)."""

    # -- science results -----------------------------------------------
    def get_science(self, science_key: str) -> Optional[Any]:
        result = self._load(self.science_path(science_key))
        if result is None:
            self._bump("misses")
        else:
            self._bump("hits")
            self._touch(self.science_path(science_key))
        return result

    def put_science(self, science_key: str, result: Any) -> None:
        self._store(self.science_path(science_key), result)

    # -- job entries ---------------------------------------------------
    def get_job(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored job payload, or ``None`` on any kind of miss.

        The payload references its science result by key; if that
        science entry has been evicted the job entry is useless and is
        reported (and removed) as a miss.
        """
        payload = self._load(self.job_path(key))
        if payload is None:
            self._bump("misses")
            return None
        science = self._load(self.science_path(payload["science_key"]))
        if science is None:
            self._bump("misses")
            self._bump("evictions")
            self.job_path(key).unlink(missing_ok=True)
            return None
        self._bump("hits")
        self._touch(self.job_path(key))
        self._touch(self.science_path(payload["science_key"]))
        payload["result"] = science
        return payload

    def put_job(self, key: str, payload: Dict[str, Any]) -> None:
        """Store a job payload (must carry ``science_key``; the science
        result itself goes through :meth:`put_science`)."""
        payload = dict(payload)
        payload.pop("result", None)
        if "science_key" not in payload:
            raise ValueError("job payload must reference a science_key")
        self._store(self.job_path(key), payload)

    def iter_jobs(self) -> Iterator[Dict[str, Any]]:
        """Yield every readable job payload (for ``campaign status``).

        A status scan is read-only and best-effort: an entry that fails
        to unpickle — or unpickles to something that is not a payload
        dict — is *skipped* (and tallied in the ``corrupt_entries``
        counter), never deleted, and never aborts the scan.
        """
        jobs = self.root / "jobs"
        if not jobs.is_dir():
            return
        for path in sorted(jobs.glob("*/*.pkl")):
            try:
                with path.open("rb") as fh:
                    payload = pickle.load(fh)
            except Exception:
                self._bump("corrupt_entries")
                continue
            if not isinstance(payload, dict):
                self._bump("corrupt_entries")
                continue
            yield payload


class ShardedResultCache(ResultCache):
    """A sharded, size-capped, LRU-evicting :class:`ResultCache`.

    Parameters
    ----------
    root:
        Cache directory.
    shards:
        Fixed shard count; an entry's shard is a stable function of its
        content hash (``int(key[:8], 16) % shards``), so occupancy per
        shard is inspectable and rebalancing never happens behind a
        running service's back.
    max_bytes:
        Total on-disk budget across science and job entries (scratch is
        exempt — in-flight checkpoints must survive).  ``None`` means
        unbounded.  When a put pushes the total over budget, the least
        recently *used* entries are evicted — job payloads before
        science results (jobs are cheap to lose: they re-derive from
        science), oldest access first — until the cache fits.  The
        entry just written is never evicted by its own put.
    """

    def __init__(self, root: Union[str, Path], shards: int = 16,
                 max_bytes: Optional[int] = None):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        super().__init__(root)
        self.shards = int(shards)
        self.max_bytes = max_bytes
        self._evict_lock = threading.Lock()

    def __getstate__(self) -> Dict[str, Any]:
        state = super().__getstate__()
        del state["_evict_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        super().__setstate__(state)
        self._evict_lock = threading.Lock()

    # -- layout --------------------------------------------------------
    def _shard(self, key: str) -> str:
        return f"shard-{int(key[:8], 16) % self.shards:03d}"

    # -- LRU recency ---------------------------------------------------
    def _touch(self, path: Path) -> None:
        try:
            os.utime(path)
        except OSError:  # raced with an eviction: recency is best-effort
            pass

    # -- size-capped eviction ------------------------------------------
    def _entries_by_recency(self) -> List[Tuple[int, Path]]:
        """(size, path) for every entry — jobs before science, LRU-first
        within each kind (ties broken by path for determinism)."""
        ranked: List[Tuple[int, float, str, int, Path]] = []
        for rank, kind in enumerate(("jobs", "science")):
            base = self.root / kind
            if not base.is_dir():
                continue
            for path in base.glob("*/*.pkl"):
                try:
                    st = path.stat()
                except OSError:
                    continue
                ranked.append((rank, st.st_mtime, str(path), st.st_size, path))
        ranked.sort(key=lambda t: t[:3])
        return [(size, path) for _, _, _, size, path in ranked]

    def _after_store(self, path: Path) -> None:
        if self.max_bytes is None:
            return
        with self._evict_lock:
            entries = self._entries_by_recency()
            total = sum(size for size, _ in entries)
            if total <= self.max_bytes:
                return
            for size, victim in entries:
                if victim == path:
                    continue  # never evict the entry just written
                try:
                    victim.unlink()
                except OSError:
                    continue
                self._bump("evictions")
                total -= size
                if total <= self.max_bytes:
                    break
