"""Content-addressed result cache behaviour."""

import pickle
import threading

import pytest

from repro.sched import JobSpec, ResultCache


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _payload(spec, **extra):
    return {"spec": spec.to_dict(), "science_key": spec.science_key,
            "status": "ok", **extra}


class TestScience:
    def test_roundtrip(self, cache):
        cache.put_science("aa" * 32, {"x": 1})
        assert cache.get_science("aa" * 32) == {"x": 1}

    def test_miss(self, cache):
        assert cache.get_science("bb" * 32) is None

    def test_corrupt_entry_is_a_removed_miss(self, cache):
        key = "cc" * 32
        cache.put_science(key, {"x": 1})
        cache.science_path(key).write_bytes(b"not a pickle")
        assert cache.get_science(key) is None
        assert not cache.science_path(key).is_file()

    def test_overwrite_is_atomic_no_leftover_tmp(self, cache):
        key = "dd" * 32
        cache.put_science(key, {"x": 1})
        cache.put_science(key, {"x": 2})
        assert cache.get_science(key) == {"x": 2}
        leftovers = [p for p in cache.science_path(key).parent.iterdir()
                     if ".tmp." in p.name]
        assert leftovers == []

    def test_concurrent_puts_of_one_key_never_interleave(self, cache,
                                                        monkeypatch):
        """Each writer has its own temp file until the atomic replace.

        The first writer stalls halfway through its pickle while a
        second writer puts a different payload under the same key; the
        entry must end up holding one of the two payloads intact.
        """
        key = "ee" * 32
        first, second = b"a" * 4096, b"b" * 4096
        half_written = threading.Event()
        release = threading.Event()
        real_dump = pickle.dump

        def stalling_dump(obj, fh, protocol=None):
            if obj is not first:
                return real_dump(obj, fh, protocol=protocol)
            data = pickle.dumps(obj, protocol=protocol)
            fh.write(data[:len(data) // 2])
            fh.flush()
            half_written.set()
            release.wait(timeout=30)
            fh.write(data[len(data) // 2:])

        monkeypatch.setattr(pickle, "dump", stalling_dump)
        errors = []

        def put_first():
            try:
                cache.put_science(key, first)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        writer = threading.Thread(target=put_first)
        writer.start()
        assert half_written.wait(timeout=30)
        cache.put_science(key, second)
        release.set()
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert errors == []
        assert cache.get_science(key) in (first, second)


class TestJobs:
    def test_roundtrip_resolves_science(self, cache):
        spec = JobSpec()
        cache.put_science(spec.science_key, {"conc": 42})
        cache.put_job(spec.key, _payload(spec))
        got = cache.get_job(spec.key)
        assert got["result"] == {"conc": 42}
        assert got["science_key"] == spec.science_key

    def test_payload_never_duplicates_the_result(self, cache):
        spec = JobSpec()
        cache.put_science(spec.science_key, {"conc": 42})
        cache.put_job(spec.key, _payload(spec, result={"conc": 42}))
        with cache.job_path(spec.key).open("rb") as fh:
            on_disk = pickle.load(fh)
        assert "result" not in on_disk

    def test_requires_science_key(self, cache):
        with pytest.raises(ValueError):
            cache.put_job("ee" * 32, {"status": "ok"})

    def test_evicted_science_invalidates_job(self, cache):
        spec = JobSpec()
        cache.put_science(spec.science_key, {"conc": 42})
        cache.put_job(spec.key, _payload(spec))
        cache.science_path(spec.science_key).unlink()
        assert cache.get_job(spec.key) is None
        assert not cache.job_path(spec.key).is_file()

    def test_iter_jobs(self, cache):
        assert list(cache.iter_jobs()) == []
        for hours in (1, 2, 3):
            spec = JobSpec(hours=hours)
            cache.put_science(spec.science_key, {})
            cache.put_job(spec.key, _payload(spec))
        assert len(list(cache.iter_jobs())) == 3


class TestScratch:
    def test_scratch_dir_creates_and_clears(self, cache):
        d = cache.scratch_dir("ff" * 32)
        (d / "part_000.pkl").write_bytes(b"x")
        cache.clear_scratch("ff" * 32)
        assert not d.exists()

    def test_clear_missing_scratch_is_noop(self, cache):
        cache.clear_scratch("00" * 32)


class TestStatsAndCounters:
    def test_hit_miss_corrupt_tallies(self, cache):
        key = "ee" * 32
        assert cache.get_science(key) is None          # miss
        cache.put_science(key, {"x": 1})
        assert cache.get_science(key) == {"x": 1}      # hit
        cache.science_path(key).write_bytes(b"rot")
        assert cache.get_science(key) is None          # corrupt -> miss
        counters = cache.stats()["counters"]
        assert counters["hits"] == 1
        assert counters["misses"] == 2
        assert counters["corrupt_entries"] == 1

    def test_stats_reports_shard_occupancy(self, cache):
        spec = JobSpec(dataset="demo", hours=1)
        cache.put_science(spec.science_key, {"x": 1})
        cache.put_job(spec.key, _payload(spec))
        stats = cache.stats()
        assert stats["total_entries"] == 2
        assert stats["total_bytes"] > 0
        assert stats["kinds"]["science"]["entries"] == 1
        assert stats["kinds"]["jobs"]["entries"] == 1
        # plain cache shards are the key[:2] fan-out directories
        assert spec.science_key[:2] in stats["kinds"]["science"]["shards"]
        assert spec.key[:2] in stats["kinds"]["jobs"]["shards"]

    def test_pickled_cache_keeps_root_and_fresh_lock(self, cache):
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.root == cache.root
        clone._bump("hits")  # the recreated lock works


class TestIterJobsTolerance:
    def _store_three(self, cache):
        specs = [JobSpec(dataset="demo", hours=h) for h in (1, 2, 3)]
        for spec in specs:
            cache.put_job(spec.key, _payload(spec))
        return specs

    def test_corrupt_entry_skipped_not_deleted(self, cache):
        specs = self._store_three(cache)
        victim = cache.job_path(specs[0].key)
        victim.write_bytes(b"definitely not a pickle")
        rows = list(cache.iter_jobs())
        assert len(rows) == 2
        assert victim.is_file()  # a status scan never deletes
        assert cache.stats()["counters"]["corrupt_entries"] == 1

    def test_non_dict_payload_counts_as_corrupt(self, cache):
        specs = self._store_three(cache)
        with cache.job_path(specs[1].key).open("wb") as fh:
            pickle.dump(["not", "a", "payload"], fh)
        rows = list(cache.iter_jobs())
        assert len(rows) == 2
        assert cache.stats()["counters"]["corrupt_entries"] == 1


class TestShardedCache:
    def test_fixed_shard_layout(self, tmp_path):
        from repro.sched import ShardedResultCache

        cache = ShardedResultCache(tmp_path / "c", shards=4)
        spec = JobSpec(dataset="demo", hours=1)
        cache.put_science(spec.science_key, {"x": 1})
        shard = int(spec.science_key[:8], 16) % 4
        assert (tmp_path / "c" / "science" / f"shard-{shard:03d}"
                / f"{spec.science_key}.pkl").is_file()
        stats = cache.stats()
        assert list(stats["kinds"]["science"]["shards"]) == [
            f"shard-{shard:03d}"
        ]

    def test_validation(self, tmp_path):
        from repro.sched import ShardedResultCache

        with pytest.raises(ValueError):
            ShardedResultCache(tmp_path / "c", shards=0)
        with pytest.raises(ValueError):
            ShardedResultCache(tmp_path / "c", max_bytes=0)

    def test_size_cap_evicts_lru_jobs_before_science(self, tmp_path):
        from repro.sched import ShardedResultCache

        cache = ShardedResultCache(tmp_path / "c", shards=2,
                                   max_bytes=1)  # everything over budget
        specs = [JobSpec(dataset="demo", hours=h) for h in (1, 2)]
        cache.put_science(specs[0].science_key, {"x": 1})
        cache.put_job(specs[0].key, _payload(specs[0]))
        # the put that overflows evicts older entries, never itself
        assert cache.job_path(specs[0].key).is_file()
        assert not cache.science_path(specs[0].science_key).is_file()
        assert cache.stats()["counters"]["evictions"] >= 1

    def test_unbounded_sharded_cache_keeps_everything(self, tmp_path):
        from repro.sched import ShardedResultCache

        cache = ShardedResultCache(tmp_path / "c", shards=2)
        for h in (1, 2, 3):
            spec = JobSpec(dataset="demo", hours=h)
            cache.put_science(spec.science_key, {"h": h})
            cache.put_job(spec.key, _payload(spec))
        assert cache.stats()["total_entries"] == 6
        assert cache.stats()["counters"]["evictions"] == 0

    def test_reads_refresh_recency(self, tmp_path):
        import os

        from repro.sched import ShardedResultCache

        cache = ShardedResultCache(tmp_path / "c", shards=2)
        a, b = (JobSpec(dataset="demo", hours=h) for h in (1, 2))
        cache.put_science(a.science_key, {"h": 1})
        cache.put_science(b.science_key, {"h": 2})
        # age both, then touch a via a read: b becomes the LRU victim
        for spec in (a, b):
            os.utime(cache.science_path(spec.science_key), (1, 1))
        assert cache.get_science(a.science_key) == {"h": 1}
        sizes = [
            cache.science_path(s.science_key).stat().st_size
            for s in (a, b)
        ]
        cache.max_bytes = sum(sizes) - 1
        cache._after_store(cache.science_path(a.science_key))
        assert cache.science_path(a.science_key).is_file()
        assert not cache.science_path(b.science_key).is_file()

    def test_runner_integration(self, tmp_path):
        from repro.sched import CampaignRunner, ShardedResultCache
        from repro.sched import scaling_ladder

        cache = ShardedResultCache(tmp_path / "c", shards=4)
        runner = CampaignRunner(cache, workers=1, executor="inline",
                                sleep=lambda s: None)
        specs = scaling_ladder(dataset="demo", machine="t3e",
                               node_counts=(4, 16), hours=1)
        report = runner.run(specs)
        assert report.complete
        rerun = CampaignRunner(
            ShardedResultCache(tmp_path / "c", shards=4),
            workers=1, executor="inline", sleep=lambda s: None,
        ).run(specs)
        assert all(r.from_cache for r in rerun.results)
