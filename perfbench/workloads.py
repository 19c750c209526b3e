"""The benchmark's three workloads and the process that runs one of them.

Each workload is a closed loop driven by one client in one process: it
starts its next operation only when the previous one has completed.

``la_episode``
    Back-to-back sequential LA daylight episodes (06:00, 2 h,
    ``chem_workers=1``).  Chemistry and transport do the work; no vm,
    fx, sched or service code runs.  The workload for chemistry-kernel
    and time-loop changes.
``ensemble_la``
    Back-to-back batched LA ensembles (8 members, 1 h,
    ``chem_workers=nproc``).  The same chemistry on a batch working set
    of 8 x 0.98 MB, above L2, where ``la_episode``'s state fits in it;
    the only workload where ``model.batched`` and the ``TilePool`` work.
``service_mix``
    A ``CampaignService`` behind its HTTP API and one ``ServiceClient``:
    each cycle submits a fresh 9-job ladder (one perturbed science run
    replayed on 3 machines x 3 P), then resubmits it as a second tenant
    so that every job is a cache hit.  Fresh campaigns write, hits only
    read.  The replays are where vm charging and fx planning work.

There is no replay-only workload: on a shared 2-vCPU host a sweep of
pure-Python replays ran up to 60% slower in one 20-minute window than
in another, beyond any bound the benchmark may set, while the
workloads above moved by at most 16%.

End-to-end metrics (untraced runs) derive from the run's median
operation time: an episode, an ensemble, or a service cycle (fresh campaign plus resubmission).  ``latency_p50_s`` is
that median (the fresh campaign on ``service_mix``) and
``hit_latency_p50_s`` the median resubmission; the other workloads have
no result cache on their path, so their repeat latency is the operation
latency.  ``peak_rss_mb`` covers set-up and the first operation.

Per-layer metrics (traced runs) are means per traced operation.  Every
``_s`` layer metric is the layer's share of the operation's wall time by
the rule in ``tracing.py``, so together they sum to ``observe.wall_s``;
the ``setup_`` ones are taken over the set-up instead.

The seed picks the inputs: the emission perturbation of the LA runs
and of each fresh campaign.
Outputs of the default seed are pinned in ``pins.json``; for any other
seed each run compares against an independent computation made after
the timed region.  A wrong output counts as a failed operation.

Run one workload process (``run.py`` does this)::

    PYTHONPATH=src python3 perfbench/workloads.py --workload la_episode \\
        --seed 0 --seconds 10 --trace 0 --spawned-at <time.monotonic()>
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional

import tracing

DEFAULT_SEED = 0
PINS_PATH = Path(__file__).with_name("pins.json")
#: Run state (service roots, span dumps) lives here, under the checkout.
STATE_DIR = Path(".perfbench")

#: Log-normal sigma of the seeded emission perturbation: small, so every
#: seed does nearly the same solver work.
SIGMA = 0.1
NPROC = os.cpu_count() or 1

END_TO_END_UNITS = {
    "sim_hours_per_s": "h/s",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "hit_latency_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "chemistry.integrate_s": "s",
    "chemistry.calls": "count",
    "chemistry.substeps": "count",
    "chemistry.substeps_per_s": "1/s",
    "chemistry.vertical_s": "s",
    "chemistry.aerosol_s": "s",
    "tiling.busy_frac": "ratio",
    "tiling.tasks": "count",
    "transport.solve_s": "s",
    "transport.calls": "count",
    "io.inputhour_s": "s",
    "io.pretrans_s": "s",
    "io.outputhour_s": "s",
    "model.self_s": "s",
    "datasets.build_s": "s",
    "datasets.setup_build_s": "s",
    "fx.plan_s": "s",
    "fx.setup_plan_s": "s",
    "fx.plan_calls": "count",
    "fx.plan_hit_ratio": "ratio",
    "vm.charge_comm_s": "s",
    "vm.charge_compute_s": "s",
    "vm.charge_calls": "count",
    "vm.messages": "count",
    "vm.bytes_moved": "B",
    "sched.plan_s": "s",
    "sched.execute_s": "s",
    "sched.cache_get_s": "s",
    "sched.cache_put_s": "s",
    "sched.cache_hit_ratio": "ratio",
    "sched.science_runs": "count",
    "service.journal_append_s": "s",
    "service.journal_appends": "count",
    "service.waves": "count",
    "service.queue_wait_mean_s": "s",
    "service.http_s": "s",
    "service.status_polls": "count",
    "observe.overhead_frac": "ratio",
    "observe.wall_s": "s",
    "observe.unattributed_s": "s",
    "observe.breakdown_residual_frac": "ratio",
}

#: The traced breakdown must cover each operation's wall time to this
#: share, or the traced run is reported as incorrect.
BREAKDOWN_TOLERANCE = 1e-6


def sha256(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


@dataclass
class Outcome:
    """One completed operation."""

    wall_s: float
    units: int
    failed: int
    parts: Optional[Dict[str, float]] = None


def _warm_sequential() -> None:
    """Run the demo dataset once so lazy set-up is done before timing."""
    from repro.datasets import get_dataset
    from repro.model import AirshedConfig, SequentialAirshed

    SequentialAirshed(AirshedConfig(
        dataset=get_dataset("demo"), hours=1, start_hour=6)).run()


# ---------------------------------------------------------------------------
# la_episode
# ---------------------------------------------------------------------------
class LaEpisode:
    name = "la_episode"

    def __init__(self, seed: int, short: bool, pins: Dict) -> None:
        self.seed = seed
        self.size = "short" if short else "full"
        self.hours = 1 if short else 2
        self.pin = pins.get(self.name, {}).get(self.size) \
            if seed == DEFAULT_SEED else None
        self.shas: List[str] = []

    def setup(self) -> None:
        from repro.chemistry import cfused
        from repro.datasets import get_dataset
        from repro.model import PerturbedDataset

        base = get_dataset("demo" if self.size == "short" else "la")
        self.dataset = PerturbedDataset(base, member_seed=self.seed,
                                        sigma=SIGMA)
        cfused.load()
        _warm_sequential()

    def config(self):
        from repro.model import AirshedConfig

        return AirshedConfig(dataset=self.dataset, hours=self.hours,
                             start_hour=6)

    def op(self, rec) -> Outcome:
        from repro.model import SequentialAirshed

        t0 = time.perf_counter()
        result = SequentialAirshed(self.config()).run()
        wall = time.perf_counter() - t0
        digest = sha256(result.final_conc)
        self.shas.append(digest)
        failed = int(self.pin is not None and digest != self.pin)
        return Outcome(wall, 1, failed)

    def finish(self) -> int:
        """Wrong episodes found against an independent batched run."""
        if self.pin is not None or not self.shas:
            return 0
        from repro.model import run_batched

        reference = sha256(run_batched([self.config()])[0].final_conc)
        return sum(s != reference for s in self.shas)

    def end_to_end(self, outcomes: List[Outcome]) -> Dict[str, float]:
        wall = statistics.median(o.wall_s for o in outcomes)
        return {
            "sim_hours_per_s": self.hours / wall,
            "jobs_per_s": 1.0 / wall,
            "latency_p50_s": wall,
            # No result cache on this path: a repeated episode is
            # computed again, so its latency is the episode latency.
            "hit_latency_p50_s": wall,
        }


# ---------------------------------------------------------------------------
# ensemble_la
# ---------------------------------------------------------------------------
class EnsembleLa:
    name = "ensemble_la"

    def __init__(self, seed: int, short: bool, pins: Dict) -> None:
        self.seed = seed
        self.size = "short" if short else "full"
        self.members = 2 if short else 8
        self.pins = pins.get(self.name, {}).get(self.size) \
            if seed == DEFAULT_SEED else None
        self.member_shas: List[List[str]] = []

    def setup(self) -> None:
        from repro.chemistry import cfused
        from repro.datasets import get_dataset
        from repro.model import AirshedConfig, BatchedEnsemble

        self.base = get_dataset("demo" if self.size == "short" else "la")
        cfused.load()
        BatchedEnsemble(
            AirshedConfig(dataset=get_dataset("demo"), hours=1,
                          start_hour=12, chem_workers=NPROC),
            members=2, sigma=SIGMA, seed=self.seed,
        ).run_members()

    def ensemble(self):
        from repro.model import AirshedConfig, BatchedEnsemble

        return BatchedEnsemble(
            AirshedConfig(dataset=self.base, hours=1, start_hour=12,
                          chem_workers=NPROC),
            members=self.members, sigma=SIGMA, seed=self.seed,
        )

    def op(self, rec) -> Outcome:
        t0 = time.perf_counter()
        results = self.ensemble().run_members()
        wall = time.perf_counter() - t0
        shas = [sha256(r.final_conc) for r in results]
        self.member_shas.append(shas)
        failed = 0
        if self.pins is not None:
            failed = sum(s != p for s, p in zip(shas, self.pins))
        return Outcome(wall, self.members, failed)

    def finish(self) -> int:
        """Wrong members found against one independent sequential run.

        The compared member rotates with the seed; every other member
        must at least repeat its first result in later ensembles.
        """
        if self.pins is not None or not self.member_shas:
            return 0
        from repro.model import SequentialAirshed

        index = self.seed % self.members
        config = replace(self.ensemble().member_config(index),
                         chem_workers=1)
        reference = sha256(SequentialAirshed(config).run().final_conc)
        first = self.member_shas[0]
        failed = 0
        for shas in self.member_shas:
            for i, digest in enumerate(shas):
                want = reference if i == index else first[i]
                failed += digest != want
        return failed

    def end_to_end(self, outcomes: List[Outcome]) -> Dict[str, float]:
        wall = statistics.median(o.wall_s for o in outcomes)
        return {
            "sim_hours_per_s": self.members / wall,  # member-hours
            "jobs_per_s": self.members / wall,       # member runs
            "latency_p50_s": wall,
            "hit_latency_p50_s": wall,  # no result cache on this path
        }


# ---------------------------------------------------------------------------
# service_mix
# ---------------------------------------------------------------------------
#: Completion polling: the interval is a fixed share of the time waited
#: so far, so the detection error stays that share of the latency
#: (about 2 ms on a 50 ms cache hit) without hammering the two cores
#: on long campaigns.
POLL_SHARE = 0.04
POLL_MIN_S = 0.001
POLL_MAX_S = 0.02
TERMINAL = ("done", "failed", "cancelled")


class ServiceMix:
    name = "service_mix"

    def __init__(self, seed: int, short: bool, pins: Dict) -> None:
        self.seed = seed
        self.machines = ("t3e",) if short else ("t3e", "t3d", "paragon")
        self.node_counts = (8, 32) if short else (8, 32, 128)
        self.hours = 1 if short else 2
        self.science: List = []  # (perturb seed, sha) of fresh campaigns
        self.server = self.service = None
        self.root = STATE_DIR / f"service-{os.getpid()}"

    def ladder(self, perturb_seed: int):
        from repro.sched.job import JobSpec

        return [
            JobSpec(dataset="demo", hours=self.hours, start_hour=6,
                    variant="data", machine=m, nprocs=p,
                    perturb_seed=perturb_seed, perturb_sigma=SIGMA)
            for m in self.machines for p in self.node_counts
        ]

    def perturb_seed(self, cycle: int) -> int:
        return 7_000_000 + self.seed * 10_000 + cycle

    def setup(self) -> None:
        from repro.service.client import ServiceClient
        from repro.service.daemon import CampaignService, build_http_server

        shutil.rmtree(self.root, ignore_errors=True)
        self.service = CampaignService(self.root, workers=NPROC,
                                       executor="thread")
        self.service.start()
        server = build_http_server(self.service)
        self.server_thread = threading.Thread(
            target=server.serve_forever, name="perfbench-http", daemon=True)
        self.server_thread.start()
        self.server = server
        host, port = server.server_address[:2]
        self.client = ServiceClient(f"http://{host}:{port}")
        self.cycles = 0
        self._cycle(self.perturb_seed(9_999), None)  # warm-up

    def _wait(self, cid: str):
        t0 = time.monotonic()
        polls = 0
        while True:
            polls += 1
            status = self.client.status(cid)["status"]
            if status in TERMINAL:
                return status, polls
            waited = time.monotonic() - t0
            time.sleep(min(POLL_MAX_S, max(POLL_MIN_S, POLL_SHARE * waited)))

    def _campaign(self, specs, tenant: str):
        t0 = time.perf_counter()
        cid = self.client.submit(specs, tenant=tenant)
        status, polls = self._wait(cid)
        wall = time.perf_counter() - t0
        return wall, status, polls, self.client.results(cid)

    def _service_counts(self):
        """(waves, queue-wait seconds, queue waits) the service counted."""
        snap = self.service.tracer.counters.snapshot()
        waits = [h for n, h in snap["histograms"].items()
                 if n.endswith(":queue_wait_s")]
        return (snap["counters"].get("service:waves", 0.0),
                sum(h["total"] for h in waits),
                sum(h["count"] for h in waits))

    def _cycle(self, perturb_seed: int, rec):
        specs = self.ladder(perturb_seed)
        if rec is not None:
            before = self._service_counts()
        fresh = self._campaign(specs, "fresh")
        hit = self._campaign(specs, "resubmit")
        if rec is not None:
            after = self._service_counts()
            for key, old, new in zip(("service.waves", "service.queue_wait_s",
                                      "service.queue_waits"), before, after):
                rec.count(key, new - old)
            rec.count("service.status_polls", fresh[2] + hit[2])
            rec.count("service.campaigns", 2)
        return specs, fresh, hit

    def op(self, rec) -> Outcome:
        perturb_seed = self.perturb_seed(self.cycles)
        self.cycles += 1
        specs, fresh, hit = self._cycle(perturb_seed, rec)
        fresh_wall, fresh_status, _, fresh_rows = fresh
        hit_wall, hit_status, _, hit_rows = hit
        keys = [s.key for s in specs]
        by_key = {r["key"]: r for r in fresh_rows}
        hits = {r["key"]: r for r in hit_rows}
        shas = {r.get("sha256") for r in fresh_rows}
        done = ("ok", "cached")
        failed = 0
        for key in keys:
            row, again = by_key.get(key), hits.get(key)
            failed += (fresh_status != "done" or row is None
                       or row["status"] not in done or len(shas) != 1)
            failed += (hit_status != "done" or again is None or row is None
                       or again["status"] not in done
                       or again["sha256"] != row["sha256"]
                       or again["sim_total_s"] != row["sim_total_s"])
        if len(shas) == 1:
            self.science.append((perturb_seed, shas.pop()))
        return Outcome(fresh_wall + hit_wall, 2 * len(keys), failed,
                       parts={"fresh": fresh_wall, "hit": hit_wall})

    def finish(self) -> int:
        """Check the first fresh science run against an independent run."""
        failed = 0
        if self.science:
            from repro.datasets import get_dataset
            from repro.model import (
                AirshedConfig, PerturbedDataset, SequentialAirshed)

            perturb_seed, digest = self.science[0]
            dataset = PerturbedDataset(get_dataset("demo"),
                                       member_seed=perturb_seed, sigma=SIGMA)
            reference = SequentialAirshed(AirshedConfig(
                dataset=dataset, hours=self.hours, start_hour=6)).run()
            failed = int(sha256(reference.final_conc) != digest)
        return failed

    def close(self) -> None:
        """Stop the HTTP server and the service; delete the run's root."""
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.server_thread.join()
        if self.service is not None:
            self.service.stop(compact=False)
        shutil.rmtree(self.root, ignore_errors=True)

    def end_to_end(self, outcomes: List[Outcome]) -> Dict[str, float]:
        fresh = statistics.median(o.parts["fresh"] for o in outcomes)
        hit = statistics.median(o.parts["hit"] for o in outcomes)
        jobs = outcomes[0].units
        return {
            # Science hours computed (one fresh run per cycle).
            "sim_hours_per_s": self.hours / (fresh + hit),
            "jobs_per_s": jobs / (fresh + hit),  # delivered, both tenants
            "latency_p50_s": fresh,
            "hit_latency_p50_s": hit,
        }


WORKLOADS = {w.name: w for w in (LaEpisode, EnsembleLa, ServiceMix)}


# ---------------------------------------------------------------------------
# host fingerprint
# ---------------------------------------------------------------------------
def _blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_fingerprint() -> Dict[str, object]:
    import numpy as np
    from repro.chemistry import cfused

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                      "OMP_NUM_THREADS", "MKL_NUM_THREADS")
           if k in os.environ}
    return {
        "cpu_model": cpu,
        "nproc": NPROC,
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_thread_env": env,
        "c_fused_kernel": cfused.load() is not None,
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# one workload process
# ---------------------------------------------------------------------------
def per_layer(rec: tracing.Recorder, untraced: List[float],
              traced: List[float]) -> Dict[str, float]:
    """Per-operation means of the traced layer metrics."""
    ops = [r for r in rec.roots if r[1] == "op"]
    grouped = tracing.spans_by_root(rec)
    times: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for root in ops:
        for key, value in tracing.breakdown(grouped[root[0]], root).items():
            times[key] = times.get(key, 0.0) + value
        for key, value in rec.counts[root[0]].items():
            counts[key] = counts.get(key, 0.0) + value
    n = max(len(ops), 1)
    workers = max((rec.counts[r[0]].get("tiling.workers", 0) for r in ops),
                  default=0)
    wall = sum(t1 - t0 for _, _, t0, t1 in ops)
    covered = sum(times.values())

    def c(key):
        return counts.get(key, 0.0)

    out = {name: times.get(name, 0.0) / n
           for name in PER_LAYER_UNITS if name.endswith("_s")}
    out.update({
        "chemistry.calls": c("chemistry.calls") / n,
        "chemistry.substeps": c("chemistry.substeps") / n,
        "chemistry.substeps_per_s": (
            c("chemistry.substeps") / times["chemistry.integrate_s"]
            if times.get("chemistry.integrate_s") else 0.0),
        "tiling.busy_frac": (
            c("tiling.busy_s") / (workers * times["chemistry.integrate_s"])
            if workers and times.get("chemistry.integrate_s") else 0.0),
        "tiling.tasks": c("tiling.tasks") / n,
        "transport.calls": c("transport.calls") / n,
        "fx.plan_calls": c("fx.plan_calls") / n,
        "fx.plan_hit_ratio": (c("fx.plan_hits") / c("fx.plan_calls")
                              if c("fx.plan_calls") else 0.0),
        "vm.charge_calls": c("vm.charge_calls") / n,
        "vm.messages": c("vm.messages") / n,
        "vm.bytes_moved": c("vm.bytes_moved") / n,
        "sched.cache_hit_ratio": (c("sched.cache_hits") / c("sched.cache_gets")
                                  if c("sched.cache_gets") else 0.0),
        "sched.science_runs": c("sched.science_runs") / n,
        "service.journal_appends": c("service.journal_appends") / n,
        "service.waves": c("service.waves") / n,
        "service.queue_wait_mean_s": (
            c("service.queue_wait_s") / c("service.queue_waits")
            if c("service.queue_waits") else 0.0),
        "service.status_polls": (
            c("service.status_polls") / c("service.campaigns")
            if c("service.campaigns") else 0.0),
        "observe.overhead_frac": (
            statistics.median(traced) / statistics.median(untraced) - 1.0
            if traced and untraced else 0.0),
        "observe.wall_s": wall / n,
        "observe.breakdown_residual_frac": (
            abs(covered - wall) / wall if wall else 0.0),
    })
    setup = [r for r in rec.roots if r[1] == "setup"]
    if setup:
        parts = tracing.breakdown(grouped[setup[0][0]], setup[0])
        out["datasets.setup_build_s"] = parts.get("datasets.build_s", 0.0)
        out["fx.setup_plan_s"] = parts.get("fx.plan_s", 0.0)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 short: bool, spawned_at: float, setup_only: bool) -> Dict:
    pins = json.loads(PINS_PATH.read_text())
    workload = WORKLOADS[name](seed, short, pins)
    rec = tracing.Recorder() if trace else None
    try:
        if rec is not None:
            with tracing.traced(rec), rec.op("setup"):
                workload.setup()
        else:
            workload.setup()
        setup_s = time.monotonic() - spawned_at
        if setup_only:
            return {"setup_s": setup_s}

        outcomes: List[Outcome] = []
        traced_walls: List[float] = []
        attempted = failed = 0
        # Peak resident set over set-up and the first operation, so it
        # does not depend on how many operations fit in the run.
        peak_rss_mb = None
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            # A traced run alternates untraced and traced operations,
            # so both see the same host conditions.
            traced_op = rec is not None and i % 2 == 1
            try:
                if traced_op:
                    with tracing.traced(rec), rec.op("op"):
                        outcome = workload.op(rec)
                    traced_walls.append(outcome.wall_s)
                else:
                    outcome = workload.op(None)
                    outcomes.append(outcome)
                    if peak_rss_mb is None:
                        peak_rss_mb = resource.getrusage(
                            resource.RUSAGE_SELF).ru_maxrss / 1024.0
                attempted += outcome.units
                failed += outcome.failed
            except Exception:  # noqa: BLE001 - a failed operation
                traceback.print_exc(file=sys.stderr)
                attempted += 1
                failed += 1
            i += 1
            if time.perf_counter() >= deadline and i >= (1 if rec is None
                                                          else 2):
                break
        failed += workload.finish()
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()

    result = {"setup_s": setup_s, "attempted": max(attempted, 1),
              "failed": failed, "host": host_fingerprint()}
    if rec is None:
        metrics = workload.end_to_end(outcomes) if outcomes else {}
        if peak_rss_mb is not None:
            metrics["peak_rss_mb"] = peak_rss_mb
        result["metrics"] = metrics
    else:
        metrics = per_layer(rec, [o.wall_s for o in outcomes], traced_walls)
        if metrics["observe.breakdown_residual_frac"] > BREAKDOWN_TOLERANCE:
            print("traced breakdown does not cover the wall time",
                  file=sys.stderr)
            result["failed"] += 1
        result["metrics"] = metrics
        STATE_DIR.mkdir(exist_ok=True)
        (STATE_DIR / f"spans-{name}.json").write_text(json.dumps({
            "roots": rec.roots,
            "spans": rec.spans,
            "counts": {str(k): v for k, v in rec.counts.items()},
        }))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.short, args.spawned_at,
                          args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
