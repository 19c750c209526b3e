"""The Fx data-parallel Airshed.

Two execution modes over the same phase structure:

* :class:`DataParallelAirshed` — **live**: the real numerics execute on
  the simulated cluster through distributed arrays (owner-computes), so
  the result can be compared bitwise against the sequential reference
  while the per-node clocks record the parallel timing.
* :func:`replay_data_parallel` — **replay**: charges a recorded
  :class:`~repro.model.results.WorkloadTrace` onto the cluster without
  re-running numerics.  Exact same timing, ~1000x faster; this is what
  the figure-regeneration benchmarks sweep over machines and node
  counts.

Distribution sequence per main-loop step (paper Section 2.2)::

    D_Repl -> D_Trans   (copy only; before the first transport)
    D_Trans -> D_Chem   (before chemistry)
    D_Chem -> D_Repl    (the aerosol step needs assembled data)
    D_Repl -> D_Trans   (before the second transport)

with a final ``D_Trans -> D_Repl`` before ``outputhour``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fx.darray import DistributedArray
from repro.fx.distribution import Distribution
from repro.fx.runtime import FxRuntime, dist_label
from repro.io.hourly import inputhour, outputhour, pretrans
from repro.model.config import AirshedConfig
from repro.model.physics import AirshedPhysics
from repro.model.results import AirshedResult, HourTrace, StepTrace, WorkloadTrace
from repro.model.sequential import TRACKED_SPECIES
from repro.observe.tracer import Tracer
from repro.vm.cluster import Subgroup
from repro.vm.machine import MachineSpec
from repro.vm.transferbatch import TransferBatch

__all__ = [
    "D_REPL",
    "D_TRANS",
    "D_CHEM",
    "declare_airshed_phases",
    "ParallelTiming",
    "DataParallelAirshed",
    "HourReplayer",
    "replay_data_parallel",
]

#: The three distributions of the concentration array A(species,layers,nodes).
D_REPL = Distribution.replicated(3)
D_TRANS = Distribution.block(3, 1)
D_CHEM = Distribution.block(3, 2)


def declare_airshed_phases(rt: FxRuntime) -> None:
    """Register the main-loop phases' declared read/write sets.

    These are the data-access declarations the Fx compiler would derive
    from the source; ``repro.analyze`` mirrors them when checking the
    phase sequence.  Declaration only — execution is unaffected.
    """
    rt.declare_phase("io:inputhour", reads={"hourly_inputs"},
                     writes={"conditions", "operators"})
    rt.declare_phase("io:pretrans", reads={"conditions"}, writes={"operators"})
    rt.declare_phase("transport", reads={"conc", "operators", "conditions"},
                     writes={"conc"})
    rt.declare_phase("chemistry", reads={"conc", "conditions"}, writes={"conc"})
    rt.declare_phase("aerosol", reads={"conc"}, writes={"conc"})
    rt.declare_phase("io:outputhour", reads={"conc"}, writes={"output_files"})


@dataclass
class ParallelTiming:
    """Timing summary of one parallel run (live or replay)."""

    machine: str
    nprocs: int
    total_time: float
    breakdown: Dict[str, float]
    comm_by_step: Dict[str, float]
    comm_steps: int

    def component(self, name: str) -> float:
        return self.breakdown.get(name, 0.0)


#: Gather batches keyed by (layout, itemsize, dst_rank); layouts are
#: themselves cached and immutable, so the batch is a pure function of
#: the key.  ``None`` marks an empty gather.
_GATHER_BATCH_CACHE: Dict[tuple, Optional["TransferBatch"]] = {}


def _gather_batch(
    layout, itemsize: int, size: int, dst_rank: int
) -> Optional["TransferBatch"]:
    key = (layout, int(itemsize), int(dst_rank))
    try:
        return _GATHER_BATCH_CACHE[key]
    except KeyError:
        pass
    sizes = np.array(
        [layout.local_nbytes(rank, itemsize) for rank in range(size)],
        dtype=np.int64,
    )
    src = np.flatnonzero(sizes)
    batch = (
        TransferBatch(src, np.full(src.size, dst_rank), sizes[src])
        if src.size
        else None
    )
    _GATHER_BATCH_CACHE[key] = batch
    return batch


def charge_output_gather(
    array: DistributedArray,
    dst_rank: int = 0,
    label: str = "gather:outputhour",
) -> None:
    """Charge the copy-out of a distributed array to one node.

    ``outputhour`` runs sequentially on the I/O node, which needs the
    whole concentration array; each owner ships its block there once.
    Unlike a redistribution the array's live distribution is unchanged
    (the I/O node reads a snapshot), so this is receiver-bound and far
    cheaper than the all-gather ``D_Chem->D_Repl`` step.  The batched
    transfer set is memoized per (layout, itemsize, destination).
    """
    layout = array.layout
    if layout.is_replicated:
        return  # the I/O node already holds everything
    batch = _gather_batch(layout, array.itemsize, array.group.size, dst_rank)
    if batch is not None:
        array.group.charge_communication(label, batch)


def _timing_from_runtime(rt: FxRuntime) -> ParallelTiming:
    # All aggregates come from the observability event stream; the
    # totals mirror the timeline's records exactly.
    comm = {
        name: secs
        for (kind, name), secs in rt.tracer.phase_totals.items()
        if kind == "comm"
    }
    return ParallelTiming(
        machine=rt.machine.name,
        nprocs=rt.nprocs,
        total_time=rt.time(),
        breakdown=rt.breakdown(),
        comm_by_step=comm,
        comm_steps=int(rt.tracer.counters.value("phases:comm")),
    )


# ---------------------------------------------------------------------------
# live execution
# ---------------------------------------------------------------------------
class DataParallelAirshed:
    """Execute the Airshed model on the simulated cluster, for real."""

    def __init__(
        self,
        config: AirshedConfig,
        machine: MachineSpec,
        nprocs: int,
        tracer: Optional[Tracer] = None,
    ):
        self.config = config
        self.physics = AirshedPhysics(config)
        self.runtime = FxRuntime(machine, nprocs, tracer=tracer)
        declare_airshed_phases(self.runtime)

    def run(self) -> Tuple[AirshedResult, ParallelTiming]:
        try:
            return self._run()
        finally:
            self.physics.close()

    def _run(self) -> Tuple[AirshedResult, ParallelTiming]:
        cfg = self.config
        ds = cfg.dataset
        phys = self.physics
        rt = self.runtime
        mech = ds.mechanism

        conc = rt.darray("conc", cfg.starting_concentrations(), D_REPL)
        trace = WorkloadTrace(dataset_name=ds.name, shape=ds.shape)
        hourly_mean: Dict[str, List[float]] = {s: [] for s in TRACKED_SPECIES}

        for h_idx in range(cfg.hours):
            hour = cfg.hour_of_day(h_idx)

            with rt.span(f"hour:{hour:02d}", kind="hour", hour=hour):
                # I/O processing is sequential: every node waits (this is
                # the bottleneck task parallelism later removes).
                inres = inputhour(ds, hour)
                conditions = inres.conditions
                nsteps, dt = phys.hour_steps(hour)
                operators, pre_ops = pretrans(ds, phys.transport, hour, dt / 2.0)
                rt.sequential_io("inputhour", inres.nbytes, ops=inres.ops)
                rt.sequential_io("pretrans", 0.0, ops=pre_ops)

                steps: List[StepTrace] = []
                for j in range(nsteps):
                    with rt.span(f"step:{j}", kind="step", index=j):
                        t1 = self._transport_phase(conc, operators, conditions)
                        chem_ops = self._chemistry_phase(conc, conditions, dt)
                        aero_ops = self._aerosol_phase(conc)
                        t2 = self._transport_phase(conc, operators, conditions)
                    steps.append(
                        StepTrace(
                            transport1_ops=t1,
                            chemistry_ops=chem_ops,
                            aerosol_ops=aero_ops,
                            transport2_ops=t2,
                        )
                    )

                charge_output_gather(conc)
                _, out_bytes, out_ops = outputhour(hour, conc.data)
                rt.sequential_io("outputhour", out_bytes, ops=out_ops)

            trace.hours.append(
                HourTrace(
                    hour=hour,
                    input_bytes=inres.nbytes,
                    input_ops=inres.ops,
                    pretrans_ops=pre_ops,
                    nsteps=nsteps,
                    steps=steps,
                    output_bytes=out_bytes,
                    output_ops=out_ops,
                )
            )
            for s in TRACKED_SPECIES:
                hourly_mean[s].append(float(conc.data[mech.index[s]].mean()))

        result = AirshedResult(
            trace=trace, final_conc=conc.data.copy(), hourly_mean=hourly_mean
        )
        return result, _timing_from_runtime(rt)

    # ------------------------------------------------------------------
    def _transport_phase(self, conc, operators, conditions) -> np.ndarray:
        rt = self.runtime
        phys = self.physics
        layers = self.config.dataset.layers
        ops_by_layer = np.zeros(layers)

        rt.redistribute(conc, D_TRANS)

        def kernel(local: np.ndarray, layer_ids: np.ndarray, rank: int) -> float:
            total = 0.0
            for i, layer in enumerate(layer_ids):
                local[:, i, :], ops = phys.transport_layer(
                    local[:, i, :], operators[layer], conditions.boundary
                )
                ops_by_layer[layer] = ops
                total += ops
            return total

        rt.parallel_do(conc, "transport", kernel)
        return ops_by_layer

    def _chemistry_phase(self, conc, conditions, dt) -> np.ndarray:
        rt = self.runtime
        phys = self.physics
        npoints = self.config.dataset.npoints
        ops_by_point = np.zeros(npoints)

        rt.redistribute(conc, D_CHEM)

        def kernel(local: np.ndarray, point_ids: np.ndarray, rank: int) -> float:
            out, per_point = phys.chemistry_columns(
                local, conditions, dt, point_indices=point_ids
            )
            local[...] = out
            ops_by_point[point_ids] = per_point
            return float(per_point.sum())

        rt.parallel_do(conc, "chemistry", kernel)
        return ops_by_point

    def _aerosol_phase(self, conc) -> float:
        rt = self.runtime
        rt.redistribute(conc, D_REPL)
        holder: Dict[str, float] = {}

        def kernel(data: np.ndarray) -> float:
            holder["ops"] = self.physics.aerosol_step(data)
            return holder["ops"]

        rt.replicated_do(conc, "aerosol", kernel)
        return holder["ops"]


# ---------------------------------------------------------------------------
# trace replay
# ---------------------------------------------------------------------------
class HourReplayer:
    """Charges one hour's main-loop work onto a processor subgroup.

    Shared by the data-parallel replay (subgroup = whole machine) and
    the task-parallel replay (subgroup = the compute stage).
    """

    def __init__(self, group: Subgroup, trace: WorkloadTrace, name: str = "conc"):
        self.group = group
        self.trace = trace
        self.array = DistributedArray(
            name, np.zeros(trace.shape), D_REPL, group
        )
        # The main loop cycles through exactly four (src, dst)
        # distribution pairs; label, plan and batch are pure functions
        # of the pair, so they are resolved once and replayed from here.
        self._to_cache: Dict[tuple, tuple] = {}
        # Per-layout ownership selectors for the compute charges.
        self._seg_cache: Dict[object, list] = {}

    def _to(self, dist: Distribution) -> None:
        key = (self.array.distribution, dist)
        cached = self._to_cache.get(key)
        if cached is None:
            label = f"{dist_label(key[0])}->{dist_label(dist)}"
            plan = self.array.set_distribution(dist)
            batch = None if plan.is_empty() else plan.batch
            self._to_cache[key] = (label, batch)
        else:
            label, batch = cached
            self.array.set_distribution(dist)
        if batch is not None:
            self.group.charge_communication(label, batch)

    def gather_output(self, dst_rank: int = 0) -> None:
        charge_output_gather(self.array, dst_rank=dst_rank)

    def _charge_distributed(self, name: str, ops_per_index: np.ndarray) -> None:
        layout = self.array.layout
        segs = self._seg_cache.get(layout)
        if segs is None:
            segs = [self.array.local_indices(r) for r in range(self.group.size)]
            self._seg_cache[layout] = segs
        ops_by_rank = {}
        for rank, idx in enumerate(segs):
            ops_by_rank[rank] = float(ops_per_index[idx].sum()) if idx.size else 0.0
        self.group.charge_compute(name, ops_by_rank)

    def run_hour(self, hour: HourTrace, gather: bool = True) -> None:
        """Replay the compute/communication phases of one hour.

        ``gather=True`` charges the end-of-hour gather of the
        concentration array onto the output-processing node (the array's
        *distribution* stays ``D_Trans``; ``outputhour`` reads a copy).
        The pipelined task-parallel driver passes ``gather=False`` — the
        inter-stage handoff is the gather there.
        """
        tracer = self.group.cluster.tracer
        for j, step in enumerate(hour.steps):
            with tracer.span(
                f"step:{j}", kind="step", clock=self.group.time, index=j
            ):
                self._to(D_TRANS)
                self._charge_distributed("transport", step.transport1_ops)
                self._to(D_CHEM)
                self._charge_distributed("chemistry", step.chemistry_ops)
                self._to(D_REPL)
                self.group.charge_replicated_compute("aerosol", step.aerosol_ops)
                self._to(D_TRANS)
                self._charge_distributed("transport", step.transport2_ops)
        if gather:
            self.gather_output()


def replay_data_parallel(
    trace: WorkloadTrace,
    machine: MachineSpec,
    nprocs: int,
    tracer: Optional[Tracer] = None,
) -> ParallelTiming:
    """Simulate the data-parallel Airshed from a recorded trace.

    Pass a fresh :class:`~repro.observe.tracer.Tracer` to capture the
    run's span stream (for ``repro trace`` export and the
    predicted-vs-observed overlay).
    """
    rt = FxRuntime(machine, nprocs, tracer=tracer)
    declare_airshed_phases(rt)
    replayer = HourReplayer(rt.world, trace)
    for hour in trace.hours:
        with rt.span(f"hour:{hour.hour:02d}", kind="hour", hour=hour.hour):
            rt.sequential_io("inputhour", hour.input_bytes, ops=hour.input_ops)
            rt.sequential_io("pretrans", 0.0, ops=hour.pretrans_ops)
            replayer.run_hour(hour)
            rt.sequential_io("outputhour", hour.output_bytes, ops=hour.output_ops)
    return _timing_from_runtime(rt)
