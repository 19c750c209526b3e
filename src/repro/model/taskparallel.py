"""The task+data-parallel Airshed (Section 5, Figures 8 and 9).

The pure data-parallel version stalls every node during the sequential
I/O processing.  The task-parallel version splits the machine into three
pipelined task groups::

    Processing Inputs     Transport/Chemistry      Processing Outputs
       hour i+1        |       hour i          |       hour i-1
      (1 node)         |    (P - 2 nodes)      |      (1 node)

While the main computation runs hour ``i``, the input subgroup reads and
preprocesses hour ``i+1`` and the output subgroup processes and writes
hour ``i-1``.  The main loop itself is unchanged — it just runs on two
fewer nodes — so for small P the pipeline loses a little and for large P
it wins big (the paper reports ~25% on 64 Paragon nodes).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fx.runtime import FxRuntime
from repro.fx.tasks import PipelineStage
from repro.model.config import AirshedConfig
from repro.model.dataparallel import (
    D_CHEM,
    D_REPL,
    D_TRANS,
    HourReplayer,
    ParallelTiming,
    _timing_from_runtime,
)
from repro.model.physics import AirshedPhysics
from repro.model.results import AirshedResult, HourTrace, StepTrace, WorkloadTrace
from repro.model.sequential import TRACKED_SPECIES
from repro.observe.tracer import Tracer
from repro.vm.machine import MachineSpec

__all__ = [
    "STAGE_IO",
    "replay_task_parallel",
    "replay_best_configuration",
    "TaskParallelAirshed",
]

#: Declared per-item data-access sets of the three pipeline stages — the
#: Fx task-region input/output declarations of Section 5.  Both the
#: replay and the live driver attach these to their
#: :class:`~repro.fx.tasks.PipelineStage` objects, and
#: ``repro.analyze`` mirrors them when building the stage x item task
#: graph.  ``handoff`` names the variables whose per-item ownership
#: passes to the next stage with the inter-stage transfer.
STAGE_IO: Dict[str, Dict[str, frozenset]] = {
    "input": dict(
        reads=frozenset({"hourly_inputs"}),
        writes=frozenset({"prepared"}),
        handoff=frozenset({"prepared"}),
    ),
    "main": dict(
        reads=frozenset({"prepared", "conc"}),
        writes=frozenset({"conc", "snapshot"}),
        handoff=frozenset({"snapshot"}),
    ),
    "output": dict(
        reads=frozenset({"snapshot"}),
        writes=frozenset({"output_files"}),
        handoff=frozenset(),
    ),
}


def replay_task_parallel(
    trace: WorkloadTrace,
    machine: MachineSpec,
    nprocs: int,
    io_nodes: int = 1,
    tracer: Optional[Tracer] = None,
) -> ParallelTiming:
    """Simulate the pipelined task-parallel Airshed from a trace.

    ``io_nodes`` nodes are dedicated to each of the input and output
    stages (1 in the paper); the remaining ``nprocs - 2*io_nodes`` nodes
    run the main computation.  Pass a fresh
    :class:`~repro.observe.tracer.Tracer` to capture the span stream;
    stage regions use their subgroup's own simulated clock.
    """
    if io_nodes < 1:
        raise ValueError("io_nodes must be >= 1")
    main_nodes = nprocs - 2 * io_nodes
    if main_nodes < 1:
        raise ValueError(
            f"task parallelism needs at least {2 * io_nodes + 1} nodes; got {nprocs}"
        )

    rt = FxRuntime(machine, nprocs, tracer=tracer)
    in_grp, main_grp, out_grp = rt.split([io_nodes, main_nodes, io_nodes])
    replayer = HourReplayer(main_grp, trace)

    hours = trace.hours
    array_bytes = int(np.prod(trace.shape)) * machine.wordsize

    def run_input(i: int) -> None:
        h = hours[i]
        # The input task also performs the pre-transport setup for the
        # hour it is feeding to the main computation.
        with rt.tracer.span(f"input:{i}", kind="stage", clock=in_grp.time, item=i):
            in_grp.charge_io("io:inputhour", h.input_bytes, ops=h.input_ops)
            in_grp.charge_io("io:pretrans", 0.0, ops=h.pretrans_ops)

    def run_main(i: int) -> None:
        # The pipeline handoff to the output stage is the gather.
        with rt.tracer.span(f"main:{i}", kind="stage", clock=main_grp.time, item=i):
            replayer.run_hour(hours[i], gather=False)

    def run_output(i: int) -> None:
        h = hours[i]
        with rt.tracer.span(f"output:{i}", kind="stage", clock=out_grp.time, item=i):
            out_grp.charge_io("io:outputhour", h.output_bytes, ops=h.output_ops)

    stages = [
        PipelineStage(
            name="input",
            group=in_grp,
            run=run_input,
            output_bytes=lambda i: hours[i].input_bytes,
            **STAGE_IO["input"],
        ),
        PipelineStage(
            name="main",
            group=main_grp,
            run=run_main,
            output_bytes=lambda i: array_bytes,
            **STAGE_IO["main"],
        ),
        PipelineStage(name="output", group=out_grp, run=run_output,
                      **STAGE_IO["output"]),
    ]
    rt.pipeline(stages).execute(len(hours))
    return _timing_from_runtime(rt)


def replay_best_configuration(
    trace: WorkloadTrace,
    machine: MachineSpec,
    nprocs: int,
    io_candidates=(1, 2, 4),
):
    """Optimal-mapping variant (Subhlok & Vondran, cited in Section 5).

    Tries the pure data-parallel configuration and pipelined
    configurations with each candidate I/O-node count, and returns
    ``(mode, timing)`` for the fastest — so dedicating nodes to I/O
    only happens when it actually pays (on small machines it does not,
    which is why the paper's Figure 9 curves coincide at small P).
    """
    from repro.model.dataparallel import replay_data_parallel

    best_mode = "data-parallel"
    best = replay_data_parallel(trace, machine, nprocs)
    for io_nodes in io_candidates:
        if nprocs - 2 * io_nodes < 1:
            continue
        timing = replay_task_parallel(trace, machine, nprocs, io_nodes=io_nodes)
        if timing.total_time < best.total_time:
            best = timing
            best_mode = f"pipelined(io={io_nodes})"
    return best_mode, best


class TaskParallelAirshed:
    """Live pipelined execution: real numerics, three task groups.

    The numerics are identical to the sequential/data-parallel drivers
    (the main loop runs hour-by-hour on the compute subgroup); what the
    pipeline changes is *when* each stage's simulated time is charged:
    the input task reads hour ``i+1`` while the main computation runs
    hour ``i`` and the output task writes hour ``i-1``.  Real data flows
    between the stages through the pipeline closures — the input stage
    genuinely parses the hourly record the main stage consumes.
    """

    def __init__(self, config: AirshedConfig, machine: MachineSpec,
                 nprocs: int, io_nodes: int = 1,
                 tracer: Optional[Tracer] = None):
        if io_nodes < 1:
            raise ValueError("io_nodes must be >= 1")
        if nprocs - 2 * io_nodes < 1:
            raise ValueError(
                f"need at least {2 * io_nodes + 1} nodes; got {nprocs}"
            )
        self.config = config
        self.physics = AirshedPhysics(config)
        self.runtime = FxRuntime(machine, nprocs, tracer=tracer)
        self.in_grp, self.main_grp, self.out_grp = self.runtime.split(
            [io_nodes, nprocs - 2 * io_nodes, io_nodes]
        )

    def run(self) -> Tuple[AirshedResult, ParallelTiming]:
        try:
            return self._run()
        finally:
            self.physics.close()

    def _run(self) -> Tuple[AirshedResult, ParallelTiming]:
        from repro.io.hourly import inputhour, outputhour, pretrans

        cfg = self.config
        ds = cfg.dataset
        phys = self.physics
        rt = self.runtime
        mech = ds.mechanism

        conc = rt.darray("conc", cfg.starting_concentrations(), D_REPL,
                         group=self.main_grp)
        trace = WorkloadTrace(dataset_name=ds.name, shape=ds.shape)
        hourly_mean: Dict[str, List[float]] = {s: [] for s in TRACKED_SPECIES}

        # Cross-stage mailboxes (the "variables mapped onto tasks").
        prepared: Dict[int, tuple] = {}   # input -> main
        snapshots: Dict[int, tuple] = {}  # main -> output
        hour_traces: Dict[int, dict] = {}
        array_bytes = conc.nbytes

        def run_input(i: int) -> None:
            hour = cfg.hour_of_day(i)
            inres = inputhour(ds, hour)
            nsteps, dt = phys.hour_steps(hour)
            operators, pre_ops = pretrans(ds, phys.transport, hour, dt / 2.0)
            with rt.tracer.span(
                f"input:{i}", kind="stage", clock=self.in_grp.time, item=i
            ):
                self.in_grp.charge_io("io:inputhour", inres.nbytes, ops=inres.ops)
                self.in_grp.charge_io("io:pretrans", 0.0, ops=pre_ops)
            prepared[i] = (inres, operators, nsteps, dt)
            hour_traces[i] = {
                "input_bytes": inres.nbytes, "input_ops": inres.ops,
                "pretrans_ops": pre_ops,
            }

        def run_main(i: int) -> None:
            inres, operators, nsteps, dt = prepared.pop(i)
            conditions = inres.conditions
            steps: List[StepTrace] = []
            with rt.tracer.span(
                f"main:{i}", kind="stage", clock=self.main_grp.time, item=i
            ):
                for _ in range(nsteps):
                    t1 = self._transport_phase(conc, operators, conditions)
                    chem = self._chemistry_phase(conc, conditions, dt)
                    aero = self._aerosol_phase(conc)
                    t2 = self._transport_phase(conc, operators, conditions)
                    steps.append(StepTrace(
                        transport1_ops=t1, chemistry_ops=chem,
                        aerosol_ops=aero, transport2_ops=t2,
                    ))
            snapshots[i] = (conditions.hour, conc.data.copy())
            hour_traces[i]["nsteps"] = nsteps
            hour_traces[i]["steps"] = steps
            for s in TRACKED_SPECIES:
                hourly_mean[s].append(float(conc.data[mech.index[s]].mean()))

        def run_output(i: int) -> None:
            hour, snapshot = snapshots.pop(i)
            _, out_bytes, out_ops = outputhour(hour, snapshot)
            with rt.tracer.span(
                f"output:{i}", kind="stage", clock=self.out_grp.time, item=i
            ):
                self.out_grp.charge_io("io:outputhour", out_bytes, ops=out_ops)
            h = hour_traces.pop(i)
            trace.hours.append(HourTrace(
                hour=hour,
                input_bytes=h["input_bytes"], input_ops=h["input_ops"],
                pretrans_ops=h["pretrans_ops"], nsteps=h["nsteps"],
                steps=h["steps"], output_bytes=out_bytes, output_ops=out_ops,
            ))

        stages = [
            PipelineStage(
                "input", self.in_grp, run_input,
                output_bytes=lambda i: prepared[i][0].nbytes,
                **STAGE_IO["input"],
            ),
            PipelineStage(
                "main", self.main_grp, run_main,
                output_bytes=lambda i: array_bytes,
                **STAGE_IO["main"],
            ),
            PipelineStage("output", self.out_grp, run_output,
                          **STAGE_IO["output"]),
        ]
        rt.pipeline(stages).execute(cfg.hours)

        result = AirshedResult(
            trace=trace, final_conc=conc.data.copy(), hourly_mean=hourly_mean
        )
        return result, _timing_from_runtime(rt)

    # -- the main-loop phases, identical to DataParallelAirshed ---------
    def _transport_phase(self, conc, operators, conditions) -> np.ndarray:
        phys = self.physics
        layers = self.config.dataset.layers
        ops_by_layer = np.zeros(layers)
        self.runtime.redistribute(conc, D_TRANS)

        def kernel(local, layer_ids, rank):
            total = 0.0
            for k, layer in enumerate(layer_ids):
                local[:, k, :], ops = phys.transport_layer(
                    local[:, k, :], operators[layer], conditions.boundary
                )
                ops_by_layer[layer] = ops
                total += ops
            return total

        self.runtime.parallel_do(conc, "transport", kernel)
        return ops_by_layer

    def _chemistry_phase(self, conc, conditions, dt) -> np.ndarray:
        phys = self.physics
        npoints = self.config.dataset.npoints
        ops_by_point = np.zeros(npoints)
        self.runtime.redistribute(conc, D_CHEM)

        def kernel(local, point_ids, rank):
            out, per_point = phys.chemistry_columns(
                local, conditions, dt, point_indices=point_ids
            )
            local[...] = out
            ops_by_point[point_ids] = per_point
            return float(per_point.sum())

        self.runtime.parallel_do(conc, "chemistry", kernel)
        return ops_by_point

    def _aerosol_phase(self, conc) -> float:
        self.runtime.redistribute(conc, D_REPL)
        holder: Dict[str, float] = {}

        def kernel(data):
            holder["ops"] = self.physics.aerosol_step(data)
            return holder["ops"]

        self.runtime.replicated_do(conc, "aerosol", kernel)
        return holder["ops"]
