"""Batched ensemble execution: N members, one chemistry sweep.

An :class:`~repro.model.ensemble.EmissionEnsemble` of N perturbed
inventories is N full simulations, yet ~97% of each is per-grid-point
chemistry and the members differ *only* in their emission factors.
:class:`BatchedEnsemble` exploits that: the member states are stacked
along the point axis into one ``(n_species, members*layers*points)``
structure-of-arrays block and integrated in a single
:meth:`~repro.chemistry.youngboris.YoungBorisSolver.integrate` call per
operator-split step, with ``member_edges`` keeping each member's BLAS
matmuls on its own columns.  Hourly transport setup (``pretrans`` wind
interpolation + SUPG factorisation) depends only on the wind field, so
it is computed once and shared by every member.

The contract is **bitwise identity**: each member's
:class:`~repro.model.results.AirshedResult` — final concentrations,
hourly means, surface snapshots and the full
:class:`~repro.model.results.WorkloadTrace` — equals what its own
:class:`~repro.model.sequential.SequentialAirshed` run produces, on
every chemistry backend.  The ground rules making that possible are
documented in ``docs/ENSEMBLES.md`` and pinned by
``tests/model/test_batched.py``:

* every solver stage except the two matmuls is elementwise per point,
  and per-point adaptivity (substep size, remaining time, error) never
  couples columns, so batching cannot perturb a member's trajectory;
* the matmuls run per member slice (``member_edges``), feeding dgemm
  exactly the operands the independent run would;
* phases that are *not* per-point run per member: the aerosol step
  (its condensation sink is a domain-global mean), vertical diffusion,
  transport application, and all I/O packing.

Because batching is exact over *any* subset, the scheduler can fuse
only the uncached members of an ensemble group and still hit the
per-member science cache for the rest (see ``repro.sched.runner``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.chemistry import ChemistryStats
from repro.chemistry.youngboris import OPS_PER_SUBSTEP_PER_SPECIES
from repro.io.hourly import inputhour, outputhour, pretrans
from repro.model.config import AirshedConfig
from repro.model.ensemble import EmissionEnsemble, EnsembleSummary
from repro.model.physics import AirshedPhysics
from repro.model.results import (
    AirshedResult,
    HourTrace,
    StepTrace,
    WorkloadTrace,
)
from repro.model.sequential import TRACKED_SPECIES
from repro.observe.tracer import Tracer

__all__ = ["BatchedEnsemble", "run_batched"]

#: Config fields that must agree for members to share one physics
#: (solver controls, transport setup, step-count bounds, run window).
_SHARED_FIELDS = (
    "hours", "start_hour", "min_steps", "max_steps", "theta",
    "boundary_relax", "chem_eps", "chem_max_substeps",
    "track_surface_fields",
)


def _check_fusable(configs: Sequence[AirshedConfig]) -> None:
    if not configs:
        raise ValueError("need at least one member config")
    head = configs[0]
    for cfg in configs[1:]:
        for f in _SHARED_FIELDS:
            if getattr(cfg, f) != getattr(head, f):
                raise ValueError(
                    f"member configs disagree on {f!r}: cannot share "
                    "physics across the batch"
                )
        if cfg.dataset.shape != head.dataset.shape:
            raise ValueError("member datasets have different shapes")
        if cfg.dataset.name != head.dataset.name:
            raise ValueError("member datasets derive from different bases")


def run_batched(
    configs: Sequence[AirshedConfig],
    tracer: Optional[Tracer] = None,
) -> List[AirshedResult]:
    """Run member configs as one batched sweep; per-member results.

    The configs must share everything except their dataset's emission
    scaling (``PerturbedDataset`` members of one base dataset).  Each
    returned :class:`AirshedResult` is bitwise identical to running the
    corresponding config through :class:`SequentialAirshed` alone —
    batching over any subset of members is exact, which the scheduler
    relies on when some members are already science-cached.
    """
    _check_fusable(configs)
    phys = AirshedPhysics(configs[0])
    try:
        return _run_batched(
            configs, phys, tracer if tracer is not None else Tracer()
        )
    finally:
        phys.close()


def _run_batched(
    configs: Sequence[AirshedConfig],
    phys: AirshedPhysics,
    tracer: Tracer,
) -> List[AirshedResult]:
    nmem = len(configs)
    solver = phys.solver
    datasets = [cfg.dataset for cfg in configs]
    ns, nl, npts = datasets[0].shape
    cells = nl * npts
    edges = np.arange(nmem + 1, dtype=np.int64) * cells

    concs = [cfg.starting_concentrations() for cfg in configs]
    traces = [
        WorkloadTrace(dataset_name=ds.name, shape=ds.shape)
        for ds in datasets
    ]
    hourly_mean: List[Dict[str, List[float]]] = [
        {s: [] for s in TRACKED_SPECIES} for _ in range(nmem)
    ]
    surfaces: List[List[np.ndarray]] = [[] for _ in range(nmem)]
    mech = datasets[0].mechanism
    track_surface = configs[0].track_surface_fields

    batch = np.empty((ns, nmem * cells))
    E_b = np.empty((ns, nmem * cells))

    span = tracer.span
    for h_idx in range(configs[0].hours):
        hour = configs[0].hour_of_day(h_idx)
        with span(f"hour:{hour:02d}", kind="hour", hour=hour,
                  members=nmem):
            # --- inputhour per member (each parses its own scaled
            # inventory through the real pack/unpack), pretrans once ---
            with span("io:inputhour", kind="io", members=nmem):
                inres = [inputhour(ds, hour) for ds in datasets]
            conds = [r.conditions for r in inres]
            # Perturbation touches only emissions; meteorology is the
            # base dataset's, identical for every member.
            for cond in conds[1:]:
                if (cond.temperature != conds[0].temperature
                        or cond.sun != conds[0].sun):
                    raise ValueError(
                        "members disagree on meteorology; cannot batch"
                    )
            nsteps, dt = phys.hour_steps(hour)
            with span("io:pretrans", kind="io"):
                operators, pre_ops = pretrans(
                    datasets[0], phys.transport, hour, dt / 2.0
                )

            steps: List[List[StepTrace]] = [[] for _ in range(nmem)]
            for j in range(nsteps):
                with span(f"step:{j}", kind="step", index=j):
                    with span("transport", kind="compute", members=nmem):
                        t1 = [
                            _transport_all(phys, concs[i], operators,
                                           conds[i])
                            for i in range(nmem)
                        ]
                    with span("chemistry", kind="compute", members=nmem):
                        t_chem = tracer.now()
                        chem_ops = _chemistry_batched(
                            phys, solver, concs, conds, dt,
                            batch, E_b, edges, tracer,
                        )
                        # Per-worker tile spans (no-op without a pool).
                        solver.emit_tile_spans(tracer, t_chem)
                    with span("aerosol", kind="compute", members=nmem):
                        # The condensation sink is each member's own
                        # domain-global aerosol mean: strictly per run.
                        aero_ops = [
                            phys.aerosol_step(concs[i])
                            for i in range(nmem)
                        ]
                    with span("transport", kind="compute", members=nmem):
                        t2 = [
                            _transport_all(phys, concs[i], operators,
                                           conds[i])
                            for i in range(nmem)
                        ]
                for i in range(nmem):
                    steps[i].append(
                        StepTrace(
                            transport1_ops=t1[i],
                            chemistry_ops=chem_ops[i],
                            aerosol_ops=aero_ops[i],
                            transport2_ops=t2[i],
                        )
                    )

            with span("io:outputhour", kind="io", members=nmem):
                outs = [outputhour(hour, concs[i]) for i in range(nmem)]
        for i in range(nmem):
            _, out_bytes, out_ops = outs[i]
            traces[i].hours.append(
                HourTrace(
                    hour=hour,
                    input_bytes=inres[i].nbytes,
                    input_ops=inres[i].ops,
                    pretrans_ops=pre_ops,
                    nsteps=nsteps,
                    steps=steps[i],
                    output_bytes=out_bytes,
                    output_ops=out_ops,
                )
            )
            for s in TRACKED_SPECIES:
                hourly_mean[i][s].append(
                    float(concs[i][mech.index[s]].mean())
                )
            if track_surface:
                surfaces[i].append(concs[i][:, 0, :].copy())

    return [
        AirshedResult(
            trace=traces[i],
            final_conc=concs[i],
            hourly_mean=hourly_mean[i],
            hourly_surface=surfaces[i] if track_surface else None,
        )
        for i in range(nmem)
    ]


def _transport_all(phys, conc, operators, conditions) -> np.ndarray:
    """Per-layer transport in place (SequentialAirshed._transport_all)."""
    ops = np.zeros(phys.dataset.layers)
    for layer, op in enumerate(operators):
        conc[:, layer, :], ops[layer] = phys.transport_layer(
            conc[:, layer, :], op, conditions.boundary
        )
    return ops


def _chemistry_batched(
    phys: AirshedPhysics,
    solver,
    concs: List[np.ndarray],
    conds,
    dt: float,
    batch: np.ndarray,
    E_b: np.ndarray,
    edges: np.ndarray,
    tracer: Tracer,
) -> List[np.ndarray]:
    """One fused ``Lcz`` application; per-member op-count arrays.

    Mirrors :meth:`AirshedPhysics.chemistry_columns` with the solver
    call batched: members are packed into ``batch``/``E_b`` (pure data
    movement), integrated once with ``member_edges``, then unpacked for
    the per-member vertical diffusion and accounting.
    """
    nmem = len(concs)
    ns, nl, npts = concs[0].shape
    cells = nl * npts
    for i in range(nmem):
        s = i * cells
        batch[:, s:s + cells] = concs[i].reshape(ns, cells)
        cond = conds[i]
        E = np.zeros((ns, nl, npts))
        E[:, 0, :] = cond.emissions
        if cond.elevated is not None:
            E += cond.elevated
        E_b[:, s:s + cells] = E.reshape(ns, cells)

    stats = ChemistryStats()
    flat = solver.integrate(
        batch, dt, conds[0].temperature, conds[0].sun,
        emissions=E_b, stats=stats, member_edges=edges,
    )
    tracer.counters.inc("ensemble:batches")
    tracer.counters.inc("ensemble:batched_members", nmem)
    tracer.counters.observe("ensemble:members_per_batch", nmem)

    attempts = stats.per_point_substeps
    chem_ops: List[np.ndarray] = []
    for i in range(nmem):
        s = i * cells
        out = np.ascontiguousarray(flat[:, s:s + cells]).reshape(
            ns, nl, npts
        )
        out, vd_ops = phys.vertical.step(out, dt)
        per_cell = attempts[s:s + cells].reshape(nl, npts)
        chem_ops.append(
            per_cell.sum(axis=0) * ns * OPS_PER_SUBSTEP_PER_SPECIES
            + vd_ops / npts
        )
        concs[i] = out
    return chem_ops


class BatchedEnsemble(EmissionEnsemble):
    """An :class:`EmissionEnsemble` executed as one batched sweep.

    Same membership, seeding (``seed*7919 + index``) and summary as the
    independent runner — and, by the batching ground rules, the same
    results bit for bit — at a small multiple of single-run cost
    instead of N times it (see ``docs/PERFORMANCE.md`` for measured
    throughput).
    """

    def __init__(self, config: AirshedConfig, members: int = 8,
                 sigma: float = 0.3, seed: int = 0,
                 tracer: Optional[Tracer] = None):
        super().__init__(config, members=members, sigma=sigma, seed=seed)
        self.tracer = tracer if tracer is not None else Tracer()

    def run_members(self) -> List[AirshedResult]:
        """Per-member results, bitwise equal to N independent runs."""
        configs = [self.member_config(i) for i in range(self.members)]
        return run_batched(configs, tracer=self.tracer)

    def run(self) -> EnsembleSummary:
        results = self.run_members()
        series: Dict[str, List[np.ndarray]] = {
            s: [] for s in TRACKED_SPECIES
        }
        for result in results:
            for s in TRACKED_SPECIES:
                series[s].append(result.species_series(s))
        stacked = {s: np.vstack(v) for s, v in series.items()}
        return EnsembleSummary(
            members=self.members,
            sigma=self.sigma,
            mean={s: v.mean(axis=0) for s, v in stacked.items()},
            std={s: v.std(axis=0) for s, v in stacked.items()},
            peaks={s: v.max(axis=1) for s, v in stacked.items()},
        )
