"""The sequential reference Airshed driver (Figure 1 of the paper).

::

    DO i = 1, nhrs
        CALL inputhour(A)
        CALL pretrans(A)
        DO j = 1, nsteps
            CALL transport(A)
            CALL chemistry(A)
            CALL transport(A)
        ENDDO
        CALL outputhour(A)
    ENDDO

Besides producing the science output, the sequential run records the
:class:`~repro.model.results.WorkloadTrace` that the parallel execution
simulator replays for any machine and node count.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.io.hourly import inputhour, outputhour, pretrans
from repro.model.config import AirshedConfig
from repro.model.physics import AirshedPhysics
from repro.model.results import AirshedResult, HourTrace, StepTrace, WorkloadTrace
from repro.observe.tracer import Tracer

__all__ = ["SequentialAirshed", "TRACKED_SPECIES"]

#: Species whose hourly domain means are recorded in results.
TRACKED_SPECIES = ("O3", "NO", "NO2", "PAN", "HCHO", "AERO")


class SequentialAirshed:
    """Run the Airshed model on one (real) processor.

    The run emits wall-clock spans (hours, steps, phases) into
    ``self.tracer`` — a real profile of the numerics, in the same format
    the simulated drivers produce, exportable with
    :func:`repro.observe.write_chrome_trace`.
    """

    def __init__(self, config: AirshedConfig, tracer: Optional[Tracer] = None):
        self.config = config
        self.physics = AirshedPhysics(config)
        self.tracer = tracer if tracer is not None else Tracer()

    def run(self) -> AirshedResult:
        try:
            return self._run()
        finally:
            self.physics.close()

    def _run(self) -> AirshedResult:
        cfg = self.config
        ds = cfg.dataset
        phys = self.physics
        mech = ds.mechanism

        conc = cfg.starting_concentrations()
        trace = WorkloadTrace(dataset_name=ds.name, shape=ds.shape)
        hourly_mean: Dict[str, List[float]] = {s: [] for s in TRACKED_SPECIES}
        surfaces: List[np.ndarray] = []

        span = self.tracer.span
        for h_idx in range(cfg.hours):
            hour = cfg.hour_of_day(h_idx)

            with span(f"hour:{hour:02d}", kind="hour", hour=hour):
                # --- inputhour + pretrans (the I/O processing phase) ---
                with span("io:inputhour", kind="io"):
                    inres = inputhour(ds, hour)
                conditions = inres.conditions
                nsteps, dt = phys.hour_steps(hour)
                with span("io:pretrans", kind="io"):
                    operators, pre_ops = pretrans(ds, phys.transport, hour, dt / 2.0)

                steps: List[StepTrace] = []
                for j in range(nsteps):
                    with span(f"step:{j}", kind="step", index=j):
                        with span("transport", kind="compute"):
                            t1 = self._transport_all(conc, operators, conditions)
                        with span("chemistry", kind="compute"):
                            t_chem = self.tracer.now()
                            conc, chem_ops = phys.chemistry_columns(
                                conc, conditions, dt
                            )
                            # Per-worker tile spans (no-op when the
                            # tiled pool is disabled).
                            phys.solver.emit_tile_spans(
                                self.tracer, t_chem
                            )
                        with span("aerosol", kind="compute"):
                            aero_ops = phys.aerosol_step(conc)
                        with span("transport", kind="compute"):
                            t2 = self._transport_all(conc, operators, conditions)
                    steps.append(
                        StepTrace(
                            transport1_ops=t1,
                            chemistry_ops=chem_ops,
                            aerosol_ops=aero_ops,
                            transport2_ops=t2,
                        )
                    )

                # --- outputhour ---------------------------------------
                with span("io:outputhour", kind="io"):
                    _, out_bytes, out_ops = outputhour(hour, conc)
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
                hourly_mean[s].append(float(conc[mech.index[s]].mean()))
            if cfg.track_surface_fields:
                surfaces.append(conc[:, 0, :].copy())

        return AirshedResult(
            trace=trace,
            final_conc=conc,
            hourly_mean=hourly_mean,
            hourly_surface=surfaces if cfg.track_surface_fields else None,
        )

    # ------------------------------------------------------------------
    def _transport_all(self, conc, operators, conditions) -> np.ndarray:
        """Transport every layer in place; per-layer op counts."""
        ops = np.zeros(self.config.dataset.layers)
        for layer, op in enumerate(operators):
            conc[:, layer, :], ops[layer] = self.physics.transport_layer(
                conc[:, layer, :], op, conditions.boundary
            )
        return ops
