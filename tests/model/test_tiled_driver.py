"""The tiled chemistry engine wired into the model drivers.

``AirshedConfig.chem_workers`` threads a worker count down to the
:class:`~repro.chemistry.youngboris.YoungBorisSolver` tile pool; results
must stay bitwise identical to the default single-core run, the tracer
must gain per-worker ``chem:tile:w*`` spans, and a finished run must
leave no pool threads behind.
"""

import hashlib
import threading

import numpy as np
import pytest

from repro.chemistry import YoungBorisSolver, cit_mechanism
from repro.chemistry.cfused import load as load_cfused
from repro.datasets import get_dataset
from repro.model import (
    AirshedConfig,
    BatchedEnsemble,
    DataParallelAirshed,
    SequentialAirshed,
    TaskParallelAirshed,
)
from repro.observe import Tracer
from repro.vm import CRAY_T3E


def _run(**cfg_kw):
    cfg = AirshedConfig(dataset=get_dataset("demo"), hours=1,
                        start_hour=12, **cfg_kw)
    return SequentialAirshed(cfg).run()


def _sha(result):
    return hashlib.sha256(result.final_conc.tobytes()).hexdigest()


class TestTiledSequentialDriver:
    def test_workers_preserve_bitwise_identity(self):
        golden = _run()
        assert _sha(_run(chem_workers=2)) == _sha(golden)
        assert _sha(_run(chem_workers=4, chem_tile_cols=17)) == _sha(golden)

    def test_tile_spans_emitted(self):
        if load_cfused() is None:
            pytest.skip("only the C kernel tiles")
        # demo is 301 columns (> tile_min_cols), so a 2-worker run tiles
        cfg = AirshedConfig(dataset=get_dataset("demo"), hours=1,
                            start_hour=12, chem_workers=2)
        model = SequentialAirshed(cfg)
        model.run()
        names = {s.name for s in model.tracer.spans
                 if s.name.startswith("chem:tile:")}
        assert names == {"chem:tile:w0", "chem:tile:w1"}
        for s in model.tracer.spans:
            if s.name.startswith("chem:tile:"):
                assert s.end >= s.start
                assert s.attrs["cols"] > 0

    def test_no_tile_spans_on_single_core(self):
        cfg = AirshedConfig(dataset=get_dataset("demo"), hours=1,
                            start_hour=12)
        model = SequentialAirshed(cfg)
        model.run()
        assert not any(s.name.startswith("chem:tile:")
                       for s in model.tracer.spans)

    def test_config_validates_workers(self):
        with pytest.raises(ValueError):
            AirshedConfig(dataset=get_dataset("demo"), chem_workers=0)
        with pytest.raises(ValueError):
            AirshedConfig(dataset=get_dataset("demo"), chem_tile_cols=0)


class TestTiledChemistryEngine:
    def test_emit_tile_spans_without_pool_is_noop(self):
        solver = YoungBorisSolver(cit_mechanism())
        tracer = Tracer()
        solver.emit_tile_spans(tracer, tracer.now())
        assert list(tracer.spans) == []
        solver.close()

    def test_engine_close_is_idempotent(self):
        solver = YoungBorisSolver(cit_mechanism(), workers=2)
        conc = np.full((solver.mechanism.n_species, 10), 0.01)
        solver.integrate(conc, 60.0, 298.0, 0.5)
        solver.close()
        solver.close()


class TestPoolLifecycle:
    """Every driver stops its tile pool when a run ends."""

    def test_runs_leave_no_pool_threads(self):
        before = threading.active_count()
        cfg = AirshedConfig(dataset=get_dataset("demo"), hours=1,
                            start_hour=12, chem_workers=2)
        SequentialAirshed(cfg).run()
        assert threading.active_count() == before
        BatchedEnsemble(cfg, members=2, sigma=0.3, seed=1).run_members()
        assert threading.active_count() == before
        DataParallelAirshed(cfg, CRAY_T3E, 4).run()
        assert threading.active_count() == before
        TaskParallelAirshed(cfg, CRAY_T3E, 4).run()
        assert threading.active_count() == before

    def test_second_run_on_one_instance_still_tiles(self):
        cfg = AirshedConfig(dataset=get_dataset("demo"), hours=1,
                            start_hour=12, chem_workers=2)
        model = SequentialAirshed(cfg)
        first = _sha(model.run())
        tiles = sum(s.name.startswith("chem:tile:")
                    for s in model.tracer.spans)
        assert _sha(model.run()) == first
        again = sum(s.name.startswith("chem:tile:")
                    for s in model.tracer.spans)
        assert again == 2 * tiles
        if load_cfused() is not None:
            assert tiles > 0
