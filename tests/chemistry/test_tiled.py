"""Tiled multi-core chemistry is bitwise identical to the reference.

The tiled engine (:mod:`repro.chemistry.tiling`) fans the per-column
elementwise stages of the C fused kernel
(:class:`~repro.chemistry.kernel.FastKernel`) out over contiguous column
tiles on a persistent worker pool.  Its contract is the same as the
untiled kernel's: **SHA-identical** to the ``fast=False`` reference —
for every worker count and every tile size (ragged last tile,
one-column tiles).

Cases marked ``numpy`` run the same solver on a host without the C
kernel (``cfused.load()`` returns ``None``, as under
``REPRO_CHEM_NO_C``): it takes the pure-numpy reference path, which
ignores the pool, and must still produce the reference bits.
"""

import hashlib

import numpy as np
import pytest

from repro.chemistry import YoungBorisSolver, cit_mechanism
from repro.chemistry.cfused import load as load_cfused
from repro.chemistry.tiling import TilePool, tile_spans

from tests.chemistry.test_youngboris import urban_state

NPTS = 97  # prime: every fixed tile width leaves a ragged last tile


@pytest.fixture(scope="module")
def mech():
    return cit_mechanism()


@pytest.fixture
def backend(request, monkeypatch):
    """``c``: the fused kernel (skipped without it); ``numpy``: no C."""
    if request.param == "numpy":
        monkeypatch.setattr("repro.chemistry.cfused.load", lambda: None)
    elif load_cfused() is None:
        pytest.skip("no C compiler available")
    return request.param


def _state(mech):
    conc = urban_state(mech, npts=NPTS, seed=11)
    emissions = np.zeros_like(conc)
    emissions[mech.index["NO"]] = 1e-5
    emissions[mech.index["PAR"]] = 4e-5
    return conc, emissions


def _solve(mech, conc, emissions, *, fast=True, workers=1, tile_cols=None):
    """Run one integration with explicit tiling.

    Tiny states tile too: ``tile_min_cols=1`` removes the perf-only
    threshold so the test exercises the tiled machinery even at
    ``NPTS=97`` columns.
    """
    solver = YoungBorisSolver(mech, fast=fast, workers=workers,
                              tile_cols=tile_cols, tile_min_cols=1)
    try:
        return solver.integrate(conc, 300.0, 298.0, 0.6,
                                emissions=emissions)
    finally:
        solver.close()


def _sha(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


class TestBitwiseIdentity:
    """workers x tile sizes, SHA-256 against the reference path."""

    @pytest.mark.parametrize("backend", ["numpy", "c"], indirect=True)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("tile_cols", [None, 1, 7, 50],
                             ids=["balanced", "tile1", "tile7", "tile50"])
    def test_tiled_sha_matches_sequential_golden(self, mech, backend,
                                                 workers, tile_cols):
        conc, emissions = _state(mech)
        reference = _solve(mech, conc, emissions, fast=False)
        tiled = _solve(mech, conc, emissions,
                       workers=workers, tile_cols=tile_cols)
        assert _sha(tiled) == _sha(reference)
        assert np.array_equal(tiled, reference)

    def test_sequential_golden_matches_reference_backend(self, mech):
        """The untiled fast path equals the allocation-per-substep path."""
        conc, emissions = _state(mech)
        reference = _solve(mech, conc, emissions, fast=False)
        assert np.array_equal(_solve(mech, conc, emissions), reference)

    def test_tiled_cross_backend_identity(self, mech, monkeypatch):
        """Tiled C agrees with the same solver on a host without C."""
        if load_cfused() is None:
            pytest.skip("no C compiler available")
        conc, emissions = _state(mech)
        a = _solve(mech, conc, emissions, workers=4, tile_cols=13)
        monkeypatch.setattr("repro.chemistry.cfused.load", lambda: None)
        b = _solve(mech, conc, emissions, workers=3, tile_cols=29)
        assert _sha(a) == _sha(b)

    def test_driver_level_workers_knob(self, mech):
        """The public ``workers=`` knob alone preserves identity."""
        conc, emissions = _state(mech)
        golden = _solve(mech, conc, emissions)
        solver = YoungBorisSolver(mech, workers=2, tile_min_cols=1)
        try:
            out = solver.integrate(conc, 300.0, 298.0, 0.6,
                                   emissions=emissions)
        finally:
            solver.close()
        assert np.array_equal(out, golden)


class TestTileSpans:
    def test_balanced_spans_cover_range(self):
        spans = tile_spans(100, 4)
        assert spans == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_ragged_last_tile(self):
        spans = tile_spans(97, 4)
        assert spans[0] == (0, 25)
        assert spans[-1] == (75, 97)
        assert sum(b - a for a, b in spans) == 97

    def test_fixed_width_and_single_column(self):
        assert tile_spans(10, 2, tile_cols=3) == [
            (0, 3), (3, 6), (6, 9), (9, 10)
        ]
        assert tile_spans(3, 2, tile_cols=1) == [(0, 1), (1, 2), (2, 3)]

    def test_more_workers_than_columns(self):
        spans = tile_spans(2, 8)
        assert sum(b - a for a, b in spans) == 2
        assert all(b > a for a, b in spans)


class TestTilePool:
    def test_run_executes_every_span(self):
        pool = TilePool(3)
        try:
            hits = np.zeros(30, dtype=np.int64)

            def fn(si, c0, c1):
                hits[c0:c1] += 1

            pool.run(fn, tile_spans(30, 3, tile_cols=4))
            assert np.array_equal(hits, np.ones(30, dtype=np.int64))
        finally:
            pool.close()

    def test_worker_exception_propagates(self):
        pool = TilePool(2)
        try:
            def boom(si, c0, c1):
                raise RuntimeError("tile failed")

            with pytest.raises(RuntimeError, match="tile failed"):
                pool.run(boom, tile_spans(8, 2))
        finally:
            pool.close()

    def test_snapshot_accounts_work(self):
        pool = TilePool(2)
        try:
            pool.run(lambda si, c0, c1: None, tile_spans(10, 2))
            snap = pool.snapshot()
            assert [s["worker"] for s in snap] == [0, 1]
            assert sum(s["tasks"] for s in snap) == 2
            assert sum(s["cols"] for s in snap) == 10
        finally:
            pool.close()

    def test_close_is_idempotent(self):
        pool = TilePool(2)
        pool.close()
        pool.close()

    def test_validates_workers(self):
        with pytest.raises(ValueError):
            TilePool(0)
