"""Allocation-free fast path for the chemistry hot loop.

:class:`FastKernel` evaluates the mechanism's production/loss form and
the Young–Boris predictor/corrector stages into preallocated workspace
buffers.  The solver spends ~97% of a sequential Airshed hour here; the
reference implementation (:meth:`repro.chemistry.mechanism.Mechanism.
production_loss` plus the solver's ``_substep``) allocates dozens of
temporaries per substep and touches every array several times.  The
kernel removes the temporaries and collapses each stage's ufunc chain
into a single C loop (:mod:`repro.chemistry.cfused`, compiled on
demand) while producing **bitwise-identical** results.  It is the only
fast path: when the C library is unavailable the solver runs the
reference implementation instead.

Bitwise-identity ground rules (verified empirically on this codebase,
documented in ``docs/PERFORMANCE.md``):

* operand swaps of commutative ops (``x*y`` vs ``y*x``) and shared
  subexpressions with identical expression trees are exact;
* gather -> compute -> scatter on a contiguous subset is exact for
  ``exp``, division and the other elementwise ops (per-element results
  do not depend on neighbours);
* C loops that perform the same IEEE-754 operations in the same
  per-element order are exact, provided FMA contraction and fast-math
  are disabled (see ``_cfused.c``);
* the ``(35, n_r) @ (n_r, m)`` matmuls must be fed the *same* operand
  content as the reference — BLAS dgemm results for one column depend
  on the matrix's overall width and the column's position (micro-kernel
  edge handling), so the matmuls stay in BLAS and only their
  surroundings are optimized;
* dgemm on a *column slice* of a wider C-order operand (strided ``ldb``)
  is bitwise equal to dgemm on a contiguous copy of the same columns —
  packing reads the logical matrix — which is what lets the batched
  ensemble path keep its per-member matmuls inside the stacked batch
  buffer (verified empirically, pinned by ``tests/model/test_batched``).

Workspace buffers are prefix views of flat arrays, so every view is
C-contiguous regardless of the active-point count ``m``.

**Batched ensembles.**  All solver stages are elementwise per column,
so N scenario members stacked along the point axis into one
``(ns, members*m)`` block integrate in a single sweep.  The only
width-sensitive operations are the two BLAS matmuls; ``col_slices``
on :meth:`FastKernel.production_loss` performs them per member slice,
feeding dgemm exactly the operand each member's independent run would
see.  Everything else runs over the full flattened width unchanged.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.chemistry.cfused import CFused
from repro.chemistry.mechanism import Mechanism
from repro.chemistry.tiling import TilePool, tile_spans

__all__ = ["FastKernel", "asymptotic_subset"]


class FastKernel:
    """Workspace-backed C fused solver stages for one solver instance.

    Not thread-safe: buffers are shared across calls by design.  Every
    array a caller passes in must be C-contiguous; the stages raise
    ``ValueError`` otherwise (``YoungBorisSolver.integrate`` guarantees
    the layout by copying its state in C order).

    Parameters
    ----------
    mechanism:
        The compiled mechanism.
    lib:
        The loaded kernel library, as returned by
        :func:`repro.chemistry.cfused.load`.
    """

    #: (ns, m) float buffers handed out by :meth:`mat`.
    _SPECIES_BUFFERS = (
        "P0", "L0", "P1", "L1", "Lh", "R0", "t0", "cp", "c1", "Ea", "c0",
    )

    def __init__(self, mechanism: Mechanism, lib: CFused):
        self.mechanism = mechanism
        self.ns = mechanism.n_species
        self.nr = mechanism.n_reactions
        self._prod = mechanism._prod
        self._loss = mechanism._loss
        # int64 copies for the C kernels (r2 < 0 flags unimolecular).
        self._r1_i64 = np.ascontiguousarray(mechanism._r1, dtype=np.int64)
        self._r2_i64 = np.ascontiguousarray(mechanism._r2, dtype=np.int64)
        self._c = lib
        #: Multi-core tiling (see configure_tiling); None = sequential.
        self._pool: Optional[TilePool] = None
        self._tile_cols: Optional[int] = None
        self._tile_min_cols = 128
        self.capacity = 0
        self._flat: Dict[str, np.ndarray] = {}
        self._stiff_idx: np.ndarray = np.zeros(0, dtype=np.int64)
        self._stiff_merge: np.ndarray = np.zeros(0, dtype=np.int64)
        self._err: np.ndarray = np.zeros(0)
        #: Raw buffer addresses for the C kernels, refreshed by ensure().
        self._addr: Dict[str, int] = {}
        #: Per-slot "L still holds the raw loss rate" flags (see
        #: production_loss(defer_finish=True)).
        self._pl_pending = [False, False]

    # ------------------------------------------------------------------
    # workspace
    # ------------------------------------------------------------------
    def ensure(self, npts: int) -> None:
        """Grow the workspace to hold ``npts`` points."""
        if npts <= self.capacity:
            return
        self.capacity = int(npts)
        for name in self._SPECIES_BUFFERS:
            self._flat[name] = np.empty(self.ns * self.capacity)
        self._flat["rates"] = np.empty(self.nr * self.capacity)
        self._stiff_idx = np.empty(self.ns * self.capacity, dtype=np.int64)
        self._stiff_merge = np.empty(self.ns * self.capacity,
                                     dtype=np.int64)
        self._err = np.empty(self.capacity)
        self._addr = {name: arr.ctypes.data for name, arr in
                      self._flat.items()}
        self._addr["stiff_idx"] = self._stiff_idx.ctypes.data
        self._addr["err"] = self._err.ctypes.data
        self._addr["r1"] = self._r1_i64.ctypes.data
        self._addr["r2"] = self._r2_i64.ctypes.data

    def mat(self, name: str, m: int) -> np.ndarray:
        """Contiguous ``(ns, m)`` view of the named buffer."""
        return self._flat[name][: self.ns * m].reshape(self.ns, m)

    # ------------------------------------------------------------------
    # multi-core tiling
    # ------------------------------------------------------------------
    def configure_tiling(
        self,
        pool: Optional[TilePool],
        tile_cols: Optional[int] = None,
        min_cols: int = 128,
    ) -> None:
        """Fan elementwise stages out over ``pool`` (``None`` disables).

        Columns split into contiguous tiles (``tile_cols`` wide, or one
        balanced tile per pool worker when ``None``); each tile runs the
        exact per-element operation sequence of the sequential stage and
        writes a disjoint column range, so results are bitwise-identical
        for every worker count and tile size (see
        :mod:`repro.chemistry.tiling`).  The BLAS matmuls, ``np.exp``
        asymptotic updates and the stiff-index merge stay on the calling
        thread.  Stages with fewer than ``min_cols`` active columns run
        untiled — dispatch overhead would exceed the work; perf-only,
        never a results choice.
        """
        self._pool = pool
        self._tile_cols = None if tile_cols is None else int(tile_cols)
        self._tile_min_cols = int(min_cols)

    def _spans(self, m: int):
        """Tile spans for an ``m``-column stage, or None to run untiled."""
        if self._pool is None or m < self._tile_min_cols:
            return None
        spans = tile_spans(m, self._pool.workers, self._tile_cols)
        return spans if len(spans) > 1 else None

    def _merge_stiff(self, spans, counts) -> np.ndarray:
        """Merge per-tile stiff indices into the sequential enumeration.

        Tile ``(c0, c1)`` wrote its stiff elements' GLOBAL row-major
        flat indices at segment offset ``ns*c0`` of ``_stiff_idx``
        (ascending within the tile).  The tiles partition the column
        set, so the sorted concatenation is exactly the full-width
        ascending enumeration the sequential kernel returns.
        """
        total = 0
        merge = self._stiff_merge
        for (c0, _c1), cnt in zip(spans, counts):
            if cnt:
                base = self.ns * c0
                merge[total:total + cnt] = self._stiff_idx[base:base + cnt]
                total += cnt
        out = merge[:total]
        out.sort()
        return out

    # ------------------------------------------------------------------
    # mechanism evaluation
    # ------------------------------------------------------------------
    def production_loss(
        self, conc: np.ndarray, k: np.ndarray, slot: int,
        defer_finish: bool = False,
        col_slices: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Production ``P`` and loss coefficient ``L`` into slot buffers.

        Bitwise-identical to ``Mechanism.production_loss`` for 2-D
        input.  ``slot`` selects the ``(P0, L0)`` or ``(P1, L1)`` buffer
        pair so predictor and corrector evaluations can coexist.

        With ``defer_finish`` ``L`` is left holding the raw loss *rate*
        and the ``L /= max(conc, 1e-30)`` pass is folded into the next
        :meth:`predictor`/:meth:`corrector` call (saving a full
        read+write sweep); the returned ``L`` must then not be consumed
        directly.

        ``col_slices`` (batched ensembles) runs the two BLAS matmuls
        once per ``(start, stop)`` column range instead of over the full
        width, so each ensemble member's dgemm sees exactly the operand
        its independent run would — the matmuls are the only stage whose
        results depend on operand width.  All elementwise work still
        covers the full block in one pass.
        """
        m = conc.shape[1]
        rates = self._flat["rates"][: self.nr * m].reshape(self.nr, m)
        P = self.mat(f"P{slot}", m)
        L = self.mat(f"L{slot}", m)
        self._pl_pending[slot] = False
        spans = self._spans(m)
        a = self._addr
        conc_p = _ptr(conc)
        if spans is None:
            self._c.build_rates(self.nr, m, _ptr(k), a["r1"], a["r2"],
                                conc_p, a["rates"])
        else:
            kp = _ptr(k)
            self._pool.run(
                lambda si, s0, s1: self._c.build_rates_span(
                    self.nr, m, s0, s1, kp, a["r1"], a["r2"],
                    conc_p, a["rates"]),
                spans)
        self._pl_matmuls(rates, P, L, col_slices)
        if defer_finish:
            self._pl_pending[slot] = True
        elif spans is None:
            self._c.pl_finish(self.ns * m, conc_p, a[f"L{slot}"])
        else:
            Lp = a[f"L{slot}"]
            self._pool.run(
                lambda si, s0, s1: self._c.pl_finish_span(
                    self.ns, m, s0, s1, conc_p, Lp),
                spans)
        return P, L

    def _pl_matmuls(
        self, rates: np.ndarray, P: np.ndarray, L: np.ndarray,
        col_slices: Optional[Sequence[Tuple[int, int]]],
    ) -> None:
        if col_slices is None:
            np.matmul(self._prod, rates, out=P)
            np.matmul(self._loss, rates, out=L)
            return
        # dgemm on a column slice of the wider C-order operand equals
        # dgemm on a contiguous copy of those columns (strided-ldb
        # packing reads the logical matrix), so slicing in place is safe.
        for start, stop in col_slices:
            if stop > start:
                np.matmul(self._prod, rates[:, start:stop],
                          out=P[:, start:stop])
                np.matmul(self._loss, rates[:, start:stop],
                          out=L[:, start:stop])

    # ------------------------------------------------------------------
    # solver stages
    # ------------------------------------------------------------------
    def predictor(
        self,
        c0: np.ndarray,
        h: np.ndarray,
        Ea: Optional[np.ndarray],
        thresh: float,
        floor: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Explicit predictor from the slot-0 ``(P0, L0)`` state.

        Applies ``P0 += Ea`` in place, then computes ``Lh = L0*h``,
        ``R0 = P0 - L0*c0`` and the floored explicit update
        ``cp = max(c0 + R0*h, floor)``.  Stiff elements (``Lh >
        thresh``) are returned as ascending row-major flat indices;
        their ``cp`` entries are left for the caller to overwrite with
        the (floored) asymptotic update.  Returns ``(cp, Lh, R0,
        stiff_flat_indices)``.
        """
        m = c0.shape[1]
        divide = int(self._pl_pending[0])
        self._pl_pending[0] = False
        spans = self._spans(m)
        a = self._addr
        c0p, hp = _ptr(c0), _ptr(h)
        Eap = None if Ea is None else _ptr(Ea)
        out = self.mat("cp", m), self.mat("Lh", m), self.mat("R0", m)
        if spans is None:
            n = self._c.predictor(
                self.ns, m, a["P0"], a["L0"], c0p, hp, Eap,
                thresh, floor, divide,
                a["Lh"], a["R0"], a["cp"], a["stiff_idx"],
            )
            return (*out, self._stiff_idx[:n])
        counts = [0] * len(spans)

        def _pred_tile(si: int, s0: int, s1: int) -> None:
            # each tile's stiff indices land in its own disjoint
            # _stiff_idx segment (element offset ns*s0).
            counts[si] = self._c.predictor_span(
                self.ns, m, s0, s1, a["P0"], a["L0"], c0p, hp, Eap,
                thresh, floor, divide,
                a["Lh"], a["R0"], a["cp"],
                a["stiff_idx"] + 8 * self.ns * s0,
            )

        self._pool.run(_pred_tile, spans)
        return (*out, self._merge_stiff(spans, counts))

    def corrector(
        self,
        cp: np.ndarray,
        c0: np.ndarray,
        h: np.ndarray,
        Ea: Optional[np.ndarray],
        thresh: float,
        floor: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Trapezoidal corrector from the slot-1 ``(P1, L1)`` state.

        Applies ``P1 += Ea`` in place, forms the averaged loss ``Lm =
        (L0 + L1)/2`` and ``Lmh = Lm*h``, and the floored trapezoidal
        update ``c1 = max(c0 + 0.5*h*(R0 + (P1 - L1*cp)), floor)``.
        ``cp`` must be the predictor's workspace buffer.  Stiff elements
        (``Lmh > thresh``) are returned as flat indices for the caller's
        asymptotic overwrite.  Returns ``(c1, Lm, Lmh,
        stiff_flat_indices)``.
        """
        m = c0.shape[1]
        divide = int(self._pl_pending[1])
        self._pl_pending[1] = False
        spans = self._spans(m)
        a = self._addr
        c0p, hp = _ptr(c0), _ptr(h)
        Eap = None if Ea is None else _ptr(Ea)
        # Lm lands in t0; Lmh reuses the predictor's free L*h buffer.
        out = self.mat("c1", m), self.mat("t0", m), self.mat("Lh", m)
        if spans is None:
            n = self._c.corrector(
                self.ns, m, a["P1"], a["L0"], a["L1"], a["R0"],
                a["cp"], c0p, hp, Eap, thresh, floor, divide,
                a["t0"], a["Lh"], a["c1"], a["stiff_idx"],
            )
            return (*out, self._stiff_idx[:n])
        counts = [0] * len(spans)

        def _corr_tile(si: int, s0: int, s1: int) -> None:
            counts[si] = self._c.corrector_span(
                self.ns, m, s0, s1, a["P1"], a["L0"], a["L1"],
                a["R0"], a["cp"], c0p, hp, Eap,
                thresh, floor, divide,
                a["t0"], a["Lh"], a["c1"],
                a["stiff_idx"] + 8 * self.ns * s0,
            )

        self._pool.run(_corr_tile, spans)
        return (*out, self._merge_stiff(spans, counts))

    def errmax(self, c1: np.ndarray, cp: np.ndarray) -> np.ndarray:
        """Per-point convergence error ``max_i |c1-cp| / denom``.

        ``denom = max(max(c1, cp), 1e-7)`` (CHEMEQ-style).  Must be
        called after the asymptotic scatters so the stiff elements'
        final values enter the test.
        """
        m = c1.shape[1]
        spans = self._spans(m)
        c1p, cpp, ep = _ptr(c1), _ptr(cp), self._addr["err"]
        if spans is None:
            self._c.errmax(self.ns, m, c1p, cpp, ep)
        else:
            self._pool.run(
                lambda si, s0, s1: self._c.errmax_span(
                    self.ns, m, s0, s1, c1p, cpp, ep),
                spans)
        return self._err[:m]

    # ------------------------------------------------------------------
    # batched-ensemble data movement
    # ------------------------------------------------------------------
    def gather_cols(
        self, src: np.ndarray, idx: np.ndarray, name: str = "c0",
    ) -> np.ndarray:
        """Gather ``src[:, idx]`` into the named workspace buffer.

        Pure data movement (bitwise-trivial), fused into one pass, which
        matters when the batched ensemble sweep gathers hundreds of
        thousands of columns per adaptive iteration.  ``idx`` must be
        int64 and ascending-sorted the way the callers produce it.
        ``name`` defaults to the solver's ``c0`` state buffer; the
        solver also gathers emissions into ``Ea``.
        """
        m = idx.size
        spans = self._spans(m)
        sp, ip, op = _ptr(src), _ptr(idx), self._addr[name]
        ncols = src.shape[1]
        if spans is None:
            self._c.gather_cols(self.ns, ncols, m, sp, ip, op)
        else:
            self._pool.run(
                lambda si, s0, s1: self._c.gather_cols_span(
                    self.ns, ncols, m, s0, s1, sp, ip, op),
                spans)
        return self.mat(name, m)

    def scatter_cols(
        self, dst: np.ndarray, src: np.ndarray, idx: np.ndarray,
        ok: np.ndarray,
    ) -> None:
        """``dst[:, idx[p]] = src[:, p]`` wherever ``ok[p]`` is set.

        The accepted-substep scatter ``dst[:, idx[ok]] = src[:, ok]``
        without materializing the intermediate fancy-index arrays.
        Tiles write disjoint destination columns (``idx`` ascending),
        so the tiled scatter is race-free and bit-identical.
        """
        m = idx.size
        spans = self._spans(m)
        sp, ip, okp, dp = _ptr(src), _ptr(idx), _ptr(ok), _ptr(dst)
        ncols = dst.shape[1]
        if spans is None:
            self._c.scatter_cols(self.ns, ncols, m, sp, ip, okp, dp)
        else:
            self._pool.run(
                lambda si, s0, s1: self._c.scatter_cols_span(
                    self.ns, ncols, m, s0, s1, sp, ip, okp, dp),
                spans)


def _ptr(arr: np.ndarray) -> int:
    """Raw data address of a C-contiguous array for the C kernels."""
    if not arr.flags.c_contiguous:
        raise ValueError(
            "the fused chemistry kernels need C-contiguous arrays"
        )
    return arr.ctypes.data


def asymptotic_subset(
    cf: np.ndarray, Pf: np.ndarray, Lf: np.ndarray, Lhf: np.ndarray
) -> np.ndarray:
    """The Young–Boris asymptotic update on gathered flat subsets.

    Mirrors ``YoungBorisSolver._asymptotic`` element-for-element:
    ``ceq + (c - ceq) * exp(-min(L*h, 50))`` with ``ceq = P/L`` guarded
    at zero loss.  ``Lhf`` must hold the already-formed ``L*h`` values
    for the subset (same product the mask was computed from).  ``exp``
    stays in numpy on all backends: numpy's SIMD ``exp`` is not
    bitwise-reproducible by libm.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ceq = np.where(Lf > 0, Pf / np.maximum(Lf, 1e-300), 0.0)
        decay = np.exp(-np.minimum(Lhf, 50.0))
    return ceq + (cf - ceq) * decay
