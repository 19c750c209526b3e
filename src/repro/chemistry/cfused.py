"""On-demand compilation and ctypes binding of the C fused kernels.

``load()`` compiles :mod:`_cfused.c <repro.chemistry>` with the system
C compiler the first time it is called (cached as a shared object under
``_cfused_build/``, keyed by a hash of the source and flags) and
returns a :class:`CFused` wrapper, or ``None`` when no compiler is
available, compilation fails, or the ``REPRO_CHEM_NO_C`` environment
variable is set.  ``None`` makes the solver run its reference path
(:class:`repro.chemistry.youngboris.YoungBorisSolver` with
``fast=False`` semantics), which produces identical results about
2.7x slower on an LA chemistry step (``docs/PERFORMANCE.md`` §3).  ``load()`` is thread-safe: concurrent first
callers wait for one build and all receive the same object.

The build deliberately avoids ``-march=native`` and disables FMA
contraction and fast-math: the point of the C kernels is to fuse numpy
ufunc chains *without changing a single result bit*, which requires the
compiler to round every intermediate exactly like the numpy expression
tree does (see ``_cfused.c`` and ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import threading
from pathlib import Path
from typing import Optional

__all__ = ["CFused", "load"]

_SRC = Path(__file__).with_name("_cfused.c")
_BUILD_DIR = Path(__file__).with_name("_cfused_build")

#: No -march=native (FMA contraction would change rounding), no
#: fast-math (re-association would too).  -ffp-contract=off makes the
#: no-FMA guarantee explicit even on FMA-default toolchains.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off")

_c_i64 = ctypes.c_int64
_c_vp = ctypes.c_void_p


class CFused:
    """ctypes bindings over the compiled kernel library.

    Pointer arguments are declared ``c_void_p`` so callers pass raw
    addresses (``ndarray.ctypes.data`` integers, which the hot path
    caches per workspace buffer) — per-call ``data_as`` marshalling
    costs more than some of the kernels themselves.  All arrays must be
    C-contiguous with the dtypes the kernels expect (float64 data,
    int64 indices); :mod:`repro.chemistry.kernel` checks contiguity
    before it passes an address.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        self.build_rates = lib.yb_build_rates
        self.build_rates.argtypes = [
            _c_i64, _c_i64, _c_vp, _c_vp, _c_vp, _c_vp, _c_vp,
        ]
        self.build_rates.restype = None
        self.pl_finish = lib.yb_pl_finish
        self.pl_finish.argtypes = [_c_i64, _c_vp, _c_vp]
        self.pl_finish.restype = None
        self.predictor = lib.yb_predictor
        self.predictor.argtypes = [
            _c_i64, _c_i64, _c_vp, _c_vp, _c_vp, _c_vp, _c_vp,
            ctypes.c_double, ctypes.c_double, _c_i64,
            _c_vp, _c_vp, _c_vp, _c_vp,
        ]
        self.predictor.restype = _c_i64
        self.corrector = lib.yb_corrector
        self.corrector.argtypes = [
            _c_i64, _c_i64, _c_vp, _c_vp, _c_vp, _c_vp, _c_vp, _c_vp,
            _c_vp, _c_vp, ctypes.c_double, ctypes.c_double, _c_i64,
            _c_vp, _c_vp, _c_vp, _c_vp,
        ]
        self.corrector.restype = _c_i64
        self.errmax = lib.yb_errmax
        self.errmax.argtypes = [_c_i64, _c_i64, _c_vp, _c_vp, _c_vp]
        self.errmax.restype = None
        self.gather_cols = lib.yb_gather_cols
        self.gather_cols.argtypes = [
            _c_i64, _c_i64, _c_i64, _c_vp, _c_vp, _c_vp,
        ]
        self.gather_cols.restype = None
        self.scatter_cols = lib.yb_scatter_cols
        self.scatter_cols.argtypes = [
            _c_i64, _c_i64, _c_i64, _c_vp, _c_vp, _c_vp, _c_vp,
        ]
        self.scatter_cols.restype = None
        # Column-span variants for the tiled multi-core engine.  Same
        # per-element operation sequences restricted to [col0, col1);
        # ctypes releases the GIL around each call, so tiles on pool
        # threads genuinely overlap.
        self.build_rates_span = lib.yb_build_rates_span
        self.build_rates_span.argtypes = [
            _c_i64, _c_i64, _c_i64, _c_i64, _c_vp, _c_vp, _c_vp, _c_vp,
            _c_vp,
        ]
        self.build_rates_span.restype = None
        self.pl_finish_span = lib.yb_pl_finish_span
        self.pl_finish_span.argtypes = [
            _c_i64, _c_i64, _c_i64, _c_i64, _c_vp, _c_vp,
        ]
        self.pl_finish_span.restype = None
        self.predictor_span = lib.yb_predictor_span
        self.predictor_span.argtypes = [
            _c_i64, _c_i64, _c_i64, _c_i64, _c_vp, _c_vp, _c_vp, _c_vp,
            _c_vp, ctypes.c_double, ctypes.c_double, _c_i64,
            _c_vp, _c_vp, _c_vp, _c_vp,
        ]
        self.predictor_span.restype = _c_i64
        self.corrector_span = lib.yb_corrector_span
        self.corrector_span.argtypes = [
            _c_i64, _c_i64, _c_i64, _c_i64, _c_vp, _c_vp, _c_vp, _c_vp,
            _c_vp, _c_vp, _c_vp, _c_vp, ctypes.c_double, ctypes.c_double,
            _c_i64, _c_vp, _c_vp, _c_vp, _c_vp,
        ]
        self.corrector_span.restype = _c_i64
        self.gather_cols_span = lib.yb_gather_cols_span
        self.gather_cols_span.argtypes = [
            _c_i64, _c_i64, _c_i64, _c_i64, _c_i64, _c_vp, _c_vp, _c_vp,
        ]
        self.gather_cols_span.restype = None
        self.scatter_cols_span = lib.yb_scatter_cols_span
        self.scatter_cols_span.argtypes = [
            _c_i64, _c_i64, _c_i64, _c_i64, _c_i64, _c_vp, _c_vp, _c_vp,
            _c_vp,
        ]
        self.scatter_cols_span.restype = None
        self.errmax_span = lib.yb_errmax_span
        self.errmax_span.argtypes = [
            _c_i64, _c_i64, _c_i64, _c_i64, _c_vp, _c_vp, _c_vp,
        ]
        self.errmax_span.restype = None


def _compile() -> Optional[Path]:
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None or not _SRC.exists():
        return None
    source = _SRC.read_bytes()
    digest = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()
    so_path = _BUILD_DIR / f"cfused_{digest[:16]}.so"
    if so_path.exists():
        return so_path
    try:
        _BUILD_DIR.mkdir(exist_ok=True)
        tmp = so_path.with_suffix(f".tmp{os.getpid()}.so")
        subprocess.run(
            [cc, *_CFLAGS, "-o", str(tmp), str(_SRC)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, so_path)  # atomic: concurrent builders agree
    except (OSError, subprocess.SubprocessError):
        return None
    return so_path


_cached: Optional[CFused] = None
_attempted = False
#: Serialises the first load: ``_attempted`` turns true only after
#: ``_cached`` holds the outcome.
_load_lock = threading.Lock()


def load() -> Optional[CFused]:
    """The compiled kernels, or ``None`` when unavailable (memoized)."""
    global _cached, _attempted
    if _attempted:
        return _cached
    with _load_lock:
        if not _attempted:
            _cached = _build()
            _attempted = True
    return _cached


def _build() -> Optional[CFused]:
    if os.environ.get("REPRO_CHEM_NO_C"):
        return None
    so_path = _compile()
    if so_path is None:
        return None
    try:
        return CFused(ctypes.CDLL(str(so_path)))
    except OSError:
        return None
