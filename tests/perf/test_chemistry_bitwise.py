"""The fast chemistry path is bitwise identical to the reference.

Two implementations of the Young-Boris integrator coexist:

* the reference path (``fast=False``): allocation-per-substep numpy.  A
  ``fast=True`` solver runs it too whenever the C kernel is unavailable
  (no compiler, a failed build, ``REPRO_CHEM_NO_C``); the ``numpy``
  cases below force that by making ``cfused.load()`` return ``None``;
* the C fast path: workspace-backed stages fused into single passes by
  ``repro/chemistry/_cfused.c``.

The contract is *bitwise* equality between them — ``np.array_equal``,
not ``allclose`` — across stiff and non-stiff regimes, with and without
emissions, and for any memory order of the caller's arrays.
"""

import numpy as np
import pytest

from repro.chemistry import YoungBorisSolver, cit_mechanism
from repro.chemistry.cfused import load as load_cfused
from repro.chemistry.kernel import FastKernel

from tests.chemistry.test_youngboris import urban_state


@pytest.fixture(scope="module")
def mech():
    return cit_mechanism()


@pytest.fixture
def no_c(monkeypatch):
    """Make the solver see a host without the C kernel."""
    monkeypatch.setattr("repro.chemistry.cfused.load", lambda: None)


def solve(mech, conc, *, fast, emissions=None, workers=1):
    solver = YoungBorisSolver(mech, fast=fast, workers=workers,
                              tile_min_cols=1)
    try:
        return solver.integrate(conc, 300.0, 298.0, 0.6,
                                emissions=emissions)
    finally:
        solver.close()


def _needs_c():
    if load_cfused() is None:
        pytest.skip("no C compiler available; reference path covered")


@pytest.mark.parametrize("with_emissions", [False, True],
                         ids=["no-emissions", "emissions"])
def test_numpy_fast_path_matches_reference(mech, with_emissions, no_c):
    """``fast=True`` without the C kernel falls back to the reference."""
    conc = urban_state(mech, npts=23, seed=1)
    emissions = None
    if with_emissions:
        emissions = np.zeros_like(conc)
        emissions[mech.index["NO"]] = 1e-5
        emissions[mech.index["PAR"]] = 4e-5
    reference = solve(mech, conc, fast=False, emissions=emissions)
    fast = solve(mech, conc, fast=True, emissions=emissions)
    assert np.array_equal(reference, fast)


@pytest.mark.parametrize("with_emissions", [False, True],
                         ids=["no-emissions", "emissions"])
def test_c_fast_path_matches_reference(mech, with_emissions):
    _needs_c()
    conc = urban_state(mech, npts=23, seed=2)
    emissions = None
    if with_emissions:
        emissions = np.zeros_like(conc)
        emissions[mech.index["NO2"]] = 2e-5
    reference = solve(mech, conc, fast=False, emissions=emissions)
    fast_c = solve(mech, conc, fast=True, emissions=emissions)
    assert np.array_equal(reference, fast_c)


def test_backends_agree_on_single_point(mech):
    """A 1-point integration exercises the skinny-block edge case."""
    conc = urban_state(mech, npts=1, seed=3)
    reference = solve(mech, conc, fast=False)
    assert np.array_equal(reference, solve(mech, conc, fast=True))


@pytest.mark.parametrize("workers", [1, 2], ids=["untiled", "tiled"])
def test_fortran_ordered_inputs_match_reference(mech, workers):
    """F-ordered ``conc`` and ``emissions`` give the reference bits.

    The fused kernels take raw C-order addresses; ``integrate`` copies
    its state in C order, so the caller's layout never matters.
    """
    conc = urban_state(mech, npts=29, seed=6)
    emissions = np.zeros_like(conc)
    emissions[mech.index["NO"]] = 1e-5
    emissions[mech.index["PAR"]] = 4e-5
    reference = solve(mech, conc, fast=False, emissions=emissions)
    conc_f = np.asfortranarray(conc)
    emissions_f = np.asfortranarray(emissions)
    assert not conc_f.flags.c_contiguous
    fast = solve(mech, conc_f, fast=True, emissions=emissions_f,
                 workers=workers)
    assert np.array_equal(reference, fast)


def test_kernel_rejects_non_c_order_arrays(mech):
    """Kernel entry points raise instead of reading a wrong layout."""
    lib = load_cfused()
    if lib is None:
        pytest.skip("no C compiler available")
    kern = FastKernel(mech, lib)
    kern.ensure(5)
    conc = np.asfortranarray(urban_state(mech, npts=5, seed=7))
    k = mech.rate_constants(298.0, 0.6)
    with pytest.raises(ValueError, match="C-contiguous"):
        kern.production_loss(conc, k, 0)


def test_repeated_integrations_share_workspaces(mech):
    """Workspace reuse across calls must not leak state between runs."""
    solver = YoungBorisSolver(mech, fast=True)
    conc_a = urban_state(mech, npts=11, seed=4)
    conc_b = urban_state(mech, npts=7, seed=5)
    first_a = solver.integrate(conc_a, 300.0, 298.0, 0.6)
    solver.integrate(conc_b, 300.0, 298.0, 0.6)  # different width in between
    again_a = solver.integrate(conc_a, 300.0, 298.0, 0.6)
    assert np.array_equal(first_a, again_a)
