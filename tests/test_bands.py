import numpy as np
import pytest

from nqdot.bands import CubicLattice, planewave_bulk_band, subband_dispersion
from nqdot.bulk import dispersion
from nqdot.errors import CutoffTooSmall, NoBoundState
from nqdot.geometry import GeometrySpec, Grid
from nqdot.nuclides import CrystalComposition, NuclideTable, ScatteringEntry


def test_slab_has_multiple_subbands_at_gamma(lih):
    pts = subband_dispersion(GeometrySpec.slab(100.0, 10), lih, [0.0], max_states=6)
    assert len(pts) >= 2
    energies = [p.energy_ueV for p in pts]
    assert all(e < 0 for e in energies)
    assert energies == sorted(energies)  # ascending in subband_index


def test_thin_film_still_binds(lih):
    pts = subband_dispersion(GeometrySpec.slab(2.0, 10), lih, [0.0], max_states=2)
    assert len(pts) >= 1
    assert pts[0].energy_ueV < 0


def test_subband_count_nondecreasing_in_thickness(lih):
    n50 = len(subband_dispersion(GeometrySpec.slab(50.0, 10), lih, [0.0], max_states=8))
    n100 = len(
        subband_dispersion(GeometrySpec.slab(100.0, 10), lih, [0.0], max_states=8)
    )
    assert n50 <= n100
    assert n50 >= 1


def test_subbands_need_periodic_geometry(lih):
    with pytest.raises(ValueError):
        subband_dispersion(GeometrySpec.sphere(30.0, 10), lih, [0.0])


def test_subbands_reject_unbound_composition():
    comp = CrystalComposition.make("NiH", [("Ni", None, False, 4), ("H", 1, True, 1)], 45.0)
    with pytest.raises(NoBoundState):
        subband_dispersion(GeometrySpec.slab(50.0, 10), comp, [0.0])


def test_empty_subbands_at_large_k_allowed(lih):
    # far beyond the exit wavevector of every sub-band
    pts = subband_dispersion(GeometrySpec.slab(20.0, 10), lih, [0.3], max_states=4)
    assert pts == []


# ---------------------------------------------------------------------------
# plane-wave bulk band
# ---------------------------------------------------------------------------


def test_planewave_zero_shells_equals_dispersion(lih, lih_lattice):
    for k in (0.0, 0.05, 0.11):
        pw = planewave_bulk_band(lih, lih_lattice, np.array([k, 0.0, 0.0]), g_cutoff=0)
        assert pw[0] == pytest.approx(dispersion(lih, k), rel=1e-12, abs=1e-12)


def test_planewave_gamma_matches_bulk_level(lih, lih_lattice, lih_bulk):
    pw = planewave_bulk_band(lih, lih_lattice, np.zeros(3), g_cutoff=3)
    assert pw[0] == pytest.approx(-lih_bulk.e_b_star, rel=0.01)


def test_planewave_k_inversion_symmetry(lih, lih_lattice):
    up = planewave_bulk_band(lih, lih_lattice, np.array([0.07, 0.0, 0.0]), g_cutoff=2)
    dn = planewave_bulk_band(lih, lih_lattice, np.array([-0.07, 0.0, 0.0]), g_cutoff=2)
    assert up[0] == pytest.approx(dn[0], rel=1e-12)


def test_planewave_cutoff_guard():
    tbl = NuclideTable([ScatteringEntry("Q", None, -5.0e4, 0.0)])
    comp = CrystalComposition.make("Q", [("Q", None, False, 1)], 64.0)
    lattice = CubicLattice(a_A=4.0, basis=((("Q", None, False), (0.0, 0.0, 0.0)),))
    with pytest.raises(CutoffTooSmall):
        planewave_bulk_band(comp, lattice, np.zeros(3), g_cutoff=0, table=tbl)


def test_wire_pair_classes_found_once_per_dispersion(lih, monkeypatch):
    """The displacement classes belong to the grid: a dispersion over four k
    groups the wire's pairs once, not once per k."""
    grouping = Grid.pair_classes.func
    calls = []

    def counted(grid):
        calls.append(grid.n_points)
        return grouping(grid)

    monkeypatch.setattr(Grid.pair_classes, "func", counted)
    pts = subband_dispersion(
        GeometrySpec.cylinder(25.0, 6), lih, [0.0, 0.01, 0.02, 0.04], max_states=2
    )
    assert {p.k for p in pts} == {0.0, 0.01, 0.02, 0.04}
    assert calls == [113]


def test_subband_energies_are_real(lih):
    pts = subband_dispersion(
        GeometrySpec.slab(60.0, 10), lih, [0.0, 0.03], max_states=4
    )
    for p in pts:
        assert np.imag(p.energy_ueV) == 0.0


def test_thick_slab_approaches_bulk_level(lih, lih_bulk):
    """t = 400 nm film at a resolution that resolves 1/kappa* (a0 = 2 nm):
    the deepest sub-band sits within 5% of the bulk level."""
    pts = subband_dispersion(
        GeometrySpec.slab(400.0, 200), lih, [0.0], max_states=1
    )
    assert pts[0].energy_ueV == pytest.approx(-lih_bulk.e_b_star, rel=0.05)
