import math

import numpy as np
import pytest
from scipy.constants import hbar, m_n, e as e_charge

from nqdot.bulk import (
    _shell_counts,
    bulk_properties,
    cubic_lattice_sum,
    dispersion,
    mass_gain,
)
from nqdot.errors import (
    MissingDensity,
    NoBoundState,
    TruncationTooSmall,
    ZeroAbsorption,
)
from nqdot.materials import load_material
from nqdot.nuclides import CrystalComposition, NuclideTable, ScatteringEntry


def hand_binding_energy(sum_re_fm, volume_A3):
    """Independent recomputation of E_b* = 2 pi hbar^2 |sum| / (m_n V)."""
    return (
        2.0
        * math.pi
        * hbar**2
        * (-sum_re_fm * 1e-15)
        / (m_n * volume_A3 * 1e-30)
        / (e_charge * 1e-6)
    )


def test_lih_binding_energy(lih, lih_bulk, table):
    sum_re, _ = table.composition_sums(lih)
    hand = hand_binding_energy(sum_re, lih.cell_volume_A3)
    assert lih_bulk.e_b_star == pytest.approx(hand, rel=5e-3)
    # reported level is -0.33 ueV; constant-level discrepancy tolerated to 10%
    assert lih_bulk.e_b_star == pytest.approx(0.33, rel=0.10)


def test_lih_mass_gain(lih):
    assert mass_gain(lih) == pytest.approx(6.78e-6, rel=0.01)


def test_mass_gain_power_law(table):
    # doubling every count doubles sum_re: gain scales by 2^(3/2)
    base = CrystalComposition.make(
        "b", [("Li", 7, False, 2), ("H", 1, True, 2)], 40.0, 1000.0
    )
    double = CrystalComposition.make(
        "d", [("Li", 7, False, 4), ("H", 1, True, 4)], 40.0, 1000.0
    )
    assert mass_gain(double) == pytest.approx(2**1.5 * mass_gain(base), rel=1e-12)


def test_mass_gain_missing_density():
    comp = CrystalComposition.make("x", [("H", 1, True, 1)], 10.0)
    with pytest.raises(MissingDensity):
        mass_gain(comp)


def test_mgh2_bulk_pair():
    comp, _ = load_material("MgH2")
    bp = bulk_properties(comp)
    assert bp.e_b_star == pytest.approx(0.27, rel=0.05)
    assert bp.t_star == pytest.approx(0.19, rel=0.05)


def test_product_identity(lih_bulk):
    rel = abs(lih_bulk.e_b_star * lih_bulk.t_star - lih_bulk.ebt_bound)
    assert rel <= 1e-10 * lih_bulk.ebt_bound


def test_no_bound_state_carries_sum(table):
    comp = CrystalComposition.make(
        "NiH", [("Ni", None, False, 4), ("H", 1, True, 1)], 45.0
    )
    with pytest.raises(NoBoundState) as err:
        bulk_properties(comp)
    assert err.value.sum_re_fm > 0


def test_zero_absorption_raises():
    tbl = NuclideTable([ScatteringEntry("Q", None, -30.0, 0.0)])
    comp = CrystalComposition.make("Q", [("Q", None, False, 1)], 64.0)
    with pytest.raises(ZeroAbsorption):
        bulk_properties(comp, tbl)


def test_dispersion_parabola(lih, lih_bulk):
    from nqdot.constants import HBAR2_OVER_2MN

    assert dispersion(lih, 0.0) == pytest.approx(-lih_bulk.e_b_star, rel=1e-14)
    assert abs(dispersion(lih, lih_bulk.kappa_star)) < 1e-12 * lih_bulk.e_b_star
    assert dispersion(lih, 2 * lih_bulk.kappa_star) == pytest.approx(
        3.0 * lih_bulk.e_b_star, rel=1e-12
    )
    for k in (0.03, 0.11, 0.4):
        assert dispersion(lih, k) - dispersion(lih, 0.0) == pytest.approx(
            HBAR2_OVER_2MN * k * k, rel=1e-12
        )


# ---------------------------------------------------------------------------
# cubic lattice sum
# ---------------------------------------------------------------------------


def brute_lattice_sum(t, n_max):
    g = np.arange(-n_max, n_max + 1)
    x, y, z = np.meshgrid(g, g, g, indexing="ij")
    r = np.sqrt((x * x + y * y + z * z).astype(float))
    r[n_max, n_max, n_max] = np.inf
    keep = r <= n_max
    return float(np.sum(np.exp(-t * r[keep]) / r[keep]))


@pytest.mark.parametrize("n", [12, 20])
def test_shell_counts_match_brute_force(n):
    g = np.arange(-n, n + 1)
    x, y, z = np.meshgrid(g, g, g, indexing="ij")
    m = (x * x + y * y + z * z).ravel()
    assert np.array_equal(_shell_counts(n), np.bincount(m[m <= n * n], minlength=n * n + 1))


def test_lattice_sum_matches_brute_force():
    assert cubic_lattice_sum(1.0, 0.5, 55) == pytest.approx(
        brute_lattice_sum(0.5, 55), rel=1e-13
    )
    assert cubic_lattice_sum(2.0, 0.6, 30) == pytest.approx(
        brute_lattice_sum(1.2, 30), rel=1e-13
    )


def test_lattice_sum_continuum_limit():
    t = 0.01
    s = cubic_lattice_sum(1.0, t, 2764)
    assert s == pytest.approx(4.0 * math.pi / t**2, rel=0.01)


def test_lattice_sum_nearest_neighbor_regime():
    s = cubic_lattice_sum(1.0, 10.0, 3)
    assert s == pytest.approx(brute_lattice_sum(10.0, 3), rel=1e-13)
    assert s == pytest.approx(6.0 * math.exp(-10.0), rel=0.05)


def test_lattice_sum_scale_invariance():
    assert cubic_lattice_sum(2.0, 0.05, 300) == cubic_lattice_sum(4.0, 0.025, 300)


def test_lattice_sum_monotone_in_kappa_a():
    values = [cubic_lattice_sum(1.0, t, 200) for t in (0.2, 0.3, 0.5, 0.8)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_lattice_sum_truncation_guard():
    with pytest.raises(TruncationTooSmall):
        cubic_lattice_sum(1.0, 0.01, 800)


def test_lattice_sum_reproduces_bulk_kappa():
    """Solving 1 + (b/a) S(kappa a) = 0 for a synthetic one-atom cubic
    crystal lands on the closed-form kappa* within 2%."""
    a_nm = 0.4
    b_fm = -30.0  # |b|/a = 7.5e-5
    tbl = NuclideTable([ScatteringEntry("Q", None, b_fm, 1e-6)])
    comp = CrystalComposition.make("Q", [("Q", None, False, 1)], (a_nm * 10) ** 3)
    kappa_star = bulk_properties(comp, tbl).kappa_star

    b_nm = b_fm * 1e-6
    target = a_nm / (-b_nm)  # S at the root

    def f(kappa):
        return cubic_lattice_sum(a_nm, kappa, 1100) - target

    lo, hi = 0.8 * kappa_star, 1.2 * kappa_star
    assert f(lo) > 0 > f(hi)  # S decreases with kappa
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert root == pytest.approx(kappa_star, rel=0.02)
