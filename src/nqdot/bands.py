"""Sub-band dispersions of periodic nanostructures and the plane-wave bulk band.

Sub-bands come from the Bloch-kernel bound-state solve at each sampled k
along the periodic axis (slab: in-plane x; wire: axis z).  The bulk band is
cross-checked in a plane-wave basis:

    H_GG' = (hbar^2/2m_n)|k+G|^2 delta_GG' + V_{G-G'},
    V_G   = (2 pi hbar^2 / m_n) sum_s Re[b_s] exp(-i G.tau_s) / Omega,

with G on the reciprocal lattice of the cubic cell and tau_s the basis
sites.  At zero potential shells this reduces to the closed-form parabolic
band; the cutoff is convergence-checked by adding one shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import eigh

from .constants import HBAR2_OVER_2MN
from .errors import CutoffTooSmall, NoBoundState
from .geometry import CYLINDER, SLAB, GeometrySpec, build_grid
from .nuclides import CrystalComposition, NuclideTable, default_table
from .solver import Coupling, solve_bound_states


@dataclass(frozen=True)
class BandPoint:
    """One (k, sub-band) energy sample; energy < 0 for bound sub-bands."""

    k: float  # 1/nm along the periodic direction
    subband_index: int
    energy_ueV: float


def subband_dispersion(
    spec: GeometrySpec,
    comp: CrystalComposition,
    k_samples: Sequence[float],
    max_states: int = 8,
    table: Optional[NuclideTable] = None,
) -> list:
    """Bound sub-bands E_n(k) of a cylinder or slab, ascending n at each k.

    An empty sub-band set at large |k| is a valid outcome and is simply
    omitted from the returned list.
    """
    if spec.shape not in (CYLINDER, SLAB):
        raise ValueError("sub-band dispersion needs a periodic geometry")
    table = table or default_table()
    sum_re, _ = table.composition_sums(comp)
    if sum_re >= 0.0:
        raise NoBoundState(sum_re)
    grid = build_grid(spec)
    coupling = Coupling.from_composition(comp, grid, table)
    k_axis = 2 if spec.shape == CYLINDER else 0

    points = []
    for k in k_samples:
        bloch = np.zeros(3)
        bloch[k_axis] = k
        states = solve_bound_states(
            grid, coupling, max_states=max_states, bloch_k=bloch
        )
        # states come deepest-first; sub-band index orders energies upward
        for idx, s in enumerate(states):
            points.append(BandPoint(k=float(k), subband_index=idx, energy_ueV=-s.e_b))
    return points


@dataclass(frozen=True)
class CubicLattice:
    """Cubic cell of edge a (A) with a nuclide basis at fractional sites."""

    a_A: float
    basis: tuple  # ((symbol, isotope|None, polarized), (fx, fy, fz)) pairs

    def __post_init__(self):
        if self.a_A <= 0:
            raise ValueError("lattice constant must be > 0")

    @property
    def cell_volume_A3(self) -> float:
        return self.a_A**3


def _reciprocal_shells(g_cutoff: int):
    """Integer reciprocal points grouped into the first g_cutoff+1 shells
    by |m|^2 (shell 0 is G = 0)."""
    span = int(math.ceil(math.sqrt(g_cutoff))) + 1
    mm = np.arange(-span, span + 1)
    mx, my, mz = np.meshgrid(mm, mm, mm, indexing="ij")
    m2 = (mx * mx + my * my + mz * mz).ravel()
    pts = np.column_stack([mx.ravel(), my.ravel(), mz.ravel()])
    shells = np.unique(m2)
    keep_m2 = shells[: g_cutoff + 1]
    sel = np.isin(m2, keep_m2)
    order = np.lexsort((pts[sel, 2], pts[sel, 1], pts[sel, 0], m2[sel]))
    return pts[sel][order]


def _pw_lowest(comp, lattice, k, g_cutoff, n_bands, table):
    a_nm = lattice.a_A * 0.1
    # the composition fixes the potential normalization (so the one-wave
    # limit reproduces the closed-form dispersion exactly); the lattice
    # supplies the reciprocal geometry and must describe the same cell
    if abs(lattice.cell_volume_A3 - comp.cell_volume_A3) > 0.01 * comp.cell_volume_A3:
        raise ValueError(
            f"lattice volume {lattice.cell_volume_A3:g} A^3 does not match "
            f"the composition cell {comp.cell_volume_A3:g} A^3"
        )
    omega_nm3 = comp.cell_volume_A3 * 1e-3
    ints = _reciprocal_shells(g_cutoff)
    g = ints * (2.0 * math.pi / a_nm)  # (n, 3) 1/nm
    kv = np.asarray(k, dtype=float)
    if kv.shape != (3,):
        raise ValueError("k must be a 3-vector in 1/nm")

    kin = HBAR2_OVER_2MN * np.sum((kv + g) ** 2, axis=1)
    # potential matrix element V(G - G') from the basis structure factor
    diff = ints[:, None, :] - ints[None, :, :]
    v = np.zeros(diff.shape[:2], dtype=complex)
    for key, frac in lattice.basis:
        entry = table.lookup_entry(*key)
        phase = np.exp(-2j * math.pi * (diff @ np.asarray(frac)))
        v += entry.re_b_fm * 1e-6 * phase
    v *= 4.0 * math.pi * HBAR2_OVER_2MN / omega_nm3
    h = np.diag(kin).astype(complex) + v
    vals = eigh(h, eigvals_only=True)
    return vals[:n_bands]


def planewave_bulk_band(
    comp: CrystalComposition,
    lattice: CubicLattice,
    k,
    g_cutoff: int = 3,
    n_bands: int = 1,
    table: Optional[NuclideTable] = None,
) -> np.ndarray:
    """Lowest plane-wave band energies (ueV) at Bloch vector k.

    Raises CutoffTooSmall when adding one reciprocal shell moves the lowest
    band by more than 1e-3 relative.
    """
    if g_cutoff < 0:
        raise ValueError("g_cutoff must be >= 0")
    table = table or default_table()
    vals = _pw_lowest(comp, lattice, k, g_cutoff, n_bands, table)
    check = _pw_lowest(comp, lattice, k, g_cutoff + 1, 1, table)
    # measure convergence against the potential scale |V_0|: the band itself
    # crosses zero along the path and cannot serve as a reference there
    sum_re = sum(
        table.lookup_entry(*key).re_b_fm for key, _frac in lattice.basis
    )
    v0 = abs(
        4.0 * math.pi * HBAR2_OVER_2MN * sum_re * 1e-6 / (comp.cell_volume_A3 * 1e-3)
    )
    scale = max(abs(vals[0]), v0, 1e-30)
    if abs(check[0] - vals[0]) > 1e-3 * scale:
        raise CutoffTooSmall(
            f"lowest band moves by {abs(check[0] - vals[0]):.3e} ueV "
            f"({abs(check[0] - vals[0]) / scale:.2e} relative to the potential "
            f"scale) when adding shell {g_cutoff + 1}"
        )
    return vals
