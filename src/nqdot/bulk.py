"""Closed-form infinite-crystal observables.

For a perfect crystal whose unit cell (volume Omega, A^3) carries coherent
sums S_re = sum n*Re[b] and S_im = sum n*Im[b] (fm):

    E_b*      = -2 pi hbar^2 S_re / (m_n Omega)          [ueV, requires S_re < 0]
    1/T*      =  4 pi hbar   S_im / (m_n Omega)          [1/ms]
    E_b* T*   =  hbar |S_re| / (2 S_im)                  [ueV ms]
    E(k)      = -E_b* + (hbar^2/2m_n) k^2                [ueV, k in 1/nm]
    mass gain =  (4 m_n / 3 sqrt(pi) rho) (|S_re|/Omega)^{3/2} x 100%

The E_b*T* product is an upper bound on E_b T for any finite geometry of the
same material.  cubic_lattice_sum evaluates the dimensionless screened sum
S(kappa a) = sum_{n != 0} exp(-kappa a |n|)/|n| over the integer lattice,
used to validate kappa* for a one-atom cubic crystal: 1 + (Re[b]/a) S = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .constants import (
    ABSORPTION_RATE_PER_FM_A3,
    HBAR2_OVER_2MN,
    HBAR_UEV_MS,
    M_N_SI,
)
from .errors import MissingDensity, NoBoundState, TruncationTooSmall, ZeroAbsorption
from .nuclides import CrystalComposition, NuclideTable, default_table

TAIL_BUDGET = 1e-9  # relative truncation-tail allowance for the lattice sum
_MAX_SHELL_RADIUS = 3200  # memory guard: FFT length ~ 3*(n_max+8)^2


@dataclass(frozen=True)
class BulkProperties:
    """Material constants of the infinite crystal."""

    e_b_star: float  # ueV, ground-state binding energy
    t_star: float  # ms, ground-state absorption lifetime
    ebt_bound: float  # ueV*ms, upper bound on E_b*T for finite geometries
    kappa_star: float  # 1/nm, bulk decay wavevector

    def __post_init__(self):
        expected = HBAR2_OVER_2MN * self.kappa_star**2
        if abs(expected - self.e_b_star) > 1e-12 * max(self.e_b_star, 1e-300):
            raise ValueError("kappa_star inconsistent with e_b_star")


def bound_sums(comp: CrystalComposition, table: Optional[NuclideTable] = None) -> tuple:
    """The cell sums (sum n*Re[b], sum n*Im[b]) in fm, or NoBoundState when
    sum n*Re[b] >= 0: the coherent potential attracts only where it is < 0."""
    sum_re, sum_im = (table or default_table()).composition_sums(comp)
    if sum_re >= 0.0:
        raise NoBoundState(sum_re)
    return sum_re, sum_im


def bulk_properties(
    comp: CrystalComposition, table: Optional[NuclideTable] = None
) -> BulkProperties:
    """Compute (E_b*, T*, E_b*T*, kappa*) for a composition.

    Raises NoBoundState when sum n*Re[b] >= 0 (the exception carries the
    offending sum) and ZeroAbsorption when every Im[b] vanishes.
    """
    sum_re, sum_im = bound_sums(comp, table)
    # fm -> nm (1e-6), A^3 -> nm^3 (1e-3)
    density = -sum_re * 1e-6 / (comp.cell_volume_A3 * 1e-3)  # |S_re|/Omega, 1/nm^2
    kappa_star = math.sqrt(4.0 * math.pi * density)
    e_b_star = HBAR2_OVER_2MN * kappa_star**2
    if sum_im <= 0.0:
        raise ZeroAbsorption(
            f"{comp.name}: sum of n*Im[b] = {sum_im:g} fm; lifetime is infinite"
        )
    rate = ABSORPTION_RATE_PER_FM_A3 * sum_im / comp.cell_volume_A3  # 1/ms
    t_star = 1.0 / rate
    ebt_bound = HBAR_UEV_MS * (-sum_re) / (2.0 * sum_im)
    return BulkProperties(e_b_star, t_star, ebt_bound, kappa_star)


def dispersion(
    comp: CrystalComposition, k: float, table: Optional[NuclideTable] = None
) -> float:
    """Parabolic bulk band E(k) = -E_b* + (hbar^2/2m_n) k^2 in ueV."""
    sum_re, _ = bound_sums(comp, table)
    density = -sum_re * 1e-6 / (comp.cell_volume_A3 * 1e-3)
    e_b_star = HBAR2_OVER_2MN * 4.0 * math.pi * density
    return -e_b_star + HBAR2_OVER_2MN * k * k


def mass_gain(
    comp: CrystalComposition, table: Optional[NuclideTable] = None
) -> float:
    """Percent mass gain when every bound Bloch state is filled.

    Returns (4 m_n / 3 sqrt(pi) rho) * (|S_re|/Omega)^{3/2} * 100 with the
    density ratio evaluated in SI.
    """
    if comp.mass_density_kg_m3 is None:
        raise MissingDensity(f"{comp.name}: mass density required for mass gain")
    sum_re, _ = bound_sums(comp, table)
    density_si = -sum_re * 1e-15 / (comp.cell_volume_A3 * 1e-30)  # 1/m^2
    return (
        4.0
        * M_N_SI
        / (3.0 * math.sqrt(math.pi) * comp.mass_density_kg_m3)
        * density_si**1.5
        * 100.0
    )


@lru_cache(maxsize=4)
def _shell_counts(n_max: int) -> np.ndarray:
    """r3[m] = number of integer triples with x^2+y^2+z^2 = m, m <= n_max^2.

    Computed exactly: r3 = r1 * r1 * r1 for the square indicator r1, as one
    cubed spectrum; counts are re-rounded to integers and the rounding slack
    is verified.
    """
    m_max = n_max * n_max
    ax = np.arange(-n_max, n_max + 1)
    r1 = np.zeros(m_max + 1)
    np.add.at(r1, ax * ax, 1.0)

    # Linear convolution support reaches 3*m_max; size the cyclic FFT past it.
    from scipy.fft import irfft, next_fast_len, rfft

    n_fft = next_fast_len(3 * m_max + 1, real=True)
    r3 = irfft(rfft(r1, n_fft, workers=-1) ** 3, n_fft, workers=-1)[: m_max + 1]
    rounded = np.rint(r3)
    if np.max(np.abs(r3 - rounded)) > 0.25:
        raise ArithmeticError("shell-count convolution lost integer precision")
    return rounded


def cubic_lattice_sum(a: float, kappa: float, n_max: int) -> float:
    """Screened lattice sum S = sum_{0<|n|<=n_max} exp(-kappa a |n|)/|n|.

    Depends on kappa*a only.  Shells just beyond the cutoff plus an integral
    bound estimate the truncation tail; if that exceeds TAIL_BUDGET relative
    to S, TruncationTooSmall is raised.
    """
    if a <= 0 or kappa <= 0:
        raise ValueError("a and kappa must be positive")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > _MAX_SHELL_RADIUS:
        raise ValueError(
            f"n_max = {n_max} exceeds the supported shell radius "
            f"{_MAX_SHELL_RADIUS} (kappa*a too small for direct summation)"
        )
    t = kappa * a
    pad = 8
    counts = _shell_counts(n_max + pad)
    m = np.arange(1, len(counts))
    root = np.sqrt(m)
    weights = np.exp(-t * root) / root
    inside = root <= n_max
    s = float(np.dot(counts[1:][inside], weights[inside]))

    # Tail: exact shells out to n_max+pad, then a shifted integral bound
    # (every remaining point lies beyond radius n_max+pad-1).
    tail_shells = float(np.dot(counts[1:][~inside], weights[~inside]))
    r_out = n_max + pad - 1
    tail_integral = 4.0 * math.pi * math.exp(-t * r_out) * (r_out / t + 1.0 / t**2)
    if (tail_shells + tail_integral) > TAIL_BUDGET * s:
        raise TruncationTooSmall(
            f"lattice-sum tail {(tail_shells + tail_integral):.3e} exceeds "
            f"{TAIL_BUDGET:g} x S = {TAIL_BUDGET * s:.3e} (n_max = {n_max})"
        )
    return s
