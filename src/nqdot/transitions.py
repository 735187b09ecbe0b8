"""Dipole matrix elements, microwave Rabi frequency, two-level dynamics.

A charged nanocrystal (charge q = 4 pi eps0 R V from its surface voltage,
mass M = 4/3 pi R^3 rho) oscillates in the microwave field; the neutron
state follows the nuclide distribution, which drives transitions between
bound states at the Rabi rate

    Omega = (q m_n / M hbar) (omega_mn / omega) E0 . d_mn,

with d_mn the position matrix element between the two states.  d_mn is
integrated on the solver lattice extended to a cube of side 3R around the
sphere center (trapezoidal weights); the reconstructed field supplies
values outside the crystal, and each state is normalized on that same box.
Every box point, like every sphere site, is a0 times an integer vector, so
the exterior values are one FFT convolution of psi with the lattice kernel
(solver._lattice_apply), computed afresh on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constants import EPS0_SI, HBAR_SI, HBAR_UEV_S, KV_PER_CM, M_N_SI, NM
from .errors import GeometryMismatch, StepTooCoarse, ZeroDrive
from .geometry import SPHERE, Grid
from .solver import BoundState, Coupling, _lattice_apply, reconstruction_scale


@dataclass(frozen=True)
class DriveConfig:
    """Microwave drive acting on a charged spherical nanocrystal."""

    field_kv_cm: tuple  # E0 vector, kV/cm
    surface_voltage_V: float
    crystal_radius_nm: float
    mass_density_kg_m3: float
    drive_freq_rad_s: Optional[float] = None  # None = on resonance

    def __post_init__(self):
        if self.surface_voltage_V < 0:
            raise ValueError("surface voltage must be >= 0 (q >= 0)")
        if self.crystal_radius_nm <= 0 or self.mass_density_kg_m3 <= 0:
            raise ValueError("radius and density must be > 0 (M > 0)")

    @property
    def charge_C(self) -> float:
        """Conducting-sphere charge q = 4 pi eps0 R V."""
        return 4.0 * math.pi * EPS0_SI * self.crystal_radius_nm * NM * self.surface_voltage_V

    @property
    def mass_kg(self) -> float:
        r = self.crystal_radius_nm * NM
        return 4.0 / 3.0 * math.pi * r**3 * self.mass_density_kg_m3


@dataclass(frozen=True)
class TransitionElement:
    """Dipole vector d_mn (nm) and resonance frequency of a state pair."""

    d_mn_nm: np.ndarray = field(repr=False)  # (3,)
    omega_mn_rad_s: float  # (e_b_n - e_b_m)/hbar = (E_m - E_n)/hbar
    pair: tuple  # (label_m, label_n)

    def __post_init__(self):
        if self.d_mn_nm.shape != (3,):
            raise ValueError("d_mn must be a 3-vector")


def _box_lattice(grid: Grid):
    """Integer lattice extension of a sphere grid to the 3R cube, with
    per-axis trapezoidal weights (half weight on the cube faces)."""
    n = grid.spec.grid_div
    half = int(round(1.5 * n))
    ax = np.arange(-half, half + 1)
    w_ax = np.ones(ax.size)
    w_ax[0] = w_ax[-1] = 0.5
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    w = (w_ax[:, None, None] * w_ax[None, :, None] * w_ax[None, None, :]).ravel()
    return pts, w


def _box_field(state: BoundState, grid: Grid, pts_int):
    """State values on the box lattice: grid psi inside, the reconstruction
    s K psi outside, the exterior by FFT convolution on the integer lattice
    (_lattice_apply).  The box sites inside the sphere must be the grid's
    own lattice (Grid.lattice), in its order (GeometryMismatch)."""
    n = grid.spec.grid_div
    inside = (pts_int**2).sum(axis=1) <= n * n
    if not np.array_equal(pts_int[inside], grid.lattice):
        raise GeometryMismatch("grid sites are not the sphere lattice of its spec")
    vals = np.zeros(len(pts_int), dtype=state.psi.dtype)
    vals[inside] = state.psi
    vals[~inside] = state.scale * _lattice_apply(grid, state.kappa, state.psi, pts_int[~inside])
    return vals


def dipole_element(
    state_m: BoundState,
    state_n: BoundState,
    grid: Grid,
    coupling: Coupling,
) -> TransitionElement:
    """d_mn = integral psi_m* r psi_n over the 3R cube, on the a0 lattice,
    with both states normalized over that cube.  Raises GeometryMismatch for
    a state of another grid and ValueError for a coupling the states do not
    solve (reconstruction_scale)."""
    if grid.spec is None or grid.spec.shape != SPHERE:
        raise GeometryMismatch("dipole elements are defined for sphere grids")
    reconstruction_scale(state_m, grid, coupling)
    reconstruction_scale(state_n, grid, coupling)
    a0 = grid.spacing
    pts_int, w = _box_lattice(grid)
    f_m = _box_field(state_m, grid, pts_int)
    f_n = f_m if state_n is state_m else _box_field(state_n, grid, pts_int)
    # psi is normalized on the crystal cells only; normalizing each state
    # again over the box counts its exterior tail (the a0^3 cell volumes cancel)
    norm = math.sqrt(float(np.sum(np.abs(f_m) ** 2 * w) * np.sum(np.abs(f_n) ** 2 * w)))
    integrand = np.conj(f_m) * f_n * w / norm
    d = (pts_int * a0 * integrand[:, None]).sum(axis=0)
    d = d.real if np.max(np.abs(np.imag(np.atleast_1d(d)))) < 1e-12 else d
    diag = math.sqrt(3.0) * (pts_int[:, 0].max() - pts_int[:, 0].min()) * a0
    if np.linalg.norm(d) > diag:
        raise ValueError("dipole element exceeds the integration-box diagonal")
    omega = (state_n.e_b - state_m.e_b) / HBAR_UEV_S
    return TransitionElement(
        d_mn_nm=np.asarray(d, dtype=float),
        omega_mn_rad_s=omega,
        pair=(state_m.level_label, state_n.level_label),
    )


def rabi_frequency(drive: DriveConfig, elem: TransitionElement) -> float:
    """Rabi angular frequency (rad/s); only its magnitude is physical."""
    omega = drive.drive_freq_rad_s
    if omega is None:
        omega = abs(elem.omega_mn_rad_s)
    if omega == 0.0:
        raise ZeroDrive("drive frequency is zero")
    e0_si = np.asarray(drive.field_kv_cm, dtype=float) * KV_PER_CM
    d_si = elem.d_mn_nm * NM
    return (
        drive.charge_C
        * M_N_SI
        / (drive.mass_kg * HBAR_SI)
        * (elem.omega_mn_rad_s / omega)
        * float(e0_si @ d_si)
    )


@dataclass(frozen=True)
class TwoLevelSeries:
    """Populations of the driven pair; total decays as exp(-gamma t)."""

    t_s: np.ndarray
    n_s: np.ndarray
    n_p: np.ndarray


def simulate_two_level(
    rabi_rad_s: float,
    detuning_rad_s: float = 0.0,
    decay_rad_s: float = 0.0,
    t_span_s: float = 1e-4,
    dt_s: Optional[float] = None,
) -> TwoLevelSeries:
    """Rotating-wave two-level evolution with uniform absorption decay.

    The propagator per step is the exact 2x2 rotation times the decay
    factor, so the textbook identities (pi-pulse inversion, detuned
    amplitude, exponential total population) hold to machine precision at
    any admissible step.
    """
    if decay_rad_s < 0:
        raise ValueError("decay rate must be >= 0")
    omega_g = math.hypot(rabi_rad_s, detuning_rad_s)
    dt_cap = 2.0 * math.pi / (50.0 * omega_g) if omega_g > 0 else t_span_s
    if dt_s is None:
        dt_s = dt_cap / 2.0
    if dt_s > dt_cap:
        raise StepTooCoarse(
            f"dt = {dt_s:.3e} s exceeds 2 pi / (50 sqrt(Omega^2+Delta^2)) "
            f"= {dt_cap:.3e} s"
        )
    # land exactly on t_span so pulse-area identities hold at the endpoint
    n_steps = max(1, int(math.ceil(t_span_s / dt_s - 1e-12)))
    dt_s = t_span_s / n_steps
    t = np.arange(n_steps + 1) * dt_s

    theta = 0.5 * omega_g * dt_s
    if omega_g > 0:
        nx = rabi_rad_s / omega_g
        nz = -detuning_rad_s / omega_g
    else:
        nx = nz = 0.0
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    u = np.array(
        [
            [cos_t - 1j * sin_t * nz, -1j * sin_t * nx],
            [-1j * sin_t * nx, cos_t + 1j * sin_t * nz],
        ]
    ) * math.exp(-0.5 * decay_rad_s * dt_s)

    c = np.array([1.0 + 0j, 0.0 + 0j])
    n_s = np.empty(n_steps + 1)
    n_p = np.empty(n_steps + 1)
    n_s[0], n_p[0] = 1.0, 0.0
    for i in range(1, n_steps + 1):
        c = u @ c
        n_s[i] = abs(c[0]) ** 2
        n_p[i] = abs(c[1]) ** 2
    return TwoLevelSeries(t_s=t, n_s=n_s, n_p=n_p)
