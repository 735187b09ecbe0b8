import math

import numpy as np
import pytest

from nqdot.errors import GeometryMismatch, StepTooCoarse, ZeroDrive
from nqdot.geometry import GeometrySpec, build_grid
from nqdot.solver import (
    Coupling,
    _field_at,
    finite_lifetime,
    lifetime_with_leakage,
    reconstruct_wavefunction,
    solve_bound_states,
)
from nqdot.transitions import (
    DriveConfig,
    _box_field,
    _box_lattice,
    dipole_element,
    rabi_frequency,
    simulate_two_level,
)

FIG4B_DRIVE = dict(surface_voltage_V=1.0, mass_density_kg_m3=780.0)


def drive_for(radius, e0=1.0):
    return DriveConfig(
        field_kv_cm=(0.0, 0.0, e0), crystal_radius_nm=radius, **FIG4B_DRIVE
    )


def triple_rabi(ground, p_states, grid, coupling, drive):
    """Magnitude of the driven 1s coupling into the p multiplet; the
    quadrature sum over members is basis-rotation invariant."""
    parts = [
        rabi_frequency(drive, dipole_element(ground, p, grid, coupling))
        for p in p_states
    ]
    return float(np.linalg.norm(parts))


def test_dipole_parity_zeros(r40):
    ground = r40.states[0]
    elem_ss = dipole_element(ground, ground, r40.grid, r40.coupling)
    assert np.linalg.norm(elem_ss.d_mn_nm) < 1e-3 * 40.0
    d_state = r40.group("1d")[0]
    elem_sd = dipole_element(ground, d_state, r40.grid, r40.coupling)
    assert np.linalg.norm(elem_sd.d_mn_nm) < 1e-3 * 40.0


def test_dipole_triple_structure(r40):
    """The 1s -> 1p block is an orthogonal frame times one scalar, with the
    scalar well inside (0.1 R, R): the aligned member reads (0, 0, d)."""
    ground = r40.states[0]
    D = np.array(
        [
            dipole_element(ground, p, r40.grid, r40.coupling).d_mn_nm
            for p in r40.group("1p")
        ]
    )
    gram = D @ D.T
    d2 = np.trace(gram) / 3.0
    assert np.max(np.abs(gram - d2 * np.eye(3))) < 0.01 * d2
    d = math.sqrt(d2)
    assert 0.1 * 40.0 < d < 40.0


def test_dipole_hermiticity(r40):
    ground = r40.states[0]
    p = r40.group("1p")[0]
    d_mn = dipole_element(ground, p, r40.grid, r40.coupling).d_mn_nm
    d_nm = dipole_element(p, ground, r40.grid, r40.coupling).d_mn_nm
    assert np.max(np.abs(d_mn - np.conj(d_nm))) < 1e-8


def test_dipole_rejects_foreign_grid(r40, lih):
    other = build_grid(GeometrySpec.sphere(30.0, 10))
    coupling = Coupling.from_composition(lih, other)
    with pytest.raises(GeometryMismatch):
        dipole_element(r40.states[0], r40.states[1], other, coupling)


@pytest.fixture(scope="module")
def r30_div8(lih):
    """LiH sphere R = 30 nm, grid_div 8 (N = 2109): 1s and the 1p triple."""
    grid = build_grid(GeometrySpec.sphere(30.0, 8))
    coupling = Coupling.from_composition(lih, grid)
    return grid, coupling, solve_bound_states(grid, coupling, max_states=4)


def test_coupling_gate_survives_cached_box_field(r30_div8):
    """A coupling the states do not solve is refused after a call with the
    right one: no box values are cached, and the gate runs on every call."""
    grid, coupling, states = r30_div8
    dipole_element(states[0], states[1], grid, coupling)
    wrong = Coupling(c=1.5 * coupling.c, spacing=coupling.spacing)
    with pytest.raises(ValueError, match="deviates from"):
        dipole_element(states[0], states[1], grid, wrong)


@pytest.mark.parametrize("fixture", ["r30_div8", "r30"])
def test_box_field_matches_direct_reconstruction(fixture, request):
    """The box values from the lattice FFT equal the kernel_block
    reconstruction at the exterior box points, and psi inside, at grid_div
    8 and 10."""
    bundle = request.getfixturevalue(fixture)
    if fixture == "r30_div8":
        grid, _coupling, states = bundle
    else:
        grid, states = bundle.grid, bundle.states
    pts, _w = _box_lattice(grid)
    inside = np.sum(pts**2, axis=1) <= grid.spec.grid_div**2
    for state in states[:2]:
        vals = _box_field(state, grid, pts)
        direct = _field_at(pts[~inside] * grid.spacing, state, grid)
        assert np.array_equal(vals[inside], state.psi)
        assert np.max(np.abs(vals[~inside] - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_state_of_another_grid_with_equal_size_is_refused(r30_div8, lih):
    """The R = 31 nm grid has the same N = 2109 as R = 30 nm at grid_div 8,
    so only the signature tells the two apart."""
    _grid, _coupling, states = r30_div8
    other = build_grid(GeometrySpec.sphere(31.0, 8))
    assert other.n_points == len(states[0].psi)
    coupling = Coupling.from_composition(lih, other)
    with pytest.raises(GeometryMismatch):
        reconstruct_wavefunction(states[0], other, coupling, [[50.3, 0.37, 0.21]])
    with pytest.raises(GeometryMismatch):
        lifetime_with_leakage(states[0], other, lih, coupling)
    with pytest.raises(GeometryMismatch):
        finite_lifetime(states[0], other, lih)
    with pytest.raises(GeometryMismatch):
        dipole_element(states[0], states[1], other, coupling)


def test_dipole_resolution_stability(lih, r40):
    """Two-resolution check of the 1s -> 1p scalar.  Measured drift for
    grid_div 10 -> 12 is ~0.5%, i.e. two solid digits; asserted at 1.5%."""
    grid = build_grid(GeometrySpec.sphere(40.0, 12))
    coupling = Coupling.from_composition(lih, grid)
    states = solve_bound_states(grid, coupling, max_states=4)
    assert [s.level_label for s in states] == ["1s", "1p", "1p", "1p"]
    D = np.array(
        [
            dipole_element(states[0], p, grid, coupling).d_mn_nm
            for p in states[1:4]
        ]
    )
    d_fine = math.sqrt(np.trace(D @ D.T) / 3.0)

    D0 = np.array(
        [
            dipole_element(r40.states[0], p, r40.grid, r40.coupling).d_mn_nm
            for p in r40.group("1p")
        ]
    )
    d_coarse = math.sqrt(np.trace(D0 @ D0.T) / 3.0)
    assert d_fine == pytest.approx(d_coarse, rel=1.5e-2)


def test_rabi_frequency_in_expected_window(r40):
    omega = triple_rabi(
        r40.states[0], r40.group("1p"), r40.grid, r40.coupling, drive_for(40.0)
    )
    assert 0.05e6 <= abs(omega) / (2 * math.pi) <= 5e6


def test_rabi_linear_in_field(r40):
    ground = r40.states[0]
    elem = dipole_element(ground, r40.group("1p")[0], r40.grid, r40.coupling)
    w1 = rabi_frequency(drive_for(40.0, e0=1.0), elem)
    w2 = rabi_frequency(drive_for(40.0, e0=2.0), elem)
    assert abs(w2 / (2.0 * w1) - 1.0) <= 1e-6


def test_rabi_inverse_in_mass(r40):
    ground = r40.states[0]
    elem = dipole_element(ground, r40.group("1p")[0], r40.grid, r40.coupling)
    d1 = drive_for(40.0)
    d2 = DriveConfig(
        field_kv_cm=(0.0, 0.0, 1.0),
        surface_voltage_V=1.0,
        crystal_radius_nm=40.0,
        mass_density_kg_m3=2.0 * 780.0,
    )
    assert rabi_frequency(d2, elem) == pytest.approx(
        0.5 * rabi_frequency(d1, elem), rel=1e-12
    )


def test_rabi_zero_drive_rejected(r40):
    ground = r40.states[0]
    elem = dipole_element(ground, r40.group("1p")[0], r40.grid, r40.coupling)
    drive = DriveConfig(
        field_kv_cm=(0.0, 0.0, 1.0),
        surface_voltage_V=1.0,
        crystal_radius_nm=40.0,
        mass_density_kg_m3=780.0,
        drive_freq_rad_s=0.0,
    )
    with pytest.raises(ZeroDrive):
        rabi_frequency(drive, elem)


def test_rabi_beats_decay_by_an_order(r40, lih):
    omega = triple_rabi(
        r40.states[0], r40.group("1p"), r40.grid, r40.coupling, drive_for(40.0)
    )
    lifetime_s = (
        lifetime_with_leakage(r40.states[0], r40.grid, lih, r40.coupling) * 1e-3
    )
    assert abs(omega) * lifetime_s / (2 * math.pi) >= 10.0


def test_rabi_decreases_with_radius(lih, r30, r40):
    """1s -> 1p drive at fixed V and E0 weakens with crystal size."""
    values = {}
    for bundle, radius in ((r30, 30.0), (r40, 40.0)):
        values[radius] = abs(
            triple_rabi(
                bundle.states[0],
                bundle.group("1p"),
                bundle.grid,
                bundle.coupling,
                drive_for(radius),
            )
        )
    grid = build_grid(GeometrySpec.sphere(60.0, 10))
    coupling = Coupling.from_composition(lih, grid)
    states = solve_bound_states(grid, coupling, max_states=4)
    assert [s.level_label for s in states] == ["1s", "1p", "1p", "1p"]
    values[60.0] = abs(
        triple_rabi(states[0], states[1:4], grid, coupling, drive_for(60.0))
    )
    assert values[30.0] > values[40.0] > values[60.0]


def test_two_level_pi_pulse():
    omega = 2 * math.pi * 1e5
    series = simulate_two_level(omega, 0.0, 0.0, t_span_s=math.pi / omega)
    assert abs(series.n_p[-1] - 1.0) <= 1e-6


def test_two_level_uniform_decay():
    omega, gamma = 2 * math.pi * 1e5, 4.0e3
    series = simulate_two_level(omega, 0.0, gamma, t_span_s=5e-5)
    total = series.n_s + series.n_p
    assert np.max(np.abs(total - np.exp(-gamma * series.t_s))) <= 1e-6


def test_two_level_detuned_amplitude():
    omega = 2 * math.pi * 1e5
    delta = 3.0 * omega
    series = simulate_two_level(omega, delta, 0.0, t_span_s=6e-5)
    assert series.n_p.max() == pytest.approx(0.1, rel=0.01)


def test_two_level_step_guard():
    with pytest.raises(StepTooCoarse):
        simulate_two_level(1e6, 0.0, 0.0, t_span_s=1e-4, dt_s=1e-5)
    with pytest.raises(ValueError):
        simulate_two_level(1e6, 0.0, -1.0)


def test_drive_config_validation():
    with pytest.raises(ValueError):
        DriveConfig((0, 0, 1), -1.0, 40.0, 780.0)
    with pytest.raises(ValueError):
        DriveConfig((0, 0, 1), 1.0, 0.0, 780.0)
    d = drive_for(40.0)
    assert d.charge_C > 0 and d.mass_kg > 0
