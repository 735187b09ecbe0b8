import math

import numpy as np
import pytest

from nqdot.geometry import GeometrySpec, Grid, build_grid
from nqdot.kernel import assemble_kernel, assemble_kernel_direct, kernel_block
from nqdot.solver import Coupling, TopEigenSolver


def two_point_grid(distance):
    pts = np.array([[0.0, 0.0, 0.0], [distance, 0.0, 0.0]])
    return Grid(points=pts, spacing=distance, periodic_axes=())


def test_two_point_kernel():
    k = assemble_kernel(two_point_grid(1.0), kappa=1.0)
    assert k[0, 0] == 0.0 and k[1, 1] == 0.0
    assert k[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert k[1, 0] == k[0, 1]


def test_aperiodic_translation_invariance():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-5, 5, (40, 3))
    g1 = Grid(points=pts, spacing=1.0, periodic_axes=())
    g2 = Grid(points=pts + np.array([11.0, -4.0, 7.0]), spacing=1.0, periodic_axes=())
    k1 = assemble_kernel(g1, 0.7)
    k2 = assemble_kernel(g2, 0.7)
    assert np.max(np.abs(k1 - k2)) < 1e-11


@pytest.mark.parametrize("kappa", [2.0, 0.8])
def test_slab_kernel_matches_direct_sum(kappa):
    grid = build_grid(GeometrySpec.slab(10.0, 10))
    k_fast = assemble_kernel(grid, kappa)
    k_ref = assemble_kernel_direct(grid, kappa, tol=1e-16)
    assert k_fast.dtype == np.float64
    assert np.max(np.abs(k_fast - k_ref)) < 1e-11


def test_slab_kernel_bloch_matches_direct_sum():
    grid = build_grid(GeometrySpec.slab(10.0, 10))
    k_vec = np.array([0.9, -0.4, 0.0])
    k_fast = assemble_kernel(grid, 1.5, k_vec)
    k_ref = assemble_kernel_direct(grid, 1.5, k_vec, tol=1e-16)
    assert np.max(np.abs(k_fast - k_ref)) < 1e-11


def test_slab_off_column_target_matches_direct_sum():
    """A target off the film's site column, at k = 0: every reciprocal
    term keeps its in-plane phase exp(i G . d)."""
    grid = build_grid(GeometrySpec.slab(10.0, 10))
    kappa, a0 = 0.8, grid.spacing
    target = np.array([0.3 * a0, 0.2 * a0, 0.7 * a0])
    shifts = np.arange(-50, 51) * a0  # exp(-kappa 50 a0) ~ 4e-18
    lx, ly = (v.ravel() for v in np.meshgrid(shifts, shifts, indexing="ij"))
    d = target - grid.points
    r = np.sqrt((d[:, 0, None] + lx) ** 2 + (d[:, 1, None] + ly) ** 2 + d[:, 2, None] ** 2)
    direct = np.sum(np.exp(-kappa * r) / r, axis=1)
    fast = kernel_block(target[None, :], grid, kappa)[0]
    assert np.allclose(fast, direct, rtol=1e-11, atol=0)


@pytest.mark.parametrize("kappa", [2.0, 0.6])
def test_wire_kernel_matches_direct_sum(kappa):
    grid = build_grid(GeometrySpec.cylinder(5.0, 5))
    k_fast = assemble_kernel(grid, kappa)
    k_ref = assemble_kernel_direct(grid, kappa, tol=1e-16)
    assert np.max(np.abs(k_fast - k_ref)) < 1e-11


@pytest.mark.parametrize("kz", [0.0, 0.7])
@pytest.mark.parametrize("kappa", [2.0, 0.6])
def test_wire_near_line_targets_match_direct_sum(kappa, kz):
    """Targets on a source's periodic line (rho = 0) and 0.12 a0 off it,
    where the K0 series is replaced by a per-pair direct image sum."""
    grid = build_grid(GeometrySpec.cylinder(5.0, 5))
    (axis, period), = grid.periodic_axes
    a0, source = grid.spacing, grid.points[7]
    offsets = np.zeros((2, 3))
    offsets[:, axis] = 0.3 * a0
    offsets[1, (axis + 1) % 3] = 0.12 * a0
    targets = source + offsets
    k = np.zeros(3)
    k[axis] = kz
    shifts = np.arange(-60, 61) * period  # exp(-0.6 x 60 a0) ~ 2e-16
    d = targets[:, None, :] - grid.points
    trans = np.sum(np.delete(d, axis, axis=2) ** 2, axis=2)
    r = np.sqrt(trans[..., None] + (d[..., axis, None] + shifts) ** 2)
    direct = np.sum(np.exp(1j * kz * shifts) * np.exp(-kappa * r) / r, axis=2)
    fast = kernel_block(targets, grid, kappa, k)
    assert np.allclose(fast, direct, rtol=1e-11, atol=0)


def random_periodic_grids():
    """A multi-layer wire and a multi-column slab, 8 random sites each."""
    rng = np.random.default_rng(0)
    pts_w = np.column_stack(
        [rng.uniform(-2, 2, 8), rng.uniform(-2, 2, 8), rng.uniform(0, 1.0, 8)]
    )
    wire = Grid(points=pts_w, spacing=1.0, periodic_axes=((2, 1.0),))
    pts_s = np.column_stack(
        [rng.uniform(0, 1, 8), rng.uniform(0, 1, 8), rng.uniform(-3, 3, 8)]
    )
    slab = Grid(points=pts_s, spacing=1.0, periodic_axes=((0, 1.0), (1, 1.0)))
    return wire, slab


def test_random_periodic_grids_complex_hermitian():
    """Random multi-layer periodic grids produce genuinely complex kernels;
    the resummed forms must match direct summation and stay Hermitian."""
    wire, slab = random_periodic_grids()
    kv = np.array([0.0, 0.0, 0.7])
    k_fast = assemble_kernel(wire, 0.9, kv)
    k_ref = assemble_kernel_direct(wire, 0.9, kv, tol=1e-16)
    assert np.iscomplexobj(k_ref)
    assert np.max(np.abs(k_fast - k_ref)) < 1e-11

    for kv in (np.zeros(3), np.array([0.5, -0.3, 0.0])):
        k_fast = assemble_kernel(slab, 0.8, kv)
        k_ref = assemble_kernel_direct(slab, 0.8, kv, tol=1e-16)
        assert np.max(np.abs(k_fast - k_ref)) < 1e-11
        assert np.max(np.abs(k_ref - k_ref.conj().T)) < 1e-12


def per_pair_kernel(grid, kappa, bloch_k):
    """assemble_kernel without displacement classes: every pair evaluated."""
    mat = kernel_block(
        grid.points, grid, kappa, bloch_k, self_mask=np.eye(grid.n_points, dtype=bool)
    )
    return 0.5 * (mat + mat.conj().T)


def _class_path_cases():
    wire, slab = random_periodic_grids()
    return [
        ("wire R25 div10", build_grid(GeometrySpec.cylinder(25.0, 10)), 0.05, [0, 0, 0.04]),
        ("wire R25 div12", build_grid(GeometrySpec.cylinder(25.0, 12)), 0.05, [0, 0, 0.04]),
        ("film 100 div40", build_grid(GeometrySpec.slab(100.0, 40)), 0.003, [0.04, 0, 0]),
        ("film 100 div30", build_grid(GeometrySpec.slab(100.0, 30)), 0.12, [0.02, -0.03, 0]),
        ("random wire", wire, 0.9, [0, 0, 0.7]),
        ("random slab", slab, 0.8, [0.5, -0.3, 0]),
    ]


@pytest.mark.parametrize("case", _class_path_cases(), ids=lambda case: case[0])
def test_displacement_classes_bit_identical_to_per_pair(case):
    """The class-gathered kernel is the pair-by-pair one, bit for bit, at
    k = 0 and off it: each class is evaluated at its pairs' own float64
    displacement."""
    _name, grid, kappa, k = case
    for bloch_k in (np.zeros(3), np.array(k, float)):
        fast = assemble_kernel(grid, kappa, bloch_k)
        slow = per_pair_kernel(grid, kappa, bloch_k)
        assert fast.dtype == slow.dtype
        assert np.array_equal(fast, slow)


def test_displacement_classes_deduplicate_lattice_wire():
    grid = build_grid(GeometrySpec.cylinder(25.0, 10))
    index, displacements, _self_pair = grid.pair_classes
    assert index.shape == (317, 317)
    assert index.size == 100_489
    assert len(displacements) == 1241
    assert np.array_equal(np.unique(index), np.arange(1241))


@pytest.mark.parametrize(
    "periodic_axes, axis, bloch_k",
    [(((2, 1.0),), 0, [0, 0, 0.3]), (((0, 1.0), (1, 1.0)), 2, [0.3, 0, 0])],
    ids=["wire", "slab"],
)
def test_displacement_classes_do_not_merge_one_ulp(periodic_axes, axis, bloch_k):
    """Two pairs whose displacements differ by one ulp along a free axis
    land in different classes, each with its own per-pair value."""
    pts = np.zeros((4, 3))
    pts[2:, 1] = 0.3
    pts[1, axis] = 0.7
    pts[3, axis] = np.nextafter(0.7, 1.0)
    grid = Grid(points=pts, spacing=1.0, periodic_axes=periodic_axes)
    d_a, d_b = pts[1] - pts[0], pts[3] - pts[2]
    assert d_a[axis] != d_b[axis]
    assert np.array_equal(np.delete(d_a, axis), np.delete(d_b, axis))
    index = grid.pair_classes[0]
    assert index[1, 0] != index[3, 2]
    for k in (np.zeros(3), np.array(bloch_k, float)):
        assert np.array_equal(assemble_kernel(grid, 0.8, k), per_pair_kernel(grid, 0.8, k))


def test_bloch_k_zero_is_real():
    grid = build_grid(GeometrySpec.slab(10.0, 10))
    k = assemble_kernel(grid, 0.4, np.zeros(3))
    assert k.dtype == np.float64


def test_bloch_k_restricted_to_periodic_axes():
    grid = build_grid(GeometrySpec.slab(10.0, 10))
    with pytest.raises(ValueError):
        assemble_kernel(grid, 0.4, np.array([0.0, 0.0, 0.1]))


def test_tiny_kappa_periodic_kernels_are_finite():
    # direct summation would need ~7600 image shells here
    slab = build_grid(GeometrySpec.slab(2.0, 10))
    k = assemble_kernel(slab, 0.0022)
    assert np.all(np.isfinite(k))
    wire = build_grid(GeometrySpec.cylinder(5.0, 5))
    k = assemble_kernel(wire, 0.0022)
    assert np.all(np.isfinite(k))


def test_top_eigenvalue_strictly_decreasing_in_kappa():
    rng = np.random.default_rng(7)
    for _ in range(3):
        pts = rng.uniform(-4, 4, (60, 3))
        grid = Grid(points=pts, spacing=1.0, periodic_axes=())
        tops = []
        for kappa in np.geomspace(0.05, 3.0, 12):
            tops.append(np.linalg.eigvalsh(assemble_kernel(grid, kappa))[-1])
        assert all(a > b for a, b in zip(tops, tops[1:]))


def test_branch_values_linear_in_coupling(lih):
    grid = build_grid(GeometrySpec.sphere(6.0, 6))
    c_full = Coupling.from_composition(lih, grid)
    c_tiny = Coupling(c=c_full.c * 1e-3, spacing=c_full.spacing)
    full = TopEigenSolver(grid, c_full, 3)
    tiny = TopEigenSolver(grid, c_tiny, 3)
    for kappa in np.geomspace(0.3, 0.02, 5):
        for block in range(len(full.blocks)):
            assert np.allclose(
                tiny.branches(kappa, block), full.branches(kappa, block) * 1e-3, rtol=1e-12
            )
