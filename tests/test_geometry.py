import itertools
import math

import numpy as np
import pytest

from nqdot.errors import UnboundedImageSet
from nqdot.geometry import GeometrySpec, Grid, build_grid, periodic_displacements


def test_sphere_point_count_near_volume_estimate():
    grid = build_grid(GeometrySpec.sphere(30.0, 10))
    expected = 4.0 / 3.0 * math.pi * 10**3  # ~4189
    assert abs(grid.n_points - expected) / expected < 0.10
    assert grid.spacing == pytest.approx(3.0)
    assert grid.periodic_axes == ()


def test_sphere_points_inside_and_distinct():
    grid = build_grid(GeometrySpec.sphere(30.0, 10))
    radii = np.linalg.norm(grid.points, axis=1)
    assert radii.max() <= 30.0 + 1e-12
    assert len(np.unique(grid.points, axis=0)) == grid.n_points


def test_sphere_centered_and_symmetric():
    grid = build_grid(GeometrySpec.sphere(1.0, 10))
    assert grid.spacing == pytest.approx(0.1)
    assert grid.n_points > 0
    pts = {tuple(np.round(p, 12)) for p in grid.points}
    assert {tuple(np.round(-p, 12)) for p in grid.points} == pts
    assert (0.0, 0.0, 0.0) in pts


def test_lattice_is_the_integer_view_of_sphere_sites():
    """Grid.lattice holds a sphere's build_grid integers and a wire's (x, y,
    0) integers; a grid with a site off the a0 lattice or with two sites at
    one point has none, and so has a film at half-integer heights."""
    n = 6
    grid = build_grid(GeometrySpec.sphere(12.0, n))
    ints = [p for p in itertools.product(range(-n, n + 1), repeat=3) if np.dot(p, p) <= n * n]
    assert np.array_equal(grid.lattice, ints)
    assert np.array_equal(grid.lattice * grid.spacing, grid.points)
    a0 = grid.spacing
    ax = np.arange(-n, n) + 0.5
    half = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), -1).reshape(-1, 3)
    half = half[np.sum(half**2, axis=1) <= n * n] * a0
    for pts in (grid.points + a0 / 3, half, np.vstack([grid.points, grid.points[:1]])):
        assert Grid(pts, a0, ()).lattice is None
    wire = build_grid(GeometrySpec.cylinder(25.0, 10))
    square = itertools.product(range(-10, 11), repeat=2)
    disc = [(x, y, 0) for x, y in square if x * x + y * y <= 100]
    assert np.array_equal(wire.lattice, disc)
    assert np.array_equal(wire.lattice * wire.spacing, wire.points)
    assert build_grid(GeometrySpec.slab(100.0, 40)).lattice is None


def test_slab_column():
    grid = build_grid(GeometrySpec.slab(10.0, 10))
    assert grid.n_points == 10
    assert grid.spacing == pytest.approx(1.0)
    assert len(grid.periodic_axes) == 2
    assert np.allclose(grid.points[:, :2], 0.0)
    zs = np.sort(grid.points[:, 2])
    assert zs[0] == pytest.approx(-4.5)
    assert zs[-1] == pytest.approx(4.5)
    # cells tile the thickness exactly and the column is centered
    assert np.allclose(np.diff(zs), 1.0)
    assert abs(zs.sum()) < 1e-12


def test_cylinder_single_layer():
    grid = build_grid(GeometrySpec.cylinder(40.0, 10))
    assert np.allclose(grid.points[:, 2], 0.0)
    assert grid.periodic_axes == ((2, 4.0),)
    rho = np.hypot(grid.points[:, 0], grid.points[:, 1])
    assert rho.max() <= 40.0 + 1e-12
    expected = math.pi * 10**2
    assert abs(grid.n_points - expected) / expected < 0.10


def test_spec_validation():
    with pytest.raises(ValueError):
        GeometrySpec.sphere(0.0, 10)
    with pytest.raises(ValueError):
        GeometrySpec.sphere(10.0, 3)
    with pytest.raises(ValueError):
        GeometrySpec("cube", 1.0, 10)


def test_displacement_range_example():
    grid = build_grid(GeometrySpec.cylinder(40.0, 10))
    grid = Grid(points=grid.points, spacing=4.0, periodic_axes=((2, 4.0),), spec=None)
    out = periodic_displacements(grid, kappa=0.07, tol=1e-10)
    # n_max = floor(ln(1e10) / (0.07 * 4)) = 82
    ns = sorted(int(round(v[2] / 4.0)) for v, _w in out)
    assert ns[0] == -82 and ns[-1] == 82
    assert 0 not in ns
    assert len(ns) == 164


def test_displacement_tol_one_empty():
    grid = build_grid(GeometrySpec.slab(10.0, 10))
    assert periodic_displacements(grid, kappa=0.5, tol=1.0) == []


def test_displacements_closed_under_negation():
    grid = build_grid(GeometrySpec.slab(10.0, 10))
    out = periodic_displacements(grid, kappa=0.9, tol=1e-6)
    vecs = {tuple(np.round(v, 12)) for v, _w in out}
    assert {tuple(np.round(-np.asarray(v), 12)) for v in vecs} == vecs


def test_displacements_need_positive_kappa():
    grid = build_grid(GeometrySpec.slab(10.0, 10))
    with pytest.raises(UnboundedImageSet):
        periodic_displacements(grid, kappa=0.0, tol=1e-10)
