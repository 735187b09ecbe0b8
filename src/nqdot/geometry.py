"""Coarse-grained point grids for spheres, cylinders, and slabs.

A grid is a cubic lattice of spacing a0 intersected with the analytic shape,
anchored at the shape centroid.  Spheres and the cylinder cross-section use
the integer lattice (a point sits on the centroid); the slab thickness axis
is cell-centered so that exactly grid_div cells tile the film.  Periodic
axes carry a single layer of points and period a0: the coarse-grained medium
has no intra-period structure, so one cell per period is the continuum-limit
choice.

Membership is by point center only (no partial-cell volume weights), and
each point represents a cell of volume a0^3.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import EmptyGrid, UnboundedImageSet

SPHERE = "sphere"
CYLINDER = "cylinder"
SLAB = "slab"


@dataclass(frozen=True)
class GeometrySpec:
    """Shape + resolution.  a0 = characteristic size / grid_div.

    sphere:   radius_nm;                no periodic axis
    cylinder: radius_nm;                axis (z) periodic, period a0
    slab:     thickness_nm;             in-plane (x, y) periodic, period a0
    """

    shape: str
    size_nm: float  # radius (sphere, cylinder) or thickness (slab)
    grid_div: int = 10

    def __post_init__(self):
        if self.shape not in (SPHERE, CYLINDER, SLAB):
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.size_nm <= 0:
            raise ValueError("size must be > 0")
        if self.grid_div < 4:
            raise ValueError("grid_div must be >= 4")

    @property
    def spacing(self) -> float:
        return self.size_nm / self.grid_div

    @staticmethod
    def sphere(radius_nm: float, grid_div: int = 10) -> "GeometrySpec":
        return GeometrySpec(SPHERE, radius_nm, grid_div)

    @staticmethod
    def cylinder(radius_nm: float, grid_div: int = 10) -> "GeometrySpec":
        return GeometrySpec(CYLINDER, radius_nm, grid_div)

    @staticmethod
    def slab(thickness_nm: float, grid_div: int = 10) -> "GeometrySpec":
        return GeometrySpec(SLAB, thickness_nm, grid_div)


@dataclass(frozen=True)
class Grid:
    """Point cloud r_i (nm), spacing a0, and 0-2 periodic (axis, period) pairs."""

    points: np.ndarray = field(repr=False)  # (N, 3)
    spacing: float
    periodic_axes: tuple  # ((axis_index, period_nm), ...)
    spec: Optional[GeometrySpec] = None

    @property
    def cell_weight(self) -> float:
        """Volume represented by one grid point, a0^3 in nm^3."""
        return self.spacing**3

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def signature(self) -> tuple:
        """Cheap identity used to detect cross-grid state mixing."""
        shape = self.spec.shape if self.spec else "custom"
        size = self.spec.size_nm if self.spec else 0.0
        return (shape, round(size, 9), round(self.spacing, 12), self.n_points)

    @functools.cached_property
    def pair_classes(self) -> tuple:
        """The site pairs grouped by displacement r_i - r_j, found once per grid.

        A lattice sum depends on a pair only through its displacement and on
        whether the pair is a site with itself (its L = 0 term excluded), so
        an N x N periodic kernel holds one value per class of pairs that
        agree in both.  Classes are keyed on the exact float64 bits of the
        displacement, so each class is evaluated at the very displacement
        its pairs would give.  Returns (index, displacements, self_pair):
        the N x N class of each pair, one displacement per class and whether
        the class is a site with itself.  On lattice grids the N^2 pairs fall
        into O(N) classes (1 241 for the 100 489 pairs of an R = 25 nm,
        grid_div 10 wire).
        """
        n = self.n_points
        d = (self.points[:, None, :] - self.points[None, :, :]).reshape(n * n, 3)
        is_self = np.eye(n, dtype=bool).ravel()
        keys = np.column_stack([d.view(np.uint64), is_self])
        order = np.lexsort(keys.T)
        ranked = keys[order]
        new = np.ones(n * n, dtype=bool)
        np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
        index = np.empty(n * n, dtype=np.intp)
        index[order] = np.cumsum(new) - 1
        first = order[new]
        classes = (index.reshape(n, n), d[first], is_self[first])
        for a in classes:
            a.setflags(write=False)
        return classes

    @functools.cached_property
    def lattice(self) -> Optional[np.ndarray]:
        """The integer coordinates n of the sites, points == spacing * n
        exactly, found once per grid; None with a site off the a0 lattice or
        with two sites at one point.  Every build_grid sphere has them, and
        every build_grid wire, its one layer at n_z = 0; a build_grid film
        of even grid_div sits at half-integer heights and has none."""
        n = np.rint(self.points / self.spacing).astype(np.intp)
        on_lattice = np.array_equal(n * self.spacing, self.points)
        if not on_lattice or len(np.unique(n, axis=0)) < len(n):
            return None
        n.setflags(write=False)
        return n


def build_grid(spec: GeometrySpec) -> Grid:
    """Cubic lattice of spacing a0 intersected with the shape."""
    a0 = spec.spacing
    n = spec.grid_div
    if spec.shape == SPHERE:
        ax = np.arange(-n, n + 1)
        x, y, z = np.meshgrid(ax, ax, ax, indexing="ij")
        mask = x * x + y * y + z * z <= n * n
        pts = np.column_stack([x[mask], y[mask], z[mask]]).astype(float) * a0
        periodic = ()
    elif spec.shape == CYLINDER:
        ax = np.arange(-n, n + 1)
        x, y = np.meshgrid(ax, ax, indexing="ij")
        mask = x * x + y * y <= n * n
        xs = x[mask].astype(float) * a0
        ys = y[mask].astype(float) * a0
        pts = np.column_stack([xs, ys, np.zeros_like(xs)])
        periodic = ((2, a0),)
    else:  # slab: cell-centered across the thickness, single in-plane cell
        zs = (np.arange(n) + 0.5) * a0 - spec.size_nm / 2.0
        pts = np.column_stack([np.zeros(n), np.zeros(n), zs])
        periodic = ((0, a0), (1, a0))
    if pts.shape[0] == 0:
        raise EmptyGrid(f"{spec.shape} of size {spec.size_nm} nm holds no point")
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    pts = np.ascontiguousarray(pts[order])
    pts.setflags(write=False)
    return Grid(points=pts, spacing=a0, periodic_axes=periodic, spec=spec)


def periodic_displacements(grid: Grid, kappa: float, tol: float):
    """Image displacement vectors L = n.p with exp(-kappa |L|) >= tol, n != 0.

    Returns a list of (displacement 3-vector, weight bound exp(-kappa |L|)),
    closed under negation of each image index.  This enumeration backs the
    direct-summation kernel path; the production spectral sums do not need
    it but are cross-validated against it.
    """
    if not grid.periodic_axes:
        raise ValueError("grid has no periodic axis")
    if kappa <= 0:
        raise UnboundedImageSet(f"kappa = {kappa:g} <= 0 with periodic axes")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    log_inv = math.log(1.0 / tol) if tol < 1.0 else 0.0

    axes, periods = zip(*grid.periodic_axes)
    n_max = [math.floor(log_inv / (kappa * p)) for p in periods]
    out = []
    for index in itertools.product(*(range(-n, n + 1) for n in n_max)):
        if not any(index):
            continue
        shift = [n * p for n, p in zip(index, periods)]
        w = math.exp(-kappa * math.hypot(*shift))
        if w >= tol:
            vec = np.zeros(3)
            vec[list(axes)] = shift
            out.append((vec, w))
    return out
