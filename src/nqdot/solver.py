"""Bound states of the discrete Yukawa-kernel eigenproblem.

A state solves  psi_i + c sum_j K_ij(kappa) psi_j = 0  with coupling
c = a0^3 * sum(n Re[b]) / V_cell < 0, which is equivalent to the nonlinear
root problem  lambda_k(kappa) = 1  on the descending-ordered eigenvalue
branches lambda_k of -c K(kappa).  The branches decrease in kappa (the top
one strictly: it is the Perron eigenvalue of an entrywise-decreasing
positive matrix), so the number of branches above 1 at the kappa floor, the
kappa of a 1e-4 ueV state, is the number of bound states; shallower states
are reported as absent.  Each level is then one bracketed root (Brent's
method, no derivative of K needed) of its first branch between that floor
and the bulk value kappa*, which no finite geometry binds deeper than.
Branches within 1e-9 of it at the root join the level.  A root that misses
|lambda - 1| <= LAMBDA_TOL raises NonConvergedEigensolve.  Binding energy
follows from the root: E_b = (hbar^2/2m_n) kappa^2.

Branches are counted and rooted one symmetry block at a time, all through
TopEigenSolver.  Sphere grids are integer lattices (Grid.lattice)
invariant under the 48 signed axis permutations (O_h); a wire's one layer
is one invariant under the 8 that fix its axis (C4v).  So K(kappa) splits
into one block per irrep (_SymmetryBlocks), read from one table of K over
the squared integer distance per kappa and k (kernel._lattice_kernel).  A
level of a d-dimensional irrep is d-fold degenerate; on a sphere the irrep
names it (A1g s, T1u p or f, Eg/T2g d, A2u/T2u f).  Films and hand-built
grids, off-lattice ones included, are one dense block.  max_states caps the
states returned at whole levels.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh

from .bulk import bound_sums, bulk_properties
from .constants import HBAR2_OVER_2MN
from .errors import GeometryMismatch, NonConvergedEigensolve, ZeroAbsorption
from .geometry import CYLINDER, SLAB, SPHERE, Grid
from .kernel import _lattice_apply, _lattice_kernel, assemble_kernel, kernel_block
from .nuclides import CrystalComposition, NuclideTable

ENERGY_FLOOR_UEV = 1e-4  # states shallower than this are not searched for
KAPPA_REL_TOL = 1e-9  # bracket width that ends a root: |1 - lambda| lands near 1e-10
LAMBDA_TOL = 5e-7
DEGENERATE_BRANCH_TOL = 1e-9  # branches this close at a root are one level
KERNEL_ROWS = 64  # rows per field block, (64, N) near L2 size, and per fold block


@dataclass(frozen=True)
class Coupling:
    """Per-grid-cell kernel strength c = a0^3 sum(n Re[b]) / V_cell, in nm."""

    c: float
    spacing: float  # a0 of the grid it was built for, nm

    def __post_init__(self):
        if self.spacing <= 0:
            raise ValueError("spacing must be > 0")
        if abs(self.c) / self.spacing > 0.2:
            raise ValueError(
                f"|c|/a0 = {abs(self.c) / self.spacing:.3g} leaves the "
                "weak-coupling regime; refine the grid"
            )

    @classmethod
    def from_composition(
        cls,
        comp: CrystalComposition,
        grid: Grid,
        table: Optional[NuclideTable] = None,
    ) -> "Coupling":
        """The coupling of comp on grid; raises NoBoundState (bulk.bound_sums)
        unless the composition binds, so the result has c < 0."""
        sum_re, _ = bound_sums(comp, table)
        c = grid.cell_weight * (sum_re * 1e-6) / (comp.cell_volume_A3 * 1e-3)
        return cls(c=c, spacing=grid.spacing)

    @property
    def kappa_star(self) -> float:
        """Bulk decay wavevector implied by the coupling, 1/nm."""
        if self.c >= 0:
            raise ValueError("kappa_star requires c < 0")
        return math.sqrt(4.0 * math.pi * (-self.c) / self.spacing**3)


@dataclass(frozen=True, eq=False)
class BoundState:
    """One solution of the discrete kernel equation.

    psi is normalized cell-wise, sum |psi_i|^2 a0^3 = 1.  residual is the
    relative defect ||psi + c K psi|| / ||psi|| = |1 - lambda| at the root.
    scale is the amplitude s of the continuous field s K psi that matches
    psi at the sites in least squares, Re<K psi, psi> / <K psi, K psi>; it
    does not depend on the normalization of psi.  States compare by
    identity (eq=False): an ndarray field makes field-wise == ambiguous.
    """

    kappa: float  # 1/nm
    e_b: float  # ueV, binding energy (level sits at E = -e_b)
    psi: np.ndarray = field(repr=False)
    level_label: str
    degeneracy_group: int
    residual: float
    scale: float
    grid_signature: tuple
    bloch_k: Optional[tuple] = None

    def __post_init__(self):
        if abs(self.e_b - HBAR2_OVER_2MN * self.kappa**2) > 1e-12 * self.e_b:
            raise ValueError("e_b inconsistent with kappa")


def _fix_phase(vecs: np.ndarray) -> np.ndarray:
    """Deterministic gauge for a state or the columns of a multiplet: the
    largest-|.| component of the first column made real and positive, the
    same factor on every column so that partners keep their relations."""
    lead = vecs.reshape(len(vecs), -1)[:, 0]
    pivot = lead[int(np.argmax(np.abs(lead)))]
    vecs = vecs * (np.conj(pivot) / abs(pivot))
    if np.iscomplexobj(vecs) and np.abs(vecs.imag).max() <= 1e-10 * np.abs(vecs).max():
        vecs = vecs.real.copy()
    return vecs


# ---------------------------------------------------------------------------
# cubic (O_h) symmetry blocks
# ---------------------------------------------------------------------------

# lowest angular momentum holding each irrep: the letter of its levels
_IRREP_ELL = dict(A1g=0, T1u=1, Eg=2, T2g=2, A2u=3, T2u=3, T1g=4, Eu=5, A2g=6, A1u=9)
_ELL_LETTER = "spdfghiklm"


def _z_special(u: np.ndarray, power: int) -> np.ndarray:
    return 2.0 * u[:, 2] ** power - u[:, 0] ** power - u[:, 1] ** power


# Irreps that hold two angular momenta among the levels a sphere binds:
# (ell, row-1 harmonic of the unit vector u) for the lowest ell and the next.
# The ell = 3 and 4 ones are the row-1 projections of cubic monomials, less
# their lower-ell parts, so each pair is orthogonal on the sphere.
_SHELL_FITS = {
    "A1g": ((0, lambda u: np.ones(len(u))), (4, lambda u: np.sum(u**4, axis=1) - 0.6)),
    "T1u": ((1, lambda u: u[:, 0]), (3, lambda u: u[:, 0] * (5.0 * u[:, 0] ** 2 - 3.0))),
    "Eg": (
        (2, lambda u: _z_special(u, 2)),
        (4, lambda u: _z_special(u, 4) - 6.0 / 7.0 * _z_special(u, 2)),
    ),
    "T2g": (
        (2, lambda u: u[:, 1] * u[:, 2]),
        (4, lambda u: u[:, 1] * u[:, 2] * (7.0 * u[:, 0] ** 2 - 1.0)),
    ),
}


@functools.lru_cache(maxsize=None)
def _oh_group() -> tuple:
    """The 48 signed axis permutations and the 10 real orthogonal O_h irreps.

    Element g maps r to M_g r, (M_g r)_i = signs[g, i] r[perms[g, i]]; the
    identity comes first.  Returns (perms, signs, [(name, D)]) with D of
    shape (48, d, d) and D(gh) = D(g) D(h).  D follows from how basis
    functions move, (g f_a)(r) = f_a(M_g^T r) = sum_b f_b(r) D_ba(g):
    x, y, z give D = M_g (T1u), the quadratic forms of Eg and T2g give
    D_ba = <Q_b, M_g Q_a M_g^T>, A2g is the sign of the axis permutation,
    and each u irrep is its g partner times det M_g.
    """
    perms = np.repeat(list(itertools.permutations(range(3))), 8, axis=0)
    signs = np.array(list(itertools.product((1, -1), repeat=3)) * 6)
    mats = np.zeros((48, 3, 3))
    mats[np.arange(48)[:, None], np.arange(3), perms] = signs
    det = np.rint(np.linalg.det(mats))[:, None, None]

    def quadratic(forms):
        moved = np.einsum("gij,ajk,glk->gail", mats, forms, mats)
        return np.einsum("bil,gail->gba", forms, moved)

    e_forms = np.array([np.diag([-1, -1, 2]) / 6**0.5, np.diag([1, -1, 0]) / 2**0.5])
    t_forms = np.zeros((3, 3, 3))  # yz, zx, xy: |Levi-Civita| / sqrt 2
    t_forms[tuple(np.array(list(itertools.permutations(range(3)))).T)] = 2**-0.5
    gerade = {
        "A1g": np.ones((48, 1, 1)),
        "A2g": np.rint(np.linalg.det(np.abs(mats)))[:, None, None],
        "Eg": quadratic(e_forms),
        "T1g": mats * det,
        "T2g": quadratic(t_forms),
    }
    irreps = []
    for name, rep in gerade.items():
        irreps += [(name, rep), (name[:-1] + "u", rep * det)]
    return perms, signs, irreps


@functools.lru_cache(maxsize=None)
def _c4v_group(axis: int) -> tuple:
    """The 8 elements of _oh_group() that fix axis and the 5 real
    orthogonal C4v irreps, each restricted from an O_h one: A1 = 1, A2 =
    det M, B1 = (-1)^swap, B2 = (-1)^swap det M and E = M in the plane."""
    perms, signs, irreps = _oh_group()
    fixed = (perms[:, axis] == axis) & (signs[:, axis] == 1)
    oh = {name: rep[fixed] for name, rep in irreps}
    plane = [a for a in range(3) if a != axis]
    oh["E"] = oh["T1u"][:, plane][:, :, plane]
    names = dict(A1="A1g", A2="A1u", B1="A2g", B2="A2u", E="E")
    return perms[fixed], signs[fixed], [(c4v, oh[o]) for c4v, o in names.items()]


class _SymmetryBlocks:
    """K(kappa) of a lattice grid invariant under a group of G signed axis
    permutations, one irrep at a time: O_h (G = 48) on an aperiodic grid,
    C4v (G = 8, those fixing the axis) on a wire of one transverse layer.

    K commutes with the G site permutations, so the row-1 subspace of each
    irrep, the image of P_11 = (d/G) sum_g D_11(g) g, is K-invariant and
    holds every eigenvalue of that irrep once (the full space holds it d
    times).  On the orbit of a representative site k it is spanned by
    w_b = P_1b e_k (b = 1..d), at most G nonzeros each, whose Gram matrix
    is (d/G) times the sum of D(g) over the stabilizer of k; the frame
    orthonormalizes them.  Between orbits of representatives j and k,
    w_b(j) . K w_c(k) = (d/G) sum_g D_bc(g) K[j, g k], and K[j, g k] is
    the lattice kernel of m[j, k, g] = |n_j - M_g n_k|^2 (_lattice_kernel),
    so each block is one gather from a table of f(m) per kappa and k.
    """

    def __init__(self, grid: Grid, irreps: list, site_perms: np.ndarray):
        self.grid = grid
        self.reps = np.unique(site_perms.min(axis=0))
        self.images = site_perms[:, self.reps].T  # (orbits, G): site of g rep
        n = grid.lattice.astype(float)  # exact for these integers
        n_rep = n[self.reps]
        norm2 = np.sum(n_rep * n_rep, axis=1)
        self.m_values = np.arange(4 * int(norm2.max()) + 1)  # bounds every |n_j - M_g n_k|^2
        shape = (len(n_rep), len(n_rep), len(site_perms))
        self.dist2 = np.empty(shape, np.min_scalar_type(self.m_values[-1]))
        for g, moved in enumerate(self.images.T):  # one (orbits, orbits) product per g
            self.dist2[:, :, g] = norm2[:, None] + norm2 - 2.0 * (n_rep @ n[moved].T)
        stabilizer = (self.images == self.reps[:, None]).astype(float)
        self.irreps = []  # (name, D, frame (orbits, d, d), flat columns that exist)
        for name, rep in irreps:
            d = rep.shape[1]
            w, v = np.linalg.eigh((d / len(rep)) * np.einsum("og,gab->oab", stabilizer, rep))
            exists = w > 1e-9  # nonzero eigenvalues are d |stabilizer| / G >= 1/48
            frame = v / np.sqrt(np.where(exists, w, np.inf))[:, None, :]
            self.irreps.append((name, rep, frame, np.flatnonzero(exists)))

    @classmethod
    def of(cls, grid: Grid) -> Optional["_SymmetryBlocks"]:
        """The plan for grid, or None unless the grid has a lattice
        (Grid.lattice) that each element of its group maps onto itself;
        films and wires of several layers have no group."""
        n, axes = grid.lattice, [axis for axis, _period in grid.periodic_axes]
        if n is None or len(axes) > 1 or axes and np.ptp(n[:, axes[0]]):
            return None
        h = int(np.abs(n).max())
        where = np.full((2 * h + 1,) * 3, -1, dtype=np.intp)  # site at each lattice point
        where[tuple((n + h).T)] = np.arange(len(n))
        perms, signs, irreps = _c4v_group(axes[0]) if axes else _oh_group()
        # g moves site i to site_perms[g, i]
        site_perms = np.stack([where[tuple((n[:, p] * s + h).T)] for p, s in zip(perms, signs)])
        return None if np.any(site_perms < 0) else cls(grid, irreps, site_perms)

    def top(self, kappa: float, i: int, m: int, bloch_k=None) -> tuple:
        """Top m eigenvalues of irrep i's block of K(kappa) (at bloch_k on a
        wire), descending, and their block vectors as columns; a block with
        no rows has none."""
        _name, rep, frame, kept = self.irreps[i]
        d, n_orb, n = rep.shape[1], len(self.reps), len(kept)
        m = min(m, n)
        if not m:
            return np.zeros(0), np.zeros((n, 0))
        f = _lattice_kernel(self.grid, kappa, self.m_values, bloch_k)
        coef = d / len(rep) * rep.reshape(len(rep), d * d)
        h = np.empty((n_orb, d, n_orb, d))
        for j in range(0, n_orb, KERNEL_ROWS):  # the whole gather is (orbits, orbits, G)
            rows = slice(j, j + KERNEL_ROWS)
            # r[j, k, b, c] = (d/G) sum_g D_bc(g) K[rep_j, g rep_k]
            r = (f[self.dist2[rows]] @ coef).reshape(-1, n_orb, d, d)
            fold = frame[rows].transpose(0, 2, 1)[:, None] @ r @ frame[None]
            h[rows] = fold.transpose(0, 2, 1, 3)
        h = h.reshape(n_orb * d, -1)[np.ix_(kept, kept)]
        vals, vecs = eigh(0.5 * (h + h.T), subset_by_index=[n - m, n - 1])
        return vals[::-1], vecs[:, ::-1]

    def partners(self, i: int, x: np.ndarray) -> np.ndarray:
        """The d partner states of irrep i's block vector x, as columns (row
        a of the irrep in column a)."""
        _name, rep, frame, kept = self.irreps[i]
        d, n_orb = rep.shape[1], len(self.reps)
        coords = np.zeros(n_orb * d)
        coords[kept] = x
        # y: coefficients on the w_b; row a at site g rep is (d/G) D(g) y
        y = np.einsum("oba,oa->ob", frame, coords.reshape(n_orb, d))
        at = (d / len(rep)) * np.einsum("gab,ob->oga", rep, y).reshape(-1, d)
        psi = [np.bincount(self.images.ravel(), a, self.grid.n_points) for a in at.T]
        return _fix_phase(np.column_stack(psi))


class TopEigenSolver:
    """Eigenpairs of K(kappa) for one grid and coupling, one symmetry block
    at a time.  blocks holds each block's (irrep name, d): the O_h irreps on
    O_h-invariant lattice grids (every build_grid sphere), the C4v irreps
    on a one-layer lattice wire (every build_grid wire, at any Bloch k),
    else one dense eigh block (None, 1) of gauge-fixed unit states (films
    and hand-built grids without such a lattice).

    A call diagonalizes afresh.  branches memoizes per (kappa, block) the
    top ceil(max_states / d) + 1 values, so a level running past the cap
    shows and none is diagonalized twice in one solve; level reads a root's
    vectors from that memo and expands irrep vectors into partner states."""

    def __init__(self, grid: Grid, coupling: Coupling, max_states: int, bloch_k=None):
        self.grid = grid
        self.bloch_k = bloch_k
        self.sym = _SymmetryBlocks.of(grid) if bloch_k is None or grid.periodic_axes else None
        self.blocks = [(None, 1)]
        if self.sym is not None:
            self.blocks = [(name, rep.shape[1]) for name, rep, *_ in self.sym.irreps]
        self.sizes = [-(-max_states // d) + 1 for _name, d in self.blocks]
        self.strength = -coupling.c
        self._memo = {}

    def __call__(self, kappa: float, block: int, m: int) -> tuple:
        """Top m eigenvalues of the block, descending, their vectors as
        columns, and K times them (None for an irrep block, which holds no
        N x N matrix)."""
        if self.sym is not None:
            return self.sym.top(kappa, block, m, self.bloch_k) + (None,)
        mat = assemble_kernel(self.grid, kappa, self.bloch_k)
        n = mat.shape[0]
        m = min(m, n)
        vals, vecs = eigh(mat, subset_by_index=[n - m, n - 1])
        vecs = np.column_stack([_fix_phase(v) for v in vecs[:, ::-1].T])
        return vals[::-1], vecs, mat @ vecs

    def _spectrum(self, kappa: float, block: int) -> tuple:
        key = (float(kappa), block)
        if key not in self._memo:
            self._memo[key] = self(key[0], block, self.sizes[block])
        return self._memo[key]

    def branches(self, kappa: float, block: int) -> np.ndarray:
        """Top eigenvalues of -c K(kappa) in the block, descending."""
        return self.strength * self._spectrum(kappa, block)[0]

    def level(self, kappa: float, block: int, members: list) -> tuple:
        """The unit states of the block's branches members at kappa, as
        columns, and K(kappa) times them: from the dense block's own
        product, else by assemble_kernel on a wire and by the lattice FFT
        (_lattice_apply) on a sphere."""
        _values, vecs, k_vecs = self._spectrum(kappa, block)
        if k_vecs is not None:
            return vecs[:, members], k_vecs[:, members]
        units = np.hstack([self.sym.partners(block, x) for x in vecs[:, members].T])
        if self.grid.periodic_axes:
            return units, assemble_kernel(self.grid, kappa, self.bloch_k) @ units
        return units, _lattice_apply(self.grid, kappa, units, self.grid.lattice)


def kappa_floor() -> float:
    """Smallest kappa searched: the 1e-4 ueV binding-energy equivalent."""
    return math.sqrt(ENERGY_FLOOR_UEV / HBAR2_OVER_2MN)


def _branch_excess(kappa: float, eigen: TopEigenSolver, block: int, b: int) -> float:
    return eigen.branches(kappa, block)[b] - 1.0


def solve_bound_states(
    grid: Grid,
    coupling: Coupling,
    max_states: int = 12,
    bloch_k=None,
) -> list:
    """Bound states with E_b above the energy floor, deepest first, in whole
    levels: the deepest levels that hold at most max_states states together.

    Returns an empty list when no branch is above 1 at the kappa floor (that
    is the no-bound-state answer, not an error).  Raises
    NonConvergedEigensolve when a counted branch has no root below kappa* or
    its root does not converge.

    Levels are counted and rooted one symmetry block at a time, then merged
    by kappa; each is one degeneracy group.  On symmetric grids its members
    are its irrep's partner functions (p_x, p_y, p_z for a p level; x-like
    first in a wire's E pair), and on O_h grids its label comes from the
    irrep (_level_label); other grids label sb0, sb1...
    """
    if coupling.c >= 0:
        raise ValueError("solve_bound_states requires c < 0")
    # imported here, not with the module: scipy.optimize adds about a
    # quarter to the cold start of every command, most of which never solve
    from scipy.optimize import brentq

    k_lo, k_hi = kappa_floor(), coupling.kappa_star
    eigen = TopEigenSolver(grid, coupling, max_states, bloch_k)
    levels = []  # (kappa_root, block, [branch indices in the block])
    for block, (name, _d) in enumerate(eigen.blocks):
        n_bound = int(np.count_nonzero(eigen.branches(k_lo, block) > 1.0))
        b = 0
        while b < n_bound:
            branch = f"branch {b}" if name is None else f"{name} branch {b}"
            if eigen.branches(k_hi, block)[b] >= 1.0:
                raise NonConvergedEigensolve(
                    f"{branch} is still above 1 at kappa = {k_hi:.6g}/nm: "
                    "its root lies outside the bracket"
                )
            # eigen goes in through args, not a closure: brentq wraps f in
            # a self-referencing closure, so whatever f closes over would
            # outlive the solve until the next full gc
            kappa, info = brentq(
                _branch_excess,
                k_lo,
                k_hi,
                args=(eigen, block, b),
                rtol=KAPPA_REL_TOL,
                full_output=True,
                disp=False,
            )
            lam = eigen.branches(kappa, block)
            if not info.converged or abs(lam[b] - 1.0) > LAMBDA_TOL:
                raise NonConvergedEigensolve(
                    f"{branch}: |lambda - 1| = {abs(lam[b] - 1.0):.3e} at "
                    f"kappa = {kappa:.9g}/nm after {info.iterations} root steps "
                    f"(converged: {info.converged})"
                )
            members = [
                j for j in range(b, n_bound) if abs(lam[j] - lam[b]) <= DEGENERATE_BRANCH_TOL
            ]
            levels.append((kappa, block, members))
            b = members[-1] + 1
    levels.sort(key=lambda level: -level[0])

    states = []
    named = []  # (irrep, ell) of each level so far, for radial ranks
    for group, (kappa_root, block, members) in enumerate(levels):
        irrep, d = eigen.blocks[block]
        if len(states) + d * len(members) > max_states:
            break
        units, k_units = eigen.level(kappa_root, block, members)
        residuals = np.linalg.norm(units + coupling.c * k_units, axis=0)
        scales = [
            np.real(np.vdot(kv, v)) / np.real(np.vdot(kv, kv))
            for v, kv in zip(units.T, k_units.T)
        ]
        label = _level_label(irrep, units[:, 0], grid, group, named)
        for j in range(units.shape[1]):
            states.append(
                BoundState(
                    kappa=kappa_root,
                    e_b=HBAR2_OVER_2MN * kappa_root**2,
                    psi=units[:, j] / grid.spacing**1.5,
                    level_label=label,
                    degeneracy_group=group,
                    residual=float(residuals[j]),
                    scale=float(scales[j]),
                    grid_signature=grid.signature(),
                    bloch_k=None if bloch_k is None else tuple(np.asarray(bloch_k, float)),
                )
            )
    return states


def _level_label(irrep, row1: np.ndarray, grid: Grid, group: int, named: list) -> str:
    """n + letter of an O_h irrep level, n its rank among the deeper levels
    of the same irrep and letter; sb<group> for a dense block or a wire.

    A1g, T1u, Eg and T2g each hold two angular momenta within reach (l = 0
    and 4, 1 and 3, 2 and 4, 2 and 4): a least-squares fit of the row-1
    state to both row-1 harmonics (_SHELL_FITS) on every shell of |r|
    decides which carries more power.
    """
    if irrep not in _IRREP_ELL:
        return f"sb{group}"
    ell = _IRREP_ELL[irrep]
    if irrep in _SHELL_FITS:
        ells, harmonics = zip(*_SHELL_FITS[irrep])
        r = np.linalg.norm(grid.points, axis=1)
        shells = np.rint(np.sqrt(np.sum(grid.lattice**2, axis=1))).astype(int)
        power = np.zeros(len(ells))
        for s in np.unique(shells[shells > 0]):
            on = shells == s
            u = grid.points[on] / r[on, None]
            basis = np.column_stack([f(u) for f in harmonics])
            coef = np.linalg.lstsq(basis, row1[on], rcond=None)[0]
            power += coef**2 * np.sum(basis**2, axis=0)
        ell = ells[int(np.argmax(power))]
    named.append((irrep, ell))
    return f"{named.count((irrep, ell))}{_ELL_LETTER[ell]}"


def has_bound_state(grid: Grid, coupling: Coupling, bloch_k=None) -> bool:
    """Existence test: the top branch of block 0 above 1 at the kappa
    floor, the one value a cap of 0 states asks for.  Block 0 is A1g on O_h
    grids and A1 on wires, and holds the positive Perron vector of K (every
    entry off the diagonal is positive, a wire's a sum of K0 > 0 terms), so
    that branch is the top one of the whole kernel."""
    if coupling.c >= 0:
        return False
    return bool(TopEigenSolver(grid, coupling, 0, bloch_k).branches(kappa_floor(), 0)[0] > 1.0)


# ---------------------------------------------------------------------------
# lifetimes
# ---------------------------------------------------------------------------


def finite_lifetime(
    state: BoundState,
    grid: Grid,
    comp: CrystalComposition,
    table: Optional[NuclideTable] = None,
) -> float:
    """Absorption lifetime from the in-crystal weight of the state, ms.

    1/T = (sum_i |psi_i|^2 a0^3) * 4 pi hbar sum(n Im[b]) / (m_n V_cell);
    psi is taken at face value as the all-space-normalized amplitude, so a
    state fully contained in the crystal decays at exactly the bulk rate.
    Returns math.inf when the composition has no absorption channel, and
    raises GeometryMismatch for a state from another grid.
    """
    if state.grid_signature != grid.signature():
        raise GeometryMismatch("state comes from a different grid")
    weight = float(np.sum(np.abs(state.psi) ** 2)) * grid.cell_weight
    try:
        bp = bulk_properties(comp, table)
    except ZeroAbsorption:
        return math.inf
    return bp.t_star / weight


def exterior_weight(
    state: BoundState, grid: Grid, coupling: Coupling
) -> float:
    """Integral of |psi_bar|^2 over the space outside the crystal cells.

    The reconstructed field is integrated from one half-cell beyond the
    outermost sources outward (the crystal proper is the union of grid
    cells).  Surface sample j of the shape covers the ray offsets[j] +
    r normals[j], r >= r0, with volume element weights[j] r^power dr; each
    ray takes a 24-node exponential substitution matched to the rate at
    which the state decays along it.  Used to rescale grid-normalized
    states to an all-space normalization for reported lifetimes.
    """
    spec, a0 = grid.spec, grid.spacing
    if spec is None:
        raise ValueError("exterior integration needs a shape-tagged grid")
    reconstruction_scale(state, grid, coupling)
    phi = (np.arange(32) + 0.5) * (2 * math.pi / 32)
    rate = state.kappa
    if spec.shape == SPHERE:  # 16 Gauss-Legendre polar x 32 azimuthal directions
        mu, w_mu = leggauss(16)
        st = np.sqrt(1 - mu * mu)[:, None]
        normals = np.zeros((16, 32, 3))
        normals[..., 0] = st * np.cos(phi)
        normals[..., 1] = st * np.sin(phi)
        normals[..., 2] = mu[:, None]
        offsets = np.zeros_like(normals)
        weights = np.repeat(w_mu, 32) * (2 * math.pi / 32)
        r0, power = spec.size_nm + 0.5 * a0, 2
    elif spec.shape == CYLINDER:  # 32 azimuthal directions x 4 heights in a period
        (axis, period), = grid.periodic_axes
        trans = [a for a in range(3) if a != axis]
        normals = np.zeros((32, 4, 3))
        normals[..., trans[0]] = np.cos(phi)[:, None]
        normals[..., trans[1]] = np.sin(phi)[:, None]
        offsets = np.zeros((32, 4, 3))
        offsets[..., axis] = (np.arange(4) + 0.5) / 4 * period
        weights = np.full(128, (2 * math.pi / 32) * (period / 4))
        r0, power = spec.size_nm + 0.5 * a0, 1
    elif spec.shape == SLAB:  # both faces x 4 x 4 in-plane points of a cell
        (_, p_a), (_, p_b) = grid.periodic_axes
        u = (np.arange(4) + 0.5) / 4
        offsets = np.zeros((2, 4, 4, 3))
        offsets[..., 0] = (u * p_a)[:, None]
        offsets[..., 1] = u * p_b
        normals = np.zeros((2, 4, 4, 3))
        normals[..., 2] = np.array([1.0, -1.0])[:, None, None]
        weights = np.full(32, (p_a / 4) * (p_b / 4))
        # a Bloch state decays across the film at sqrt(kappa^2 + k_par^2)
        k = np.zeros(2) if state.bloch_k is None else np.asarray(state.bloch_k)[:2]
        rate = math.sqrt(rate**2 + float(k[0] ** 2 + k[1] ** 2))
        r0, power = spec.size_nm / 2.0, 0
    else:
        raise ValueError(f"unsupported shape {spec.shape!r}")
    nodes, wts = leggauss(24)
    s = 0.5 * (nodes + 1.0)
    r = r0 - np.log(s) / (2 * rate)  # dr = ds / (2 rate s)
    pts = offsets.reshape(-1, 3) + r[:, None, None] * normals.reshape(-1, 3)
    dens = np.abs(_field_at(pts.reshape(-1, 3), state, grid)) ** 2
    radial = dens.reshape(len(r), -1) @ weights
    return float(np.sum(0.5 * wts / (2 * rate * s) * r**power * radial))


def lifetime_with_leakage(
    state: BoundState,
    grid: Grid,
    comp: CrystalComposition,
    coupling: Coupling,
    table: Optional[NuclideTable] = None,
) -> float:
    """Reported lifetime: the grid-normalized state is rescaled to an
    all-space normalization using the reconstructed exterior weight, so a
    leaky (weakly bound) state lives longer than the bulk T*."""
    w_ext = exterior_weight(state, grid, coupling)
    inside = float(np.sum(np.abs(state.psi) ** 2)) * grid.cell_weight
    rescaled = dataclasses.replace(state, psi=state.psi / math.sqrt(inside + w_ext))
    return finite_lifetime(rescaled, grid, comp, table)


# ---------------------------------------------------------------------------
# wavefunction reconstruction
# ---------------------------------------------------------------------------


def reconstruction_scale(
    state: BoundState, grid: Grid, coupling: Coupling
) -> tuple:
    """The state's site-matching amplitude s (BoundState.scale) and its
    relative deviation rel from |c|, as (s, rel).

    At an exact root s equals -c = |c|; the residual keeps it within the
    5 percent consistency gate, so a larger rel (ValueError) means state and
    coupling do not belong together.  s was computed on the state's own
    grid, so a state from another grid raises GeometryMismatch.
    """
    if state.grid_signature != grid.signature():
        raise GeometryMismatch("state comes from a different grid")
    s = state.scale
    rel = abs(s - (-coupling.c)) / abs(coupling.c)
    if rel > 0.05:
        raise ValueError(
            f"site-matching scale deviates from |c| by {rel:.2%}; "
            "state and coupling are inconsistent"
        )
    return s, rel


def _field_at(points, state, grid):
    """Reconstructed field s K psi at arbitrary points, s the state's scale."""
    chunks = np.split(points, range(KERNEL_ROWS, len(points), KERNEL_ROWS))
    k_psi = [kernel_block(rows, grid, state.kappa, state.bloch_k) @ state.psi for rows in chunks]
    return state.scale * np.concatenate(k_psi)


def reconstruct_wavefunction(
    state: BoundState,
    grid: Grid,
    coupling: Coupling,
    eval_points: np.ndarray,
) -> np.ndarray:
    """Continuous field psi_bar(r) = s sum_i K(r, r_i) psi_i, inside or out.

    Eval points must keep a0/10 clearance from every source (and from every
    periodic image of a source); kernel_block raises EvalTooCloseToSource
    otherwise.
    """
    reconstruction_scale(state, grid, coupling)
    eval_points = np.atleast_2d(np.asarray(eval_points, dtype=float))
    return _field_at(eval_points, state, grid)
