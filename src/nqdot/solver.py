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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh
from scipy.sparse.linalg import lobpcg

from .constants import HBAR2_OVER_2MN
from .errors import (
    EvalTooCloseToSource,
    NonConvergedEigensolve,
    ZeroAbsorption,
)
from .geometry import CYLINDER, SLAB, SPHERE, Grid
from .kernel import assemble_kernel, kernel_block
from .nuclides import CrystalComposition, NuclideTable, default_table

DENSE_CUTOFF = 1500  # below this, full diagonalization beats Lanczos
ENERGY_FLOOR_UEV = 1e-4  # states shallower than this are not searched for
KAPPA_REL_TOL = 1e-9  # bracket width that ends a root: |1 - lambda| lands near 1e-10
LAMBDA_TOL = 5e-7
DEGENERATE_BRANCH_TOL = 1e-9  # branches this close at a root are one level
DEGENERACY_REL_TOL = 1e-2

_ELL_LETTER = "spdfg"


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
        table = table or default_table()
        sum_re, _ = table.composition_sums(comp)
        c = grid.cell_weight * (sum_re * 1e-6) / (comp.cell_volume_A3 * 1e-3)
        return cls(c=c, spacing=grid.spacing)

    @property
    def kappa_star(self) -> float:
        """Bulk decay wavevector implied by the coupling, 1/nm."""
        if self.c >= 0:
            raise ValueError("kappa_star requires c < 0")
        return math.sqrt(4.0 * math.pi * (-self.c) / self.spacing**3)


@dataclass(frozen=True)
class BoundState:
    """One solution of the discrete kernel equation.

    psi is normalized cell-wise, sum |psi_i|^2 a0^3 = 1.  residual is the
    relative defect ||psi + c K psi|| / ||psi|| = |1 - lambda| at the root.
    """

    kappa: float  # 1/nm
    e_b: float  # ueV, binding energy (level sits at E = -e_b)
    psi: np.ndarray = field(repr=False)
    level_label: str
    degeneracy_group: int
    residual: float
    grid_signature: tuple
    bloch_k: Optional[tuple] = None

    def __post_init__(self):
        if abs(self.e_b - HBAR2_OVER_2MN * self.kappa**2) > 1e-12 * self.e_b:
            raise ValueError("e_b inconsistent with kappa")


class KernelFactory:
    """Reusable K(kappa) assembler; caches pair distances for aperiodic grids.

    The aperiodic path writes into one shared buffer: each call invalidates
    the previously returned matrix.
    """

    def __init__(self, grid: Grid, bloch_k=None):
        self.grid = grid
        self.bloch_k = None if bloch_k is None else np.asarray(bloch_k, float)
        self._dist = None
        if not grid.periodic_axes:
            d = grid.points[:, None, :] - grid.points[None, :, :]
            dist = np.sqrt((d * d).sum(axis=-1))
            np.fill_diagonal(dist, np.inf)
            self._dist = dist
            self._buf = np.empty_like(dist)

    def __call__(self, kappa: float) -> np.ndarray:
        if self._dist is not None:
            np.multiply(self._dist, -kappa, out=self._buf)
            np.exp(self._buf, out=self._buf)
            self._buf /= self._dist
            return self._buf
        return assemble_kernel(self.grid, kappa, self.bloch_k)


_BLOCK_SEED = 20251204  # fixed: identical inputs give identical level tables


class TopEigenSolver:
    """Deterministic top-m eigenpairs of a Hermitian matrix.

    Small problems are diagonalized densely.  Large ones use block LOBPCG
    with a fixed-seed starting block (warm-started across nearby kappa
    evaluations): a single-vector Lanczos cannot reliably resolve the
    exactly degenerate multiplets these grids produce, a block iteration
    wider than any multiplicity can.
    """

    def __init__(self, m: int):
        self.m = m
        self.block = max(m + 5, 8)
        self._warm = None

    def __call__(self, mat: np.ndarray, m: Optional[int] = None, want_vectors=False):
        n = mat.shape[0]
        m = self.m if m is None else min(m, self.m)
        if n < DENSE_CUTOFF or self.block * 5 >= n:
            if want_vectors:
                vals, vecs = eigh(mat)
                return vals[::-1][:m], vecs[:, ::-1][:, :m]
            vals = eigh(mat, eigvals_only=True)
            return vals[::-1][:m], None

        if self._warm is not None and self._warm.shape == (n, self.block):
            x0 = self._warm
        else:
            rng = np.random.default_rng(_BLOCK_SEED)
            x0 = rng.standard_normal((n, self.block))
        scale = float(np.abs(mat).max()) or 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vals, vecs = lobpcg(
                mat, x0, tol=1e-9 * scale * math.sqrt(n), maxiter=400, largest=True
            )
        order = np.argsort(vals)[::-1]
        vals, vecs = vals[order], vecs[:, order]
        resid = np.linalg.norm(mat @ vecs[:, :m] - vecs[:, :m] * vals[:m], axis=0)
        if np.any(resid > 1e-6 * scale):
            raise NonConvergedEigensolve(
                f"block eigensolve residual {resid.max():.3e} above "
                f"{1e-6 * scale:.3e} after 400 iterations"
            )
        self._warm = np.ascontiguousarray(vecs)
        if want_vectors:
            return vals[:m], vecs[:, :m]
        return vals[:m], None


def kappa_floor() -> float:
    """Smallest kappa searched: the 1e-4 ueV binding-energy equivalent."""
    return math.sqrt(ENERGY_FLOOR_UEV / HBAR2_OVER_2MN)


class _BranchValues:
    """The m largest eigenvalues of -c K(kappa), descending, memoized by
    kappa so that no kappa is diagonalized twice in one solve."""

    def __init__(self, grid: Grid, coupling: Coupling, m: int, bloch_k=None):
        self.kernel = KernelFactory(grid, bloch_k)
        self.eigen = TopEigenSolver(m)
        self.strength = -coupling.c
        self._memo = {}

    def __call__(self, kappa: float) -> np.ndarray:
        kappa = float(kappa)
        if kappa not in self._memo:
            vals, _ = self.eigen(self.kernel(kappa))
            self._memo[kappa] = self.strength * vals
        return self._memo[kappa]


def _branch_excess(kappa: float, branches: _BranchValues, b: int) -> float:
    return branches(kappa)[b] - 1.0


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Deterministic gauge: largest-|.| component made real and positive."""
    i = int(np.argmax(np.abs(vec)))
    pivot = vec[i]
    if np.iscomplexobj(vec):
        vec = vec * np.conj(pivot) / abs(pivot)
        if np.max(np.abs(vec.imag)) <= 1e-10 * np.max(np.abs(vec.real)):
            vec = vec.real.copy()
    elif pivot < 0:
        vec = -vec
    return vec


def solve_bound_states(
    grid: Grid,
    coupling: Coupling,
    max_states: int = 12,
    bloch_k=None,
    kappa_range: Optional[tuple] = None,
) -> list:
    """All bound states with E_b above the energy floor, deepest first.

    kappa_range = (lo, hi) defaults to (kappa floor, kappa*).  Returns an
    empty list when no branch is above 1 at lo (that is the no-bound-state
    answer, not an error).  Raises NonConvergedEigensolve when a counted
    branch has no root below hi or its root does not converge.
    """
    if coupling.c >= 0:
        raise ValueError("solve_bound_states requires c < 0")
    # imported here, not with the module: scipy.optimize adds about a
    # quarter to the cold start of every command, most of which never solve
    from scipy.optimize import brentq

    k_lo, k_hi = kappa_range or (kappa_floor(), coupling.kappa_star)
    if not 0 < k_lo < k_hi:
        raise ValueError("kappa_range must satisfy 0 < lo < hi")
    branches = _BranchValues(grid, coupling, max_states, bloch_k)
    n_bound = int(np.count_nonzero(branches(k_lo) > 1.0))

    levels = []  # (kappa_root, [branch indices])
    b = 0
    while b < n_bound:
        if branches(k_hi)[b] >= 1.0:
            raise NonConvergedEigensolve(
                f"branch {b} is still above 1 at kappa = {k_hi:.6g}/nm: "
                "its root lies outside the bracket"
            )
        # branches goes in through args, not a closure: brentq wraps f in a
        # self-referencing closure, so whatever f closes over (here two N x N
        # kernel buffers) would outlive the solve until the next full gc
        kappa, info = brentq(
            _branch_excess,
            k_lo,
            k_hi,
            args=(branches, b),
            rtol=KAPPA_REL_TOL,
            full_output=True,
            disp=False,
        )
        lam = branches(kappa)
        if not info.converged or abs(lam[b] - 1.0) > LAMBDA_TOL:
            raise NonConvergedEigensolve(
                f"branch {b}: |lambda - 1| = {abs(lam[b] - 1.0):.3e} at "
                f"kappa = {kappa:.9g}/nm after {info.iterations} root steps "
                f"(converged: {info.converged})"
            )
        members = [
            j for j in range(b, n_bound) if abs(lam[j] - lam[b]) <= DEGENERATE_BRANCH_TOL
        ]
        levels.append((kappa, members))
        b = members[-1] + 1

    states = []
    a0 = grid.spacing
    for kappa_root, members in levels:
        kernel_at_root = branches.kernel(kappa_root)
        _vals, vecs = branches.eigen(
            kernel_at_root, members[-1] + 1, want_vectors=True
        )
        for b in members:
            unit = vecs[:, b] / np.linalg.norm(vecs[:, b])
            res = float(
                np.linalg.norm(unit + coupling.c * (kernel_at_root @ unit))
            )
            vec = _fix_phase(unit) / a0**1.5
            states.append(
                BoundState(
                    kappa=kappa_root,
                    e_b=HBAR2_OVER_2MN * kappa_root**2,
                    psi=vec,
                    level_label="",
                    degeneracy_group=-1,
                    residual=res,
                    grid_signature=grid.signature(),
                    bloch_k=None if bloch_k is None else tuple(np.asarray(bloch_k, float)),
                )
            )

    states.sort(key=lambda s: -s.e_b)
    return _assign_groups_and_labels(states, grid)


# ---------------------------------------------------------------------------
# degeneracy groups and level labels
# ---------------------------------------------------------------------------


def _harmonic_basis(unit: np.ndarray) -> list:
    """Real direction harmonics per angular momentum, ell = 0..3."""
    x, y, z = unit[:, 0], unit[:, 1], unit[:, 2]
    one = np.ones_like(x)
    return [
        [one],
        [x, y, z],
        [x * y, y * z, z * x, x * x - y * y, (2 * z * z - x * x - y * y) / math.sqrt(3)],
        [
            z * (2 * z * z - 3 * x * x - 3 * y * y),
            x * (4 * z * z - x * x - y * y),
            y * (4 * z * z - x * x - y * y),
            z * (x * x - y * y),
            x * y * z,
            x * (x * x - 3 * y * y),
            y * (3 * x * x - y * y),
        ],
    ]


def classify_angular(state_psi: np.ndarray, grid: Grid) -> tuple:
    """(dominant ell, radial node count) from shell-wise harmonic analysis."""
    pts = grid.points
    r = np.linalg.norm(pts, axis=1)
    a0 = grid.spacing
    shells = np.rint(r / a0).astype(int)
    psi = state_psi.real if np.iscomplexobj(state_psi) else state_psi

    n_ell = 4
    power = np.zeros(n_ell)
    profiles = {}  # (ell, m) -> list of (shell, coefficient)
    for s in np.unique(shells):
        sel = shells == s
        v = psi[sel]
        if s == 0 and np.count_nonzero(sel) == 1:
            power[0] += float(v[0] ** 2)
            profiles.setdefault((0, 0), []).append((s, float(v[0])))
            continue
        unit = pts[sel] / r[sel, None]
        basis = _harmonic_basis(unit)
        cols = [f for fs in basis for f in fs]
        B = np.column_stack(cols)
        coef, *_ = np.linalg.lstsq(B, v, rcond=None)
        i = 0
        for ell, fs in enumerate(basis):
            for m, f in enumerate(fs):
                comp = coef[i] * f
                power[ell] += float(comp @ comp)
                profiles.setdefault((ell, m), []).append(
                    (s, float(coef[i] * np.sqrt(f @ f)))
                )
                i += 1
    ell = int(np.argmax(power))

    # radial profile of the strongest (ell, m) channel -> node count
    best_m, best_w = 0, -1.0
    for (l, m), prof in profiles.items():
        if l != ell:
            continue
        w = sum(c * c for _, c in prof)
        if w > best_w:
            best_w, best_m = w, m
    prof = sorted(profiles[(ell, best_m)])
    vals = np.array([c for _, c in prof])
    scale = np.max(np.abs(vals))
    vals = vals[np.abs(vals) > 0.05 * scale]
    nodes = int(np.count_nonzero(np.diff(np.signbit(vals))))
    return ell, nodes


def _assign_groups_and_labels(states: list, grid: Grid) -> list:
    if not states:
        return states
    spherical = grid.spec is not None and grid.spec.shape == SPHERE
    out = []
    group = -1
    ref = None
    for s in states:
        if ref is None or abs(s.e_b - ref) / ref >= DEGENERACY_REL_TOL:
            group += 1
            ref = s.e_b
        out.append((group, s))

    labels = {}
    if spherical:
        for g in sorted({g for g, _ in out}):
            members = [s for gg, s in out if gg == g]
            votes = [classify_angular(s.psi, grid) for s in members]
            ells = [v[0] for v in votes]
            ell = max(set(ells), key=ells.count)
            nodes = min(v[1] for v in votes if v[0] == ell)
            labels[g] = f"{nodes + 1}{_ELL_LETTER[ell]}"
    else:
        for g in sorted({g for g, _ in out}):
            labels[g] = f"sb{g}"

    result = []
    for g, s in out:
        result.append(
            BoundState(
                kappa=s.kappa,
                e_b=s.e_b,
                psi=s.psi,
                level_label=labels[g],
                degeneracy_group=g,
                residual=s.residual,
                grid_signature=s.grid_signature,
                bloch_k=s.bloch_k,
            )
        )
    return result


def has_bound_state(grid: Grid, coupling: Coupling, bloch_k=None) -> bool:
    """Existence test: top branch above 1 at the kappa floor, the count
    solve_bound_states starts from."""
    if coupling.c >= 0:
        return False
    return bool(_BranchValues(grid, coupling, 1, bloch_k)(kappa_floor())[0] > 1.0)


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
    Returns math.inf when the composition has no absorption channel.
    """
    from .bulk import bulk_properties

    table = table or default_table()
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
    cells), with an exponential radial substitution matched to the state's
    decay constant.  Used to rescale grid-normalized states to an all-space
    normalization for reported lifetimes.
    """
    spec = grid.spec
    if spec is None:
        raise ValueError("exterior integration needs a shape-tagged grid")
    kappa = state.kappa
    a0 = grid.spacing
    scale, _ = reconstruction_scale(state, grid, coupling)
    nodes_r, wts_r = leggauss(24)
    s_nodes = 0.5 * (nodes_r + 1.0)
    s_wts = 0.5 * wts_r

    k = np.zeros(3) if state.bloch_k is None else np.asarray(state.bloch_k)

    if spec.shape == SPHERE:
        r_in = spec.size_nm + 0.5 * a0
        mu, w_mu = leggauss(16)
        phi = (np.arange(32) + 0.5) * (2 * math.pi / 32)
        w_phi = 2 * math.pi / 32
        r = r_in - np.log(s_nodes) / (2 * kappa)
        jac = 1.0 / (2 * kappa * s_nodes)
        st = np.sqrt(1 - mu * mu)
        dirs = np.stack(
            [
                np.outer(st, np.cos(phi)),
                np.outer(st, np.sin(phi)),
                np.broadcast_to(mu[:, None], (16, 32)).copy(),
            ],
            axis=-1,
        ).reshape(-1, 3)
        w_ang = np.repeat(w_mu, 32) * w_phi
        pts = (r[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
        vals = _field_at(pts, state, grid, coupling, scale)
        dens = (np.abs(vals) ** 2).reshape(len(r), -1)
        radial = dens @ w_ang
        return float(np.sum(s_wts * jac * r * r * radial))

    if spec.shape == SLAB:
        t_half = spec.size_nm / 2.0
        beta = math.sqrt(kappa**2 + float(k[0] ** 2 + k[1] ** 2))
        (ax_a, p_a), (ax_b, p_b) = grid.periodic_axes
        n_ip = 4
        u = (np.arange(n_ip) + 0.5) / n_ip
        ux, uy = np.meshgrid(u * p_a, u * p_b, indexing="ij")
        w_ip = (p_a / n_ip) * (p_b / n_ip)
        total = 0.0
        for side in (+1.0, -1.0):
            z = side * (t_half - np.log(s_nodes) / (2 * beta))
            jac = 1.0 / (2 * beta * s_nodes)
            pts = np.zeros((len(z), n_ip * n_ip, 3))
            pts[..., 0] = ux.ravel()[None, :]
            pts[..., 1] = uy.ravel()[None, :]
            pts[..., 2] = z[:, None]
            vals = _field_at(pts.reshape(-1, 3), state, grid, coupling, scale)
            dens = (np.abs(vals) ** 2).reshape(len(z), -1).sum(axis=1) * w_ip
            total += float(np.sum(s_wts * jac * dens))
        return total

    if spec.shape == CYLINDER:
        rho_in = spec.size_nm + 0.5 * a0
        (axis, period), = grid.periodic_axes
        n_z = 4
        zs = (np.arange(n_z) + 0.5) / n_z * period
        w_z = period / n_z
        phi = (np.arange(32) + 0.5) * (2 * math.pi / 32)
        w_phi = 2 * math.pi / 32
        rho = rho_in - np.log(s_nodes) / (2 * kappa)
        jac = 1.0 / (2 * kappa * s_nodes)
        trans = [a for a in range(3) if a != axis]
        pts = np.zeros((len(rho), 32, n_z, 3))
        pts[..., trans[0]] = (rho[:, None] * np.cos(phi)[None, :])[:, :, None]
        pts[..., trans[1]] = (rho[:, None] * np.sin(phi)[None, :])[:, :, None]
        pts[..., axis] = zs[None, None, :]
        vals = _field_at(pts.reshape(-1, 3), state, grid, coupling, scale)
        dens = (np.abs(vals) ** 2).reshape(len(rho), -1).sum(axis=1) * w_phi * w_z
        return float(np.sum(s_wts * jac * rho * dens))

    raise ValueError(f"unsupported shape {spec.shape!r}")


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
    rescaled = BoundState(
        kappa=state.kappa,
        e_b=state.e_b,
        psi=state.psi / math.sqrt(inside + w_ext),
        level_label=state.level_label,
        degeneracy_group=state.degeneracy_group,
        residual=state.residual,
        grid_signature=state.grid_signature,
        bloch_k=state.bloch_k,
    )
    return finite_lifetime(rescaled, grid, comp, table)


# ---------------------------------------------------------------------------
# wavefunction reconstruction
# ---------------------------------------------------------------------------


class _BoundedMemo:
    """Tiny FIFO memo keyed by object identity (keeps the keys alive)."""

    def __init__(self, cap: int = 16):
        self.cap = cap
        self._store = {}

    def get(self, key):
        entry = self._store.get(key)
        return None if entry is None else entry[1]

    def put(self, key, anchor, value):
        if len(self._store) >= self.cap:
            self._store.pop(next(iter(self._store)))
        self._store[key] = (anchor, value)


_scale_memo = _BoundedMemo(32)


def reconstruction_scale(
    state: BoundState, grid: Grid, coupling: Coupling
) -> tuple:
    """Least-squares amplitude s matching s * K psi to psi at the sites.

    At an exact root s equals -c = |c|; the residual keeps it within the
    5 percent consistency gate.
    """
    key = (id(state), grid.signature(), coupling.c)
    hit = _scale_memo.get(key)
    if hit is not None:
        return hit
    K = assemble_kernel(
        grid, state.kappa, None if state.bloch_k is None else state.bloch_k
    )
    f = K @ state.psi
    denom = np.real(np.vdot(f, f))
    s = float(np.real(np.vdot(f, state.psi)) / denom)
    rel = abs(s - (-coupling.c)) / abs(coupling.c)
    if rel > 0.05:
        raise ValueError(
            f"site-matching scale deviates from |c| by {rel:.2%}; "
            "state and coupling are inconsistent"
        )
    _scale_memo.put(key, state, (s, rel))
    return s, rel


def _field_at(points, state, grid, coupling, scale, chunk=512):
    """Reconstructed field at arbitrary points, evaluated in bounded-memory
    chunks (the kernel block is dense in targets x sources)."""
    points = np.asarray(points, float)
    bloch = None if state.bloch_k is None else state.bloch_k
    parts = []
    for start in range(0, len(points), chunk):
        block = kernel_block(points[start : start + chunk], grid, state.kappa, bloch)
        parts.append(block @ state.psi)
    return scale * np.concatenate(parts)


def _min_source_distance(points: np.ndarray, grid: Grid, chunk=512) -> float:
    best = math.inf
    for start in range(0, len(points), chunk):
        d = points[start : start + chunk, None, :] - grid.points[None, :, :]
        for axis, period in grid.periodic_axes:
            d[..., axis] -= period * np.round(d[..., axis] / period)
        best = min(best, float(np.sqrt((d * d).sum(axis=-1)).min()))
    return best


def reconstruct_wavefunction(
    state: BoundState,
    grid: Grid,
    coupling: Coupling,
    eval_points: np.ndarray,
) -> np.ndarray:
    """Continuous field psi_bar(r) = s sum_i K(r, r_i) psi_i, inside or out.

    Eval points must keep a0/10 clearance from every source (and from every
    periodic image of a source).
    """
    eval_points = np.atleast_2d(np.asarray(eval_points, dtype=float))
    min_d = _min_source_distance(eval_points, grid)
    if min_d < grid.spacing / 10.0:
        raise EvalTooCloseToSource(
            f"closest evaluation-source distance {min_d:.3g} nm is below "
            f"a0/10 = {grid.spacing / 10:.3g} nm"
        )
    scale, _ = reconstruction_scale(state, grid, coupling)
    return _field_at(eval_points, state, grid, coupling, scale)
