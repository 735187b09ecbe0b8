import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import spherical_jn, spherical_kn

from nqdot.constants import HBAR2_OVER_2MN
from nqdot.errors import EvalTooCloseToSource, NonConvergedEigensolve
from nqdot.geometry import GeometrySpec, Grid, build_grid
from nqdot.kernel import _lattice_apply, assemble_kernel, kernel_block
from nqdot.nuclides import CrystalComposition, NuclideTable, ScatteringEntry
from nqdot.solver import (
    BoundState,
    Coupling,
    _SHELL_FITS,
    TopEigenSolver,
    _c4v_group,
    _oh_group,
    exterior_weight,
    finite_lifetime,
    has_bound_state,
    kappa_floor,
    lifetime_with_leakage,
    reconstruct_wavefunction,
    reconstruction_scale,
    solve_bound_states,
)
from nqdot.transitions import dipole_element


def spherical_well_ground_state(depth_ueV, radius_nm):
    """Finite spherical square well s-wave ground state (independent oracle).

    Matching j0 inside to the decaying exponential outside gives the
    transcendental u cot u = -v with u^2 + v^2 = (R sqrt(V0/C))^2.
    """
    x0 = radius_nm * math.sqrt(depth_ueV / HBAR2_OVER_2MN)
    if x0 <= math.pi / 2:
        return None

    def f(u):
        return u / math.tan(u) + math.sqrt(x0 * x0 - u * u)

    u = brentq(f, math.pi / 2 + 1e-9, min(math.pi, x0) - 1e-9, xtol=1e-12)
    v = math.sqrt(x0 * x0 - u * u)
    kappa = v / radius_nm
    return HBAR2_OVER_2MN * kappa * kappa


def spherical_well_thresholds(ell, x_max):
    """Well strengths x0 = R sqrt(V0/C) below x_max at which the finite
    spherical square well binds its 1st, 2nd, ... level of angular
    momentum ell (independent oracle).

    At zero energy the interior j_l(kr) must join the exterior r^-(l+1),
    i.e. x j_l'(x) + (l+1) j_l(x) = x j_{l-1}(x) = 0: the thresholds are
    (n - 1/2) pi for s, n pi for p and the zeros of j_1 for d.
    """

    def g(x):
        return x * spherical_jn(ell, x, derivative=True) + (ell + 1) * spherical_jn(ell, x)

    xs = np.linspace(1e-3, x_max, int(200 * x_max) + 2)
    vals = g(xs)
    return [
        brentq(g, a, b, xtol=1e-14)
        for a, b, fa, fb in zip(xs, xs[1:], vals, vals[1:])
        if fa * fb < 0
    ]


def spherical_well_levels(depth_ueV, radius_nm):
    """Bound (n, l) levels of the finite spherical square well, deepest
    first, as (label, ell, E_b in ueV) (independent oracle).

    Level (n, l) exists once x0 passes its threshold.  Its energy solves
    u j_l'(u)/j_l(u) = v k_l'(v)/k_l(v) with u^2 + v^2 = x0^2 and
    E_b = C (v/R)^2; the root lies between the level's own threshold and
    the next one (or x0), which interlace with the zeros of j_l.
    """
    x0 = radius_nm * math.sqrt(depth_ueV / HBAR2_OVER_2MN)
    levels = []
    ell = 0
    # the first threshold grows with ell, so stop at the first ell that binds nothing
    while thresholds := spherical_well_thresholds(ell, x0):

        def h(u, ell=ell):
            v = math.sqrt(x0 * x0 - u * u)
            log_dk = spherical_kn(ell, v, derivative=True) / spherical_kn(ell, v)
            return u * spherical_jn(ell, u, derivative=True) - v * log_dk * spherical_jn(ell, u)

        uppers = thresholds[1:] + [x0 * (1.0 - 1e-12)]
        for n, (lo, hi) in enumerate(zip(thresholds, uppers), start=1):
            u = brentq(h, lo, hi, xtol=1e-14)
            kappa = math.sqrt(x0 * x0 - u * u) / radius_nm
            levels.append((f"{n}{'spdfgh'[ell]}", ell, HBAR2_OVER_2MN * kappa * kappa))
        ell += 1
    return sorted(levels, key=lambda level: -level[2])


def spherical_well_state_labels(depth_ueV, radius_nm):
    """Oracle level labels, one per state: each (n, l) level repeated 2l+1
    times, deepest level first."""
    return [
        label
        for label, ell, _e in spherical_well_levels(depth_ueV, radius_nm)
        for _m in range(2 * ell + 1)
    ]


def spherical_well_dipole_1s_1p(depth_ueV, radius_nm):
    """|d(1s -> 1p)| of the finite spherical square well in nm, summed in
    quadrature over the 1p triple (independent oracle).

    Each radial function is j_l(q r) inside and the matching multiple of
    k_l(kappa r) outside, with q^2 + kappa^2 = V0/C; normalized over all
    space, |d| is the radial integral of R_1s R_1p r^3.
    """
    kappa_star = math.sqrt(depth_ueV / HBAR2_OVER_2MN)
    e_b = {label: e for label, _ell, e in spherical_well_levels(depth_ueV, radius_nm)}

    def radial(ell, e):
        kappa = math.sqrt(e / HBAR2_OVER_2MN)
        q = math.sqrt(kappa_star**2 - kappa**2)
        tail = spherical_jn(ell, q * radius_nm) / spherical_kn(ell, kappa * radius_nm)

        def f(r):
            if r <= radius_nm:
                return spherical_jn(ell, q * r)
            return tail * spherical_kn(ell, kappa * r)

        norm = quad(lambda r: (f(r) * r) ** 2, 0, radius_nm, epsrel=1e-12)[0]
        norm += quad(lambda r: (f(r) * r) ** 2, radius_nm, np.inf, epsrel=1e-12)[0]
        return lambda r: f(r) / math.sqrt(norm)

    r_s, r_p = radial(0, e_b["1s"]), radial(1, e_b["1p"])
    integrand = lambda r: r_s(r) * r_p(r) * r**3
    d = quad(integrand, 0, radius_nm, epsrel=1e-12)[0]
    d += quad(integrand, radius_nm, np.inf, epsrel=1e-12)[0]
    return abs(d)


def test_spherical_well_thresholds_closed_forms():
    s = spherical_well_thresholds(0, 6.0)
    p = spherical_well_thresholds(1, 6.0)
    d = spherical_well_thresholds(2, 6.0)
    assert s == pytest.approx([math.pi / 2, 3 * math.pi / 2], abs=1e-8)
    assert p == pytest.approx([math.pi], abs=1e-8)
    assert len(d) == 1
    assert d[0] == pytest.approx(4.4934, abs=1e-4)
    assert math.tan(d[0]) == pytest.approx(d[0], abs=1e-8)  # zero of j_1: tan x = x


def test_spherical_well_levels_match_s_wave_oracle(lih_bulk):
    for radius in (12.0, 30.0, 40.0, 60.0):
        levels = spherical_well_levels(lih_bulk.e_b_star, radius)
        ground = spherical_well_ground_state(lih_bulk.e_b_star, radius)
        if ground is None:
            assert levels == []
        else:
            assert levels[0][:2] == ("1s", 0)
            assert levels[0][2] == pytest.approx(ground, rel=1e-9)


def test_r30_dipole_against_spherical_well_oracle(r30, lih_bulk):
    """The 1s -> 1p dipole, quadrature-summed over the triple, matches the
    well's: both states normalized over all space, exterior tail included."""
    ground = r30.states[0]
    parts = [
        dipole_element(ground, p, r30.grid, r30.coupling).d_mn_nm
        for p in r30.group("1p")
    ]
    d = math.sqrt(sum(float(v @ v) for v in parts))
    assert d == pytest.approx(spherical_well_dipole_1s_1p(lih_bulk.e_b_star, 30.0), rel=0.03)


# ---------------------------------------------------------------------------
# level structure
# ---------------------------------------------------------------------------


def test_r30_level_structure(r30):
    labels = [(s.level_label, s.degeneracy_group) for s in r30.states]
    assert [s.level_label for s in r30.states] == ["1s", "1p", "1p", "1p"]
    assert len({g for _l, g in labels}) == 2


def test_r30_against_square_well_oracle(r30, lih_bulk):
    oracle = spherical_well_ground_state(lih_bulk.e_b_star, 30.0)
    assert oracle is not None
    assert r30.states[0].e_b == pytest.approx(oracle, rel=0.25)


def test_r40_full_structure(r40):
    """At R = 40 nm the full shell structure appears.  The cubic grid
    splits the five d states into a triple and a double; the split
    direction (triple deeper) is a grid artifact and both magnitudes are
    reported, not hidden."""
    seq = [(s.level_label, s.degeneracy_group) for s in r40.states]
    groups = []
    for label, g in seq:
        if not groups or groups[-1][1] != g:
            groups.append([label, g, 0])
        groups[-1][2] += 1
    summary = [(label, count) for label, _g, count in groups]
    assert summary == [("1s", 1), ("1p", 3), ("1d", 3), ("1d", 2), ("2s", 1)]


def test_r40_d_split_above_grouping_tolerance(r40):
    d_states = [s for s in r40.states if s.level_label == "1d"]
    energies = sorted({round(s.e_b, 12) for s in d_states}, reverse=True)
    assert len(energies) == 2
    split = (energies[0] - energies[1]) / energies[0]
    assert split > 0.01  # resolved as two groups, not merged


def test_degenerate_members_identical(r40):
    p_states = r40.group("1p")
    assert len(p_states) == 3
    assert max(s.e_b for s in p_states) - min(s.e_b for s in p_states) <= 1e-9


def test_residuals_and_normalization(r30, r40):
    for bundle in (r30, r40):
        a0 = bundle.grid.spacing
        for s in bundle.states:
            assert s.residual <= 1e-6
            norm = np.sum(np.abs(s.psi) ** 2) * a0**3
            assert abs(norm - 1.0) <= 1e-10
            assert s.e_b == pytest.approx(HBAR2_OVER_2MN * s.kappa**2, rel=1e-12)


def test_ground_state_has_uniform_sign(r30, r40):
    for bundle in (r30, r40):
        psi = bundle.states[0].psi
        assert np.all(psi > 0) or np.all(psi < 0)


def test_finite_binding_below_bulk(r30, r40, lih_bulk):
    for bundle in (r30, r40):
        for s in bundle.states:
            assert s.e_b < lih_bulk.e_b_star


def test_below_critical_radius_empty(lih):
    grid = build_grid(GeometrySpec.sphere(12.0, 10))
    coupling = Coupling.from_composition(lih, grid)
    states = solve_bound_states(grid, coupling, max_states=2)
    assert states == []


def test_branch_scan_existence_signals(lih):
    """Top branch on six log-spaced kappa from kappa* down to the floor."""
    g30 = build_grid(GeometrySpec.sphere(30.0, 10))
    c30 = Coupling.from_composition(lih, g30)
    eigen = TopEigenSolver(g30, c30, 1)
    top = np.array(
        [eigen.branches(k, 0)[0] for k in np.geomspace(c30.kappa_star, kappa_floor(), 6)]
    )
    assert top[-1] > 1.0  # lambda_1 at the kappa floor
    assert np.count_nonzero(np.diff(np.signbit(top - 1.0))) == 1  # monotone: one root

    g10 = build_grid(GeometrySpec.sphere(10.0, 10))
    c10 = Coupling.from_composition(lih, g10)
    eigen = TopEigenSolver(g10, c10, 1)
    top = np.array(
        [eigen.branches(k, 0)[0] for k in np.geomspace(c10.kappa_star, kappa_floor(), 6)]
    )
    assert np.all(top < 1.0)
    assert np.count_nonzero(np.diff(np.signbit(top - 1.0))) == 0
    assert not has_bound_state(g10, c10)


def test_existence_test_agrees_with_solve_across_critical_radius(lih):
    """has_bound_state and the solve count the same branches: on grid_div 5
    the critical radius lies between 13.0 and 13.5 nm."""
    found = []
    for radius in (12.5, 13.0, 13.5, 14.0):
        grid = build_grid(GeometrySpec.sphere(radius, 5))
        coupling = Coupling.from_composition(lih, grid)
        exists = has_bound_state(grid, coupling)
        assert exists == bool(solve_bound_states(grid, coupling, max_states=2))
        found.append(exists)
    assert found == [False, False, True, True]


def test_root_at_a_step_raises(lih, monkeypatch):
    """A branch that jumps over 1 has a bracket but no root: the solve must
    raise, not return the kappa of the jump."""
    grid = build_grid(GeometrySpec.sphere(20.0, 5))
    coupling = Coupling.from_composition(lih, grid)
    kappa_0 = 0.05

    def step(self, kappa, block):
        return np.array([1.5 if kappa < kappa_0 else 0.5])

    monkeypatch.setattr(TopEigenSolver, "branches", step)
    with pytest.raises(NonConvergedEigensolve):
        solve_bound_states(grid, coupling, max_states=1)


@pytest.mark.parametrize(
    "spec, max_states, labels",
    [
        (GeometrySpec.sphere(30.0, 8), 3, ["1s"]),
        (GeometrySpec.sphere(40.0, 8), 6, ["1s"] + ["1p"] * 3),
        (GeometrySpec.cylinder(25.0, 10), 2, ["sb0"]),
    ],
    ids=["r30-p-triple", "r40-d-triple", "wire-pair"],
)
def test_cap_keeps_whole_levels(lih, spec, max_states, labels):
    """A cap that falls inside a multiplet drops the whole multiplet: the
    returned list never ends with part of a level."""
    grid = build_grid(spec)
    coupling = Coupling.from_composition(lih, grid)
    states = solve_bound_states(grid, coupling, max_states=max_states)
    assert [s.level_label for s in states] == labels


def test_cube_grid_skips_empty_irrep_blocks():
    """A hand-built 3 x 3 x 3 cube holds no vector of some irreps: their
    blocks are skipped, and the one bound level is the 1s."""
    pts = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=3)))
    grid = Grid(points=pts, spacing=1.0, periodic_axes=())
    coupling = Coupling(c=-0.19, spacing=1.0)
    eigen = TopEigenSolver(grid, coupling, 1)
    assert any(len(eigen(0.5, b, 1)[0]) == 0 for b in range(len(eigen.blocks)))
    states = solve_bound_states(grid, coupling, max_states=12)
    assert [s.level_label for s in states] == ["1s"]
    assert states[0].kappa == pytest.approx(0.680609211874, rel=1e-11)


def test_r41_25_full_structure_after_lobpcg_stall(lih, lih_bulk):
    """R = 41.25 nm, where block LOBPCG once stalled on a scan or
    bisection kappa: the solve must return the oracle's level list."""
    grid = build_grid(GeometrySpec.sphere(41.25, 10))
    coupling = Coupling.from_composition(lih, grid)
    states = solve_bound_states(grid, coupling, max_states=12)
    labels = spherical_well_state_labels(lih_bulk.e_b_star, 41.25)
    assert labels == ["1s"] + ["1p"] * 3 + ["1d"] * 5 + ["2s"]
    assert [s.level_label for s in states] == labels


def test_r55_f_and_2p_labels(lih, lih_bulk):
    """R = 55 nm binds the 1f shell (A2u + T1u + T2u) and the 2p triple:
    its T1u members must be told apart as f and p.  The d and f shells
    are compared by label only, as in criterion 4a."""
    grid = build_grid(GeometrySpec.sphere(55.0, 10))
    coupling = Coupling.from_composition(lih, grid)
    states = solve_bound_states(grid, coupling, max_states=24)
    labels = spherical_well_state_labels(lih_bulk.e_b_star, 55.0)
    assert labels == (
        ["1s"] + ["1p"] * 3 + ["1d"] * 5 + ["2s"] + ["1f"] * 7 + ["2p"] * 3
    )
    assert [s.level_label for s in states] == labels
    assert len(states) < 24


def test_r66_1g_shell_labels(lih, lih_bulk):
    """R = 66 nm binds the whole 1g shell (A1g + Eg + T1g + T2g, nine
    states): its A1g, Eg and T2g members must be told apart from s and d
    levels of the same irreps by the shell-wise l = 4 fit."""
    grid = build_grid(GeometrySpec.sphere(66.0, 10))
    coupling = Coupling.from_composition(lih, grid)
    states = solve_bound_states(grid, coupling, max_states=48)
    labels = spherical_well_state_labels(lih_bulk.e_b_star, 66.0)
    found = [s.level_label for s in states]
    assert found == labels[: len(states)]
    assert found.count("1g") == labels.count("1g") == 9
    assert len(states) < 48


# ---------------------------------------------------------------------------
# cubic symmetry blocks
# ---------------------------------------------------------------------------


def _matrices(perms, signs):
    mats = np.zeros((len(perms), 3, 3))
    mats[np.arange(len(perms))[:, None], np.arange(3), perms] = signs
    return mats


def _oh_matrices():
    return _matrices(*_oh_group()[:2])


def _assert_orthogonal_representations(group, dims):
    """Every irrep of the group is a homomorphism, D(gh) = D(g) D(h), the
    dimensions are dims (so sum d^2 is the order) and the characters are
    orthogonal."""
    perms, signs, irreps = group
    mats = _matrices(perms, signs)
    order = len(mats)
    product = {}
    for g in range(order):
        for h in range(order):
            gh = mats[g] @ mats[h]
            product[g, h] = next(k for k in range(order) if np.array_equal(mats[k], gh))
    chars = []
    for _name, rep in irreps:
        for (g, h), gh in product.items():
            assert np.allclose(rep[g] @ rep[h], rep[gh], atol=1e-14)
        chars.append(np.trace(rep, axis1=1, axis2=2))
    chars = np.array(chars)
    assert sorted(rep.shape[1] for _n, rep in irreps) == dims
    assert sum(d * d for d in dims) == order
    assert np.allclose(chars @ chars.T, order * np.eye(len(dims)), atol=1e-12)


def test_oh_irreps_are_orthogonal_representations():
    _assert_orthogonal_representations(_oh_group(), [1, 1, 1, 1, 2, 2, 3, 3, 3, 3])


def test_c4v_irreps_are_orthogonal_representations():
    """The wire group: the 8 signed axis permutations that fix the periodic
    axis (identity first), A1 (the Perron block) first among its irreps."""
    for axis in range(3):
        group = _c4v_group(axis)
        mats = _matrices(*group[:2])
        assert np.all(mats[:, axis, axis] == 1) and np.array_equal(mats[0], np.eye(3))
        assert [name for name, _rep in group[2]] == ["A1", "A2", "B1", "B2", "E"]
        _assert_orthogonal_representations(group, [1, 1, 1, 1, 2])


def test_shell_fit_harmonics_are_row1_and_orthogonal():
    """Each fitted pair is row 1 of its irrep (fixed by the projector
    P_11 = (d/48) sum_g D_11(g) g) and orthogonal on the unit sphere, so
    the fit splits a state's power between the two angular momenta."""
    irreps = dict(_oh_group()[2])
    mats = _oh_matrices()
    rng = np.random.default_rng(5)
    u = rng.normal(size=(50, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    mu, w_mu = np.polynomial.legendre.leggauss(10)  # exact to degree 8 here
    phi = np.arange(20) * (2 * math.pi / 20)
    st = np.sqrt(1 - mu * mu)
    sphere = np.stack(
        [np.outer(st, np.cos(phi)), np.outer(st, np.sin(phi)), np.outer(mu, np.ones(20))],
        axis=-1,
    ).reshape(-1, 3)
    weights = np.repeat(w_mu, 20)
    for name, fits in _SHELL_FITS.items():
        rep = irreps[name]
        d = rep.shape[1]
        for _ell, f in fits:
            # (g f)(u) = f(M_g^T u); u @ M_g is M_g^T u for row vectors
            projected = d / 48 * sum(rep[g, 0, 0] * f(u @ mats[g]) for g in range(48))
            assert np.allclose(projected, f(u), atol=1e-12), name
        (_lo, f_lo), (_hi, f_hi) = fits
        overlap = np.sum(weights * f_lo(sphere) * f_hi(sphere))
        assert abs(overlap) < 1e-12 * np.sum(weights * f_hi(sphere) ** 2), name


def test_symmetry_blocks_match_dense_reference(lih):
    """Top branches of the O_h block solve against dense eigh of the full
    kernel at five kappa from the floor to kappa*, and every returned state
    against the dense kernel and the group action: each multiplet's
    partners carry one of the irreps' matrices, psi_b . g psi_a = D_ba(g)."""
    grid = build_grid(GeometrySpec.sphere(40.0, 6))
    coupling = Coupling.from_composition(lih, grid)
    m = 16
    eigen = TopEigenSolver(grid, coupling, m)
    assert eigen.sym is not None
    for kappa in np.geomspace(kappa_floor(), coupling.kappa_star, 5):
        dense = -coupling.c * np.linalg.eigvalsh(assemble_kernel(grid, kappa))[::-1][:m]
        merged = np.concatenate(
            [np.repeat(eigen.branches(kappa, b), d) for b, (_n, d) in enumerate(eigen.blocks)]
        )
        assert np.allclose(np.sort(merged)[::-1][:m], dense, rtol=1e-12, atol=0)

    states = solve_bound_states(grid, coupling, max_states=m)
    assert [s.level_label for s in states][:4] == ["1s", "1p", "1p", "1p"]
    a0 = grid.spacing
    sites = [tuple(p) for p in np.rint(grid.points / a0).astype(int)]
    index = {site: i for i, site in enumerate(sites)}
    moves = [
        np.array([index[tuple(mat.astype(int) @ site)] for site in sites])
        for mat in _oh_matrices()
    ]
    irreps = _oh_group()[2]
    for g in sorted({s.degeneracy_group for s in states}):
        members = [s for s in states if s.degeneracy_group == g]
        kernel = assemble_kernel(grid, members[0].kappa)
        psi = np.column_stack([s.psi for s in members]) * a0**1.5
        assert np.allclose(psi.T @ psi, np.eye(len(members)), atol=1e-12)
        for s, v in zip(members, psi.T):
            assert s.residual <= 1e-9
            assert np.linalg.norm(v + coupling.c * (kernel @ v)) <= 1e-9
        rep = []
        for move in moves:
            moved = np.empty_like(psi)
            moved[move] = psi  # (g psi)(g r) = psi(r)
            rep.append(psi.T @ moved)
            assert np.max(np.abs(moved - psi @ rep[-1])) <= 1e-10  # partners only
        rep = np.array(rep)
        assert any(
            d.shape == rep.shape and np.allclose(rep, d, atol=1e-10) for _n, d in irreps
        )


@pytest.mark.parametrize("grid_div", [6, 10])
def test_wire_blocks_match_dense_reference(grid_div, lih):
    """An R = 25 nm wire solves in C4v blocks at every Bloch k: each
    block's whole spectrum, repeated d times, is the dense spectrum of the
    assembled kernel, and the solve's states (labels sb<group>, the E pair
    one level) satisfy the dense kernel equation."""
    grid = build_grid(GeometrySpec.cylinder(25.0, grid_div))
    coupling = Coupling.from_composition(lih, grid)
    for k in (0.0, 0.04):
        bloch = np.array([0.0, 0.0, k])
        eigen = TopEigenSolver(grid, coupling, 4, bloch)
        assert [d for _name, d in eigen.blocks] == [1, 1, 1, 1, 2]
        for kappa in (0.02, 0.08, 0.2):
            dense = np.linalg.eigvalsh(assemble_kernel(grid, kappa, bloch))
            blocks = [
                np.repeat(eigen.sym.top(kappa, b, grid.n_points, bloch)[0], d)
                for b, (_name, d) in enumerate(eigen.blocks)
            ]
            merged = np.sort(np.concatenate(blocks))
            assert merged.shape == dense.shape
            assert np.max(np.abs(merged - dense)) <= 1e-13 * np.max(np.abs(dense))

        states = solve_bound_states(grid, coupling, max_states=4, bloch_k=bloch)
        assert [s.level_label for s in states] == ["sb0", "sb1", "sb1"]
        psi = np.column_stack([s.psi for s in states]) * grid.spacing**1.5
        assert np.allclose(psi.T @ psi, np.eye(3), atol=1e-12)
        for s, v in zip(states, psi.T):
            kernel = assemble_kernel(grid, s.kappa, bloch)
            assert np.linalg.norm(v + coupling.c * (kernel @ v)) <= 1e-9


def test_wire_existence_test_reads_the_dense_top_branch(lih):
    """On a wire block 0 is A1, which holds the positive Perron vector, so
    has_bound_state reads the top branch of the whole kernel: bound at
    small k on a 25 nm wire, unbound at k = 0.1/nm and on a 5 nm wire."""
    found = []
    for radius, k in ((25.0, 0.0), (25.0, 0.05), (25.0, 0.1), (5.0, 0.0)):
        grid = build_grid(GeometrySpec.cylinder(radius, 6))
        coupling = Coupling.from_composition(lih, grid)
        bloch = np.array([0.0, 0.0, k])
        dense = -coupling.c * np.linalg.eigvalsh(assemble_kernel(grid, kappa_floor(), bloch))[-1]
        top = TopEigenSolver(grid, coupling, 0, bloch).branches(kappa_floor(), 0)[0]
        assert top == pytest.approx(dense, rel=1e-13)
        found.append(has_bound_state(grid, coupling, bloch))
        assert found[-1] == (dense > 1.0)
    assert found == [True, True, False, False]


def test_kernel_block_clearance_is_one_rule_on_every_grid():
    """Off the self mask, a target closer than a0/10 to a source (periodic
    axes: to its nearest image) raises, and one farther does not."""
    rng = np.random.default_rng(3)
    sphere = build_grid(GeometrySpec.sphere(30.0, 8))
    wire = build_grid(GeometrySpec.cylinder(25.0, 10))
    slab = build_grid(GeometrySpec.slab(100.0, 40))
    sources = rng.uniform(-20.0, 20.0, (60, 3))
    sources[:, 2] = rng.uniform(0.0, 2.5, 60)  # one period, sources at many heights
    layered = Grid(points=sources, spacing=2.5, periodic_axes=((2, 2.5),))
    for grid in (sphere, wire, layered, slab):
        a0 = grid.spacing

        def brute(target):
            d = target - grid.points
            for axis, period in grid.periodic_axes:
                d[:, axis] -= period * np.round(d[:, axis] / period)
            return np.sqrt((d * d).sum(axis=1)).min()

        shift = np.zeros(3)  # a whole number of periods away: the same images
        for axis, period in grid.periodic_axes:
            shift[axis] = 3 * period
        for site in grid.points[rng.integers(0, grid.n_points, 5)]:
            with pytest.raises(EvalTooCloseToSource):
                kernel_block(site[None, :], grid, 0.05)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            for frac in (0.09, 0.11):
                target = site + shift + frac * a0 * direction
                assert brute(target) == pytest.approx(frac * a0, rel=1e-9)
                if frac < 0.1:
                    with pytest.raises(EvalTooCloseToSource):
                        kernel_block(target[None, :], grid, 0.05)
                else:
                    assert np.all(np.isfinite(kernel_block(target[None, :], grid, 0.05)))


def test_positive_coupling_rejected(lih):
    grid = build_grid(GeometrySpec.sphere(20.0, 10))
    bad = Coupling(c=0.01, spacing=grid.spacing)
    with pytest.raises(ValueError):
        solve_bound_states(grid, bad)
    assert not has_bound_state(grid, bad)


def test_weak_coupling_guard():
    with pytest.raises(ValueError):
        Coupling(c=-1.0, spacing=2.0)


def test_refinement_stability_of_deepest_level(lih, r30):
    """grid_div 10 -> 12 moves the deepest eigenvalue by < 5%."""
    grid = build_grid(GeometrySpec.sphere(30.0, 12))
    coupling = Coupling.from_composition(lih, grid)
    fine = solve_bound_states(grid, coupling, max_states=1)
    assert fine[0].e_b == pytest.approx(r30.states[0].e_b, rel=0.05)


# ---------------------------------------------------------------------------
# lifetimes
# ---------------------------------------------------------------------------


def synthetic_state(psi, grid, kappa=0.1):
    return BoundState(
        kappa=kappa,
        e_b=HBAR2_OVER_2MN * kappa**2,
        psi=psi,
        level_label="syn",
        degeneracy_group=0,
        residual=0.0,
        scale=math.nan,
        grid_signature=grid.signature(),
    )


def test_uniform_state_decays_at_bulk_rate(lih, lih_bulk):
    grid = build_grid(GeometrySpec.sphere(8.0, 4))
    n = grid.n_points
    psi = np.full(n, 1.0 / math.sqrt(n * grid.cell_weight))
    t = finite_lifetime(synthetic_state(psi, grid), grid, lih)
    assert t == pytest.approx(lih_bulk.t_star, rel=1e-12)


def test_half_support_state_lives_twice_as_long(lih, lih_bulk):
    """Indicator vector over half the grid, at the amplitude of the
    full-grid uniform state: the absorbing weight halves, T doubles."""
    grid = build_grid(GeometrySpec.sphere(8.0, 4))
    n = grid.n_points
    amplitude = 1.0 / math.sqrt(n * grid.cell_weight)
    psi = np.zeros(n)
    psi[: n // 2] = amplitude
    t = finite_lifetime(synthetic_state(psi, grid), grid, lih)
    expected = lih_bulk.t_star / ((n // 2) / n)
    assert t == pytest.approx(expected, rel=1e-12)


def test_zero_absorption_gives_infinite_lifetime():
    tbl = NuclideTable([ScatteringEntry("Q", None, -30.0, 0.0)])
    comp = CrystalComposition.make("Q", [("Q", None, False, 1)], 64.0)
    grid = build_grid(GeometrySpec.sphere(8.0, 4))
    n = grid.n_points
    psi = np.full(n, 1.0 / math.sqrt(n * grid.cell_weight))
    assert finite_lifetime(synthetic_state(psi, grid), grid, comp, tbl) == math.inf


def test_leak_corrected_lifetime_exceeds_bulk(r30, lih, lih_bulk):
    for s in r30.states:
        t = lifetime_with_leakage(s, r30.grid, lih, r30.coupling)
        assert t > lih_bulk.t_star


def test_exterior_weight_positive_and_modest(r30):
    w = exterior_weight(r30.states[0], r30.grid, r30.coupling)
    assert 0.0 < w < 1.0


def test_product_bound_for_every_state(r30, r40, lih, lih_bulk):
    for bundle in (r30, r40):
        for s in bundle.states:
            t = lifetime_with_leakage(s, bundle.grid, lih, bundle.coupling)
            assert s.e_b * t <= lih_bulk.ebt_bound * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_reconstruction_scale_matches_coupling(r30):
    _s, rel = reconstruction_scale(r30.states[0], r30.grid, r30.coupling)
    assert rel < 0.05


def test_stored_scale_is_the_site_least_squares_match(r30, lih):
    """BoundState.scale, taken from the solve's own K psi, equals
    Re<K psi, psi> / <K psi, K psi> recomputed from psi, for every member
    of a multiplet and on the dense periodic path as well: by the assembled
    matrix, and on the sphere also by the lattice FFT, which shares no code
    with it."""
    film = build_grid(GeometrySpec.slab(100.0, 10))
    film_states = solve_bound_states(film, Coupling.from_composition(lih, film), max_states=2)
    cases = [(s, r30.grid) for s in r30.states] + [(s, film) for s in film_states]
    assert len(cases) == len(r30.states) + 2
    dense = {}
    for state, grid in cases:
        key = (grid.signature(), state.kappa)
        if key not in dense:
            dense = {key: assemble_kernel(grid, state.kappa, state.bloch_k)}
        products = [dense[key] @ state.psi]
        if grid is r30.grid:
            products.append(_lattice_apply(grid, state.kappa, state.psi, grid.lattice))
        for f in products:
            s = np.real(np.vdot(f, state.psi)) / np.real(np.vdot(f, f))
            assert state.scale == pytest.approx(s, rel=1e-12)


def test_reconstruction_far_field(r30):
    s = r30.states[0]
    rr = np.array([[r, 0.0, 0.0] for r in (90.0, 96.0, 105.0, 114.0, 120.0)])
    vals = np.real(reconstruct_wavefunction(s, r30.grid, r30.coupling, rr))
    shaped = vals * rr[:, 0] * np.exp(s.kappa * rr[:, 0])
    assert np.all(np.sign(shaped) == np.sign(shaped[0]))
    assert np.max(np.abs(shaped / shaped[0] - 1.0)) < 0.10


def test_reconstruction_outside_smaller_than_center(r30):
    s = r30.states[0]
    near_center = np.array([[1.1, 0.7, 0.9]])  # off-lattice interior point
    outside = np.array([[60.0, 0.0, 0.0]])
    v_in = abs(reconstruct_wavefunction(s, r30.grid, r30.coupling, near_center)[0])
    v_out = abs(reconstruct_wavefunction(s, r30.grid, r30.coupling, outside)[0])
    assert v_out < v_in


def test_reconstruction_matches_trilinear_interpolation(r30):
    """Cell-center values agree with trilinear interpolation of psi to 10%."""
    grid, s = r30.grid, r30.states[0]
    a0 = grid.spacing
    index = {
        tuple(np.rint(p / a0).astype(int)): i for i, p in enumerate(grid.points)
    }
    mids = []
    interp = []
    for base in [(0, 0, 0), (1, 1, 0), (-2, 0, 1), (0, 2, -3), (3, -1, 1)]:
        corners = [
            (base[0] + dx, base[1] + dy, base[2] + dz)
            for dx in (0, 1)
            for dy in (0, 1)
            for dz in (0, 1)
        ]
        if not all(c in index for c in corners):
            continue
        mids.append((np.asarray(base) + 0.5) * a0)
        interp.append(np.mean([s.psi[index[c]] for c in corners]))
    assert len(mids) >= 3
    vals = np.real(reconstruct_wavefunction(s, grid, r30.coupling, np.array(mids)))
    assert np.max(np.abs(vals / np.asarray(interp) - 1.0)) < 0.10


def test_reconstruction_rejects_points_on_sources(r30):
    target = r30.grid.points[5] + np.array([r30.grid.spacing / 50.0, 0.0, 0.0])
    with pytest.raises(EvalTooCloseToSource):
        reconstruct_wavefunction(r30.states[0], r30.grid, r30.coupling, [target])


def _no_kernel_block(*args, **kwargs):
    raise AssertionError("kernel_block called on the lattice path")


@pytest.mark.parametrize("grid_div", [8, 10])
def test_on_site_lattice_apply_matches_assembled_kernel(grid_div, monkeypatch, lih, lih_bulk):
    """On a build_grid sphere the on-site K V is an FFT convolution that
    calls no kernel_block; it equals the assembled matrix times V for real
    columns and for a complex one.  The whole solve, its O_h blocks and
    residuals included, calls no kernel_block either and returns the
    oracle's levels."""
    grid = build_grid(GeometrySpec.sphere(30.0, grid_div))
    kappa = 0.09
    rng = np.random.default_rng(grid_div)
    real = rng.standard_normal((grid.n_points, 3))
    cplx = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    mat = assemble_kernel(grid, kappa)
    monkeypatch.setattr("nqdot.solver.kernel_block", _no_kernel_block)
    for v in (real, cplx):
        expected = mat @ v
        got = _lattice_apply(grid, kappa, v, grid.lattice)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
    states = solve_bound_states(grid, Coupling.from_composition(lih, grid), max_states=12)
    labels = spherical_well_state_labels(lih_bulk.e_b_star, 30.0)
    assert [s.level_label for s in states] == labels


def test_lattice_apply_rejects_periodic_grids():
    """A wire has a lattice, but its kernel is an image sum: the aperiodic
    lattice convolution raises instead of applying the wrong kernel."""
    wire = build_grid(GeometrySpec.cylinder(25.0, 6))
    assert wire.lattice is not None
    with pytest.raises(ValueError):
        _lattice_apply(wire, 0.05, np.ones(wire.n_points), wire.lattice)


@pytest.mark.parametrize("sites", ["shifted by a0/3", "half-integer"])
def test_off_lattice_sites_take_kernel_block(sites, monkeypatch):
    """Sites that are not a0 times integers (a sphere shifted by a0/3, and
    the O_h-invariant half-integer sphere) have no Grid.lattice: they solve
    as one dense block of the kernel_block-assembled matrix, without irrep
    labels.  The shifted sphere holds the kernel of the lattice sphere, so
    its levels are those of the O_h solve, level by level."""
    sphere = build_grid(GeometrySpec.sphere(12.0, 6))
    a0 = sphere.spacing
    if sites == "half-integer":
        ax = np.arange(-6, 6) + 0.5
        pts = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), -1).reshape(-1, 3)
        pts = pts[np.sum(pts**2, axis=1) <= 36] * a0
    else:
        pts = sphere.points + a0 / 3
    grid = Grid(pts, a0, ())
    assert grid.lattice is None
    assert TopEigenSolver(grid, Coupling(c=-0.1, spacing=a0), 1).blocks == [(None, 1)]
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel_block(*args, **kwargs)

    monkeypatch.setattr("nqdot.kernel.kernel_block", counted)
    coupling = Coupling(c=-0.05, spacing=a0)  # binds the 1s and the 1p triple
    states = solve_bound_states(grid, coupling, max_states=4)
    assert calls
    assert [s.level_label for s in states] == ["sb0", "sb1", "sb1", "sb1"]
    assert max(s.residual for s in states) <= 1e-9
    if sites == "shifted by a0/3":
        blocks = solve_bound_states(sphere, coupling, max_states=4)
        assert [s.level_label for s in blocks] == ["1s", "1p", "1p", "1p"]
        for dense, oh in zip(states, blocks):
            assert dense.kappa == pytest.approx(oh.kappa, rel=1e-10)


def test_coincident_sites_raise_on_solve():
    """Two sites at one point leave the grid without a lattice; its dense
    kernel meets a source pair closer than a0/10 and raises."""
    sphere = build_grid(GeometrySpec.sphere(12.0, 6))
    grid = Grid(np.vstack([sphere.points, sphere.points[:1]]), sphere.spacing, ())
    assert grid.lattice is None
    with pytest.raises(EvalTooCloseToSource):
        solve_bound_states(grid, Coupling(c=-0.05, spacing=grid.spacing))


def test_kappa_floor_matches_energy_floor():
    assert HBAR2_OVER_2MN * kappa_floor() ** 2 == pytest.approx(1e-4, rel=1e-12)
