"""The three workloads: inputs made from a seed, one pass of operations,
and the checks that judge each operation afterwards.

An operation is one checked call (a solve, one level's lifetime, one
k-point, one Rabi rate, one field plane).  A pass runs every operation
once with no checking in between; `Ops.verdicts` checks them after the
clock stops.  Every library call goes through a module attribute, so the
tracer's wrappers see it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

import nqdot.bands as bands
import nqdot.geometry as geometry
import nqdot.solver as solver
import nqdot.transitions as transitions
from nqdot.geometry import GeometrySpec
from nqdot.materials import load_material
from nqdot.nuclides import default_table

import oracles

ENERGY_FLOOR_UEV = 1e-4  # shallowest state the solver searches for
RESIDUAL_MAX = 1e-6
NORM_TOL = 1e-9
DEGENERATE_REL = 1e-9
SEPARABILITY_REL = 0.01  # criterion 7; 0.2 % is measured on the wire
SPHERE_1S_REL = 0.25  # grid 1s is ~6 % shallow of the well at grid_div 8-10
PERIODIC_LEVEL_REL = 0.10  # wire 2.3 / 4.6 %, film 2-6 % shallow today
DIPOLE_REL = 0.10
DIPOLE_FAULT_BAND = (1.2, 1.45)  # |d| / well dipole under the normalization fault
DECAY_REL = 0.02  # exterior field against the k_l(kappa r) tail
DYNAMICS_ABS = 1e-6


class Ops:
    """Log of one run's operations: (name, result, error, check, known).

    `known`, when given, tells from a returned result whether a failed
    check is the documented fault and nothing else; an operation that
    raised is never a known fault."""

    def __init__(self):
        self.records = []

    def attempt(self, fn):
        try:
            return fn(), None
        except Exception as exc:  # an operation that raises is a failed operation
            return None, f"{type(exc).__name__}: {exc}"

    def record(self, name, out, err, check, known=None):
        self.records.append((name, out, err, check, known))

    def run(self, name, fn, check, known=None):
        out, err = self.attempt(fn)
        self.record(name, out, err, check, known)
        return out

    def verdicts(self):
        """[(name, problems, known_fault)] with an empty problem list for a
        passed operation."""
        out = []
        for name, result, err, check, known in self.records:
            if err is not None:
                out.append((name, [err], False))
                continue
            try:
                problems = check(result)
                known_fault = bool(problems) and known is not None and known(result)
            except Exception as exc:
                problems, known_fault = [f"check raised {type(exc).__name__}: {exc}"], False
            out.append((name, problems, known_fault))
        return out


class Material:
    """LiH composition and its closed-form bulk level, shared by all workloads."""

    def __init__(self):
        self.comp, _ = load_material("LiH")
        self.table = default_table()
        sum_re, sum_im = self.table.composition_sums(self.comp)
        self.bulk = oracles.bulk(sum_re, sum_im, self.comp.cell_volume_A3)
        self.kappa_star = self.bulk["kappa_star"]

    def coupling(self, grid):
        return solver.Coupling.from_composition(self.comp, grid, self.table)

    def lifetime_check(self, state):
        b = self.bulk

        def check(t_ms):
            problems = []
            if not state.e_b < b["e_b_star"]:
                problems.append(f"E_b {state.e_b:.6g} >= E_b* {b['e_b_star']:.6g}")
            if not state.e_b * t_ms <= b["ebt"] * (1 + 1e-12):
                problems.append(f"E_b T {state.e_b * t_ms:.6g} > E_b*T* {b['ebt']:.6g}")
            if not t_ms >= b["t_star"] * (1 - 1e-12):
                problems.append(f"T {t_ms:.6g} ms < T* {b['t_star']:.6g} ms")
            return problems

        return check


def _rel(a, b):
    return abs(a - b) / abs(b)


def _state_problems(states, grid, expected_labels, cap):
    """Labels, cap, residual, grid norm and degenerate-member equality."""
    problems = []
    labels = [s.level_label for s in states]
    if labels != expected_labels:
        problems.append(f"labels {labels} != oracle {expected_labels}")
    if len(states) >= cap:
        problems.append(f"{len(states)} states reach the cap {cap}")
    if any(a.e_b < b.e_b for a, b in zip(states, states[1:])):
        problems.append("states not deepest first")
    for s in states:
        norm = float(np.sum(np.abs(s.psi) ** 2)) * grid.cell_weight
        if s.residual > RESIDUAL_MAX:
            problems.append(f"{s.level_label} residual {s.residual:.3g}")
        if abs(norm - 1.0) > NORM_TOL:
            problems.append(f"{s.level_label} grid norm {norm:.12g}")
    for g in {s.degeneracy_group for s in states}:
        e = [s.e_b for s in states if s.degeneracy_group == g]
        if max(e) - min(e) > DEGENERATE_REL * max(e):
            problems.append(f"group {g} members differ: {e}")
    return problems


def _groups(energies):
    """Sizes of runs of equal energies, in the given order."""
    sizes = []
    for i, e in enumerate(energies):
        if i and abs(e - energies[i - 1]) <= DEGENERATE_REL * abs(e):
            sizes[-1] += 1
        else:
            sizes.append(1)
    return sizes


class SphereLevels:
    """`nqdot dot --radius-nm 40`: R = 40 nm, grid_div 10, max_states 12,
    plus one leak-corrected lifetime per level."""

    name = "sphere-levels"
    max_states = 12

    def __init__(self, seed: int, mat: Material):
        rng = np.random.default_rng(seed)
        self.radius = 40.0 if seed == 0 else 40.0 + 0.5 * rng.random()
        self.mat = mat
        self.labels = oracles.sphere_state_labels(self.radius, mat.kappa_star)
        self.e_1s = oracles.HBAR2_2M * oracles.sphere_levels(self.radius, mat.kappa_star)[0][2] ** 2

    def inputs(self):
        return {"radius_nm": self.radius, "grid_div": 10, "max_states": self.max_states}

    def run(self, ops: Ops):
        mat = self.mat
        grid = geometry.build_grid(GeometrySpec.sphere(self.radius, 10))
        coupling = mat.coupling(grid)

        def check(states):
            problems = _state_problems(states, grid, self.labels, self.max_states)
            if states and _rel(states[0].e_b, self.e_1s) > SPHERE_1S_REL:
                problems.append(f"1s E_b {states[0].e_b:.6g} vs well {self.e_1s:.6g}")
            return problems

        states = ops.run("solve", lambda: solver.solve_bound_states(
            grid, coupling, max_states=self.max_states), check) or []
        for g in sorted({s.degeneracy_group for s in states}):
            rep = next(s for s in states if s.degeneracy_group == g)
            ops.run(
                f"lifetime {rep.level_label} group {g}",
                lambda rep=rep: solver.lifetime_with_leakage(
                    rep, grid, mat.comp, coupling, mat.table),
                mat.lifetime_check(rep),
            )


class PeriodicBands:
    """Wire R = 25 nm (grid_div 10) sub-bands at four k, film 100 nm
    (grid_div 40) levels at k = 0 and sub-bands at three k."""

    name = "periodic-bands"

    def __init__(self, seed: int, mat: Material):
        rng = np.random.default_rng(seed)
        jitter = lambda n: np.zeros(n) if seed == 0 else rng.uniform(-0.002, 0.002, n)
        self.wire_k = [0.0] + list(np.array([0.02, 0.04, 0.06]) + jitter(3))
        self.film_k = [0.0] + list(np.array([0.02, 0.04]) + jitter(2))
        self.mat = mat
        ks = mat.kappa_star
        self.wire_levels = [
            (oracles.HBAR2_2M * kap**2, 1 if m == 0 else 2)
            for m, kap in oracles.disk_levels(25.0, ks)
        ]
        self.film_levels = [oracles.HBAR2_2M * kap**2 for kap in oracles.slab_levels(100.0, ks)]

    def inputs(self):
        return {"wire_k": self.wire_k, "film_k": self.film_k}

    def _levels_check(self, e_b, expected):
        """Energies (deepest first) against (E_b, multiplicity) oracle levels."""
        problems = []
        want = [e for e, mult in expected for _ in range(mult)]
        if len(e_b) != len(want):
            return [f"{len(e_b)} states, oracle {len(want)}"]
        if _groups(e_b) != [mult for _, mult in expected]:
            problems.append(f"degeneracy {_groups(e_b)} != {[m for _, m in expected]}")
        for i, (got, ref) in enumerate(zip(e_b, want)):
            if _rel(got, ref) > PERIODIC_LEVEL_REL:
                problems.append(f"state {i}: E_b {got:.6g} vs well {ref:.6g}")
        return problems

    def _kpoint_checks(self, ks, expected):
        """One check per k: k = 0 against the well, k > 0 by separability
        E_n(k) - E_n(0) = hbar^2 k^2 / 2 m_n."""

        def energies(points, k):
            return [p.energy_ueV for p in sorted(points, key=lambda p: p.subband_index) if p.k == k]

        def at_zero(points):
            return self._levels_check([-e for e in energies(points, 0.0)], expected)

        def at(k):
            def check(points):
                e0, ek = energies(points, 0.0), energies(points, k)
                shift = oracles.HBAR2_2M * k * k
                bound = [e for e in e0 if -e - shift > ENERGY_FLOOR_UEV]
                if len(ek) != len(bound):
                    return [f"k={k:.4g}: {len(ek)} sub-bands, {len(bound)} expected"]
                return [
                    f"k={k:.4g} sub-band {n}: shift {b - a:.6g} vs {shift:.6g}"
                    for n, (a, b) in enumerate(zip(e0, ek))
                    if _rel(b - a, shift) > SEPARABILITY_REL
                ]

            return check

        return [at_zero if k == 0.0 else at(k) for k in ks]

    def run(self, ops: Ops):
        mat = self.mat
        wire = GeometrySpec.cylinder(25.0, 10)
        out, err = ops.attempt(lambda: bands.subband_dispersion(
            wire, mat.comp, self.wire_k, max_states=4, table=mat.table))
        for k, check in zip(self.wire_k, self._kpoint_checks(self.wire_k, self.wire_levels)):
            ops.record(f"wire k={k:.4g}", out, err, check)

        film = GeometrySpec.slab(100.0, 40)
        grid = geometry.build_grid(film)
        coupling = mat.coupling(grid)
        film_levels = [(e, 1) for e in self.film_levels]

        def levels_check(states):
            return _state_problems(
                states, grid, [s.level_label for s in states], 8
            ) + self._levels_check([s.e_b for s in states], film_levels)

        ops.run("film levels", lambda: solver.solve_bound_states(
            grid, coupling, max_states=8), levels_check)
        out, err = ops.attempt(lambda: bands.subband_dispersion(
            film, mat.comp, self.film_k, max_states=4, table=mat.table))
        for k, check in zip(self.film_k, self._kpoint_checks(self.film_k, film_levels)):
            ops.record(f"film k={k:.4g}", out, err, check)


class SphereTransitions:
    """R = 30 nm, grid_div 8, max_states 6: 1s->1p dipoles and Rabi rate,
    a lifetime per state, three Rabi periods of dynamics and each state's
    field on a 161 x 161 plane of half-width 2R.

    R stays 30 nm for every seed: the Rabi-rate operation fails on every
    run (dipole normalization fault), and a failing operation is kept only
    on inputs that do not depend on the seed.  The seed moves the plane's
    offset from the source layer instead."""

    name = "sphere-transitions"
    radius = 30.0
    grid_div = 8
    max_states = 6
    samples = 161

    def __init__(self, seed: int, mat: Material):
        rng = np.random.default_rng(seed)
        self.offset = 0.37 if seed == 0 else rng.uniform(0.25, 0.45)  # in a0
        self.mat = mat
        self.labels = oracles.sphere_state_labels(self.radius, mat.kappa_star)
        self.dipole = oracles.sphere_dipole_1s_1p(self.radius, mat.kappa_star)
        xs = np.linspace(-2 * self.radius, 2 * self.radius, self.samples)
        x, y = np.meshgrid(xs, xs, indexing="ij")
        z0 = self.offset * self.radius / self.grid_div
        self.plane = np.column_stack([x.ravel(), y.ravel(), np.full(x.size, z0)])

    def inputs(self):
        return {"radius_nm": self.radius, "grid_div": self.grid_div,
                "plane_offset_a0": self.offset}

    def _field_check(self, state):
        """Outside the crystal (r >= 1.25 R) the field must follow
        k_l(kappa r) Y(r_hat) with the solve's own kappa, where Y is the
        least-squares mix of the degree-l monomials over r^l.  Fitting the
        angular mix makes the check independent of which basis the solver
        picks inside a degenerate level (p_z or a mixed 1p partner)."""
        ell = "spdfg".index(state.level_label[-1])
        pts = self.plane
        r = np.linalg.norm(pts, axis=1)
        sel = r >= 1.25 * self.radius
        unit = pts[sel] / r[sel, None]
        powers = [p for p in np.ndindex(ell + 1, ell + 1, ell + 1) if sum(p) == ell]
        angular = np.column_stack([np.prod(unit**np.array(p), axis=1) for p in powers])
        radial = special.spherical_kn(ell, state.kappa * r[sel])

        def check(vals):
            if not np.all(np.isfinite(vals)):
                return ["non-finite field values"]
            ratio = vals[sel].real / radial
            coef = np.linalg.lstsq(angular, ratio, rcond=None)[0]
            dev = float(np.linalg.norm(ratio - angular @ coef) / np.linalg.norm(ratio))
            return [] if dev <= DECAY_REL else [f"tail deviates {dev:.3g} from k_{ell}(kappa r) Y"]

        return check

    def run(self, ops: Ops):
        mat = self.mat
        grid = geometry.build_grid(GeometrySpec.sphere(self.radius, self.grid_div))
        coupling = mat.coupling(grid)
        states = ops.run(
            "solve",
            lambda: solver.solve_bound_states(grid, coupling, max_states=self.max_states),
            lambda st: _state_problems(st, grid, self.labels, self.max_states),
        ) or []
        ground = next((s for s in states if s.level_label == "1s"), None)
        triple = [s for s in states if s.level_label == "1p"]
        drive = transitions.DriveConfig(
            field_kv_cm=(0.0, 0.0, 1.0),
            surface_voltage_V=1.0,
            crystal_radius_nm=self.radius,
            mass_density_kg_m3=mat.comp.mass_density_kg_m3,
        )

        def rabi():
            elems = [transitions.dipole_element(ground, p, grid, coupling) for p in triple]
            rates = [transitions.rabi_frequency(drive, e) for e in elems]
            return float(np.linalg.norm(rates)), [e.d_mn_nm for e in elems]

        def dipole(dips):
            return math.sqrt(sum(float(v @ v) for v in dips))

        def rabi_check(out):
            rate, dips = out
            problems = [] if rate > 0 and math.isfinite(rate) else [f"Rabi rate {rate}"]
            if len(dips) != 3:
                problems.append(f"{len(dips)} 1p partners")
            d = dipole(dips)
            if not _rel(d, self.dipole) <= DIPOLE_REL:
                problems.append(f"|d(1s->1p)| {d:.4g} nm vs well {self.dipole:.4g} nm")
            return problems

        def dipole_fault(out):
            """The dipole-normalization fault and nothing else: a finite,
            positive rate from all three partners and |d| 1.2-1.45 times the
            well's (28.9 against 21.9 nm today)."""
            rate, dips = out
            ratio = dipole(dips) / self.dipole
            return (rate > 0 and math.isfinite(rate) and len(dips) == 3
                    and DIPOLE_FAULT_BAND[0] <= ratio <= DIPOLE_FAULT_BAND[1])

        rate = ops.run("rabi 1s->1p", rabi, rabi_check, known=dipole_fault)
        lifetimes = [
            ops.run(
                f"lifetime {i} {s.level_label}",
                lambda s=s: solver.lifetime_with_leakage(s, grid, mat.comp, coupling, mat.table),
                mat.lifetime_check(s),
            )
            for i, s in enumerate(states)
        ]

        def dynamics():
            omega, gamma = abs(rate[0]), 1.0 / (lifetimes[0] * 1e-3)
            series = transitions.simulate_two_level(
                rabi_rad_s=omega, detuning_rad_s=0.0, decay_rad_s=gamma,
                t_span_s=3 * 2 * math.pi / omega)
            return series, gamma

        def dynamics_check(out):
            series, gamma = out
            err = float(np.max(np.abs(series.n_s + series.n_p - np.exp(-gamma * series.t_s))))
            return [] if err <= DYNAMICS_ABS else [f"n_s + n_p off exp(-gamma t) by {err:.3g}"]

        ops.run("dynamics", dynamics, dynamics_check)
        for i, s in enumerate(states):
            ops.run(
                f"field {i} {s.level_label}",
                lambda s=s: solver.reconstruct_wavefunction(s, grid, coupling, self.plane),
                self._field_check(s),
            )


WORKLOADS = {w.name: w for w in (SphereLevels, PeriodicBands, SphereTransitions)}
