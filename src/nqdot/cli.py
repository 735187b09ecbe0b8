"""Command-line front end.

Every subcommand reads file-based inputs, writes one primary artifact
(CSV or JSON) plus a resolved-config sidecar, and is reproducible: the
artifact embeds the package version, the constants-ledger hash, and the
fully resolved configuration; the sidecar adds the argv that produced it,
and `nqdot --config <sidecar> [--output <path>]` replays that argv, which
regenerates the artifact byte for byte (no timestamps, fixed formatting).

Exit codes: 0 success (including the explicit empty-result marker when no
bound state exists -- absence of states is an answer, not a failure);
2 invalid inputs/flags; 1 internal numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bands import planewave_bulk_band, subband_dispersion
from .bulk import bulk_properties, mass_gain
from .constants import ledger_hash
from .errors import (
    MissingDensity,
    NoBoundState,
    NonConvergedEigensolve,
    NqdotError,
    SchemaViolation,
)
from .geometry import GeometrySpec, build_grid
from .materials import load_material
from .nuclides import NuclideTable, default_table
from .screening import ingest_records, screen_materials
from .solver import (
    Coupling,
    lifetime_with_leakage,
    reconstruct_wavefunction,
    solve_bound_states,
)
from .transitions import (
    DriveConfig,
    dipole_element,
    rabi_frequency,
    simulate_two_level,
)

FMT = ".12g"  # fixed float formatting keeps artifacts byte-stable


def _f(x) -> str:
    return format(float(x), FMT)


def _cell(c) -> str:
    if c is None:
        return ""
    if isinstance(c, bool):
        return "true" if c else "false"
    return c if isinstance(c, str) else _f(c)


def _meta_lines(config: dict) -> list:
    return [
        f"# nqdot {__version__}",
        f"# constants {ledger_hash()}",
        f"# config {json.dumps(config, sort_keys=True)}",
    ]


def _unbound(exc: NoBoundState) -> str:
    """The empty-result marker of a composition that binds nothing."""
    return f"no bound states: sum n Re[b] = {exc.sum_re_fm:+.6g} fm >= 0"


def _write_csv(path: Path, config: dict, header: list, rows, marker: str = ""):
    lines = _meta_lines(config)
    if marker:
        lines.append(f"# {marker}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(c) for c in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, config: dict, payload: dict):
    doc = {
        "meta": {
            "version": __version__,
            "constants": ledger_hash(),
            "config": config,
        },
        **payload,
    }
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _write_sidecar(out_path: Path, config: dict, argv: list):
    side = out_path.with_suffix(out_path.suffix + ".config.json")
    doc = {**config, "argv": argv}
    side.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", "utf-8")


class SystemExit2(Exception):
    """Validation failure: message should name the offending flag."""


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _required(args, dest: str):
    value = getattr(args, dest)
    if value is None:
        raise SystemExit2(f"{_flag(dest)} is required")
    return value


# argparse takes any int here; below these a run answers nothing, or the
# wrong question, and would still exit 0
LOWEST = {"max_states": 1, "kpoints": 1, "samples": 1, "state_index": 0}


def _setup(args):
    """Check the counts, load the nuclide table and resolve the material.

    Returns (config, table, comp, lattice). config holds the keys every
    artifact shares; each handler adds its own. `format` is csv unless the
    subcommand has a --format flag.
    """
    for dest, lowest in LOWEST.items():
        if getattr(args, dest, lowest) < lowest:
            raise SystemExit2(f"{_flag(dest)} must be at least {lowest}")
    table = NuclideTable.load(args.nuclide_table) if args.nuclide_table else default_table()
    config = {
        "subcommand": args.subcommand,
        "format": getattr(args, "format", "csv"),
        "nuclide_table": args.nuclide_table,
    }
    if not hasattr(args, "material"):
        return config, table, None, None
    config["material"] = args.composition or args.material
    if not config["material"]:
        raise SystemExit2("--material or --composition is required")
    return (config, table, *load_material(config["material"]))


# ---------------------------------------------------------------------------
# subcommand handlers: each writes its artifact and returns its config
# ---------------------------------------------------------------------------


def cmd_bulk(args, out_path):
    config, table, comp, _ = _setup(args)
    try:
        bp = bulk_properties(comp, table)
    except NoBoundState as exc:
        payload = {"material": comp.name, "bound": False, "sum_re_fm": exc.sum_re_fm}
        columns, marker = list(payload), "no bound states: sum n Re[b] >= 0"
    else:
        try:
            gain = mass_gain(comp, table)
        except MissingDensity:
            gain = None
        payload = {
            "material": comp.name,
            "bound": True,
            "e_b_star_ueV": bp.e_b_star,
            "t_star_ms": bp.t_star,
            "ebt_bound_ueV_ms": bp.ebt_bound,
            "kappa_star_nm_inv": bp.kappa_star,
            "mass_gain_percent": gain,
        }
        columns, marker = [k for k in payload if k != "bound"], ""
    if config["format"] == "json":
        _write_json(out_path, config, payload)
    else:
        _write_csv(out_path, config, columns, [[payload[k] for k in columns]], marker)
    return config


LEVEL_SHAPES = {  # subcommand: (geometry, size flag)
    "dot": (GeometrySpec.sphere, "radius_nm"),
    "wire": (GeometrySpec.cylinder, "radius_nm"),
    "film": (GeometrySpec.slab, "thickness_nm"),
}


def cmd_levels(args, out_path):
    """dot, wire and film: one row per degeneracy group."""
    config, table, comp, _ = _setup(args)
    shape, size_dest = LEVEL_SHAPES[args.subcommand]
    size = _required(args, size_dest)
    config.update(size_nm=size, grid_div=args.grid_div, max_states=args.max_states)
    grid = build_grid(shape(size, args.grid_div))
    states, marker = [], "no bound states"
    try:
        coupling = Coupling.from_composition(comp, grid, table)
        states = solve_bound_states(grid, coupling, max_states=args.max_states)
    except NoBoundState as exc:
        marker = _unbound(exc)
    rows = []
    for g in sorted({s.degeneracy_group for s in states}):
        members = [s for s in states if s.degeneracy_group == g]
        rep = members[0]
        lifetime = lifetime_with_leakage(rep, grid, comp, coupling, table)
        rows.append((rep.level_label, str(len(members)), rep.kappa, rep.e_b, lifetime))
    header = ["label", "degeneracy", "kappa_nm_inv", "e_b_ueV", "lifetime_ms"]
    _write_csv(out_path, config, header, rows, marker="" if rows else marker)
    return config


def cmd_bands(args, out_path):
    config, table, comp, lattice = _setup(args)
    config["kpoints"] = args.kpoints
    if args.bulk:
        if lattice is None:
            raise SystemExit2(
                "--bulk needs a material file with a lattice block"
            )
        config.update(mode="bulk", kmax_nm_inv=args.kmax, g_shells=args.g_shells)
    else:
        modes = [m for m in ("film", "wire") if getattr(args, LEVEL_SHAPES[m][1]) is not None]
        if len(modes) != 1:
            raise SystemExit2("bands needs one of --thickness-nm, --radius-nm or --bulk")
        shape, size_dest = LEVEL_SHAPES[modes[0]]
        mode, size = modes[0], getattr(args, size_dest)
        spec = shape(size, args.grid_div)
        config.update(
            mode=mode, size_nm=size, grid_div=args.grid_div, max_states=args.max_states
        )
    rows, marker = [], "no bound sub-bands in the sampled k range"
    try:
        if args.bulk:
            bp = bulk_properties(comp, table)
            k_max = args.kmax if args.kmax is not None else 2.0 * bp.kappa_star
            config["kmax_nm_inv"] = k_max
            for k in np.linspace(0.0, k_max, args.kpoints):
                vals = planewave_bulk_band(
                    comp, lattice, np.array([k, 0.0, 0.0]), g_cutoff=args.g_shells,
                    table=table,
                )
                rows.append((k, "0", vals[0]))
        else:
            ks = np.linspace(0.0, math.pi / spec.spacing, args.kpoints)
            points = subband_dispersion(
                spec, comp, ks, max_states=args.max_states, table=table
            )
            rows = [(p.k, str(p.subband_index), p.energy_ueV) for p in points]
    except NoBoundState as exc:
        marker = _unbound(exc)
    _write_csv(
        out_path, config, ["k_nm_inv", "subband", "energy_ueV"], rows, "" if rows else marker
    )
    return config


def cmd_rabi(args, out_path):
    config, table, comp, _ = _setup(args)
    config.update(
        radius_nm=args.radius_nm,
        grid_div=args.grid_div,
        voltage_v=args.voltage_v,
        field_kv_cm=args.field_kv_cm,
        periods=args.periods,
        sweep_radius=args.sweep_radius,
    )
    if comp.mass_density_kg_m3 is None:
        raise SystemExit2("--material file must carry mass_density_kg_m3 for rabi")
    if not args.periods > 0:
        raise SystemExit2(f"--periods must be positive, got {args.periods}")

    sweep = args.sweep_radius is not None  # the map writes no lifetime
    def one_radius(radius):
        """(Rabi rate, 1s-1p angular frequency, 1s lifetime) at radius, the
        lifetime None in a sweep, or None when the sphere binds no 1s-1p pair."""
        spec = GeometrySpec.sphere(radius, args.grid_div)
        grid = build_grid(spec)
        coupling = Coupling.from_composition(comp, grid, table)
        states = solve_bound_states(grid, coupling, max_states=6)
        s_states = [s for s in states if s.level_label == "1s"]
        p_states = [s for s in states if s.level_label == "1p"]
        if not s_states or not p_states:
            return None
        ground = s_states[0]
        drive = DriveConfig(
            field_kv_cm=(0.0, 0.0, args.field_kv_cm),
            surface_voltage_V=args.voltage_v,
            crystal_radius_nm=radius,
            mass_density_kg_m3=comp.mass_density_kg_m3,
        )
        # the degenerate triple's basis is gauge-arbitrary; the driven
        # combination couples through the quadrature sum over members
        omegas = []
        couplings = []
        for p in p_states:
            elem = dipole_element(ground, p, grid, coupling)
            couplings.append(rabi_frequency(drive, elem))
            omegas.append(abs(elem.omega_mn_rad_s))
        rabi = float(np.linalg.norm(couplings))
        lifetime_ms = None if sweep else lifetime_with_leakage(ground, grid, comp, coupling, table)
        return rabi, omegas[0], lifetime_ms

    if sweep:
        try:
            radii = [float(r) for r in args.sweep_radius.split(",")]
        except ValueError:
            raise SystemExit2(
                f"--sweep-radius takes comma-separated radii (nm), got {args.sweep_radius!r}"
            ) from None
    header = ["R_nm", "E0_kV_cm", "rabi_MHz"] if sweep else ["t_us", "n_s", "n_p"]
    rows, marker = [], ""
    try:
        if sweep:
            for r in radii:
                found = one_radius(r)
                rabi_mhz = None if found is None else abs(found[0]) / (2 * math.pi) / 1e6
                rows.append((r, args.field_kv_cm, rabi_mhz))
        elif (found := one_radius(args.radius_nm)) is None:
            marker = f"radius {_f(args.radius_nm)} nm hosts no 1s-1p pair"
        else:
            rabi, omega_mn, lifetime_ms = found
            series = simulate_two_level(
                rabi_rad_s=abs(rabi),
                detuning_rad_s=0.0,
                decay_rad_s=1.0 / (lifetime_ms * 1e-3),
                t_span_s=args.periods * 2 * math.pi / abs(rabi),
            )
            rows = list(zip(series.t_s * 1e6, series.n_s, series.n_p))
            config["summary"] = {
                "rabi_MHz": abs(rabi) / (2 * math.pi) / 1e6,
                "omega_mn_rad_s": omega_mn,
                "lifetime_ms": lifetime_ms,
                "rabi_lifetime_cycles": abs(rabi) * lifetime_ms * 1e-3 / (2 * math.pi),
            }
    except NoBoundState as exc:
        rows, marker = [], _unbound(exc)
    _write_csv(out_path, config, header, rows, marker)
    return config


def cmd_screen(args, out_path):
    config, table, _, _ = _setup(args)
    config["input"] = args.input
    records, bad_rows = ingest_records(args.input, on_error="collect")
    report = screen_materials(records, table)
    rows = [
        (r.id, r.formula, r.e_b_star_ueV, r.t_star_ms, r.pareto)
        for r in report.results
    ]
    _write_csv(
        out_path,
        config,
        ["id", "formula", "e_b_star_ueV", "t_star_ms", "pareto"],
        rows,
    )
    lines = [f"line {line_no}: {msg}" for line_no, msg in bad_rows]
    lines += [f"record {rec_id}: {msg}" for rec_id, msg in report.errors]
    lines += [f"dropped {rec_id}: {reason}" for rec_id, reason in report.dropped]
    err_path = out_path.with_suffix(out_path.suffix + ".errors.txt")
    err_path.write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")
    return config


def cmd_wf(args, out_path):
    config, table, comp, _ = _setup(args)
    radius = _required(args, "radius_nm")
    if not args.extent > 0:
        raise SystemExit2(f"--extent must be positive, got {args.extent}")
    config.update(
        radius_nm=radius,
        grid_div=args.grid_div,
        state_index=args.state_index,
        extent=args.extent,
        samples=args.samples,
    )
    grid = build_grid(GeometrySpec.sphere(radius, args.grid_div))
    rows, states = [], []
    try:
        coupling = Coupling.from_composition(comp, grid, table)
        # room for the whole level holding state_index: no irrep has more than 3 partners
        states = solve_bound_states(grid, coupling, max_states=args.state_index + 3)
        marker = f"no state with index {args.state_index} ({len(states)} bound states)"
    except NoBoundState as exc:
        marker = _unbound(exc)
    if args.state_index < len(states):
        half = args.extent * radius
        xs = np.linspace(-half, half, args.samples)
        # plane offset keeps every sample a0/10 clear of the source lattice
        z0 = 0.37 * grid.spacing
        pts = np.array([[x, y, z0] for x in xs for y in xs])
        vals = reconstruct_wavefunction(states[args.state_index], grid, coupling, pts)
        rows = [
            (p[0], p[1], p[2], np.real(v), np.imag(v))
            for p, v in zip(pts, np.atleast_1d(vals))
        ]
        marker = ""
    _write_csv(out_path, config, ["x_nm", "y_nm", "z_nm", "re", "im"], rows, marker)
    return config


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_subcommand(sub, name, summary, handler, default_output, with_grid=True, material=True):
    p = sub.add_parser(name, help=summary)
    p.set_defaults(handler=handler, default_output=default_output)
    if material:
        p.add_argument("--material", help="built-in material alias (e.g. LiH)")
        p.add_argument("--composition", help="path to a composition JSON file")
    p.add_argument("--nuclide-table", help="path to a nuclide table CSV")
    p.add_argument("--output", "-o", help="primary artifact path")
    p.add_argument("--threads", type=int, help="cap BLAS worker threads (count)")
    if with_grid:
        p.add_argument(
            "--grid-div",
            type=int,
            default=10,
            help="grid points per characteristic size (count, default 10)",
        )
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nqdot",
        description="Weakly bound neutron states in hydride nanostructures",
    )
    ap.add_argument("--config", help="re-run from a resolved-config JSON sidecar")
    ap.add_argument("--output", "-o", help="primary artifact path (with --config)")
    sub = ap.add_subparsers(dest="subcommand")

    p = _add_subcommand(
        sub, "bulk", "bulk-crystal E_b*, T*, bound, mass gain", cmd_bulk, "bulk.json",
        with_grid=False,
    )
    p.add_argument("--format", choices=["csv", "json"], default="json", help="artifact format")

    p = _add_subcommand(
        sub, "dot", "bound levels of a spherical nanocrystal", cmd_levels, "dot_levels.csv"
    )
    p.add_argument("--radius-nm", type=float, help="sphere radius (nm)")
    p.add_argument("--max-states", type=int, default=12, help="states cap, whole levels (count)")

    p = _add_subcommand(
        sub, "wire", "bound levels of a cylindrical nanowire (k = 0)", cmd_levels,
        "wire_levels.csv",
    )
    p.add_argument("--radius-nm", type=float, help="cylinder radius (nm)")
    p.add_argument("--max-states", type=int, default=8, help="states cap, whole levels (count)")

    p = _add_subcommand(
        sub, "film", "bound levels of a thin film (k = 0)", cmd_levels, "film_levels.csv"
    )
    p.add_argument("--thickness-nm", type=float, help="film thickness (nm)")
    p.add_argument("--max-states", type=int, default=8, help="states cap, whole levels (count)")

    p = _add_subcommand(
        sub, "bands", "sub-band dispersions / plane-wave bulk band", cmd_bands, "bands.csv"
    )
    p.add_argument("--thickness-nm", type=float, help="film thickness (nm)")
    p.add_argument("--radius-nm", type=float, help="wire radius (nm)")
    p.add_argument("--bulk", action="store_true", help="plane-wave bulk band")
    p.add_argument("--kpoints", type=int, default=32, help="k samples along the path (count)")
    p.add_argument("--kmax", type=float, help="bulk path end (1/nm)")
    p.add_argument("--g-shells", type=int, default=3, help="reciprocal shells (count, bulk mode)")
    p.add_argument("--max-states", type=int, default=8, help="sub-bands per k cap, whole levels (count)")

    p = _add_subcommand(
        sub, "rabi", "1s-1p microwave Rabi drive and dynamics", cmd_rabi,
        "rabi_timeseries.csv",
    )
    p.add_argument("--radius-nm", type=float, default=40.0, help="sphere radius (nm)")
    p.add_argument("--voltage-v", type=float, default=1.0, help="surface voltage (V)")
    p.add_argument(
        "--field-kv-cm", type=float, default=1.0, help="drive field amplitude (kV/cm)"
    )
    p.add_argument(
        "--periods", type=float, default=3.0,
        help="simulated span in Rabi periods (dimensionless)",
    )
    p.add_argument(
        "--sweep-radius", help="comma-separated radii (nm): emit a Rabi map instead"
    )

    p = _add_subcommand(
        sub, "screen", "screen a crystal dataset, flag Pareto points", cmd_screen,
        "screen_results.csv", with_grid=False, material=False,
    )
    p.add_argument("--input", required=True, help="NDJSON crystal dataset path")

    p = _add_subcommand(
        sub, "wf", "reconstructed wavefunction on a plane", cmd_wf, "wavefunction.csv"
    )
    p.add_argument("--radius-nm", type=float, required=False, help="sphere radius (nm)")
    p.add_argument("--state-index", type=int, default=0, help="state rank (0-based index, 0 = deepest)")
    p.add_argument(
        "--extent", type=float, default=2.0,
        help="half-width of the sampled plane in units of R (dimensionless)",
    )
    p.add_argument("--samples", type=int, default=41, help="samples per axis (count)")
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    output = args.output  # a replay writes where its own command line says

    if args.config:
        try:
            sidecar = json.loads(Path(args.config).read_text("utf-8"))
        except (OSError, ValueError) as exc:
            print(f"error: --config {args.config}: {exc}", file=sys.stderr)
            return 2
        if "argv" not in sidecar:
            print(
                f"error: --config {args.config} records no argv to replay; "
                "run the subcommand again to write a new sidecar",
                file=sys.stderr,
            )
            return 2
        argv = sidecar["argv"]
        args = ap.parse_args(argv)

    if not args.subcommand:
        ap.print_help()
        return 2

    out_path = Path(output or args.default_output)

    limiter = None
    if args.threads is not None:
        if args.threads < 1:
            print(f"error: --threads must be at least 1, got {args.threads}", file=sys.stderr)
            return 2
        try:
            from threadpoolctl import threadpool_limits
        except ImportError:
            print("error: --threads needs threadpoolctl, which is not installed",
                  file=sys.stderr)
            return 2
        limiter = threadpool_limits(limits=args.threads)

    try:
        config = args.handler(args, out_path)
        _write_sidecar(out_path, config, argv)
        print(f"wrote {out_path}")
        return 0
    except (SystemExit2, FileNotFoundError, SchemaViolation, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergedEigensolve as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except NqdotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limiter is not None:
            limiter.unregister()


if __name__ == "__main__":
    raise SystemExit(main())
