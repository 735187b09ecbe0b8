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


def _meta_lines(config: dict) -> list:
    return [
        f"# nqdot {__version__}",
        f"# constants {ledger_hash()}",
        f"# config {json.dumps(config, sort_keys=True)}",
    ]


def _write_csv(path: Path, config: dict, header: list, rows, marker: str = ""):
    lines = _meta_lines(config)
    if marker:
        lines.append(f"# {marker}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, str) else _f(c) for c in row))
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


def _table(args) -> NuclideTable:
    if getattr(args, "nuclide_table", None):
        return NuclideTable.load(args.nuclide_table)
    return default_table()


def _resolve_material(args) -> str:
    if getattr(args, "composition", None):
        return args.composition
    if getattr(args, "material", None):
        return args.material
    raise SystemExit2("--material or --composition is required")


class SystemExit2(Exception):
    """Validation failure: message should name the offending flag."""


def _level_rows(states, grid, comp, coupling, table):
    """One row per degeneracy group: label, count, kappa, E_b, lifetime."""
    rows = []
    for g in sorted({s.degeneracy_group for s in states}):
        members = [s for s in states if s.degeneracy_group == g]
        rep = members[0]
        lifetime = lifetime_with_leakage(rep, grid, comp, coupling, table)
        rows.append(
            (rep.level_label, str(len(members)), rep.kappa, rep.e_b, lifetime)
        )
    return rows


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (config, writer-callback)
# ---------------------------------------------------------------------------


def cmd_bulk(args, out_path):
    table = _table(args)
    comp, _ = load_material(_resolve_material(args))
    config = {
        "subcommand": "bulk",
        "material": _resolve_material(args),
        "format": args.format or "json",
        "nuclide_table": args.nuclide_table,
    }
    try:
        bp = bulk_properties(comp, table)
    except NoBoundState as exc:
        payload = {
            "material": comp.name,
            "bound": False,
            "sum_re_fm": exc.sum_re_fm,
        }
        if config["format"] == "json":
            _write_json(out_path, config, payload)
        else:
            _write_csv(
                out_path,
                config,
                ["material", "bound", "sum_re_fm"],
                [(comp.name, "false", exc.sum_re_fm)],
                marker="no bound states: sum n Re[b] >= 0",
            )
        return config
    payload = {
        "material": comp.name,
        "bound": True,
        "e_b_star_ueV": bp.e_b_star,
        "t_star_ms": bp.t_star,
        "ebt_bound_ueV_ms": bp.ebt_bound,
        "kappa_star_nm_inv": bp.kappa_star,
    }
    try:
        payload["mass_gain_percent"] = mass_gain(comp, table)
    except MissingDensity:
        payload["mass_gain_percent"] = None
    if config["format"] == "json":
        _write_json(out_path, config, payload)
    else:
        keys = [k for k in payload if k != "material" and k != "bound"]
        _write_csv(
            out_path,
            config,
            ["material"] + keys,
            [tuple([comp.name] + [payload[k] if payload[k] is not None else "" for k in keys])],
        )
    return config


def _solve_levels(args, shape, out_path, size_flag):
    table = _table(args)
    comp, _ = load_material(_resolve_material(args))
    size = getattr(args, size_flag)
    if size is None:
        raise SystemExit2(f"--{size_flag.replace('_', '-')} is required")
    spec = {
        "sphere": GeometrySpec.sphere,
        "cylinder": GeometrySpec.cylinder,
        "slab": GeometrySpec.slab,
    }[shape](size, args.grid_div)
    config = {
        "subcommand": {"sphere": "dot", "cylinder": "wire", "slab": "film"}[shape],
        "material": _resolve_material(args),
        "size_nm": size,
        "grid_div": args.grid_div,
        "max_states": args.max_states,
        "format": "csv",
        "nuclide_table": args.nuclide_table,
    }
    header = ["label", "degeneracy", "kappa_nm_inv", "e_b_ueV", "lifetime_ms"]
    grid = build_grid(spec)
    try:
        coupling = Coupling.from_composition(comp, grid, table)
        if coupling.c >= 0:
            raise NoBoundState(table.composition_sums(comp)[0])
        states = solve_bound_states(grid, coupling, max_states=args.max_states)
    except NoBoundState as exc:
        _write_csv(
            out_path,
            config,
            header,
            [],
            marker=f"no bound states: sum n Re[b] = {exc.sum_re_fm:+.6g} fm >= 0",
        )
        return config
    if not states:
        _write_csv(out_path, config, header, [], marker="no bound states")
        return config
    rows = _level_rows(states, grid, comp, coupling, table)
    _write_csv(out_path, config, header, rows)
    return config


def cmd_dot(args, out_path):
    return _solve_levels(args, "sphere", out_path, "radius_nm")


def cmd_wire(args, out_path):
    return _solve_levels(args, "cylinder", out_path, "radius_nm")


def cmd_film(args, out_path):
    return _solve_levels(args, "slab", out_path, "thickness_nm")


def cmd_bands(args, out_path):
    table = _table(args)
    comp, lattice = load_material(_resolve_material(args))
    header = ["k_nm_inv", "subband", "energy_ueV"]
    if args.bulk:
        if lattice is None:
            raise SystemExit2(
                "--bulk needs a material file with a lattice block"
            )
        bp = bulk_properties(comp, table)
        k_max = args.kmax if args.kmax is not None else 2.0 * bp.kappa_star
        ks = np.linspace(0.0, k_max, args.kpoints)
        config = {
            "subcommand": "bands",
            "material": _resolve_material(args),
            "mode": "bulk",
            "kpoints": args.kpoints,
            "kmax_nm_inv": k_max,
            "g_shells": args.g_shells,
            "format": "csv",
            "nuclide_table": args.nuclide_table,
        }
        rows = []
        for k in ks:
            vals = planewave_bulk_band(
                comp, lattice, np.array([k, 0.0, 0.0]), g_cutoff=args.g_shells,
                table=table,
            )
            rows.append((k, "0", vals[0]))
        _write_csv(out_path, config, header, rows)
        return config

    if args.thickness_nm is not None:
        spec = GeometrySpec.slab(args.thickness_nm, args.grid_div)
        mode, size = "film", args.thickness_nm
    elif args.radius_nm is not None:
        spec = GeometrySpec.cylinder(args.radius_nm, args.grid_div)
        mode, size = "wire", args.radius_nm
    else:
        raise SystemExit2("bands needs --thickness-nm, --radius-nm, or --bulk")
    config = {
        "subcommand": "bands",
        "material": _resolve_material(args),
        "mode": mode,
        "size_nm": size,
        "grid_div": args.grid_div,
        "kpoints": args.kpoints,
        "max_states": args.max_states,
        "format": "csv",
        "nuclide_table": args.nuclide_table,
    }
    a0 = spec.spacing
    ks = np.linspace(0.0, math.pi / a0, args.kpoints)
    points = subband_dispersion(
        spec, comp, ks, max_states=args.max_states, table=table
    )
    rows = [(p.k, str(p.subband_index), p.energy_ueV) for p in points]
    marker = "" if rows else "no bound sub-bands in the sampled k range"
    _write_csv(out_path, config, header, rows, marker=marker)
    return config


def cmd_rabi(args, out_path):
    table = _table(args)
    comp, _ = load_material(_resolve_material(args))
    config = {
        "subcommand": "rabi",
        "material": _resolve_material(args),
        "radius_nm": args.radius_nm,
        "grid_div": args.grid_div,
        "voltage_v": args.voltage_v,
        "field_kv_cm": args.field_kv_cm,
        "periods": args.periods,
        "sweep_radius": args.sweep_radius,
        "format": "csv",
        "nuclide_table": args.nuclide_table,
    }
    if comp.mass_density_kg_m3 is None:
        raise SystemExit2("--material file must carry mass_density_kg_m3 for rabi")

    def one_radius(radius):
        spec = GeometrySpec.sphere(radius, args.grid_div)
        grid = build_grid(spec)
        coupling = Coupling.from_composition(comp, grid, table)
        states = solve_bound_states(grid, coupling, max_states=6)
        s_states = [s for s in states if s.level_label == "1s"]
        p_states = [s for s in states if s.level_label == "1p"]
        if not s_states or not p_states:
            raise NoBoundState(
                table.composition_sums(comp)[0],
                f"radius {radius} nm hosts no 1s-1p pair",
            )
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
        lifetime_ms = lifetime_with_leakage(ground, grid, comp, coupling, table)
        return rabi, omegas[0], lifetime_ms

    if args.sweep_radius:
        radii = [float(r) for r in args.sweep_radius.split(",")]
        rows = []
        for r in radii:
            rabi, _omega, _lt = one_radius(r)
            rows.append((r, args.field_kv_cm, abs(rabi) / (2 * math.pi) / 1e6))
        _write_csv(out_path, config, ["R_nm", "E0_kV_cm", "rabi_MHz"], rows)
        return config

    rabi, omega_mn, lifetime_ms = one_radius(args.radius_nm)
    gamma = 1.0 / (lifetime_ms * 1e-3)
    series = simulate_two_level(
        rabi_rad_s=abs(rabi),
        detuning_rad_s=0.0,
        decay_rad_s=gamma,
        t_span_s=args.periods * 2 * math.pi / abs(rabi),
    )
    rows = list(zip(series.t_s * 1e6, series.n_s, series.n_p))
    config["summary"] = {
        "rabi_MHz": abs(rabi) / (2 * math.pi) / 1e6,
        "omega_mn_rad_s": omega_mn,
        "lifetime_ms": lifetime_ms,
        "rabi_lifetime_cycles": abs(rabi) * lifetime_ms * 1e-3 / (2 * math.pi),
    }
    _write_csv(out_path, config, ["t_us", "n_s", "n_p"], rows)
    return config


def cmd_screen(args, out_path):
    table = _table(args)
    records, bad_rows = ingest_records(args.input, on_error="collect")
    report = screen_materials(records, table)
    config = {
        "subcommand": "screen",
        "input": args.input,
        "format": "csv",
        "nuclide_table": args.nuclide_table,
    }
    rows = [
        (r.id, r.formula, r.e_b_star_ueV, r.t_star_ms, "true" if r.pareto else "false")
        for r in report.results
    ]
    _write_csv(
        out_path,
        config,
        ["id", "formula", "e_b_star_ueV", "t_star_ms", "pareto"],
        rows,
    )
    err_path = out_path.with_suffix(out_path.suffix + ".errors.txt")
    lines = []
    for line_no, msg in bad_rows:
        lines.append(f"line {line_no}: {msg}")
    for rec_id, msg in report.errors:
        lines.append(f"record {rec_id}: {msg}")
    for rec_id, reason in report.dropped:
        lines.append(f"dropped {rec_id}: {reason}")
    err_path.write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")
    return config


def cmd_wf(args, out_path):
    table = _table(args)
    comp, _ = load_material(_resolve_material(args))
    spec = GeometrySpec.sphere(args.radius_nm, args.grid_div)
    grid = build_grid(spec)
    coupling = Coupling.from_composition(comp, grid, table)
    # room for the whole level holding state_index: no irrep has more than 3 partners
    states = solve_bound_states(grid, coupling, max_states=args.state_index + 3)
    config = {
        "subcommand": "wf",
        "material": _resolve_material(args),
        "radius_nm": args.radius_nm,
        "grid_div": args.grid_div,
        "state_index": args.state_index,
        "extent": args.extent,
        "samples": args.samples,
        "format": "csv",
        "nuclide_table": args.nuclide_table,
    }
    header = ["x_nm", "y_nm", "z_nm", "re", "im"]
    if args.state_index >= len(states):
        _write_csv(
            out_path,
            config,
            header,
            [],
            marker=f"no state with index {args.state_index} "
            f"({len(states)} bound states)",
        )
        return config
    state = states[args.state_index]
    half = args.extent * args.radius_nm
    xs = np.linspace(-half, half, args.samples)
    # plane offset keeps every sample a0/10 clear of the source lattice
    z0 = 0.37 * grid.spacing
    pts = np.array([[x, y, z0] for x in xs for y in xs])
    vals = reconstruct_wavefunction(state, grid, coupling, pts)
    vals = np.atleast_1d(vals)
    rows = [
        (p[0], p[1], p[2], np.real(v), np.imag(v)) for p, v in zip(pts, vals)
    ]
    _write_csv(out_path, config, header, rows)
    return config


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p, with_grid=True):
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nqdot",
        description="Weakly bound neutron states in hydride nanostructures",
    )
    ap.add_argument("--config", help="re-run from a resolved-config JSON sidecar")
    ap.add_argument("--output", "-o", help="primary artifact path (with --config)")
    sub = ap.add_subparsers(dest="subcommand")

    p = sub.add_parser("bulk", help="bulk-crystal E_b*, T*, bound, mass gain")
    _add_common(p, with_grid=False)
    p.add_argument("--format", choices=["csv", "json"], help="artifact format")

    p = sub.add_parser("dot", help="bound levels of a spherical nanocrystal")
    _add_common(p)
    p.add_argument("--radius-nm", type=float, help="sphere radius (nm)")
    p.add_argument("--max-states", type=int, default=12, help="states cap, whole levels (count)")

    p = sub.add_parser("wire", help="bound levels of a cylindrical nanowire (k = 0)")
    _add_common(p)
    p.add_argument("--radius-nm", type=float, help="cylinder radius (nm)")
    p.add_argument("--max-states", type=int, default=8, help="states cap, whole levels (count)")

    p = sub.add_parser("film", help="bound levels of a thin film (k = 0)")
    _add_common(p)
    p.add_argument("--thickness-nm", type=float, help="film thickness (nm)")
    p.add_argument("--max-states", type=int, default=8, help="states cap, whole levels (count)")

    p = sub.add_parser("bands", help="sub-band dispersions / plane-wave bulk band")
    _add_common(p)
    p.add_argument("--thickness-nm", type=float, help="film thickness (nm)")
    p.add_argument("--radius-nm", type=float, help="wire radius (nm)")
    p.add_argument("--bulk", action="store_true", help="plane-wave bulk band")
    p.add_argument("--kpoints", type=int, default=32, help="k samples along the path (count)")
    p.add_argument("--kmax", type=float, help="bulk path end (1/nm)")
    p.add_argument("--g-shells", type=int, default=3, help="reciprocal shells (count, bulk mode)")
    p.add_argument("--max-states", type=int, default=8, help="sub-bands per k cap, whole levels (count)")

    p = sub.add_parser("rabi", help="1s-1p microwave Rabi drive and dynamics")
    _add_common(p)
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

    p = sub.add_parser("screen", help="screen a crystal dataset, flag Pareto points")
    _add_common(p, with_grid=False)
    p.add_argument("--input", required=True, help="NDJSON crystal dataset path")

    p = sub.add_parser("wf", help="reconstructed wavefunction on a plane")
    _add_common(p)
    p.add_argument("--radius-nm", type=float, required=False, help="sphere radius (nm)")
    p.add_argument("--state-index", type=int, default=0, help="state rank (0-based index, 0 = deepest)")
    p.add_argument(
        "--extent", type=float, default=2.0,
        help="half-width of the sampled plane in units of R (dimensionless)",
    )
    p.add_argument("--samples", type=int, default=41, help="samples per axis (count)")
    return ap


HANDLERS = {
    "bulk": cmd_bulk,
    "dot": cmd_dot,
    "wire": cmd_wire,
    "film": cmd_film,
    "bands": cmd_bands,
    "rabi": cmd_rabi,
    "screen": cmd_screen,
    "wf": cmd_wf,
}

DEFAULT_OUTPUTS = {
    "bulk": "bulk.json",
    "dot": "dot_levels.csv",
    "wire": "wire_levels.csv",
    "film": "film_levels.csv",
    "bands": "bands.csv",
    "rabi": "rabi_timeseries.csv",
    "screen": "screen_results.csv",
    "wf": "wavefunction.csv",
}


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

    out_path = Path(output or DEFAULT_OUTPUTS[args.subcommand])

    limiter = None
    if getattr(args, "threads", None):
        try:
            from threadpoolctl import threadpool_limits
        except ImportError:
            print("error: --threads needs threadpoolctl, which is not installed",
                  file=sys.stderr)
            return 2
        limiter = threadpool_limits(limits=args.threads)

    try:
        handler = HANDLERS[args.subcommand]
        config = handler(args, out_path)
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
