"""Hydride-crystal screening: filters, bulk observables, Pareto frontier.

Records arrive as newline-delimited JSON, one crystal per line:

    {"id": ..., "formula": ..., "species": [{"element": "Li", "isotope": 7,
     "count": 4}, ...], "cell_volume_A3": ..., "is_stable": true}

Screening drops unstable records, any element heavier than La (Z = 57),
and any radioactive nuclide; hydrogen is treated as fully spin-polarized
and Li/B/Cl/Se default to the purified isotopes 7/11/37/80 unless the
record overrides them.  Survivors with a negative coherent sum get their
bulk (E_b*, T*) pair; the Pareto frontier keeps every record not strictly
dominated in both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .bulk import bulk_properties
from .errors import SchemaViolation, UnknownNuclide, ZeroAbsorption
from .nuclides import (
    CrystalComposition,
    NuclideTable,
    atomic_number,
    default_table,
)

DEFAULT_ISOTOPES = {"Li": 7, "B": 11, "Cl": 37, "Se": 80}
MAX_Z = 57  # lanthanum


@dataclass(frozen=True)
class CrystalRecord:
    id: str
    formula: str
    species: tuple  # ((element, isotope|None, count), ...)
    cell_volume_A3: float
    is_stable: bool
    max_Z: int

    def __post_init__(self):
        if self.cell_volume_A3 <= 0:
            raise ValueError("cell_volume_A3 must be > 0")
        for _el, _iso, count in self.species:
            if count < 1:
                raise ValueError("species counts must be >= 1")


@dataclass(frozen=True)
class ScreenResult:
    id: str
    formula: str
    e_b_star_ueV: float
    t_star_ms: float
    pareto: bool = False


@dataclass
class ScreenReport:
    """Results plus everything that did not make it, with reasons."""

    results: list = field(default_factory=list)
    dropped: list = field(default_factory=list)  # (id, reason)
    errors: list = field(default_factory=list)  # (id, message)


def _parse_record(obj: dict, line_no: int) -> CrystalRecord:
    problems = []
    for key in ("id", "formula", "species", "cell_volume_A3", "is_stable"):
        if key not in obj:
            problems.append(f"missing field {key!r}")
    if problems:
        raise ValueError("; ".join(problems))
    species = []
    for i, s in enumerate(obj["species"]):
        if "element" not in s or "count" not in s:
            raise ValueError(f"species[{i}] needs element and count")
        el = str(s["element"])
        iso = s.get("isotope")
        count = int(s["count"])
        if count < 1:
            raise ValueError(f"species[{i}] count must be >= 1")
        atomic_number(el)  # unknown symbols fail here
        species.append((el, None if iso is None else int(iso), count))
    vol = float(obj["cell_volume_A3"])
    if vol <= 0:
        raise ValueError("cell_volume_A3 must be > 0")
    max_z = max(atomic_number(el) for el, _iso, _n in species)
    return CrystalRecord(
        id=str(obj["id"]),
        formula=str(obj["formula"]),
        species=tuple(species),
        cell_volume_A3=vol,
        is_stable=bool(obj["is_stable"]),
        max_Z=max_z,
    )


def ingest_records(path, on_error: str = "raise"):
    """Parse an NDJSON dataset into validated records.

    on_error="raise": any malformed row raises SchemaViolation carrying the
    full (line, message) report.  on_error="collect": returns
    (records, report) with malformed rows listed, never silently dropped.
    """
    path = Path(path)
    records = []
    bad = []
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                bad.append((line_no, f"invalid JSON: {exc.msg}"))
                continue
            try:
                records.append(_parse_record(obj, line_no))
            except (ValueError, UnknownNuclide) as exc:
                bad.append((line_no, str(exc)))
    if bad and on_error == "raise":
        raise SchemaViolation(bad)
    if on_error == "collect":
        return records, bad
    return records


def _resolve_species(record: CrystalRecord):
    """Apply polarization and isotope-purification defaults."""
    out = []
    for el, iso, count in record.species:
        polarized = el == "H"
        if polarized and iso is None:
            iso = 1
        if iso is None:
            iso = DEFAULT_ISOTOPES.get(el)
        out.append(((el, iso, polarized), count))
    return tuple(out)


def screen_materials(records, table: Optional[NuclideTable] = None) -> ScreenReport:
    """Filter records, compute bulk observables, flag the Pareto frontier."""
    table = table or default_table()
    report = ScreenReport()
    for rec in records:
        if not rec.is_stable:
            report.dropped.append((rec.id, "not stable"))
            continue
        if rec.max_Z > MAX_Z:
            report.dropped.append((rec.id, f"element heavier than Z={MAX_Z}"))
            continue
        species = _resolve_species(rec)
        try:
            entries = [table.lookup_entry(*key) for key, _n in species]
        except UnknownNuclide as exc:
            report.errors.append((rec.id, str(exc)))
            continue
        if any(e.radioactive for e in entries):
            report.dropped.append((rec.id, "radioactive nuclide"))
            continue
        comp = CrystalComposition(rec.formula, species, rec.cell_volume_A3)
        sum_re, _sum_im = table.composition_sums(comp)
        if sum_re >= 0.0:
            report.dropped.append((rec.id, "no bound state (sum n Re[b] >= 0)"))
            continue
        try:
            bp = bulk_properties(comp, table)
        except ZeroAbsorption:
            report.errors.append((rec.id, "no absorption channel (T* infinite)"))
            continue
        report.results.append(
            ScreenResult(
                id=rec.id,
                formula=rec.formula,
                e_b_star_ueV=bp.e_b_star,
                t_star_ms=bp.t_star,
            )
        )
    report.results = pareto_frontier(report.results)
    return report


def pareto_frontier(results) -> list:
    """Flag results not strictly dominated in (E_b*, T*) simultaneously.

    Strict dominance: another point with BOTH coordinates strictly larger.
    Ties co-survive.
    """
    out = []
    for r in results:
        dominated = any(
            other.e_b_star_ueV > r.e_b_star_ueV and other.t_star_ms > r.t_star_ms
            for other in results
        )
        out.append(
            ScreenResult(
                id=r.id,
                formula=r.formula,
                e_b_star_ueV=r.e_b_star_ueV,
                t_star_ms=r.t_star_ms,
                pareto=not dominated,
            )
        )
    return out
