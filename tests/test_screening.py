import json
from pathlib import Path

import pytest

from nqdot.errors import SchemaViolation
from nqdot.screening import (
    ScreenResult,
    ingest_records,
    pareto_frontier,
    screen_materials,
)

SAMPLE = Path(__file__).parent.parent / "src" / "nqdot" / "data" / "sample_crystals.ndjson"


def write_ndjson(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", "utf-8")
    return path


def record(id_, species, volume=50.0, stable=True, formula=None):
    return {
        "id": id_,
        "formula": formula or id_,
        "species": species,
        "cell_volume_A3": volume,
        "is_stable": stable,
    }


def test_ingest_valid_rows(tmp_path):
    path = write_ndjson(
        tmp_path / "ok.ndjson",
        [
            record("a", [{"element": "Li", "count": 4}, {"element": "H", "count": 4}]),
            record("b", [{"element": "Mg", "count": 2}, {"element": "H", "count": 4}]),
            record("c", [{"element": "Na", "count": 4}, {"element": "H", "count": 4}]),
        ],
    )
    records = ingest_records(path)
    assert [r.id for r in records] == ["a", "b", "c"]
    assert records[0].max_Z == 3


def test_ingest_flags_bad_rows_with_line_numbers(tmp_path):
    rows = [
        record("ok", [{"element": "Li", "count": 4}, {"element": "H", "count": 4}]),
        record("bad-volume", [{"element": "H", "count": 1}], volume=0.0),
    ]
    path = write_ndjson(tmp_path / "bad.ndjson", rows)
    with pytest.raises(SchemaViolation) as err:
        ingest_records(path)
    assert err.value.rows[0][0] == 2  # 1-based line number
    records, report = ingest_records(path, on_error="collect")
    assert len(records) == 1 and len(report) == 1


def test_ingest_keeps_isotope_override(tmp_path):
    path = write_ndjson(
        tmp_path / "iso.ndjson",
        [record("li7", [{"element": "Li", "isotope": 7, "count": 4},
                        {"element": "H", "count": 4}])],
    )
    (rec,) = ingest_records(path)
    assert rec.species[0] == ("Li", 7, 4)


def test_screen_sample_dataset(table):
    records = ingest_records(SAMPLE)
    report = screen_materials(records, table=table)
    by_id = {r.id: r for r in report.results}

    lih = by_id["mp-sample-lih"]
    assert 0.30 <= lih.e_b_star_ueV <= 0.35

    mgh2 = by_id["mp-sample-mgh2"]
    assert mgh2.e_b_star_ueV == pytest.approx(0.27, rel=0.05)
    assert mgh2.t_star_ms == pytest.approx(0.19, rel=0.05)

    dropped = dict(report.dropped)
    assert "syn-uh3" in dropped  # Z = 92 > 57
    assert "syn-ni4h" in dropped  # positive coherent sum
    assert "syn-tch2" in dropped  # radioactive
    assert "syn-unstable-lih" in dropped
    assert report.errors == []


def test_screen_survivors_satisfy_product_identity(table):
    from nqdot.constants import HBAR_UEV_MS
    from nqdot.nuclides import CrystalComposition
    from nqdot.screening import _resolve_species

    records = ingest_records(SAMPLE)
    report = screen_materials(records, table)
    recs = {r.id: r for r in records}
    for res in report.results:
        species = _resolve_species(recs[res.id])
        comp = CrystalComposition(res.formula, species, recs[res.id].cell_volume_A3)
        sum_re, sum_im = table.composition_sums(comp)
        assert sum_re < 0
        bound = HBAR_UEV_MS * (-sum_re) / (2 * sum_im)
        assert res.e_b_star_ueV * res.t_star_ms == pytest.approx(bound, rel=1e-10)


def test_screen_order_independence(table):
    records = ingest_records(SAMPLE)
    fwd = screen_materials(records, table=table).results
    rev = screen_materials(list(reversed(records)), table=table).results
    assert sorted(map(repr, fwd)) == sorted(map(repr, rev))


def make_results(points):
    return [
        ScreenResult(id=f"p{i}", formula=f"p{i}", e_b_star_ueV=e, t_star_ms=t)
        for i, (e, t) in enumerate(points)
    ]


def test_pareto_example_set():
    flags = [
        r.pareto
        for r in pareto_frontier(make_results([(1, 1), (2, 0.5), (0.5, 2), (0.9, 0.9)]))
    ]
    assert flags == [True, True, True, False]


def test_pareto_singleton_and_duplicates():
    assert pareto_frontier(make_results([(1, 1)]))[0].pareto
    dup = pareto_frontier(make_results([(1, 1), (1, 1)]))
    assert all(r.pareto for r in dup)  # strict dominance: ties co-survive


def test_pareto_brute_force_consistency(table):
    records = ingest_records(SAMPLE)
    results = screen_materials(records, table=table).results
    for r in results:
        dominators = [
            o
            for o in results
            if o.e_b_star_ueV > r.e_b_star_ueV and o.t_star_ms > r.t_star_ms
        ]
        assert r.pareto == (len(dominators) == 0)


def test_pareto_staircase_shape(table):
    records = ingest_records(SAMPLE)
    results = screen_materials(records, table=table).results
    frontier = sorted(
        (r for r in results if r.pareto), key=lambda r: -r.e_b_star_ueV
    )
    lifetimes = [r.t_star_ms for r in frontier]
    assert lifetimes == sorted(lifetimes)
