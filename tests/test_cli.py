import importlib.util
import json
from pathlib import Path

import pytest

from nqdot.cli import main

SAMPLE = Path(__file__).parent.parent / "src" / "nqdot" / "data" / "sample_crystals.ndjson"


def read_rows(path):
    lines = [l for l in Path(path).read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


def test_bulk_json(tmp_path):
    out = tmp_path / "bulk.json"
    assert main(["bulk", "--material", "LiH", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["bound"] is True
    for key in ("e_b_star_ueV", "t_star_ms", "ebt_bound_ueV_ms", "mass_gain_percent"):
        assert key in doc
    assert doc["e_b_star_ueV"] == pytest.approx(0.33, rel=0.10)
    assert doc["meta"]["config"]["subcommand"] == "bulk"
    assert out.with_suffix(".json.config.json").exists()


# sum n Re[b] = +22.87 fm: the crystal repels, so nothing binds at any size
NI4H = {
    "name": "Ni4H",
    "cell_volume_A3": 45.0,
    "mass_density_kg_m3": 8900.0,
    "species": [
        {"element": "Ni", "count": 4},
        {"element": "H", "isotope": 1, "polarized": True, "count": 1},
    ],
    "lattice": {
        "a_A": 45.0 ** (1 / 3),
        "basis": [
            {"element": "Ni", "frac": [0, 0, 0]},
            {"element": "Ni", "frac": [0.5, 0.5, 0]},
            {"element": "Ni", "frac": [0.5, 0, 0.5]},
            {"element": "Ni", "frac": [0, 0.5, 0.5]},
            {"element": "H", "isotope": 1, "polarized": True, "frac": [0.5, 0.5, 0.5]},
        ],
    },
}


def test_bulk_unbound_material(tmp_path):
    comp = tmp_path / "nih.json"
    comp.write_text(json.dumps(NI4H))
    out = tmp_path / "bulk.json"
    assert main(["bulk", "--composition", str(comp), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["bound"] is False and doc["sum_re_fm"] > 0


def test_dot_below_critical_radius_empty_marker(tmp_path):
    out = tmp_path / "dot.csv"
    code = main(
        [
            "dot", "--material", "LiH", "--radius-nm", "10",
            "--max-states", "2",
            "--output", str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert "# no bound states" in text
    _header, rows = read_rows(out)
    assert rows == []


def test_dot_level_table(tmp_path):
    out = tmp_path / "dot.csv"
    code = main(
        [
            "dot", "--material", "LiH", "--radius-nm", "40", "--output", str(out),
        ]
    )
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["label", "degeneracy", "kappa_nm_inv", "e_b_ueV", "lifetime_ms"]
    assert len(rows) >= 5
    assert [r["label"] for r in rows[:2]] == ["1s", "1p"]
    assert int(rows[1]["degeneracy"]) == 3
    energies = [float(r["e_b_ueV"]) for r in rows]
    assert energies == sorted(energies, reverse=True)
    for r in rows:
        assert float(r["lifetime_ms"]) > 0.0


def test_dot_cap_keeps_whole_levels(tmp_path):
    """--max-states 6 at R = 40 nm falls inside the 1d triple: the table
    ends with the whole 1p level and writes no partial 1d row."""
    out = tmp_path / "dot.csv"
    assert main(
        ["dot", "--material", "LiH", "--radius-nm", "40", "--max-states", "6",
         "--output", str(out)]
    ) == 0
    _h, rows = read_rows(out)
    assert [(r["label"], r["degeneracy"]) for r in rows] == [("1s", "1"), ("1p", "3")]


def test_film_and_wire_tables(tmp_path):
    out = tmp_path / "film.csv"
    assert main(
        ["film", "--material", "LiH", "--thickness-nm", "100", "--output", str(out)]
    ) == 0
    _h, rows = read_rows(out)
    assert len(rows) >= 2

    out_w = tmp_path / "wire.csv"
    assert main(
        ["wire", "--material", "LiH", "--radius-nm", "25", "--max-states", "4",
         "--output", str(out_w)]
    ) == 0
    _h, rows_w = read_rows(out_w)
    assert len(rows_w) >= 1


def test_bands_film(tmp_path):
    out = tmp_path / "bands.csv"
    assert main(
        [
            "bands", "--material", "LiH", "--thickness-nm", "60",
            "--kpoints", "4", "--max-states", "4", "--output", str(out),
        ]
    ) == 0
    header, rows = read_rows(out)
    assert header == ["k_nm_inv", "subband", "energy_ueV"]
    gamma = [r for r in rows if float(r["k_nm_inv"]) == 0.0]
    assert len(gamma) >= 1
    assert all(float(r["energy_ueV"]) < 0 for r in rows)


def test_bands_bulk(tmp_path):
    out = tmp_path / "bands.csv"
    assert main(
        ["bands", "--material", "LiH", "--bulk", "--kpoints", "5", "--output", str(out)]
    ) == 0
    _h, rows = read_rows(out)
    assert len(rows) == 5
    assert float(rows[0]["energy_ueV"]) == pytest.approx(-0.3144, rel=0.01)


def test_wf_field_plane(tmp_path):
    out = tmp_path / "wf.csv"
    assert main(
        [
            "wf", "--material", "LiH", "--radius-nm", "30", "--state-index", "0",
            "--samples", "11", "--extent", "1.5", "--output", str(out),
        ]
    ) == 0
    header, rows = read_rows(out)
    assert header == ["x_nm", "y_nm", "z_nm", "re", "im"]
    assert len(rows) == 121
    values = [float(r["re"]) for r in rows]
    assert all(v != 0 for v in values)


def test_wf_state_in_a_multiplet(tmp_path):
    """State 4 at R = 40 nm, grid_div 8 is the first member of the 1d
    triple: the solve keeps room for that whole level."""
    out = tmp_path / "wf.csv"
    assert main(
        [
            "wf", "--material", "LiH", "--radius-nm", "40", "--grid-div", "8",
            "--state-index", "4", "--samples", "11", "--output", str(out),
        ]
    ) == 0
    assert "# no state" not in out.read_text()
    _header, rows = read_rows(out)
    assert len(rows) == 121


def test_screen_artifacts(tmp_path):
    out = tmp_path / "screen.csv"
    assert main(["screen", "--input", str(SAMPLE), "--output", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["id", "formula", "e_b_star_ueV", "t_star_ms", "pareto"]
    assert len(rows) == 5
    err_text = (tmp_path / "screen.csv.errors.txt").read_text()
    assert "syn-uh3" in err_text and "syn-tch2" in err_text


def test_screen_reports_malformed_rows(tmp_path):
    data = tmp_path / "rows.ndjson"
    data.write_text(
        json.dumps(
            {
                "id": "ok", "formula": "LiH",
                "species": [{"element": "Li", "count": 4}, {"element": "H", "count": 4}],
                "cell_volume_A3": 68.09, "is_stable": True,
            }
        )
        + "\n{not json}\n"
    )
    out = tmp_path / "screen.csv"
    assert main(["screen", "--input", str(data), "--output", str(out)]) == 0
    assert "line 2" in (tmp_path / "screen.csv.errors.txt").read_text()


def test_validation_errors_exit_2(tmp_path, capsys):
    assert main(["dot", "--material", "LiH", "--output", str(tmp_path / "x.csv")]) == 2
    assert "--radius-nm" in capsys.readouterr().err
    assert main(["bulk", "--material", "NoSuchMaterial"]) == 2
    # a plane of one repeated point, and a film that silently drops the radius
    for extent in ("0", "-1"):
        argv = ["wf", "--material", "LiH", "--radius-nm", "30", "--extent", extent]
        assert main(argv + ["--output", str(tmp_path / "wf.csv")]) == 2
        assert "--extent" in capsys.readouterr().err
    argv = ["bands", "--material", "LiH", "--thickness-nm", "60", "--radius-nm", "25"]
    assert main(argv + ["--output", str(tmp_path / "bands.csv")]) == 2
    err = capsys.readouterr().err
    assert "--thickness-nm" in err and "--radius-nm" in err
    assert list(tmp_path.iterdir()) == []
    # screen reads its materials from --input and has no material flags
    for flag, value in (("--material", "LiH"), ("--composition", "/nonexistent.json")):
        with pytest.raises(SystemExit) as exc:
            main(["screen", "--input", str(SAMPLE), flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


@pytest.mark.skipif(
    importlib.util.find_spec("threadpoolctl") is not None,
    reason="threadpoolctl is installed, so --threads takes effect",
)
def test_threads_without_threadpoolctl_exits_2(tmp_path, capsys):
    out = tmp_path / "bulk.json"
    assert main(["bulk", "--material", "LiH", "--threads", "1", "--output", str(out)]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_config_round_trip(tmp_path):
    out1 = tmp_path / "a.csv"
    assert main(
        ["film", "--material", "LiH", "--thickness-nm", "40", "--output", str(out1)]
    ) == 0
    sidecar = tmp_path / "a.csv.config.json"
    out2 = tmp_path / "b.csv"
    assert main(["--config", str(sidecar), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_rabi_timeseries(tmp_path):
    out = tmp_path / "rabi.csv"
    assert main(
        [
            "rabi", "--material", "LiH", "--radius-nm", "30",
            "--periods", "1.5", "--output", str(out),
        ]
    ) == 0
    header, rows = read_rows(out)
    assert header == ["t_us", "n_s", "n_p"]
    assert float(rows[0]["n_s"]) == 1.0
    config = json.loads((tmp_path / "rabi.csv.config.json").read_text())
    assert 0.01 <= config["summary"]["rabi_MHz"] <= 5.0
    # populated transfer actually happens within the simulated window
    assert max(float(r["n_p"]) for r in rows) > 0.5


def assert_replay_identical(out, tmp_path):
    sidecar = out.with_suffix(out.suffix + ".config.json")
    replay = tmp_path / "replay.csv"
    assert main(["--config", str(sidecar), "--output", str(replay)]) == 0
    assert replay.read_bytes() == out.read_bytes()


UNBOUND_MARKER = "# no bound states: sum n Re[b] = +22.87 fm >= 0"
LEVEL_HEADER = ["label", "degeneracy", "kappa_nm_inv", "e_b_ueV", "lifetime_ms"]
BAND_HEADER = ["k_nm_inv", "subband", "energy_ueV"]


@pytest.mark.parametrize(
    "argv, header, marker",
    [
        (["dot", "--radius-nm", "30"], LEVEL_HEADER, UNBOUND_MARKER),
        (["wire", "--radius-nm", "25"], LEVEL_HEADER, UNBOUND_MARKER),
        (["film", "--thickness-nm", "60"], LEVEL_HEADER, UNBOUND_MARKER),
        (["bands", "--thickness-nm", "60", "--kpoints", "2"], BAND_HEADER, UNBOUND_MARKER),
        (["bands", "--radius-nm", "25", "--kpoints", "2"], BAND_HEADER, UNBOUND_MARKER),
        (["bands", "--bulk", "--kpoints", "3"], BAND_HEADER, UNBOUND_MARKER),
        (["rabi", "--radius-nm", "30"], ["t_us", "n_s", "n_p"], UNBOUND_MARKER),
        (["wf", "--radius-nm", "30", "--samples", "5"], ["x_nm", "y_nm", "z_nm", "re", "im"],
         UNBOUND_MARKER),
        # LiH binds at 12 nm, but no 1p level
        (["rabi", "--material", "LiH", "--radius-nm", "12"], ["t_us", "n_s", "n_p"],
         "# radius 12 nm hosts no 1s-1p pair"),
    ],
    ids=["dot", "wire", "film", "bands-film", "bands-wire", "bands-bulk", "rabi", "wf",
         "rabi-pairless"],
)
def test_no_bound_states_is_an_answer(tmp_path, argv, header, marker):
    """Every subcommand answers an empty result the same way: exit 0, the
    usual header, a marker and no rows, and a sidecar that replays it."""
    comp = tmp_path / "ni4h.json"
    comp.write_text(json.dumps(NI4H))
    if "--material" not in argv:
        argv = argv + ["--composition", str(comp)]
    out = tmp_path / "out.csv"
    assert main(argv + ["--grid-div", "6", "--output", str(out)]) == 0
    assert marker in out.read_text().splitlines()
    assert read_rows(out) == (header, [])
    assert_replay_identical(out, tmp_path)


def test_rabi_sweep_leaves_a_pairless_radius_empty(tmp_path, monkeypatch):
    """The map writes no lifetime, so the sweep computes none."""

    def no_lifetime(*args, **kwargs):
        raise AssertionError("rabi --sweep-radius computed a lifetime")

    monkeypatch.setattr("nqdot.cli.lifetime_with_leakage", no_lifetime)
    out = tmp_path / "rabi.csv"
    assert main(
        ["rabi", "--material", "LiH", "--sweep-radius", "12,30", "--grid-div", "6",
         "--output", str(out)]
    ) == 0
    header, rows = read_rows(out)
    assert header == ["R_nm", "E0_kV_cm", "rabi_MHz"]
    assert [r["R_nm"] for r in rows] == ["12", "30"]
    assert rows[0]["rabi_MHz"] == ""
    assert float(rows[1]["rabi_MHz"]) > 0
    assert_replay_identical(out, tmp_path)


def test_help_documents_units_for_numeric_flags():
    from nqdot.cli import build_parser

    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
    )
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.type in (int, float):
                assert action.help and "(" in action.help, (
                    f"{name} {action.option_strings}: numeric flag help "
                    f"lacks a unit tag: {action.help!r}"
                )


@pytest.mark.parametrize(
    "argv",
    [
        ["dot", "--material", "LiH", "--radius-nm", "10", "--max-states", "2"],
        ["wire", "--material", "LiH", "--radius-nm", "5", "--max-states", "1"],
        ["film", "--material", "LiH", "--thickness-nm", "10", "--max-states", "1"],
        ["bands", "--material", "LiH", "--bulk", "--kpoints", "2"],
        ["rabi", "--material", "LiH", "--radius-nm", "10"],
        ["screen", "--input", str(SAMPLE)],
        ["wf", "--material", "LiH", "--radius-nm", "10"],
    ],
    ids=lambda argv: argv[0],
)
def test_format_rejected_where_only_csv_exists(tmp_path, argv):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "json", "--output", str(out)])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


REPLAYS = {
    "bulk-json": ["bulk", "--material", "LiH"],
    "bulk-csv": ["bulk", "--material", "LiH", "--format", "csv"],
    "dot": ["dot", "--material", "LiH", "--radius-nm", "30", "--grid-div", "6",
            "--max-states", "4"],
    "wire": ["wire", "--material", "LiH", "--radius-nm", "25", "--grid-div", "6",
             "--max-states", "2"],
    "film": ["film", "--material", "LiH", "--thickness-nm", "60", "--grid-div", "6",
             "--max-states", "2"],
    "bands-film": ["bands", "--material", "LiH", "--thickness-nm", "60", "--grid-div", "6",
                   "--kpoints", "2", "--max-states", "2"],
    "bands-wire": ["bands", "--material", "LiH", "--radius-nm", "25", "--grid-div", "6",
                   "--kpoints", "2", "--max-states", "2"],
    "bands-bulk": ["bands", "--material", "LiH", "--bulk", "--kpoints", "3"],
    "rabi": ["rabi", "--material", "LiH", "--radius-nm", "30", "--grid-div", "6",
             "--periods", "0.5"],
    "screen": ["screen", "--input", str(SAMPLE)],
    "wf": ["wf", "--material", "LiH", "--radius-nm", "30", "--grid-div", "6",
           "--samples", "5"],
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


@pytest.mark.parametrize("name", list(REPLAYS))
def test_sidecar_replay_is_byte_identical(tmp_path, monkeypatch, name):
    """Without --output the artifact takes its subcommand's default name;
    replaying its sidecar elsewhere writes the same bytes."""
    monkeypatch.chdir(tmp_path)
    assert main(REPLAYS[name]) == 0
    out1 = tmp_path / DEFAULT_OUTPUTS[REPLAYS[name][0]]
    assert out1.is_file()
    sidecar = out1.with_suffix(out1.suffix + ".config.json")
    out2 = tmp_path / "b.out"
    assert main(["--config", str(sidecar), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert sidecar.read_bytes() == (tmp_path / "b.out.config.json").read_bytes()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["dot", "--radius-nm", "30", "--max-states", "0"], "--max-states"),
        (["wire", "--radius-nm", "25", "--max-states", "0"], "--max-states"),
        (["film", "--thickness-nm", "60", "--max-states", "0"], "--max-states"),
        (["bands", "--thickness-nm", "60", "--max-states", "0"], "--max-states"),
        (["bands", "--thickness-nm", "60", "--kpoints", "0"], "--kpoints"),
        (["wf", "--radius-nm", "30", "--state-index", "-1"], "--state-index"),
        (["wf", "--radius-nm", "30", "--samples", "0"], "--samples"),
        (["wf"], "--radius-nm"),
        (["rabi", "--periods", "-1"], "--periods"),
        (["rabi", "--periods", "0"], "--periods"),
        (["rabi", "--sweep-radius", ""], "--sweep-radius"),
        (["bulk", "--threads", "0"], "--threads"),
        (["dot", "--radius-nm", "30", "--threads", "-1"], "--threads"),
    ],
    ids=lambda v: "_".join(v) if isinstance(v, list) else None,
)
def test_meaningless_inputs_exit_2(tmp_path, capsys, argv, flag):
    """Each of these once wrote an empty or wrong artifact with exit 0 (or
    crashed): now it exits 2, names its flag and writes nothing."""
    out = tmp_path / "out.csv"
    assert main(argv + ["--material", "LiH", "--output", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unreplayable_sidecar_exits_2(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    assert main(["bulk", "--material", "LiH", "--output", str(out1)]) == 0
    sidecar = tmp_path / "a.json.config.json"
    doc = json.loads(sidecar.read_text())
    del doc["argv"]
    sidecar.write_text(json.dumps(doc))
    out2 = tmp_path / "b.json"
    capsys.readouterr()
    for path in (sidecar, tmp_path / "missing.json"):
        assert main(["--config", str(path), "--output", str(out2)]) == 2
        assert "--config" in capsys.readouterr().err
        assert not out2.exists()
