"""Geometry file round-trips, input diagnostics, CLI behavior and exit codes."""

import json
from importlib import resources

import pytest

from sscurv import (InputError, builtin, dumps_geometry, geometry_from_dict,
                    geometry_to_dict, load_geometry, parse_geometry, rat)
from sscurv.cli import _attach_signed_values, main, make_parser


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data) if not isinstance(data, str) else data)
    return str(p)


def test_shipped_fixture_matches_builtin():
    for name in ("example1", "h2xr", "flat"):
        ref = resources.files("sscurv.data").joinpath(f"{name}.json")
        loaded = geometry_from_dict(json.loads(ref.read_text()), default_name=name)
        assert loaded.spec == builtin(name)
        # Canonical files carry one entry per bracket; the mirrors are
        # completion notes, nothing else.
        assert all(n.startswith("completed") for n in loaded.notes)


def test_emit_parse_round_trip(tmp_path):
    spec = builtin("example1")
    path = write(tmp_path, "g.json", dumps_geometry(spec))
    assert parse_geometry(path) == spec


def test_round_trip_with_jet(tmp_path):
    from sscurv import GeometrySpec, ScalarJet, Tensor
    from sscurv.tensor import DOWN
    base = builtin("flat")
    jet = ScalarJet(Tensor.covector([1, 0, rat(1, 2)]),
                    Tensor.from_rows((DOWN, DOWN),
                                     [[1, 0, 0], [0, 1, 0], [0, 0, rat(-2, 3)]]))
    spec = GeometrySpec(base.name, base.frame, base.metric, base.distinguished, jet)
    path = write(tmp_path, "g.json", dumps_geometry(spec))
    assert parse_geometry(path) == spec


def test_antisymmetric_completion_note(tmp_path):
    data = {
        "name": "partial", "dim": 3,
        "structure_constants": [{"i": 1, "j": 3, "k": 1, "value": "-1"}],
        "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "xi": [0, 0, 1],
    }
    loaded = load_geometry(write(tmp_path, "g.json", data))
    assert loaded.spec.frame.c[0, 2, 0] == rat(1)
    assert any("completed" in n for n in loaded.notes)


def test_explicit_consistent_mirror_accepted(tmp_path):
    data = {
        "name": "full", "dim": 3,
        "structure_constants": [
            {"i": 1, "j": 3, "k": 1, "value": "-1"},
            {"i": 3, "j": 1, "k": 1, "value": "1"},
        ],
        "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "xi": [0, 0, 1],
    }
    loaded = load_geometry(write(tmp_path, "g.json", data))
    assert loaded.notes == ()


def test_conflicting_mirror_rejected(tmp_path):
    data = {
        "name": "bad", "dim": 3,
        "structure_constants": [
            {"i": 1, "j": 3, "k": 1, "value": "-1"},
            {"i": 3, "j": 1, "k": 1, "value": "2"},
        ],
        "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "xi": [0, 0, 1],
    }
    with pytest.raises(InputError, match="antisymmetry conflict"):
        load_geometry(write(tmp_path, "g.json", data))


def test_float_literals_rejected(tmp_path):
    data = {
        "name": "f", "dim": 3, "structure_constants": [],
        "metric": [[1.0, 0, 0], [0, 1, 0], [0, 0, 1]],
        "xi": [0, 0, 1],
    }
    with pytest.raises(InputError, match="float"):
        load_geometry(write(tmp_path, "g.json", data))


def test_diagnostics_name_the_field(tmp_path):
    data = {
        "name": "f", "dim": 3,
        "structure_constants": [{"i": 1, "j": 2, "k": 9, "value": "1"}],
        "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "xi": [0, 0, 1],
    }
    with pytest.raises(InputError) as err:
        load_geometry(write(tmp_path, "g.json", data))
    assert "structure_constants[0].k" in str(err.value)


def test_malformed_json_reports_line(tmp_path):
    path = write(tmp_path, "g.json", "{ not json")
    with pytest.raises(InputError, match="line 1"):
        load_geometry(path)


def test_unknown_field_rejected(tmp_path):
    data = {"name": "f", "dim": 3, "structure_constants": [],
            "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "xi": [0, 0, 1],
            "extra": 1}
    with pytest.raises(InputError, match="extra"):
        load_geometry(write(tmp_path, "g.json", data))


# -- CLI ---------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_compute_example1_text(capsys):
    code, out, _ = run_cli(capsys, "compute", "--builtin", "example1")
    assert code == 0
    assert "nabla_e1 e3 = -e1" in out
    assert "scalar curvature (levi-civita): -6" in out


def test_cli_compute_json_tables(capsys):
    code, out, _ = run_cli(capsys, "compute", "--builtin", "example1",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tables"]["scalar_lc"] == "-6"
    assert doc["tables"]["ricci_lc"] == [["-2", "0", "0"], ["0", "-2", "0"], ["0", "0", "-2"]]


def test_cli_probe_exit_codes(capsys):
    code, _, _ = run_cli(capsys, "probe", "--builtin", "h2xr", "--suite", "all")
    assert code == 0
    code, _, _ = run_cli(capsys, "probe", "--builtin", "h2xr", "--suite", "all",
                         "--strict")
    assert code == 1


def test_cli_probe_ids_subset(capsys):
    code, out, _ = run_cli(capsys, "probe", "--builtin", "h2xr",
                           "--ids", "B9,B10", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [p["id"] for p in doc["probes"]] == ["B9", "B10"]


def test_cli_jacobi_violation_exit_2(capsys, tmp_path):
    data = {
        "name": "bad", "dim": 3,
        "structure_constants": [
            {"i": 1, "j": 2, "k": 3, "value": "1"},
            {"i": 1, "j": 3, "k": 1, "value": "1"},
        ],
        "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "xi": [0, 0, 1],
    }
    path = write(tmp_path, "bad.json", data)
    code, out, err = run_cli(capsys, "probe", "--geometry", path)
    assert code == 2
    assert "(1, 2, 3)" in out or "(1, 2, 3)" in err

    code, out, err = run_cli(capsys, "validate", "--geometry", path)
    assert code == 2
    assert "(1, 2, 3)" in out


def test_cli_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "validate", "--geometry", "/nonexistent.json")
    assert code == 2
    assert "not found" in err


def test_cli_soliton_yamabe(capsys):
    code, out, _ = run_cli(capsys, "soliton", "--builtin", "h2xr",
                           "--type", "yamabe", "--lambda", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    sol = doc["solitons"][0]
    assert sol["is_soliton"] is True
    assert sol["classification"] == "steady"
    assert {c["name"]: c["holds"] for c in sol["conclusion_checks"]}["trivial"]
    assert sol["proof_steps"][0]["id"] == "Y44"


def test_cli_soliton_with_jet_file(capsys, tmp_path):
    # Flat frame with xi = 0 (hat objects reduce to the metric ones) plus a
    # Euclidean quadratic potential: a genuine shrinking-type instance.
    geo = {
        "name": "flat0", "dim": 3, "structure_constants": [],
        "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "xi": [0, 0, 0],
    }
    geo_path = write(tmp_path, "flat0.json", geo)
    jet = {"d": ["0", "0", "0"], "dd": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    jet_path = write(tmp_path, "jet.json", jet)
    code, out, _ = run_cli(capsys, "soliton", "--geometry", geo_path,
                           "--type", "ricci", "--lambda", "-1",
                           "--jet", jet_path, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["solitons"][0]["is_soliton"] is True
    assert doc["solitons"][0]["classification"] == "shrinking"


@pytest.mark.parametrize("spelling", (("--lambda", "-1/2"), ("--lambda=-1/2",)))
def test_cli_soliton_negative_lambda(capsys, spelling):
    code, out, _ = run_cli(capsys, "soliton", "--builtin", "h2xr", "--type", "ricci",
                           *spelling, "--format", "json")
    assert code == 0
    sol = json.loads(out)["solitons"][0]
    assert sol["lambda"] == "-1/2"
    assert sol["classification"] == "shrinking"


def test_cli_bad_lambda_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "soliton", "--builtin", "h2xr", "--type", "ricci", "--lambda", "abc")
    assert exc.value.code == 2
    assert "not a rational literal" in capsys.readouterr().err


@pytest.mark.parametrize("spelling", (("--pool", "-1,0,1"), ("--pool=-1,0,1",)))
def test_cli_fuzz_negative_pool(capsys, spelling):
    code, out, _ = run_cli(capsys, "fuzz", "--seed", "7", "--count", "20", *spelling,
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["fuzz"]["pool"] == ["-1", "0", "1"]


def test_signed_values_attach_only_to_the_subcommands_rational_options():
    parser = make_parser()
    assert _attach_signed_values(parser, ["soliton", "--lambda", "-1/2", "--m", "-3"]) == \
        ["soliton", "--lambda=-1/2", "--m", "-3"]
    assert _attach_signed_values(parser, ["fuzz", "--pool", "-1,0", "--seed", "-2"]) == \
        ["fuzz", "--pool=-1,0", "--seed", "-2"]
    for argv in (["fuzz", "--lambda", "-1/2"], ["soliton", "--pool", "-1"],
                 ["soliton", "--", "--lambda", "-1/2"], ["--lambda", "-1/2"]):
        assert _attach_signed_values(parser, argv) == argv


def test_cli_soliton_mquasi_requires_m(capsys):
    code, _, err = run_cli(capsys, "soliton", "--builtin", "flat",
                           "--type", "mquasi", "--lambda", "0")
    assert code == 2
    assert "m" in err


def test_cli_builtin_round_trip(capsys, tmp_path):
    out_path = tmp_path / "e.json"
    code, _, _ = run_cli(capsys, "builtin", "example1", "--out", str(out_path))
    assert code == 0
    assert parse_geometry(out_path) == builtin("example1")


def test_cli_fuzz_smoke(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--seed", "7", "--count", "40",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["generated"] == 40


def test_cli_reports_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "probe", "--builtin", "h2xr", "--format", "json", "--out", str(a))
    run_cli(capsys, "probe", "--builtin", "h2xr", "--format", "json", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()

    run_cli(capsys, "fuzz", "--seed", "42", "--count", "60", "--format", "json",
            "--out", str(a))
    run_cli(capsys, "fuzz", "--seed", "42", "--count", "60", "--format", "json",
            "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_json_report_round_trips(capsys):
    code, out, _ = run_cli(capsys, "probe", "--builtin", "example1",
                           "--format", "json")
    doc = json.loads(out)
    assert json.dumps(doc, indent=2) + "\n" == out


def test_cli_soliton_uses_embedded_jet(capsys, tmp_path):
    geo = {
        "name": "flat0", "dim": 3, "structure_constants": [],
        "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "xi": [0, 0, 0],
        "jet": {"d": ["0", "0", "0"],
                "dd": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
    }
    path = write(tmp_path, "flat0.json", geo)
    code, out, _ = run_cli(capsys, "soliton", "--geometry", path,
                           "--type", "ricci", "--lambda", "-1", "--format", "json")
    assert code == 0
    assert json.loads(out)["solitons"][0]["is_soliton"] is True
