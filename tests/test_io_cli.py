"""Geometry file round-trips, input diagnostics, CLI behavior and exit codes."""

import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from importlib import resources
from itertools import product
from math import gcd
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given

import sscurv
from conftest import count_calls, int_str_limit_lifted
from sscurv import (InputError, ProbeContext, Tensor, UnknownGeometryError, builtin,
                    dumps_geometry, geometry_from_dict, geometry_to_dict, load_geometry, parse_rat,
                    rat)
from sscurv.cli import main
from sscurv.geomio import jet_from_dict
from sscurv.tensor import DOWN, UP


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
    with pytest.raises(UnknownGeometryError, match="unknown builtin 'nope'"):
        builtin("nope")


def test_emit_parse_round_trip(tmp_path):
    spec = builtin("example1")
    path = write(tmp_path, "g.json", dumps_geometry(spec))
    assert load_geometry(path).spec == spec


def test_round_trip_with_jet(tmp_path):
    from sscurv import GeometrySpec, ScalarJet, Tensor
    from sscurv.tensor import DOWN
    base = builtin("flat")
    jet = ScalarJet(Tensor.covector([1, 0, rat(1, 2)]),
                    Tensor.from_rows((DOWN, DOWN),
                                     [[1, 0, 0], [0, 1, 0], [0, 0, rat(-2, 3)]]))
    spec = GeometrySpec(base.name, base.frame, base.metric, base.distinguished, jet)
    path = write(tmp_path, "g.json", dumps_geometry(spec))
    assert load_geometry(path).spec == spec


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
    with pytest.raises(InputError, match="top-level value must be an object"):
        geometry_from_dict([])


def test_unknown_field_rejected(tmp_path):
    data = {"name": "f", "dim": 3, "structure_constants": [],
            "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "xi": [0, 0, 1],
            "extra": 1}
    with pytest.raises(InputError, match="extra"):
        load_geometry(write(tmp_path, "g.json", data))


def entry(i, j, k, value):
    return {"i": i, "j": j, "k": k, "value": value}


_EYE = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("change, message, field", [
    ({"structure_constants": [entry(1, 2, 3, "1"), entry(1, 2, 3, "2")]},
     "conflicting values for C^3_(1,2): 1 vs 2", "structure_constants[1]"),
    ({"structure_constants": [entry(2, 2, 1, "1")]},
     "antisymmetry forces C^1_(2,2) = 0", "structure_constants[0]"),
    ({"structure_constants": [entry(1, 2, 3, True)]},
     "expected a rational, got a boolean", "structure_constants[0].value"),
    ({"structure_constants": entry(1, 2, 3, "1")},
     "structure_constants must be a list", "structure_constants"),
    ({"dim": 5}, "dim must be an integer in 1..4, got 5", "dim"),
    ({"metric": None}, "missing required field", "metric"),
    ({"xi": None}, "missing required field", "xi"),
    ({"metric": [[1, 0, 0], [0, 0, 0], [0, 0, 1]]}, "metric not invertible", "metric"),
    ({"jet": {"d": [0, 0, 0], "hess": _EYE}},
     "jet must be an object with keys d and dd", "jet"),
    ({"jet": {"d": [0, 0, 0]}}, "jet needs both d and dd", "jet"),
    ({"metric": [["0.5", 0, 0], [0, 1, 0], [0, 0, 1]]},
     "not a rational literal: '0.5'", "metric[0][0]"),
    ({"metric": [[None, 0, 0], [0, 1, 0], [0, 0, 1]]},
     "expected a rational, got NoneType", "metric[0][0]"),
    ({"metric": _EYE[:2]}, "expected a 3x3 array", "metric"),
    ({"metric": [[1, 0, 0], [0, 1], [0, 0, 1]]}, "expected a 3x3 array", "metric[1]"),
    ({"xi": [0, 1]}, "expected an array of length 3", "xi"),
    ({"name": ""}, "name must be a non-empty string", "name"),
    ({"structure_constants": [{"i": "1", "j": 2, "k": 3, "value": "1"}]},
     "expected a 1-based index, got '1'", "structure_constants[0].i"),
    ({"structure_constants": [{"i": 1, "j": 2, "k": 3}]},
     "entry must be an object with keys i, j, k, value", "structure_constants[0]"),
    ({"dim": 10 ** 5000}, "dim must be an integer in 1..4, got <int too long to show>", "dim"),
    ({"structure_constants": [entry(1, -10 ** 5000, 3, "1")]},
     "index <int too long to show> out of range 1..3", "structure_constants[0].j"),
    ({"structure_constants": [entry([10 ** 5000], 2, 3, "1")]},
     "expected a 1-based index, got <list too long to show>", "structure_constants[0].i"),
])
def test_loader_diagnostics(change, message, field):
    data = {"name": "g", "dim": 3, "structure_constants": [], "metric": _EYE,
            "xi": [0, 0, 1]}
    data.update(change)
    data = {key: value for key, value in data.items() if value is not None}
    with pytest.raises(InputError) as err:
        geometry_from_dict(data)
    assert message in str(err.value)
    assert err.value.field == field


def test_loader_completes_only_the_missing_mirrors():
    data = {
        "name": "mixed", "dim": 3,
        "structure_constants": [
            entry(2, 3, 1, "2"),        # completed
            entry(1, 3, 2, "1/2"),      # with its explicit mirror
            entry(3, 1, 2, "-1/2"),
            entry(2, 3, 3, "0"),        # zero: nothing to complete
            entry(1, 2, 1, "-1"),       # completed
        ],
        "metric": _EYE, "xi": [0, 0, 1],
    }
    loaded = geometry_from_dict(data)
    c = loaded.spec.frame.c
    nonzero = {(k, i, j): c[k, i, j]
               for k in range(3) for i in range(3) for j in range(3) if c[k, i, j]}
    assert nonzero == {(0, 0, 1): rat(-1), (0, 1, 0): rat(1),
                       (0, 1, 2): rat(2), (0, 2, 1): rat(-2),
                       (1, 0, 2): rat(1, 2), (1, 2, 0): rat(-1, 2)}
    assert loaded.notes == ("completed C^1_(2,1) = 1 by antisymmetry",
                            "completed C^1_(3,2) = -2 by antisymmetry")


# Each value the loaders refuse, with the message rat_value gives it.
_REFUSED = [(text, f"not a rational literal: {text!r}")
            for text in ("1/-2", "1/+2", "1/\u0662", "\u0661", "0.5", "1e3", "1/2/3", "/2",
                         "1_000", "1/0", "")] + [
    (True, "expected a rational, got a boolean"),
    (None, "expected a rational, got NoneType"),
    (0.5, 'float literal 0.5 rejected; use an exact string like "1/2"'),
    ([1], "expected a rational, got list"),
]


def _refusing_geometry(bad, position):
    """A geometry whose only fault is bad at position, after valid values."""
    rows = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    data = {"dim": 3, "structure_constants": [entry(1, 2, 3, "1/2"), entry(1, 3, 2, "-2")],
            "metric": rows, "xi": ["0", "0", "1"],
            "jet": {"d": ["1/3", "0", "0"], "dd": [["0"] * 3 for _ in range(3)]}}
    if position == "metric[2][1]":
        rows[2][1] = bad
    elif position == "xi[2]":
        data["xi"][2] = bad
    elif position == "jet.d[1]":
        data["jet"]["d"][1] = bad
    elif position == "jet.dd[0][2]":
        data["jet"]["dd"][0][2] = bad
    else:
        data["structure_constants"][1]["value"] = bad
    return data


@pytest.mark.parametrize("position", ["metric[2][1]", "xi[2]", "jet.d[1]", "jet.dd[0][2]",
                                      "structure_constants[1].value"])
@pytest.mark.parametrize("bad, message", _REFUSED)
def test_loaders_refuse_every_bad_value_where_it_stands(bad, message, position):
    with pytest.raises(InputError) as err:
        geometry_from_dict(_refusing_geometry(bad, position))
    assert err.value.field == position
    assert str(err.value) == f"[{position}] {message}"


@st.composite
def rational_literals(draw):
    """"p" or "p/q" as a file may write it: reduced or not, signed, with a "+",
    leading zeros, surrounding whitespace, zero and "p/1" among them; or p as
    a bare int, negative ones included."""
    p = draw(st.one_of(st.integers(0, 60), st.integers(0, 10 ** 30)))
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from((1, -1))) * p
    sign = "-" if draw(st.booleans()) else draw(st.sampled_from(("", "+")))
    text = sign + draw(st.sampled_from(("", "0", "000"))) + str(p)
    q = draw(st.one_of(st.none(), st.just(1), st.integers(1, 60)))
    if q is not None:
        text += "/" + draw(st.sampled_from(("", "0"))) + str(q)
    pad = st.sampled_from(("", " ", "\t", " \n"))
    return draw(pad) + text + draw(pad)


_BIG = 7 ** 6000  # 5071 digits, past CPython's default int/str limit of 4300
with int_str_limit_lifted():
    _LONG = f"{_BIG}/{3 ** 9000}"  # 5071 and 4295 digits


@given(st.lists(rational_literals(), min_size=25, max_size=25))
@example(["1"] + [_LONG, "0", "0", "0", "1", "0", "0", "0", "1"] + ["0", "0", "1"] + ["0"] * 12)
@example([-3] + [_BIG, 0, 0, 0, 1, "0", 0, 0, -1] + [0, -2, "1/2"] + [-1] * 12)
def test_loaders_read_literals_as_fraction_does(texts):
    # The tensors the loaders build straight from the integers of each
    # literal or bare int equal the Fraction reference, in canonical storage;
    # a file, whose JSON integers may be of any length, reads as its dict does.
    value, metric, xi, d, dd = texts[0], texts[1:10], texts[10:13], texts[13:16], texts[16:]
    data = {"name": "literals", "dim": 3, "structure_constants": [entry(1, 2, 3, value)],
            "metric": [metric[:3], metric[3:6], metric[6:]], "xi": xi,
            "jet": {"d": d, "dd": [dd[:3], dd[3:6], dd[6:]]}}
    with int_str_limit_lifted():  # the reference only: the loaders must not need it
        ref = [Fraction(s.strip() if isinstance(s, str) else s) for s in texts]
        text = json.dumps(data)
    g = ref[1:10]
    det = (g[0] * (g[4] * g[8] - g[5] * g[7]) - g[1] * (g[3] * g[8] - g[5] * g[6])
           + g[2] * (g[3] * g[7] - g[4] * g[6]))
    assume(det != 0)
    spec = geometry_from_dict(data).spec
    jet = jet_from_dict(data["jet"], 3)
    expected = [(spec.metric.g, Tensor((DOWN, DOWN), 3, g)),
                (spec.distinguished.xi, Tensor((UP,), 3, ref[10:13])),
                (jet.d, Tensor((DOWN,), 3, ref[13:16])),
                (jet.dd, Tensor((DOWN, DOWN), 3, ref[16:])),
                (spec.jet.d, jet.d), (spec.jet.dd, jet.dd)]
    for loaded, reference in expected:
        assert loaded == reference
        assert loaded.den > 0 and gcd(loaded.den, *loaded.nums) == 1
    assert spec.frame.c[2, 0, 1] == ref[0] == -spec.frame.c[2, 1, 0]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "literals.json"
        path.write_text(text, encoding="utf-8")
        assert load_geometry(path).spec == spec
    # parse_rat, rat and Tensor read each literal alike; parse_rat takes text only.
    vector = Tensor((UP,), len(texts), texts)
    assert vector == Tensor((UP,), len(ref), ref)
    for i, (s, r) in enumerate(zip(texts, ref)):
        assert rat(s) == r == vector[i]
        if isinstance(s, str):
            assert parse_rat(s) == r
        else:
            with pytest.raises(TypeError):
                parse_rat(s)


# -- CLI ---------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name", ("example1", "h2xr", "flat"))
def test_builtin_files_round_trip_byte_for_byte(capsys, name):
    shipped = resources.files("sscurv.data").joinpath(f"{name}.json").read_text()
    assert dumps_geometry(builtin(name)) == shipped
    code, out, _ = run_cli(capsys, "builtin", name)
    assert code == 0 and out == shipped


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
    assert "suite" not in doc
    code, out, _ = run_cli(capsys, "probe", "--builtin", "h2xr", "--suite", "parallel",
                           "--ids", "B2", "--format", "json")
    assert code == 0
    assert "suite" not in json.loads(out)
    code, out, _ = run_cli(capsys, "probe", "--builtin", "h2xr", "--suite", "all",
                           "--format", "json")
    assert json.loads(out)["suite"] == "all"
    code, _, err = run_cli(capsys, "probe", "--builtin", "h2xr", "--ids", "B2,NOPE")
    assert code == 2
    assert "unknown probe ids: NOPE" in err


@pytest.mark.parametrize("ids", ("B2,,B3", ",", "", " , B2"))
def test_cli_probe_refuses_an_empty_id(capsys, ids):
    code, out, err = run_cli(capsys, "probe", "--builtin", "h2xr", "--ids", ids)
    assert code == 2 and out == ""
    assert err == f"input error: empty probe id in --ids {ids!r}\n"


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


@pytest.mark.parametrize("argv, lc_builds", [
    (("validate", "--builtin", "h2xr"), 0),
    (("compute", "--builtin", "h2xr"), 1),
    (("probe", "--builtin", "h2xr"), 1),
    (("soliton", "--builtin", "h2xr", "--type", "yamabe", "--lambda", "0"), 1),
])
def test_cli_command_validates_once(monkeypatch, capsys, argv, lc_builds):
    import sscurv.connection
    import sscurv.geometry
    validations = count_calls(monkeypatch, sscurv.geometry, "validate")
    builds = count_calls(monkeypatch, sscurv.connection, "levi_civita")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "validation: ok" in out
    assert (len(validations), len(builds)) == (1, lc_builds)


def test_cli_soliton_checks_conclusion_once(monkeypatch, capsys):
    # proof_step_probes decides its hypothesis from the residual tensor; it
    # does not run residual, and with it conclusion_check, a second time.
    import sscurv.solitons
    checks = count_calls(monkeypatch, sscurv.solitons, "conclusion_check")
    code, out, _ = run_cli(capsys, "soliton", "--builtin", "h2xr",
                           "--type", "yamabe", "--lambda", "0")
    assert code == 0 and "validation: ok" in out
    assert len(checks) == 1


@pytest.mark.parametrize("literal", ["1/-2", "1/+2", "1/\u0662"])
def test_cli_signed_or_non_ascii_denominator_exit_2(capsys, tmp_path, literal):
    data = {"name": "g", "dim": 3, "structure_constants": [entry(1, 2, 3, literal)],
            "metric": _EYE, "xi": [0, 0, 1]}
    code, _, err = run_cli(capsys, "validate", "--geometry", write(tmp_path, "g.json", data))
    assert code == 2
    assert f"not a rational literal: {literal!r}" in err


def test_cli_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "validate", "--geometry", "/nonexistent.json")
    assert code == 2
    assert "not found" in err


@pytest.mark.parametrize("argv", [
    ("validate", "--geometry", "{dir}"),
    ("validate", "--geometry", "{latin1}"),
    ("soliton", "--builtin", "flat", "--type", "ricci", "--lambda", "0", "--jet", "{dir}"),
    ("compute", "--builtin", "flat", "--out", "{dir}/missing/r.json"),
    ("builtin", "flat", "--out", "{dir}/missing/x.json"),
], ids=["geometry-dir", "geometry-not-utf8", "jet-dir", "compute-out", "builtin-out"])
def test_cli_file_errors_exit_2_in_one_line(capsys, tmp_path, argv):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    code, _, err = run_cli(capsys, *(a.format(dir=tmp_path, latin1=latin1) for a in argv))
    assert code == 2
    assert "Traceback" not in err and err.count("\n") == 1, err


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


def test_cli_h2xr_yamabe_linear_potential_is_recorded_as_failing(capsys, tmp_path):
    """Pins today's output on a genuine soliton the catalog does not cover.

    On h2xr, f = -t along xi (d = (0, 0, -1), dd = 0) solves the Yamabe
    equation with lambda = 1 globally, inside the standing hypotheses (unit
    parallel xi). The hat scalar curvature is constant on any homogeneous
    frame, so the paper's disjunction holds; what fails is the catalog's
    constant r-hat = 2 and the proof step Y44 (hat S(Df) = (0, 0, -2)), which
    looks like the B10 constant again (r - 2 cataloged, r + 2 computed).
    Whether these become paper-mismatch changes pinned statuses, so the
    test records them as they are.
    """
    jet = write(tmp_path, "jet.json", {"d": ["0", "0", "-1"], "dd": [["0"] * 3] * 3})
    code, out, _ = run_cli(capsys, "soliton", "--builtin", "h2xr", "--type", "yamabe",
                           "--lambda", "1", "--jet", jet, "--format", "json")
    assert code == 1
    sol = json.loads(out)["solitons"][0]
    assert sol["is_soliton"] is True
    checks = {c["name"]: c for c in sol["conclusion_checks"]}
    assert checks["constant-scalar-curvature"]["holds"] is False
    assert checks["constant-scalar-curvature"]["note"] == "r-hat = 0"
    assert checks["trivial"]["holds"] is False
    (y44,) = sol["proof_steps"]
    assert (y44["id"], y44["status"], y44["lhs"]) == ("Y44", "fail", ["0", "0", "-2"])


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


def test_cli_dash_led_ints_stay_ints(capsys):
    code, out, _ = run_cli(capsys, "soliton", "--builtin", "h2xr", "--type", "mquasi",
                           "--lambda", "-1/2", "--m", "-3", "--format", "json")
    assert code == 0
    sol = json.loads(out)["solitons"][0]
    assert (sol["lambda"], sol["m"]) == ("-1/2", -3)
    code, out, _ = run_cli(capsys, "soliton", "--builtin", "h2xr", "--type", "mquasi",
                           "--lambda", "-1/2", "--m", "-3")
    assert code == 0
    assert "soliton check: kind=mquasi lambda=-1/2 m=-3\n" in out
    code, out, _ = run_cli(capsys, "fuzz", "--pool", "-1,0", "--seed", "-5", "--count", "5",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["fuzz"]["seed"] == -5


@pytest.mark.parametrize("argv", (("fuzz", "--lambda", "-1/2"),
                                  ("soliton", "--builtin", "h2xr", "--type", "ricci",
                                   "--lambda", "0", "--pool", "-1")))
def test_cli_rational_option_of_another_subcommand_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_soliton_mquasi_requires_m(capsys):
    code, _, err = run_cli(capsys, "soliton", "--builtin", "flat",
                           "--type", "mquasi", "--lambda", "0")
    assert code == 2
    assert "m" in err


def test_cli_soliton_m_for_another_kind_exit_2(capsys):
    code, _, err = run_cli(capsys, "soliton", "--builtin", "h2xr", "--type", "ricci",
                           "--lambda", "0", "--m", "3")
    assert code == 2
    assert "m is only meaningful for the m-quasi kind" in err


def test_cli_builtin_round_trip(capsys, tmp_path):
    out_path = tmp_path / "e.json"
    code, _, _ = run_cli(capsys, "builtin", "example1", "--out", str(out_path))
    assert code == 0
    assert load_geometry(out_path).spec == builtin("example1")


def test_cli_geometry_and_out_options(capsys, tmp_path):
    # --geometry belongs to the commands that read a geometry, not to fuzz or builtin.
    path = tmp_path / "flat.json"
    path.write_text(dumps_geometry(builtin("flat")))
    for argv in (["fuzz", "--geometry", str(path)], ["builtin", "flat", "--geometry", str(path)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --geometry" in capsys.readouterr().err
    # --out writes the report and prints it too; builtin --out writes only the file.
    for argv in (["validate", "--geometry", str(path)], ["compute", "--builtin", "flat"],
                 ["probe", "--builtin", "h2xr", "--format", "json"],
                 ["soliton", "--builtin", "h2xr", "--type", "yamabe", "--lambda", "0"],
                 ["fuzz", "--count", "3"]):
        out_path = tmp_path / f"{argv[0]}.out"
        _, out, _ = run_cli(capsys, *argv, "--out", str(out_path))
        assert out and out_path.read_text() == out
    out_path = tmp_path / "builtin.json"
    code, out, _ = run_cli(capsys, "builtin", "flat", "--out", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text() == dumps_geometry(builtin("flat"))


def test_cli_fuzz_smoke(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--seed", "7", "--count", "40",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["generated"] == 40


def test_cli_fuzz_strict_fails_on_designated_mismatches(capsys):
    # The parallel stream hits the designated B10/B17 mismatches: tolerated
    # by default, exit 1 under --strict, with the same report either way.
    argv = ("fuzz", "--seed", "42", "--count", "100", "--require-parallel-xi")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "B10      paper-mismatch=9" in out and "ok: True" in out
    strict_code, strict_out, _ = run_cli(capsys, *argv, "--strict")
    assert strict_code == 1
    assert strict_out == out


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


# Unit-parallel-xi frames off dimension 3, xi = e_n, identity metric:
# (dim, 1-based [e_i, e_j] = value e_k entries as (i, j, k, value)).
OTHER_DIMS = {
    "R1": (1, []),
    "R2": (2, []),
    "R4": (4, []),
    "H2xR2": (4, [(1, 2, 1, "-1")]),
    "H3xR": (4, [(1, 3, 1, "-1"), (2, 3, 2, "-1")]),
    "HeisenbergxR": (4, [(1, 2, 3, "1")]),
}
DIM3_PROBES = {"B10", "B15", "B17", "B18", "B22", "CFLAT"}


@pytest.mark.parametrize("name", sorted(OTHER_DIMS))
def test_cli_probe_all_off_dimension_3(capsys, tmp_path, name):
    n, brackets = OTHER_DIMS[name]
    geo = {"name": name, "dim": n,
           "structure_constants": [{"i": i, "j": j, "k": k, "value": v}
                                   for i, j, k, v in brackets],
           "metric": [[int(i == j) for j in range(n)] for i in range(n)],
           "xi": [int(i == n - 1) for i in range(n)]}
    path = write(tmp_path, "g.json", geo)
    spec = load_geometry(path).spec
    assert geometry_from_dict(geometry_to_dict(spec)).spec == spec
    code, out, err = run_cli(capsys, "probe", "--geometry", path,
                             "--suite", "all", "--format", "json")
    assert (code, err) == (0, "")
    by_id = {p["id"]: p for p in json.loads(out)["probes"]}
    assert not [pid for pid, p in by_id.items() if p["status"] in ("fail", "paper-mismatch")]
    for pid in DIM3_PROBES:
        assert by_id[pid]["status"] == "skipped", pid
        assert f"dimension 3 only, got dim {n}" in by_id[pid]["note"], pid
    if n in (2, 4):
        assert by_id["B9"]["status"] == by_id["B13"]["status"] == "pass"
    # Projective needs n >= 2 and conformal n >= 3; the rest run everywhere.
    undefined = {1: {"B20", "B23"}, 2: {"B23"}, 4: set()}[n]
    skipped = {pid for pid, p in by_id.items() if p["status"] == "skipped"}
    assert skipped == DIM3_PROBES | undefined


# -- numbers of any size, any locale ---------------------------------------


def long_integer_geometry(digits, seed=7):
    """A valid 3-dim geometry whose metric, bracket and xi entries have `digits`
    digits: [e1, e3] and [e2, e3] in span(e1, e2) always satisfy Jacobi, and a
    diagonally dominant symmetric metric is positive definite."""
    r = random.Random(seed)

    def num():
        return r.randrange(10 ** (digits - 1), 10 ** digits)

    off = [num() for _ in range(3)]
    diag = [3 * 10 ** digits + num() for _ in range(3)]
    g = [[diag[0], off[0], off[1]], [off[0], diag[1], off[2]], [off[1], off[2], diag[2]]]
    return {"name": f"long-{digits}", "dim": 3,
            "structure_constants": [{"i": i, "j": 3, "k": k, "value": str(-num())}
                                    for i in (1, 2) for k in (1, 2)],
            "metric": [[str(x) for x in row] for row in g],
            "xi": [str(num()) for _ in range(3)]}


def flat_strings(value):
    return [value] if isinstance(value, str) else [x for v in value for x in flat_strings(v)]


def test_cli_reports_numbers_past_the_int_str_digit_limit(capsys, tmp_path):
    # 700-digit inputs give numerators and denominators of thousands of digits,
    # past CPython's default limit of 4300 on str(int); the report stays exact.
    path = write(tmp_path, "long.json", long_integer_geometry(700))
    argv = ("probe", "--geometry", path, "--tables", "--format", "json")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    tables = json.loads(out)["tables"]
    ctx = ProbeContext.of(load_geometry(path).spec)
    with int_str_limit_lifted():
        assert run_cli(capsys, *argv)[1] == out
        for name, t in (("levi_civita", ctx.lc.gamma), ("riemann_ssnmc", ctx.hat_bundle.riemann),
                        ("ricci_operator_lc", ctx.lc_bundle.ricci_op)):
            assert flat_strings(tables[name]) == [
                str(t[idx]) for idx in product(range(3), repeat=t.rank)], name
        assert tables["scalar_ssnmc"] == str(ctx.hat_bundle.scalar)
    assert max(len(part) for name in ("levi_civita", "riemann_ssnmc")
               for x in flat_strings(tables[name]) for part in x.split("/")) > 4300


def test_geometry_files_read_numbers_past_the_int_str_digit_limit(tmp_path):
    # A bare JSON integer and a "p/q" string, each of 5001 digits.
    geo = json.dumps({"dim": 2, "metric": [["G", 0], [0, 1]], "xi": ["X", "0"]})
    p, q = "3" * 5001, "1" + "0" * 5000
    path = write(tmp_path, "long.json", geo.replace('"G"', "1" + "0" * 4999 + "7")
                 .replace("X", f"{p}/{q}"))
    spec = load_geometry(path).spec
    assert spec.metric.g[0, 0] == 10 ** 5000 + 7
    assert spec.distinguished.xi[0] == Fraction((10 ** 5001 - 1) // 3, 10 ** 5000)


# Under the C locale with neither PEP 538 nor PEP 540 in force, stdout is ASCII.
C_LOCALE_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"},
                "LC_ALL": "C", "LANG": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
                "PYTHONPATH": os.pathsep.join(filter(None, (
                    str(Path(sscurv.__file__).parents[1]), os.environ.get("PYTHONPATH"))))}


def test_cli_non_ascii_name_under_an_ascii_locale(capsys, tmp_path):
    geo = {"name": "caf\u00e9-\u2207", "structure_constants": [],
           "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "xi": [0, 0, 1]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(geo, ensure_ascii=False), encoding="utf-8")
    report = tmp_path / "r.txt"

    def child(*argv):
        proc = subprocess.run([sys.executable, "-m", "sscurv.cli", "validate",
                               "--geometry", str(path), *argv],
                              capture_output=True, env=C_LOCALE_ENV)
        return proc.returncode, proc.stdout.decode("ascii"), proc.stderr.decode("ascii")

    code, out, err = child()
    assert (code, out) == (2, "") and err.startswith("output error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    code, out, err = child("--format", "json")
    assert (code, err) == (0, "") and json.loads(out)["geometry"] == geo["name"]
    code, out, err = child("--out", str(report))
    assert code == 2 and err.startswith("output error: ") and "Traceback" not in err
    assert report.read_text(encoding="utf-8") == run_cli(capsys, "validate", "--geometry",
                                                         str(path))[1]
