"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion; every comparison below is exact equality, zero tolerance.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sscurv
from sscurv import (ProbeStatus, ScalarJet, SolitonKind, SolitonProblem,
                    Tensor, builtin, fuzz, FuzzConfig, rat, residual, run_suite)
from sscurv.probes import PROBE_ORDER, run_probe
from sscurv.report import build_report
from sscurv.tensor import DOWN

from conftest import make_spec


def announce(number, text):
    print(f"\n[criterion {number}] PASS: {text}")


# The CLI child imports the same sscurv as these tests, installed or not.
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(Path(sscurv.__file__).parents[1]), os.environ.get("PYTHONPATH"))))}


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "sscurv.cli", *argv],
                          capture_output=True, text=True, env=CLI_ENV)
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_1_example1_reproduction():
    t0 = time.perf_counter()
    report = build_report(builtin("example1"))
    elapsed = time.perf_counter() - t0
    tables = report["tables"]

    # Levi-Civita table: nabla[k][i][j] with value slot first.
    lc = tables["levi_civita"]
    def vec(table, i, j):
        return [table[k][i][j] for k in range(3)]
    assert vec(lc, 0, 2) == ["-1", "0", "0"]          # nabla_k1 k3 = -k1
    assert vec(lc, 0, 0) == ["0", "0", "1"]           # nabla_k1 k1 = k3
    assert vec(lc, 1, 1) == ["0", "0", "1"]           # nabla_k2 k2 = k3
    assert vec(lc, 1, 2) == ["0", "-1", "0"]          # nabla_k2 k3 = -k2
    for j in range(3):
        assert vec(lc, 2, j) == ["0", "0", "0"]       # nabla_k3 . = 0
    assert vec(lc, 0, 1) == vec(lc, 1, 0) == ["0", "0", "0"]

    hat = tables["ssnmc"]
    assert vec(hat, 0, 2) == ["0", "0", "0"]          # nablahat_k1 k3 = 0
    assert vec(hat, 2, 2) == ["0", "0", "1"]          # nablahat_k3 k3 = k3
    assert vec(hat, 0, 0) == vec(hat, 1, 1) == ["0", "0", "1"]

    # All nine cataloged curvature components, R[l][Y][U][V].
    r = tables["riemann_lc"]
    def rvec(k, i, j):
        return [r[l][k][i][j] for l in range(3)]
    assert rvec(2, 0, 1) == ["0", "0", "0"]           # R(k1,k2)k3 = 0
    assert rvec(2, 1, 2) == ["0", "-1", "0"]          # R(k2,k3)k3 = -k2
    assert rvec(2, 0, 2) == ["-1", "0", "0"]          # R(k1,k3)k3 = -k1
    assert rvec(1, 0, 1) == ["-1", "0", "0"]          # R(k1,k2)k2 = -k1
    assert rvec(1, 1, 2) == ["0", "0", "1"]           # R(k2,k3)k2 = k3
    assert rvec(1, 0, 2) == ["0", "0", "0"]           # R(k1,k3)k2 = 0
    assert rvec(0, 0, 1) == ["0", "1", "0"]           # R(k1,k2)k1 = k2
    assert rvec(0, 1, 2) == ["0", "0", "0"]           # R(k2,k3)k1 = 0
    assert rvec(0, 0, 2) == ["0", "0", "1"]           # R(k1,k3)k1 = k3

    assert tables["ricci_lc"] == [["-2", "0", "0"], ["0", "-2", "0"], ["0", "0", "-2"]]
    assert tables["scalar_lc"] == "-6"
    t = tables["torsion_ssnmc"]
    assert [t[k][0][2] for k in range(3)] == ["1", "0", "0"]   # That(k1,k3) = k1
    assert tables["non_metricity_ssnmc"][0][0][2] == "-1"      # (nablahat_k1 g)(k1,k3)

    assert elapsed < 1.0
    code, out, _ = run_cli("compute", "--builtin", "example1")
    assert code == 0 and "scalar curvature (levi-civita): -6" in out
    announce(1, f"example1 tables reproduced exactly in {elapsed:.3f}s")


def test_criterion_2_general_suite_on_builtins():
    for name in ("example1", "h2xr", "flat"):
        report = run_suite(builtin(name), "general", include_tables=False)
        statuses = {p["id"]: p["status"] for p in report["probes"]}
        for pid in ("A1", "B2", "B3", "BIANCHI", "CFLAT"):
            assert statuses[pid] == "pass", (name, pid)
        assert statuses["B15"] == "pass", name
    announce(2, "A1, B2, B3, first-Bianchi, conformal-vanishes pass on "
                "example1, h2xr, flat")


def test_criterion_3_parallel_suite_on_h2xr():
    spec = builtin("h2xr")
    must_pass = ("B5", "B6", "B7", "B8", "B9", "B11", "B12", "B13", "B15",
                 "B20", "B22", "B23")
    for pid in must_pass:
        result = run_probe(spec, pid)
        assert result.status is ProbeStatus.PASS, pid
        assert result.max_abs_deviation == 0

    b10 = run_probe(spec, "B10")
    assert b10.status is ProbeStatus.PAPER_MISMATCH
    assert b10.lhs == rat(0) and b10.rhs == rat(-4)

    b17 = run_probe(spec, "B17")
    assert b17.status is ProbeStatus.PAPER_MISMATCH
    assert [b17.lhs[l, 0] for l in range(3)] == [rat(-1), rat(0), rat(0)]

    mismatched = {pid for pid in PROBE_ORDER
                  if run_probe(spec, pid).status is ProbeStatus.PAPER_MISMATCH}
    assert mismatched == {"B10", "B17"}
    announce(3, "h2xr parallel suite passes; exactly {B10, B17} report "
                "paper-mismatch (r-hat = 0 vs -4; Qhat e1 = -e1)")


def test_criterion_4_soliton_checks():
    # (i) h2xr, Yamabe, zero jet, lambda = 0: trivial soliton.
    verdict = residual(builtin("h2xr"),
                       SolitonProblem(SolitonKind.YAMABE, rat(0), ScalarJet.zero(3)))
    assert verdict.is_soliton
    by_name = {c.name: c.holds for c in verdict.conclusion_checks}
    assert by_name["trivial"] and by_name["conclusion"]

    # (ii) flat with psi = 0, Ricci, dd = id, lambda = -1.
    flat0 = make_spec("flat0", {}, xi=(0, 0, 0))
    jet = ScalarJet(Tensor.covector([0, 0, 0]),
                    Tensor.from_rows((DOWN, DOWN), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    verdict2 = residual(flat0, SolitonProblem(SolitonKind.RICCI, rat(-1), jet))
    assert verdict2.is_soliton

    # (iii) h2xr, Ricci, zero jet, lambda = -2: residual diag(-3,-3,0).
    verdict3 = residual(builtin("h2xr"),
                        SolitonProblem(SolitonKind.RICCI, rat(-2), ScalarJet.zero(3)))
    assert not verdict3.is_soliton
    expected = Tensor.from_rows((DOWN, DOWN), [[-3, 0, 0], [0, -3, 0], [0, 0, 0]])
    assert verdict3.residual == expected
    announce(4, "soliton checks (i) trivial Yamabe, (ii) flat Gaussian Ricci, "
                "(iii) residual diag(-3,-3,0), all exact")


def test_criterion_5_property_based_fuzz():
    t0 = time.perf_counter()
    general = fuzz(FuzzConfig(count=1000, seed=42))
    parallel = fuzz(FuzzConfig(count=1000, seed=42, require_parallel_xi=True))
    elapsed = time.perf_counter() - t0

    assert general["ok"] and general["unexpected"] == []
    accepted = general["accepted"]
    assert accepted > 0
    for pid in ("A1", "B2", "B3", "B15", "BIANCHI", "CFLAT"):
        counts = general["probe_counts"][pid]
        assert counts["pass"] == accepted and counts["fail"] == 0

    # Parallel-xi-filtered stream: the gated identities hold on 100% and
    # the only mismatches anywhere are the two designated probes. The
    # parallel subset of the general stream must agree.
    assert parallel["ok"]
    n_par = parallel["accepted"]
    assert n_par >= 50
    for pid in ("B8", "B9", "B11", "B12", "B13"):
        assert parallel["probe_counts"][pid]["pass"] == n_par
    for report, n in ((parallel, n_par), (general, general["parallel_accepted"])):
        mismatching = {pid for pid, c in report["probe_counts"].items()
                       if c["paper-mismatch"]}
        assert mismatching == {"B10", "B17"}
        assert report["probe_counts"]["B10"]["paper-mismatch"] == n
        assert report["probe_counts"]["B17"]["paper-mismatch"] == n

    assert elapsed < 30.0
    announce(5, f"fuzz seed 42: {accepted} general + {n_par} parallel geometries, "
                f"no unexpected failures, {elapsed:.1f}s < 30s")


def test_criterion_6_input_robustness(tmp_path):
    bad = {
        "name": "bad", "dim": 3,
        "structure_constants": [
            {"i": 1, "j": 2, "k": 3, "value": "1"},
            {"i": 1, "j": 3, "k": 1, "value": "1"},
        ],
        "metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "xi": [0, 0, 1],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, err = run_cli("validate", "--geometry", str(path))
    assert code == 2
    assert "(1, 2, 3)" in out + err

    code, _, _ = run_cli("probe", "--builtin", "h2xr", "--suite", "all")
    assert code == 0
    code, _, _ = run_cli("probe", "--builtin", "h2xr", "--suite", "all", "--strict")
    assert code == 1
    announce(6, "Jacobi-violating file exits 2 naming (1, 2, 3); --strict "
                "flips h2xr probe run to exit 1")


def test_criterion_7_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out_path in (a, b):
        code, _, _ = run_cli("probe", "--builtin", "h2xr", "--format", "json",
                             "--out", str(out_path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()

    for out_path in (a, b):
        code, _, _ = run_cli("fuzz", "--seed", "42", "--count", "150",
                             "--format", "json", "--out", str(out_path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    announce(7, "identical CLI invocations produce byte-identical JSON reports")
