"""Identity probe statuses on the oracle geometries and fuzzed streams."""

import dataclasses

import pytest
from hypothesis import given, settings

import sscurv.connection
from conftest import count_calls, geometries, make_spec
from sscurv import (GENERAL_SUITE, PARALLEL_SUITE, PROBE_ORDER, DistinguishedField,
                    FrameAlgebra, GeometrySpec, MetricFrame, ProbeStatus, ScalarJet,
                    SolitonKind, SolitonProblem, SscurvError, Tensor, UnknownProbeError,
                    builtin, conclusion_check, rat, run_suite)
from sscurv.probes import DISCREPANCY_PROBES, REGISTRY, ProbeContext, run_probe


def statuses(spec, ids=PROBE_ORDER):
    return {pid: run_probe(spec, pid) for pid in ids}


def test_run_suite_with_ids_names_no_suite():
    spec = builtin("h2xr")
    for doc in (run_suite(spec, ids=("B9",)), run_suite(spec, "parallel", ids=("B9",))):
        assert "suite" not in doc
        assert [p["id"] for p in doc["probes"]] == ["B9"]
    assert run_suite(spec, "parallel")["suite"] == "parallel"


def test_a1_and_b11_share_one_torsion_shape(monkeypatch):
    shapes = count_calls(monkeypatch, sscurv.connection, "semi_symmetric_torsion")
    spec = builtin("h2xr")
    results = statuses(spec, ("A1", "B11"))
    assert all(r.status is ProbeStatus.PASS for r in results.values())
    assert len(shapes) == 1
    assert results["A1"].rhs is results["B11"].rhs


def test_unknown_probe_id():
    with pytest.raises(UnknownProbeError):
        run_probe(builtin("flat"), "B99")
    spec = builtin("flat")
    with pytest.raises(SscurvError, match="unknown suite 'nope'"):
        run_suite(spec, "nope")
    with pytest.raises(SscurvError, match="unknown probe ids: NOPE"):
        run_suite(spec, ids=("B2", "NOPE"))


def test_a_probe_whose_sides_name_different_parts_raises(monkeypatch):
    # A dict-valued probe compares its sides part by part; a B13 whose right
    # side names other parts is refused, never judged.
    defn = REGISTRY["B13"]

    def renamed(ctx):
        lhs, rhs = defn.fn(ctx)
        return lhs, {f"{key}'": value for key, value in rhs.items()}

    monkeypatch.setitem(REGISTRY, "B13", dataclasses.replace(defn, fn=renamed))
    with pytest.raises(ValueError, match="mismatched comparison parts"):
        run_probe(builtin("h2xr"), "B13")


def test_example1_b3_passes():
    result = run_probe(builtin("example1"), "B3")
    assert result.status is ProbeStatus.PASS
    assert result.max_abs_deviation == 0


def test_example1_b13_skipped_not_parallel():
    result = run_probe(builtin("example1"), "B13")
    assert result.status is ProbeStatus.SKIPPED
    assert "parallel" in result.note


def test_h2xr_b9_values():
    result = run_probe(builtin("h2xr"), "B9")
    assert result.status is ProbeStatus.PASS
    # Shat = diag(-1,-1,2) = diag(-1,-1,0) + 2 psi x psi
    assert [result.lhs[i, i] for i in range(3)] == [rat(-1), rat(-1), rat(2)]


def test_h2xr_b10_paper_mismatch_values():
    result = run_probe(builtin("h2xr"), "B10")
    assert result.status is ProbeStatus.PAPER_MISMATCH
    assert result.lhs == rat(0)
    assert result.rhs == rat(-4)
    assert result.max_abs_deviation == rat(4)


def test_h2xr_b17_paper_mismatch_values():
    result = run_probe(builtin("h2xr"), "B17")
    assert result.status is ProbeStatus.PAPER_MISMATCH
    # Direct operator sends e1 to -e1; the closed form at the computed
    # hat scalar (0) sends it to +e1.
    assert [result.lhs[l, 0] for l in range(3)] == [rat(-1), rat(0), rat(0)]
    assert [result.rhs[l, 0] for l in range(3)] == [rat(1), rat(0), rat(0)]


def _parallel_draw(name, a=0, b=0, t=0):
    """The geometry of a fuzz parallel draw: C^1_12 = a, C^2_12 = b and
    C^1_23 = -C^2_13 = t on g = I, xi = e3."""
    frame = FrameAlgebra.from_entries(3, {(0, 0, 1): rat(a), (1, 0, 1): rat(b),
                                          (0, 1, 2): rat(t), (1, 0, 2): rat(-t)})
    metric = MetricFrame.identity(3)
    return GeometrySpec(name, frame, metric,
                        DistinguishedField.from_xi(Tensor.vector([0, 0, 1]), metric))


@pytest.mark.parametrize("make", [
    lambda: builtin("h2xr"), lambda: builtin("flat"),
    lambda: _parallel_draw("P1", a=1, b=1), lambda: _parallel_draw("P1", a=2, b=-1),
    lambda: _parallel_draw("P2", t=1), lambda: _parallel_draw("P2", t=2),
], ids=["h2xr", "flat", "P1(1,1)", "P1(2,-1)", "P2(1)", "P2(2)"])
def test_b17_closed_form_holds_at_the_cataloged_b10_value(make):
    # B17 has no error of its own: the engine's hat scalar is r + 2, not the
    # cataloged r - 2 of B10, and B17's closed form (r-hat/2 + 1) I
    # - (r-hat/2 - 1) xi (x) psi at r-hat = r - 2, that is
    # (r/2) I - (r/2 - 2) xi (x) psi, is the engine's hat Ricci operator.
    spec = make()
    ctx = ProbeContext.of(spec)
    r, rhat = ctx.lc_bundle.scalar, ctx.hat_bundle.scalar
    assert rhat - r == 2
    xi, psi = spec.distinguished.xi, spec.distinguished.psi
    closed = Tensor.delta(3).scale(r / 2) - xi.tensor_product(psi).scale(r / 2 - 2)
    assert ctx.hat_bundle.ricci_op == closed
    result = run_probe(spec, "B17")
    assert result.status is ProbeStatus.PAPER_MISMATCH and result.lhs == closed


def test_h2xr_b15_passes():
    assert run_probe(builtin("h2xr"), "B15").status is ProbeStatus.PASS


def test_h2xr_all_statuses():
    results = statuses(builtin("h2xr"))
    for pid, r in results.items():
        if pid in DISCREPANCY_PROBES:
            assert r.status is ProbeStatus.PAPER_MISMATCH, pid
        else:
            assert r.status is ProbeStatus.PASS, (pid, r.note)


def test_example1_general_pass_parallel_skipped():
    results = statuses(builtin("example1"))
    for pid in GENERAL_SUITE:
        assert results[pid].status is ProbeStatus.PASS, pid
    for pid in PARALLEL_SUITE:
        assert results[pid].status is ProbeStatus.SKIPPED, pid


def test_flat_parallel_probes_nontrivial():
    # psi = (0,0,1), xi parallel: the hatted curvature acts on xi even
    # though the metric curvature vanishes.
    results = statuses(builtin("flat"))
    for pid, r in results.items():
        expect = (ProbeStatus.PAPER_MISMATCH if pid in DISCREPANCY_PROBES
                  else ProbeStatus.PASS)
        assert r.status is expect, pid
    b11 = results["B11"]
    assert not b11.lhs.is_zero()
    psi = builtin("flat").distinguished.psi
    for l in range(3):
        for i in range(3):
            for j in range(3):
                expected = (psi[j] if l == i else rat(0)) - (psi[i] if l == j else rat(0))
                assert b11.lhs[l, i, j] == expected


def test_non_unit_xi_skips_gated_probes():
    spec = make_spec("flat-long", {}, xi=(0, 0, 2))  # parallel but |xi| = 2
    results = statuses(spec, PARALLEL_SUITE)
    for pid, r in results.items():
        assert r.status is ProbeStatus.SKIPPED, pid
        assert "unit" in r.note


def test_suites_follow_the_requires_sets():
    assert PROBE_ORDER == (
        "A1", "B2", "B3", "B5", "B6", "B7", "B8", "B9", "B10", "B11", "B12", "B13",
        "B14", "B15", "B17", "B18", "B20", "B22", "B23", "BIANCHI", "CFLAT")
    assert GENERAL_SUITE == ("A1", "B2", "B3", "B15", "BIANCHI", "CFLAT")
    assert PARALLEL_SUITE == tuple(pid for pid in PROBE_ORDER if pid not in GENERAL_SUITE)
    assert {pid for pid, d in REGISTRY.items() if "dim-3" in d.requires} == {
        "B10", "B15", "B17", "B18", "B22", "CFLAT"}


def _h2(xi):
    # The hyperbolic plane, [e1, e2] = -e1, with the identity metric.
    frame = FrameAlgebra.from_entries(2, {(0, 0, 1): rat(-1)})
    metric = MetricFrame.identity(2)
    return GeometrySpec("h2", frame, metric, DistinguishedField.from_xi(Tensor.vector(xi), metric))


def test_every_unmet_hypothesis_is_named_in_order():
    # The hyperbolic plane with xi = e2: nabla xi != 0 and dim 2.
    results = statuses(_h2([0, 1]))
    assert results["B10"].note == ("parallel-xi hypothesis fails: nabla xi != 0; "
                                   "dim-3 hypothesis fails: derived in dimension 3 only, "
                                   "got dim 2")
    assert results["B9"].note == "parallel-xi hypothesis fails: nabla xi != 0"
    assert results["CFLAT"].status is ProbeStatus.SKIPPED
    for pid in ("A1", "B2", "B3", "BIANCHI"):
        assert results[pid].status is ProbeStatus.PASS, pid
    # xi = 2e2 fails both halves of unit-parallel-xi: the note names the parallel half.
    assert run_probe(_h2([0, 2]), "B10").note == results["B10"].note


def test_probe_skips_and_soliton_reasons_come_from_unmet_alone():
    spec = make_spec("flat", {})  # inside the paper's class: nothing unmet
    ctx = ProbeContext.of(spec)
    assert ctx.unmet == {}
    ctx.__dict__["unmet"] = {"unit-parallel-xi": ("note a", ("reason a",)),
                             "dim-3": ("note b", ("reason b", "reason c"))}
    assert run_probe(spec, "B10").note == "note a; note b"
    assert run_probe(spec, "B9").note == "note a"
    assert run_probe(spec, "CFLAT").note == "note b"
    assert run_probe(spec, "A1").status is ProbeStatus.PASS
    # A Ricci problem with a nonconstant potential misses its one disjunct.
    jet = ScalarJet(Tensor.covector([0, 0, 0]), MetricFrame.identity(3).g)
    problem = SolitonProblem(SolitonKind.RICCI, rat(0), jet)
    assert conclusion_check(spec, problem)[-1].note == (
        "conclusion disjunct not satisfied; geometry outside the standing hypotheses "
        "(reason a, reason b, reason c)")
    ctx.__dict__["unmet"] = {}
    assert conclusion_check(spec, problem)[-1].note == ""
    assert run_probe(spec, "B10").status is ProbeStatus.PAPER_MISMATCH


def test_every_required_hypothesis_can_be_unmet():
    # h2 with xi = e2 fails both hypotheses; a misspelled requires name would never skip.
    ctx = ProbeContext.of(_h2([0, 1]))
    assert set().union(*(d.requires for d in REGISTRY.values())) == set(ctx.unmet)


def test_run_suite_general_example1():
    report = run_suite(builtin("example1"), "general", include_tables=False)
    assert [p["id"] for p in report["probes"]] == list(GENERAL_SUITE)
    assert all(p["status"] == "pass" for p in report["probes"])


def test_run_suite_all_h2xr():
    report = run_suite(builtin("h2xr"), "all", include_tables=False)
    by_id = {p["id"]: p["status"] for p in report["probes"]}
    mismatched = {pid for pid, s in by_id.items() if s == "paper-mismatch"}
    assert mismatched == {"B10", "B17"}
    assert all(s in ("pass", "paper-mismatch") for s in by_id.values())


def test_run_suite_rejects_invalid_geometry():
    from sscurv import GeometryError
    spec = make_spec("bad", {(2, 0, 1): 1, (0, 0, 2): 1})
    with pytest.raises(GeometryError):
        run_suite(spec, "general")


@settings(max_examples=40, deadline=None)
@given(geometries())
def test_general_suite_passes_on_fuzzed_geometries(spec):
    for pid in GENERAL_SUITE:
        result = run_probe(spec, pid)
        assert result.status is ProbeStatus.PASS, (pid, result.note)


@settings(max_examples=40, deadline=None)
@given(geometries(identity_metric=True, unit_e3_xi=True))
def test_parallel_identities_on_fuzzed_parallel_geometries(spec):
    if not ProbeContext.of(spec).parallel:
        return
    for pid in ("B5", "B6", "B7", "B8", "B9", "B11", "B12", "B13", "B14",
                "B18", "B20", "B22", "B23"):
        result = run_probe(spec, pid)
        assert result.status is ProbeStatus.PASS, (pid, result.note)
    for pid in DISCREPANCY_PROBES:
        assert run_probe(spec, pid).status is ProbeStatus.PAPER_MISMATCH
