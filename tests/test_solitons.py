"""Hat Hessians, soliton residuals, proof steps, conclusion checks."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import DIM, count_calls, geometries, make_spec, small_rats
from sscurv import (InvalidJetError, MetricFrame, ProbeStatus, ScalarJet,
                    SolitonKind, SolitonProblem, SscurvError, Tensor, ValenceError,
                    build_report, builtin, classify, conclusion_check, geometry_from_dict,
                    hat_hessian, levi_civita, proof_step_probes, rat, residual, run_suite)
from sscurv.report import verdict_to_dict
from sscurv.tensor import DOWN


def zero_jet():
    return ScalarJet.zero(DIM)


def make_jet(d, dd):
    return ScalarJet(Tensor.covector(d), Tensor.from_rows((DOWN, DOWN), dd))


def flat_psi0():
    return make_spec("flat0", {}, xi=(0, 0, 0))


def test_problem_validation():
    with pytest.raises(SscurvError):
        SolitonProblem(SolitonKind.M_QUASI, rat(0), zero_jet(), m=0)
    with pytest.raises(SscurvError):
        SolitonProblem(SolitonKind.M_QUASI, rat(0), zero_jet())
    with pytest.raises(SscurvError):
        SolitonProblem(SolitonKind.RICCI, rat(0), zero_jet(), m=3)
    # m is refused unless it is an int: not written to the report as true,
    # nor left to fail in the residual or the report writer.
    for bad in (True, rat(1, 2), 2.0, "2"):
        with pytest.raises(SscurvError, match="nonzero integer m"):
            SolitonProblem(SolitonKind.M_QUASI, rat(0), zero_jet(), m=bad)


@pytest.mark.parametrize("lam", [0.5, "1/2", None, True, False, Decimal("0.5")])
def test_problem_refuses_a_lambda_that_is_not_exact(lam):
    # Refused up front, not left to die in the residual reading lam.numerator,
    # nor, for a bool, computed as lambda = 1 or 0.
    with pytest.raises(SscurvError, match="lambda must be an int or a Rat"):
        SolitonProblem(SolitonKind.RICCI, lam, zero_jet())


def test_classification_table():
    assert classify(rat(-1)) == "shrinking"
    assert classify(rat(0)) == "steady"
    assert classify(rat(1, 2)) == "expanding"


def is_symmetric(h):
    return all(h[i, j] == h[j, i] for i in range(h.dim) for j in range(h.dim))


def test_hat_hessian_zero_jet():
    h = hat_hessian(zero_jet(), builtin("h2xr"))
    assert h.is_zero()


def test_hat_hessian_flat_quadratic():
    spec = flat_psi0()
    c = rat(5, 3)
    jet = make_jet([0, 0, 0], [[c, 0, 0], [0, c, 0], [0, 0, c]])
    h = hat_hessian(jet, spec)
    assert h == spec.metric.g.scale(c)


def test_hat_hessian_rejects_inconsistent_jet():
    # On h2xr the commutator constraint forces dd_12 - dd_21 = -d_1, so a
    # zero dd with d = (1,0,0) is invalid.
    spec = builtin("h2xr")
    bad = make_jet([1, 0, 0], [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(InvalidJetError):
        hat_hessian(bad, spec)
    fixed = make_jet([1, 0, 0], [[0, rat(-1, 2), 0], [rat(1, 2), 0, 0], [0, 0, 0]])
    assert is_symmetric(hat_hessian(fixed, spec))


def test_invalid_jet_names_first_violation():
    # Milnor [e2,e3] = e1, [e3,e1] = 2 e2, [e1,e2] = 3 e3 with d = (1, 1, 1) and
    # dd = 0 violates the constraint at (1,2), (1,3) and (2,3); (1, 2) is named.
    spec = make_spec("milnor", {(0, 1, 2): 1, (1, 2, 0): 2, (2, 0, 1): 3})
    bad = make_jet([1, 1, 1], [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(InvalidJetError, match=r"at \(i, j\) = \(1, 2\)$"):
        hat_hessian(bad, spec)
    # Fix (1, 2) only: the next violation in row-major order is (1, 3).
    partly = make_jet([1, 1, 1], [[0, rat(3, 2), 0], [rat(-3, 2), 0, 0], [0, 0, 0]])
    with pytest.raises(InvalidJetError, match=r"at \(i, j\) = \(1, 3\)$"):
        hat_hessian(partly, spec)


def test_hat_hessian_rejects_jet_of_other_dimension():
    with pytest.raises(ValenceError):
        hat_hessian(ScalarJet.zero(2), builtin("h2xr"))


def test_yamabe_trivial_soliton_h2xr():
    spec = builtin("h2xr")
    problem = SolitonProblem(SolitonKind.YAMABE, rat(0), zero_jet())
    verdict = residual(spec, problem)
    assert verdict.is_soliton
    assert verdict.residual.is_zero()
    assert verdict.classification == "steady"
    by_name = {c.name: c for c in verdict.conclusion_checks}
    assert not by_name["constant-scalar-curvature"].holds  # r-hat = 0 != 2
    assert by_name["trivial"].holds
    assert by_name["conclusion"].holds


def test_flat_psi0_gaussian_ricci_soliton():
    spec = flat_psi0()
    jet = make_jet([0, 0, 0], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    problem = SolitonProblem(SolitonKind.RICCI, rat(-1), jet)
    verdict = residual(spec, problem)
    assert verdict.is_soliton
    by_name = {c.name: c for c in verdict.conclusion_checks}
    assert by_name["constant-sectional-curvature"].holds
    assert not by_name["potential-constant"].holds
    conclusion = by_name["conclusion"]
    assert not conclusion.holds
    assert "outside the standing hypotheses" in conclusion.note
    assert "psi = 0" in conclusion.note and "xi not unit" in conclusion.note


def test_h2xr_ricci_negative_case():
    spec = builtin("h2xr")
    problem = SolitonProblem(SolitonKind.RICCI, rat(-2), zero_jet())
    verdict = residual(spec, problem)
    assert not verdict.is_soliton
    expected = Tensor.from_rows((DOWN, DOWN), [[-3, 0, 0], [0, -3, 0], [0, 0, 0]])
    assert verdict.residual == expected
    assert verdict.conclusion_checks == ()
    for r in proof_step_probes(spec, problem):
        assert r.status is ProbeStatus.SKIPPED
        assert "soliton equation not satisfied" in r.note


def test_flat_psi0_einstein_trivial():
    spec = flat_psi0()
    problem = SolitonProblem(SolitonKind.EINSTEIN, rat(0), zero_jet())
    verdict = residual(spec, problem)
    assert verdict.is_soliton
    by_name = {c.name: c for c in verdict.conclusion_checks}
    assert by_name["constant-scalar-curvature"].holds  # r-hat = 0
    assert by_name["conclusion"].holds


def test_proof_steps_pass_on_trivial_solitons():
    h = builtin("h2xr")
    yam = proof_step_probes(h, SolitonProblem(SolitonKind.YAMABE, rat(0), zero_jet()))
    assert [r.probe_id for r in yam] == ["Y44"]
    assert yam[0].status is ProbeStatus.PASS

    spec = flat_psi0()
    jet = make_jet([0, 0, 0], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    ric = proof_step_probes(spec, SolitonProblem(SolitonKind.RICCI, rat(-1), jet))
    assert [r.probe_id for r in ric] == ["C4"]
    assert ric[0].status is ProbeStatus.PASS

    mq = proof_step_probes(spec, SolitonProblem(SolitonKind.M_QUASI, rat(0),
                                                zero_jet(), m=2))
    assert [r.probe_id for r in mq] == ["M61", "M68"]
    assert all(r.status is ProbeStatus.PASS for r in mq)


def test_m_quasi_side_condition_reported():
    spec = flat_psi0()
    problem = SolitonProblem(SolitonKind.M_QUASI, rat(0), zero_jet(), m=2)
    checks = {c.name: c for c in conclusion_check(spec, problem)}
    assert "2m + r-hat - 2 lambda + 2 = 6" in checks["side-condition-nonzero"].note
    assert checks["side-condition-nonzero"].holds


def _flat_r4(xi=(0, 0, 0, 1)):
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    return geometry_from_dict({"name": "r4", "dim": 4, "metric": eye,
                               "xi": list(xi)}).spec


@pytest.mark.parametrize("spec, lam, reason", [
    # example1: unit xi, not parallel; flat R^4: unit parallel xi in dim 4.
    (builtin("example1"), rat(-1), "xi not parallel"),
    (_flat_r4(), rat(2), "dim 4 != 3"),
    # example1 with xi = 2e3 (r-hat = 10): neither unit nor parallel.
    (make_spec("example1-2xi", {(0, 0, 2): -1, (1, 1, 2): -1}, xi=(0, 0, 2)), rat(9),
     "xi not unit, xi not parallel"),
    # flat R^4 with xi = 0 (r-hat = 0): every hypothesis but parallel xi fails.
    (_flat_r4((0, 0, 0, 0)), rat(-1), "psi = 0, xi not unit, dim 4 != 3"),
], ids=["example1", "flat-r4", "example1-2xi", "flat-r4-psi0"])
def test_out_of_scope_note_names_the_unmet_hypothesis(spec, lam, reason):
    # The Yamabe soliton f = |x|^2 / 2 (d = 0, dd = I) misses every disjunct.
    n = spec.dim
    jet = ScalarJet(Tensor.zeros((DOWN,), n), MetricFrame.identity(n).g)
    problem = SolitonProblem(SolitonKind.YAMABE, lam, jet)
    assert residual(spec, problem).is_soliton
    conclusion = conclusion_check(spec, problem)[-1]
    assert conclusion.name == "conclusion" and not conclusion.holds
    assert conclusion.note == ("conclusion disjunct not satisfied; geometry outside "
                               f"the standing hypotheses ({reason})")


def test_einstein_flat_psi0_nonzero_lambda_not_soliton():
    spec = flat_psi0()
    problem = SolitonProblem(SolitonKind.EINSTEIN, rat(1), zero_jet())
    verdict = residual(spec, problem)
    assert not verdict.is_soliton
    assert verdict.residual == spec.metric.g


@settings(max_examples=30, deadline=None)
@given(geometries(), st.lists(small_rats, min_size=3, max_size=3))
def test_hat_hessian_symmetric_for_consistent_jets(spec, d_comps):
    # Build a consistent jet: choose d freely, take the symmetric part of dd
    # freely (zero here) and set the antisymmetric part from the brackets.
    d = Tensor.covector([rat(str(x)) for x in d_comps])
    c = spec.frame.c

    def dd_entry(i, j):
        total = rat(0)
        for k in range(DIM):
            total = total + c[k, i, j] * d[k]
        return total * rat(1, 2)

    jet = ScalarJet(d, Tensor.build((DOWN, DOWN), DIM, dd_entry))
    assert is_symmetric(hat_hessian(jet, spec))


@settings(max_examples=30, deadline=None)
@given(geometries(), st.sampled_from(list(SolitonKind)), small_rats, small_rats)
def test_residual_linear_in_lambda(spec, kind, l1, l2):
    m = 3 if kind is SolitonKind.M_QUASI else None
    jet = zero_jet()
    r1 = residual(spec, SolitonProblem(kind, rat(str(l1)), jet, m)).residual
    r2 = residual(spec, SolitonProblem(kind, rat(str(l2)), jet, m)).residual
    delta = rat(str(Fraction(l1) - Fraction(l2)))
    sign = rat(-1) if kind is SolitonKind.M_QUASI else rat(1)
    assert r1 - r2 == spec.metric.g.scale(delta * sign)


@settings(max_examples=30, deadline=None)
@given(geometries(), st.lists(small_rats, min_size=3, max_size=3),
       st.integers(1, 5), st.integers(1, 5))
def test_m_quasi_residual_m_dependence(spec, d_comps, m1, m2):
    d = Tensor.covector([rat(str(x)) for x in d_comps])
    c = spec.frame.c
    jet = ScalarJet(d, Tensor.build(
        (DOWN, DOWN), DIM,
        lambda i, j: sum((c[k, i, j] * d[k] for k in range(DIM)), rat(0)) * rat(1, 2)))
    r1 = residual(spec, SolitonProblem(SolitonKind.M_QUASI, rat(1), jet, m1)).residual
    r2 = residual(spec, SolitonProblem(SolitonKind.M_QUASI, rat(1), jet, m2)).residual
    dd = jet.d.tensor_product(jet.d)
    assert r1 - r2 == dd.scale(rat(1, m2) - rat(1, m1))


@settings(max_examples=20, deadline=None)
@given(geometries(identity_metric=True, unit_e3_xi=False))
def test_psi_zero_reduces_to_classical(spec):
    # Replace xi by zero: every hatted object coincides with the metric one.
    from sscurv import (DistinguishedField, GeometrySpec, curvature, ssnmc)
    zero_xi = DistinguishedField.from_xi(Tensor.vector([0, 0, 0]), spec.metric)
    spec0 = GeometrySpec(spec.name, spec.frame, spec.metric, zero_xi)
    lc = levi_civita(spec0.frame, spec0.metric)
    hat = ssnmc(lc, spec0.distinguished)
    assert hat.gamma == lc.gamma
    bl = curvature(lc, spec0.frame, spec0.metric)
    bh = curvature(hat, spec0.frame, spec0.metric)
    assert bl.riemann == bh.riemann and bl.ricci == bh.ricci
    jet = zero_jet()
    for kind in SolitonKind:
        m = 2 if kind is SolitonKind.M_QUASI else None
        res = residual(spec0, SolitonProblem(kind, rat(1, 2), jet, m)).residual
        h = hat_hessian(jet, spec0)
        if kind is SolitonKind.RICCI:
            expected = h + bl.ricci + spec0.metric.g.scale(rat(1, 2))
        elif kind is SolitonKind.YAMABE:
            expected = h - spec0.metric.g.scale(bl.scalar - rat(1, 2))
        elif kind is SolitonKind.EINSTEIN:
            expected = (bl.ricci - spec0.metric.g.scale(bl.scalar * rat(1, 2))
                        + h + spec0.metric.g.scale(rat(1, 2)))
        else:
            expected = bl.ricci - spec0.metric.g.scale(rat(1, 2)) + h
        assert res == expected


def test_proof_step_probes_builds_levi_civita_once(monkeypatch):
    # residual, the conclusion checks and the proof steps of one call share
    # one context: a genuine soliton reaches all three.
    import sscurv.connection
    import sscurv.geometry
    builds = count_calls(monkeypatch, sscurv.connection, "levi_civita")
    validations = count_calls(monkeypatch, sscurv.geometry, "validate")
    spec = builtin("h2xr")
    problem = SolitonProblem(SolitonKind.YAMABE, rat(0), zero_jet())
    steps = proof_step_probes(spec, problem)
    assert [r.status for r in steps] == [ProbeStatus.PASS]
    assert (len(builds), len(validations)) == (1, 1)

    # Every call of a soliton command on one spec object shares its context.
    builds.clear()
    validations.clear()
    spec = builtin("h2xr")
    verdict = residual(spec, problem)
    steps = proof_step_probes(spec, problem)
    doc = build_report(spec, solitons=[verdict_to_dict(problem, verdict, steps)])
    assert doc["solitons"][0]["proof_steps"][0]["status"] == "pass"
    assert (len(builds), len(validations)) == (1, 1)


def test_report_and_soliton_checks_on_one_spec_build_once(monkeypatch):
    # A suite report, then the residual and proof steps of four problems, on
    # one spec object: one validation, one Levi-Civita connection, one
    # curvature and one constant-sectional verdict per connection, as in the
    # general-metric benchmark operation; the Yamabe problem is a genuine
    # soliton (r-hat = 0), so its conclusion checks read kappa too.
    import importlib
    import sscurv.connection
    import sscurv.geometry
    curvature_module = importlib.import_module("sscurv.curvature")
    validations = count_calls(monkeypatch, sscurv.geometry, "validate")
    builds = count_calls(monkeypatch, sscurv.connection, "levi_civita")
    bundles = count_calls(monkeypatch, curvature_module, "curvature")
    kappas = count_calls(monkeypatch, curvature_module, "constant_sectional")
    spec = builtin("h2xr")
    run_suite(spec, "all")
    genuine = []
    for kind in SolitonKind:
        m = 2 if kind is SolitonKind.M_QUASI else None
        problem = SolitonProblem(kind, rat(0), zero_jet(), m)
        genuine.append(residual(spec, problem).is_soliton)
        proof_step_probes(spec, problem)
    assert genuine[list(SolitonKind).index(SolitonKind.YAMABE)]
    assert (len(validations), len(builds), len(bundles), len(kappas)) == (1, 1, 2, 2)


def test_proof_steps_reuse_the_residual_of_the_same_problem(monkeypatch):
    # The context keeps the residual of the last problem object, matched by
    # identity: residual then proof_step_probes computes it once, an equal
    # but distinct problem or another spec computes it afresh.
    import sscurv.solitons
    kernel = count_calls(monkeypatch, sscurv.solitons, "_residual_tensor")
    spec = builtin("h2xr")
    problem = SolitonProblem(SolitonKind.YAMABE, rat(0), zero_jet())
    verdict = residual(spec, problem)
    steps = proof_step_probes(spec, problem)
    assert verdict.is_soliton and [r.status for r in steps] == [ProbeStatus.PASS]
    assert len(kernel) == 1

    twin = SolitonProblem(SolitonKind.YAMABE, rat(0), zero_jet())
    assert twin == problem and twin is not problem
    assert proof_step_probes(spec, twin) == steps
    assert len(kernel) == 2

    other = builtin("h2xr")
    assert residual(other, twin) == verdict
    assert len(kernel) == 3

    # A kept residual answers only for its own problem, never another kind.
    ricci = SolitonProblem(SolitonKind.RICCI, rat(0), zero_jet())
    assert residual(other, ricci).residual != verdict.residual
    assert len(kernel) == 4


def test_proof_steps_on_an_invalid_spec_still_raise():
    from sscurv import GeometryError
    # [e1,e2] = e3 with [e1,e3] = e1 breaks Jacobi.
    spec = make_spec("bad", {(2, 0, 1): 1, (0, 0, 2): 1})
    problem = SolitonProblem(SolitonKind.YAMABE, rat(0), zero_jet())
    for _ in range(2):  # a failed check keeps no residual to answer with
        with pytest.raises(GeometryError):
            proof_step_probes(spec, problem)
    with pytest.raises(GeometryError):
        residual(spec, problem)
