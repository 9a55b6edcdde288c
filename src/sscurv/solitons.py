"""Gradient-soliton residuals, proof-step probes, and conclusion checks.

A geometry plus a scalar 2-jet and a constant lambda makes a candidate
soliton; the residual of the defining equation is computed exactly with all
hatted quantities contracted from the semi-symmetric non-metric connection.
The hat Hessian follows the vector-gradient convention

    Hhat_ij = dd_ij - Gamma^k_ij d_k + (xi f) g_ij,

which is symmetric for every consistent jet. Each public function takes a
GeometrySpec and works in its shared context.ProbeContext, so a residual,
its proof steps and a report on one spec object validate and build once.
"""

from __future__ import annotations

import enum

from .context import ProbeContext, ProbeResult, ProbeStatus, judge, operator_derivative
from .curvature import constant_sectional
from .errors import InvalidJetError, SscurvError
from .geometry import (DistinguishedField, GeometrySpec, ScalarJet, gradient,
                       jet_consistency_violations)
from .rat import ZERO, Rat, rat
from .record import Record
from .tensor import DOWN, Tensor


class SolitonKind(enum.Enum):
    RICCI = "ricci"
    YAMABE = "yamabe"
    EINSTEIN = "einstein"
    M_QUASI = "mquasi"


def classify(lam: Rat) -> str:
    """Sign of the soliton constant; the cataloged convention of every kind."""
    if lam < 0:
        return "shrinking"
    if lam == 0:
        return "steady"
    return "expanding"


class SolitonProblem(Record):
    def __init__(self, kind: SolitonKind, lam: Rat, jet: ScalarJet, m: int | None = None):
        fields = self.__dict__
        fields["kind"] = kind
        fields["lam"] = lam
        fields["jet"] = jet
        fields["m"] = m
        if kind is SolitonKind.M_QUASI:
            if m is None or m == 0:
                raise SscurvError("the m-quasi kind needs a nonzero integer m")
        elif m is not None:
            raise SscurvError(f"m is only meaningful for the m-quasi kind, got m={m}")


class NamedCheck(Record):
    def __init__(self, name: str, holds: bool, note: str = ""):
        fields = self.__dict__
        fields["name"] = name
        fields["holds"] = holds
        fields["note"] = note


class SolitonVerdict(Record):
    def __init__(self, residual: Tensor, is_soliton: bool, classification: str,
                 conclusion_checks: tuple[NamedCheck, ...]):
        fields = self.__dict__
        fields["residual"] = residual
        fields["is_soliton"] = is_soliton
        fields["classification"] = classification
        fields["conclusion_checks"] = conclusion_checks


def xi_derivative(jet: ScalarJet, dist: DistinguishedField) -> Rat:
    """xi f = d_k xi^k."""
    return jet.d.contract_with(0, dist.xi)[()]


def hat_hessian(jet: ScalarJet, spec: GeometrySpec) -> Tensor:
    """Hessian of the jet with respect to the hat connection.

    This is the vector-gradient form g(nablahat_U Df, V), equal to the
    metric Hessian plus (xi f) g and symmetric. A jet that breaks the
    bracket constraint raises InvalidJetError naming its first violation.
    """
    bad = jet_consistency_violations(jet, spec.frame)
    if bad:
        raise InvalidJetError(f"dd_ij - dd_ji != C^k_ij d_k at (i, j) = {bad[0]}")
    # Hess_ij = dd_ij - Gamma^k_ij d_k, plus (xi f) g_ij.
    hess = jet.dd - ProbeContext.of(spec).lc.gamma.contract_with(0, jet.d)
    return hess + spec.metric.g.scale(xi_derivative(jet, spec.distinguished))


def _residual_tensor(ctx: ProbeContext, problem: SolitonProblem) -> Tensor:
    """The residual of the soliton equation on a context that must be valid."""
    ctx.require_valid()
    g, bundle, lam, jet = ctx.spec.metric.g, ctx.hat_bundle, problem.lam, problem.jet
    hess = hat_hessian(jet, ctx.spec)
    if problem.kind is SolitonKind.RICCI:
        return hess + bundle.ricci + g.scale(lam)
    if problem.kind is SolitonKind.YAMABE:
        return hess - g.scale(bundle.scalar - lam)
    if problem.kind is SolitonKind.EINSTEIN:
        return bundle.ricci - g.scale(bundle.scalar * rat(1, 2)) + hess + g.scale(lam)
    if problem.kind is SolitonKind.M_QUASI:
        df_df = jet.d.tensor_product(jet.d)
        return bundle.ricci - g.scale(lam) + hess - df_df.scale(rat(1, problem.m))
    raise SscurvError(f"unknown soliton kind {problem.kind!r}")


def residual(spec: GeometrySpec, problem: SolitonProblem) -> SolitonVerdict:
    """Exact residual of the soliton equation on a valid spec, with
    classification and, when the equation holds, the conclusion checks."""
    res = _residual_tensor(ProbeContext.of(spec), problem)
    is_soliton = res.is_zero()
    checks = conclusion_check(spec, problem) if is_soliton else ()
    return SolitonVerdict(res, is_soliton, classify(problem.lam), tuple(checks))


def _hypothesis_failures(ctx: ProbeContext) -> list[str]:
    reasons = []
    if ctx.validation.degenerate_xi:
        reasons.append("psi = 0")
    if not ctx.validation.unit_xi:
        reasons.append("xi not unit")
    if not ctx.parallel:
        reasons.append("xi not parallel")
    if ctx.spec.dim != 3:
        reasons.append(f"dim {ctx.spec.dim} != 3")
    return reasons


def conclusion_check(spec: GeometrySpec, problem: SolitonProblem) -> list[NamedCheck]:
    """Evaluate the cataloged conclusion disjunction on a spec.

    When the disjunction fails on a geometry that violates the standing
    unit-parallel-xi and dim-3 hypotheses, the failure is annotated as out
    of scope rather than treated as a counterexample.
    """
    ctx = ProbeContext.of(spec)
    bundle = ctx.hat_bundle
    kappa = constant_sectional(bundle, spec.metric)
    rhat = bundle.scalar
    trivial = problem.jet.is_zero

    sectional_check = NamedCheck("constant-sectional-curvature", kappa is not None,
                                 "" if kappa is None else f"kappa = {kappa}")
    checks: list[NamedCheck] = []
    if problem.kind is SolitonKind.RICCI:
        checks.append(sectional_check)
        checks.append(NamedCheck("potential-constant", trivial))
        holds = kappa is not None and trivial
    elif problem.kind is SolitonKind.YAMABE:
        checks.append(NamedCheck("constant-scalar-curvature", rhat == 2,
                                 f"r-hat = {rhat}"))
        checks.append(NamedCheck("trivial", trivial))
        holds = rhat == 2 or trivial
    elif problem.kind is SolitonKind.EINSTEIN:
        checks.append(NamedCheck("constant-scalar-curvature", rhat == 0,
                                 f"r-hat = {rhat}"))
        checks.append(sectional_check)
        holds = rhat == 0 or kappa is not None
    else:
        expanding = problem.lam == problem.m + 2
        side = 2 * problem.m + rhat - 2 * problem.lam + 2
        checks.append(NamedCheck("expanding-lambda", expanding,
                                 f"lambda = {problem.lam}, m + 2 = {problem.m + 2}"))
        checks.append(sectional_check)
        checks.append(NamedCheck("side-condition-nonzero", side != 0,
                                 f"2m + r-hat - 2 lambda + 2 = {side}"))
        holds = expanding or kappa is not None

    note = ""
    if not holds:
        reasons = _hypothesis_failures(ctx)
        if reasons:
            note = ("conclusion disjunct not satisfied; geometry outside the "
                    f"standing hypotheses ({', '.join(reasons)})")
    checks.append(NamedCheck("conclusion", holds, note))
    return checks


PROOF_STEP_IDS: dict[SolitonKind, tuple[str, ...]] = {
    SolitonKind.RICCI: ("C4",),
    SolitonKind.YAMABE: ("Y44",),
    SolitonKind.EINSTEIN: ("E54",),
    SolitonKind.M_QUASI: ("M61", "M68"),
}

_CONTRACTION_NOTE = ("directional derivatives of the hat scalar curvature vanish "
                     "on a homogeneous frame")


def proof_step_probes(spec: GeometrySpec, problem: SolitonProblem) -> list[ProbeResult]:
    """Check the proof-step identities that follow from the soliton equation,
    on a valid spec."""
    ids = PROOF_STEP_IDS[problem.kind]
    ctx = ProbeContext.of(spec)
    if not _residual_tensor(ctx, problem).is_zero():
        return [ProbeResult(pid, ProbeStatus.SKIPPED, None, None, ZERO,
                            note="hypothesis: soliton equation not satisfied")
                for pid in ids]

    bundle = ctx.hat_bundle
    df = gradient(problem.jet, spec.metric)
    if problem.kind is not SolitonKind.M_QUASI:
        # C4, Y44 and E54 are one identity: hat S(Df) = 0.
        lhs = bundle.ricci.contract_with(1, df)
        return [judge(ids[0], lhs, Tensor.zeros((DOWN,), spec.dim), _CONTRACTION_NOTE)]
    rhs = _m61_rhs(bundle.ricci_op, ctx.hat.gamma, problem.jet.d, problem.lam, problem.m)
    xf = xi_derivative(problem.jet, spec.distinguished)
    coeff = 2 * problem.m + bundle.scalar - 2 * problem.lam + 2
    return [judge("M61", bundle.riemann.contract_with(1, df), rhs),
            judge("M68", coeff * xf, ZERO, f"coefficient 2m + r-hat - 2 lambda + 2 = {coeff}")]


def _m61_rhs(qhat: Tensor, gam: Tensor, d: Tensor, lam: Rat, m: int) -> Tensor:
    """The M61 right side at [l, i, j], from Qhat, Gamma-hat and d:

    ((nabla_j Qhat) e_i - (nabla_i Qhat) e_j)^l + (lambda/m)(d_j delta^l_i - d_i delta^l_j)
    + (1/m)(d_i Qhat^l_j - d_j Qhat^l_i)
    """
    shift = (Tensor.delta(d.dim).scale(lam) - qhat).tensor_product(d).scale(rat(1, m))
    w = operator_derivative(qhat, gam) + shift
    return w - w.permute((0, 2, 1))
