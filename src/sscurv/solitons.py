"""Gradient-soliton residuals, proof-step probes, and conclusion checks.

A geometry plus a scalar 2-jet and a constant lambda makes a candidate
soliton; the residual of the defining equation is computed exactly with all
hatted quantities contracted from the semi-symmetric non-metric connection.
The hat Hessian follows the vector-gradient convention

    Hhat_ij = dd_ij - Gamma^k_ij d_k + (xi f) g_ij,

which is symmetric for every consistent jet; the one-form convention
(which differs under non-metricity) is available behind a diagnostic flag.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .connection import Connection, ConnectionKind
from .curvature import constant_sectional
from .errors import GeometryError, InvalidJetError, SscurvError, ValenceError
from .geometry import DistinguishedField, GeometrySpec, MetricFrame, ScalarJet, gradient
from .probes import ProbeContext, ProbeResult, ProbeStatus, deviation, operator_derivative
from .rat import ZERO, Rat, rat
from .tensor import DOWN, UP, Tensor


class SolitonKind(enum.Enum):
    RICCI = "ricci"
    YAMABE = "yamabe"
    EINSTEIN = "einstein"
    M_QUASI = "mquasi"


# Sign conventions for the constant lambda, kept in one table rather than
# inline. Ricci uses its own cataloged sentence; the other kinds reuse the
# m-quasi one. Both sentences give the same mapping.
CLASSIFICATION_CONVENTIONS: dict[SolitonKind, dict[str, str]] = {
    SolitonKind.RICCI: {
        "negative": "shrinking", "zero": "steady", "positive": "expanding",
        "note": "ricci convention",
    },
    SolitonKind.YAMABE: {
        "negative": "shrinking", "zero": "steady", "positive": "expanding",
        "note": "reuses the m-quasi sign convention",
    },
    SolitonKind.EINSTEIN: {
        "negative": "shrinking", "zero": "steady", "positive": "expanding",
        "note": "reuses the m-quasi sign convention",
    },
    SolitonKind.M_QUASI: {
        "negative": "shrinking", "zero": "steady", "positive": "expanding",
        "note": "m-quasi convention",
    },
}


def classify(kind: SolitonKind, lam: Rat) -> str:
    table = CLASSIFICATION_CONVENTIONS[kind]
    if lam < 0:
        return table["negative"]
    if lam == 0:
        return table["zero"]
    return table["positive"]


@dataclass(frozen=True)
class SolitonProblem:
    kind: SolitonKind
    lam: Rat
    jet: ScalarJet
    m: int | None = None

    def __post_init__(self):
        if self.kind is SolitonKind.M_QUASI:
            if self.m is None or self.m == 0:
                raise SscurvError("the m-quasi kind needs a nonzero integer m")
        elif self.m is not None:
            raise SscurvError(f"m is only meaningful for the m-quasi kind, got m={self.m}")


@dataclass(frozen=True)
class NamedCheck:
    name: str
    holds: bool
    note: str = ""


@dataclass(frozen=True)
class SolitonVerdict:
    residual: Tensor
    is_soliton: bool
    classification: str
    conclusion_checks: tuple[NamedCheck, ...]


def _check_jet(jet: ScalarJet, lc: Connection):
    # LC torsion-freeness makes Gamma^k_ij - Gamma^k_ji = C^k_ij, so the
    # bracket-commutator constraint can be checked from the connection alone.
    # Both sides change sign under i <-> j and vanish for i = j, so the first
    # violating (i, j) in row-major order has i < j.
    n = lc.dim
    if jet.dim != n:
        raise ValenceError(f"jet dimension {jet.dim} != connection dimension {n}")
    gam, d, dd = lc.gamma.comps, jet.d.comps, jet.dd.comps
    nn = n * n
    for i in range(n):
        for j in range(i + 1, n):
            bracket = ZERO
            for k in range(n):
                if d[k]:
                    a = gam[k * nn + i * n + j] - gam[k * nn + j * n + i]
                    if a:
                        bracket = bracket + a * d[k]
            if dd[i * n + j] - dd[j * n + i] != bracket:
                raise InvalidJetError(
                    f"dd_ij - dd_ji != C^k_ij d_k at (i, j) = ({i + 1}, {j + 1})")


def xi_derivative(jet: ScalarJet, dist: DistinguishedField) -> Rat:
    """xi f = d_k xi^k."""
    d, xi = jet.d.comps, dist.xi.comps
    total = ZERO
    for k in range(jet.dim):
        if d[k] and xi[k]:
            total = total + d[k] * xi[k]
    return total


def hat_hessian(jet: ScalarJet, lc: Connection, dist: DistinguishedField,
                metric: MetricFrame, *, one_form: bool = False) -> Tensor:
    """Hessian of the jet with respect to the hat connection.

    Default is the vector-gradient form g(nablahat_U Df, V), equal to the
    metric Hessian plus (xi f) g and symmetric. With one_form=True the
    covariant derivative of df is returned instead, Hess_ij - psi_j d_i,
    which is generally asymmetric under non-metricity.
    """
    if lc.kind is not ConnectionKind.LEVI_CIVITA:
        raise SscurvError("hat_hessian builds on the Levi-Civita coefficients")
    _check_jet(jet, lc)
    n = lc.dim
    nn = n * n
    gam, d = lc.gamma.comps, jet.d.comps
    hess = list(jet.dd.comps)  # Hess_ij = dd_ij - Gamma^k_ij d_k
    for k in range(n):
        if d[k]:
            for ij in range(nn):
                a = gam[k * nn + ij]
                if a:
                    hess[ij] -= a * d[k]
    if one_form:
        psi = dist.psi.comps
        for i in range(n):
            if d[i]:
                for j in range(n):
                    if psi[j]:
                        hess[i * n + j] -= psi[j] * d[i]
    else:
        xf = xi_derivative(jet, dist)
        if xf:
            g = metric.g.comps
            for ij in range(nn):
                if g[ij]:
                    hess[ij] += xf * g[ij]
    return Tensor((DOWN, DOWN), n, hess)


def _residual_tensor(kind: SolitonKind, hess: Tensor, ricci_hat: Tensor,
                     scalar_hat: Rat, metric: MetricFrame, lam: Rat,
                     m: int | None, jet: ScalarJet) -> Tensor:
    g = metric.g
    if kind is SolitonKind.RICCI:
        return hess + ricci_hat + g.scale(lam)
    if kind is SolitonKind.YAMABE:
        return hess - g.scale(scalar_hat - lam)
    if kind is SolitonKind.EINSTEIN:
        return ricci_hat - g.scale(scalar_hat * rat(1, 2)) + hess + g.scale(lam)
    if kind is SolitonKind.M_QUASI:
        df_df = jet.d.tensor_product(jet.d)
        return ricci_hat - g.scale(lam) + hess - df_df.scale(rat(1, m))
    raise SscurvError(f"unknown soliton kind {kind!r}")


def _validated_context(spec: GeometrySpec) -> ProbeContext:
    ctx = ProbeContext(spec)
    if not ctx.validation.ok:
        failed = ", ".join(c.name for c in ctx.validation.checks if not c.passed)
        raise GeometryError(f"geometry fails structural validation: {failed}")
    return ctx


def residual(spec: GeometrySpec, problem: SolitonProblem) -> SolitonVerdict:
    """Exact residual of the soliton equation, with classification and,
    when the equation holds, the conclusion checks."""
    return _residual(_validated_context(spec), problem)


def _residual(ctx: ProbeContext, problem: SolitonProblem) -> SolitonVerdict:
    spec, bundle = ctx.spec, ctx.hat_bundle
    hess = hat_hessian(problem.jet, ctx.lc, spec.distinguished, spec.metric)
    res = _residual_tensor(problem.kind, hess, bundle.ricci, bundle.scalar,
                           spec.metric, problem.lam, problem.m, problem.jet)
    is_soliton = res.is_zero()
    checks = _conclusion_check(ctx, problem) if is_soliton else ()
    return SolitonVerdict(res, is_soliton, classify(problem.kind, problem.lam),
                          tuple(checks))


def _hypothesis_failures(ctx: ProbeContext) -> list[str]:
    reasons = []
    if ctx.spec.distinguished.is_zero:
        reasons.append("psi = 0")
    if not ctx.spec.distinguished.is_unit:
        reasons.append("xi not unit")
    if not ctx.parallel:
        reasons.append("xi not parallel")
    return reasons


def conclusion_check(spec: GeometrySpec, problem: SolitonProblem) -> list[NamedCheck]:
    """Evaluate the cataloged conclusion disjunction for the soliton kind.

    When the disjunction fails on a geometry that violates the standing
    unit-parallel-xi hypotheses, the failure is annotated as out of scope
    rather than treated as a counterexample.
    """
    return _conclusion_check(ProbeContext(spec), problem)


def _conclusion_check(ctx: ProbeContext, problem: SolitonProblem) -> list[NamedCheck]:
    bundle = ctx.hat_bundle
    kappa = constant_sectional(bundle, ctx.spec.metric)
    rhat = bundle.scalar
    trivial = problem.jet.is_zero

    checks: list[NamedCheck] = []
    if problem.kind is SolitonKind.RICCI:
        checks.append(NamedCheck("constant-sectional-curvature", kappa is not None,
                                 "" if kappa is None else f"kappa = {kappa}"))
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
        checks.append(NamedCheck("constant-sectional-curvature", kappa is not None,
                                 "" if kappa is None else f"kappa = {kappa}"))
        holds = rhat == 0 or kappa is not None
    else:
        expanding = problem.lam == problem.m + 2
        side = 2 * problem.m + rhat - 2 * problem.lam + 2
        checks.append(NamedCheck("expanding-lambda", expanding,
                                 f"lambda = {problem.lam}, m + 2 = {problem.m + 2}"))
        checks.append(NamedCheck("constant-sectional-curvature", kappa is not None,
                                 "" if kappa is None else f"kappa = {kappa}"))
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
    """Check the proof-step identities that follow from the soliton equation."""
    ids = PROOF_STEP_IDS[problem.kind]
    ctx = _validated_context(spec)
    verdict = _residual(ctx, problem)
    if not verdict.is_soliton:
        return [ProbeResult(pid, ProbeStatus.SKIPPED, None, None, ZERO,
                            note="hypothesis: soliton equation not satisfied")
                for pid in ids]

    bundle = ctx.hat_bundle
    df = gradient(problem.jet, spec.metric)
    n = spec.dim
    results = []

    def finish(pid, lhs, rhs, note=""):
        dev = deviation(lhs, rhs)
        status = ProbeStatus.PASS if dev == 0 else ProbeStatus.FAIL
        results.append(ProbeResult(pid, status, lhs, rhs, dev, note=note))

    for pid in ids:
        if pid in ("C4", "Y44", "E54"):
            lhs = bundle.ricci.contract_with(1, df)
            finish(pid, lhs, Tensor.zeros((DOWN,), n), note=_CONTRACTION_NOTE)
        elif pid == "M61":
            lhs = bundle.riemann.contract_with(1, df)
            rhs = _m61_rhs(bundle.ricci_op.comps, ctx.hat.gamma.comps, problem.jet.d.comps,
                           problem.lam, problem.m, n)
            finish(pid, lhs, Tensor((UP, DOWN, DOWN), n, rhs))
        elif pid == "M68":
            xf = xi_derivative(problem.jet, spec.distinguished)
            coeff = 2 * problem.m + bundle.scalar - 2 * problem.lam + 2
            finish(pid, coeff * xf, ZERO,
                   note=f"coefficient 2m + r-hat - 2 lambda + 2 = {coeff}")
    return results


def _m61_rhs(qhat, gam, d, lam: Rat, m: int, n: int) -> list:
    """Flat (l, i, j) components of the M61 right side, from flat Qhat, Gamma-hat, d.

    ((nabla_j Qhat) e_i - (nabla_i Qhat) e_j)^l + (lambda/m)(d_j delta^l_i - d_i delta^l_j)
    + (1/m)(d_i Qhat^l_j - d_j Qhat^l_i)
    """
    nn = n * n
    cov = operator_derivative(qhat, gam, n)
    inv_m = rat(1, m)
    lam_m = lam * inv_m
    rhs = []
    for l in range(n):
        for i in range(n):
            for j in range(n):
                total = cov[l * nn + i * n + j] - cov[l * nn + j * n + i]
                if l == i and d[j]:
                    total = total + lam_m * d[j]
                if l == j and d[i]:
                    total = total - lam_m * d[i]
                if d[i] and qhat[l * n + j]:
                    total = total + inv_m * d[i] * qhat[l * n + j]
                if d[j] and qhat[l * n + i]:
                    total = total - inv_m * d[j] * qhat[l * n + i]
                rhs.append(total)
    return rhs
