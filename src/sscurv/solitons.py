"""Gradient-soliton residuals, proof-step probes, and conclusion checks.

A geometry plus a scalar 2-jet and a constant lambda makes a candidate
soliton; the residual of the defining equation is computed exactly with all
hatted quantities contracted from the semi-symmetric non-metric connection.
The hat Hessian follows the vector-gradient convention

    Hhat_ij = dd_ij - Gamma^k_ij d_k + (xi f) g_ij,

which is symmetric for every consistent jet. hat_hessian checks the jet
first, then sums all three terms in one integer pass over one common
denominator, and the residual adds a Ric-hat + s g + b d (x) d to that
Hessian in one more pass, the kind choosing a, s and b; both passes are
sums stated in index notation to tensor._index_plan. A SolitonProblem
refuses a lambda that is not an int or a Rat, and an m that is not a
nonzero int.
Each public function takes a GeometrySpec and works in its shared
context.ProbeContext, so a residual, its proof steps and a report on one
spec object validate and build once.
The context also keeps the residual of the last problem object asked about,
so proof_step_probes after residual on the same problem reuses it.
"""

from __future__ import annotations

import enum
from math import lcm
from operator import mul

from .context import ProbeContext, ProbeResult, ProbeStatus, judge, operator_derivative
from .errors import InvalidJetError, SscurvError
from .geometry import (DistinguishedField, GeometrySpec, ScalarJet, gradient,
                       jet_consistency_violations)
from .rat import ZERO, Rat, format_rat, rat
from .record import Record
from .tensor import DOWN, Tensor, _index_plan


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
        if not isinstance(lam, (int, Rat)) or isinstance(lam, bool):
            raise SscurvError(f"lambda must be an int or a Rat, got lam={lam!r}")
        if kind is SolitonKind.M_QUASI:
            if not isinstance(m, int) or isinstance(m, bool) or m == 0:
                raise SscurvError(f"the m-quasi kind needs a nonzero integer m, got m={m!r}")
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
    # Hess_ij = dd_ij - Gamma^k_ij d_k + (xi f) g_ij over D, the lcm of the
    # three terms' denominators: dh, dG de and de dx dg.
    gamma, g, xi = ProbeContext.of(spec).lc.gamma, spec.metric.g, spec.distinguished.xi
    d, de = jet.d.nums, jet.d.den
    dh, dgd, dxg = jet.dd.den, gamma.den * de, de * xi.den * g.den
    den = lcm(dh, dgd, dxg)
    scale = den // dgd
    y = (den // dh, sum(map(mul, d, xi.nums)) * (den // dxg), *[-x * scale for x in d])
    # x is dd, Gamma and g; y is their scales, (xi f) on g's, and -d_k on Gamma's.
    n = spec.dim
    n2 = n * n
    nums = _index_plan(n, "ij", (("ij", (0, "")), ((n2 + n ** 3, "ij"), (1, "")),
                                 ((n2, "kij"), (2, "k"))))(jet.dd.nums + gamma.nums + g.nums, y)
    return Tensor.from_ints((DOWN, DOWN), n, nums, den)


def _kept_residual(ctx: ProbeContext, problem: SolitonProblem) -> Tensor:
    """The residual of problem on a context that must be valid, computed once
    per problem object: the context keeps the last one, matched by identity."""
    ctx.require_valid()
    kept = ctx.last_residual  # read once, as ProbeContext.of reads its context
    if kept is None or kept[0] is not problem:
        kept = ctx.last_residual = (problem, _residual_tensor(ctx, problem))
    return kept[1]


def _residual_tensor(ctx: ProbeContext, problem: SolitonProblem) -> Tensor:
    """The residual of the soliton equation on a valid context."""
    jet, lam = problem.jet, problem.lam
    hess = hat_hessian(jet, ctx.spec)  # first: it refuses an inconsistent jet
    g, bundle = ctx.spec.metric.g, ctx.hat_bundle
    # The residual is hess + a Ric-hat + s g + b d (x) d, with a 0 or 1 and
    # s = sp / sq and b = bp / bq as integer pairs (sq, bq > 0), not reduced.
    lp, lq = lam.numerator, lam.denominator
    rp, rq = bundle.scalar.numerator, bundle.scalar.denominator
    a, bp, bq = 1, 0, 1
    if problem.kind is SolitonKind.RICCI:
        sp, sq = lp, lq
    elif problem.kind is SolitonKind.YAMABE:
        a, sp, sq = 0, lp * rq - rp * lq, lq * rq
    elif problem.kind is SolitonKind.EINSTEIN:
        sp, sq = 2 * lp * rq - rp * lq, 2 * lq * rq
    elif problem.kind is SolitonKind.M_QUASI:
        sp, sq, bp, bq = -lp, lq, -1 if problem.m > 0 else 1, abs(problem.m)
    else:
        raise SscurvError(f"unknown soliton kind {problem.kind!r}")
    ricci, d = bundle.ricci, jet.d
    dg, dd = sq * g.den, bq * d.den * d.den
    den = lcm(hess.den, dg, dd, ricci.den if a else 1)
    y = (den // hess.den, a * (den // ricci.den), sp * (den // dg),
         *[x * bp * (den // dd) for x in d.nums])
    # x is hess, Ric-hat, g and d; y is their scales, then d_j times d (x) d's.
    n = g.dim
    n2 = n * n
    nums = _index_plan(n, "ij", (("ij", (0, "")), ((n2, "ij"), (1, "")),
                                 ((2 * n2, "ij"), (2, "")), ((3 * n2, "i"), (3, "j"))))(
        hess.nums + ricci.nums + g.nums + d.nums, y)
    return Tensor.from_ints((DOWN, DOWN), n, nums, den)


def residual(spec: GeometrySpec, problem: SolitonProblem) -> SolitonVerdict:
    """Exact residual of the soliton equation on a valid spec, with
    classification and, when the equation holds, the conclusion checks."""
    res = _kept_residual(ProbeContext.of(spec), problem)
    is_soliton = res.is_zero()
    checks = conclusion_check(spec, problem) if is_soliton else ()
    return SolitonVerdict(res, is_soliton, classify(problem.lam), tuple(checks))


def conclusion_check(spec: GeometrySpec, problem: SolitonProblem) -> list[NamedCheck]:
    """Evaluate the cataloged conclusion disjunction on a spec.

    When the disjunction fails on a geometry outside the paper's class, the
    failure is annotated as out of scope rather than treated as a
    counterexample, naming the reasons of each hypothesis in ProbeContext.unmet.
    """
    ctx = ProbeContext.of(spec)
    kappa, rhat = ctx.kappa_hat, ctx.hat_bundle.scalar
    trivial = problem.jet.is_zero

    sectional_check = NamedCheck("constant-sectional-curvature", kappa is not None,
                                 "" if kappa is None else f"kappa = {format_rat(kappa)}")
    checks: list[NamedCheck] = []
    if problem.kind is SolitonKind.RICCI:
        checks.append(sectional_check)
        checks.append(NamedCheck("potential-constant", trivial))
        holds = kappa is not None and trivial
    elif problem.kind is SolitonKind.YAMABE:
        checks.append(NamedCheck("constant-scalar-curvature", rhat == 2,
                                 f"r-hat = {format_rat(rhat)}"))
        checks.append(NamedCheck("trivial", trivial))
        holds = rhat == 2 or trivial
    elif problem.kind is SolitonKind.EINSTEIN:
        checks.append(NamedCheck("constant-scalar-curvature", rhat == 0,
                                 f"r-hat = {format_rat(rhat)}"))
        checks.append(sectional_check)
        holds = rhat == 0 or kappa is not None
    else:
        expanding = problem.lam == problem.m + 2
        side = 2 * problem.m + rhat - 2 * problem.lam + 2
        checks.append(NamedCheck("expanding-lambda", expanding,
                                 f"lambda = {format_rat(problem.lam)}, "
                                 f"m + 2 = {format_rat(problem.m + 2)}"))
        checks.append(sectional_check)
        checks.append(NamedCheck("side-condition-nonzero", side != 0,
                                 f"2m + r-hat - 2 lambda + 2 = {format_rat(side)}"))
        holds = expanding or kappa is not None

    note = ""
    if not holds and ctx.unmet:
        reasons = [r for _, hyp_reasons in ctx.unmet.values() for r in hyp_reasons]
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
    if not _kept_residual(ctx, problem).is_zero():
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
            judge("M68", coeff * xf, ZERO,
                  f"coefficient 2m + r-hat - 2 lambda + 2 = {format_rat(coeff)}")]


def _m61_rhs(qhat: Tensor, gam: Tensor, d: Tensor, lam: Rat, m: int) -> Tensor:
    """The M61 right side at [l, i, j], from Qhat, Gamma-hat and d:

    ((nabla_j Qhat) e_i - (nabla_i Qhat) e_j)^l + (lambda/m)(d_j delta^l_i - d_i delta^l_j)
    + (1/m)(d_i Qhat^l_j - d_j Qhat^l_i)
    """
    shift = (Tensor.delta(d.dim).scale(lam) - qhat).tensor_product(d).scale(rat(1, m))
    w = operator_derivative(qhat, gam) + shift
    return w - w.permute((0, 2, 1))
