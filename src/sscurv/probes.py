"""Identity probes: every cataloged relation checked lhs-against-rhs, exactly.

Each probe computes both sides independently. The left side always comes
from direct computation (connection coefficients, curvature contractions);
the right side evaluates the cataloged closed form. Two probes, B10 and
B17, are designated discrepancy probes: direct computation is known to
disagree with their cataloged constants (the trace of the B9 relation over
an orthonormal frame with unit psi gives r-hat = r + 2, not r - 2, and the
B17 operator form inherits that constant). Their failures are reported as
the distinct status "paper-mismatch", never as an engine error, so the
evidence is preserved while the rest of the suite stays green.

B22's right side uses the correction terms as re-derived from B8 and B9:
the cataloged form carries a sign slip on its two xi terms (checked against
the h2xr oracle geometry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .context import (ProbeContext, ProbeResult, ProbeStatus, Value, judge,
                      operator_derivative)
from .curvature import _wedge_sum, projective
from .errors import UnknownProbeError, UnsupportedDimensionError
from .geometry import GeometrySpec
from .rat import ZERO, rat
from .tensor import DOWN, UP, Tensor

_RANK4 = (UP, DOWN, DOWN, DOWN)


def _probe_a1(ctx: ProbeContext):
    return ctx.torsion_hat, ctx.torsion_shape


def _probe_b2(ctx: ProbeContext):
    # -psi_j g_ik - psi_k g_ij at [i, j, k]
    x = ctx.g.tensor_product(ctx.psi)
    return ctx.non_metricity_hat, -(x + x.permute((0, 2, 1)))


def _probe_b3(ctx: ProbeContext):
    return ctx.hat_bundle.riemann, _wedge_sum(ctx.lc_bundle.riemann, ((-1, ctx.alpha, None),))


def _probe_b5(ctx: ProbeContext):
    lhs = ctx.lc_bundle.riemann.contract_with(1, ctx.xi)
    return lhs, Tensor.zeros((UP, DOWN, DOWN), ctx.dim)


def _probe_b6(ctx: ProbeContext):
    lhs = ctx.lc_bundle.ricci.contract_with(1, ctx.xi)
    return lhs, Tensor.zeros((DOWN,), ctx.dim)


def _probe_b7(ctx: ProbeContext):
    lhs = -ctx.lc.gamma.contract_with(0, ctx.psi)
    return lhs, Tensor.zeros((DOWN, DOWN), ctx.dim)


def _probe_b8(ctx: ProbeContext):
    psi = ctx.psi
    rhs = _wedge_sum(ctx.lc_bundle.riemann, ((1, psi.tensor_product(psi), None),))
    return ctx.hat_bundle.riemann, rhs


def _probe_b9(ctx: ProbeContext):
    psi = ctx.psi
    return ctx.hat_bundle.ricci, ctx.lc_bundle.ricci + psi.tensor_product(psi).scale(ctx.dim - 1)


def _probe_b10(ctx: ProbeContext):
    return ctx.hat_bundle.scalar, ctx.lc_bundle.scalar - 2


def _probe_b11(ctx: ProbeContext):
    # psi_j delta^l_i - psi_i delta^l_j is the semi-symmetric torsion shape.
    lhs = ctx.hat_bundle.riemann.contract_with(1, ctx.xi)
    return lhs, ctx.torsion_shape


def _probe_b12(ctx: ProbeContext):
    lhs = ctx.hat_bundle.riemann.contract_with(0, ctx.psi)
    return lhs, Tensor.zeros((DOWN, DOWN, DOWN), ctx.dim)


def _probe_b13(ctx: ProbeContext):
    lhs = {
        "ricci_xi": ctx.hat_bundle.ricci.contract_with(1, ctx.xi),
        "operator_xi": ctx.hat_bundle.ricci_op.contract_with(1, ctx.xi),
    }
    rhs = {"ricci_xi": ctx.psi.scale(ctx.dim - 1), "operator_xi": ctx.xi.scale(ctx.dim - 1)}
    return lhs, rhs


def _probe_b14(ctx: ProbeContext):
    # Directional derivative of a frame-constant scalar is identically zero.
    return ZERO, ZERO


def _probe_b15(ctx: ProbeContext):
    # R = wedge(g, Q) + wedge(S) - (r/2) wedge(g)
    b, g = ctx.lc_bundle, ctx.g
    return b.riemann, _wedge_sum(None, ((1, g, b.ricci_op), (1, b.ricci, None),
                                        (b.scalar * rat(-1, 2), g, None)))


def _probe_b17(ctx: ProbeContext):
    half_rhat = ctx.hat_bundle.scalar * rat(1, 2)
    rhs = (Tensor.delta(ctx.dim).scale(half_rhat + 1)
           - ctx.xi.tensor_product(ctx.psi).scale(half_rhat - 1))
    return ctx.hat_bundle.ricci_op, rhs


def _probe_b18(ctx: ProbeContext):
    lhs = operator_derivative(ctx.hat_bundle.ricci_op, ctx.lc.gamma)
    return lhs, Tensor.zeros((UP, DOWN, DOWN), ctx.dim)


def _probe_b20(ctx: ProbeContext):
    return projective(ctx.hat_bundle), projective(ctx.lc_bundle)


def _probe_b22(ctx: ProbeContext):
    psi, g = ctx.psi, ctx.g
    rhs = _wedge_sum(ctx.conformal_lc, ((1, g - psi.tensor_product(psi), None),
                                        (-2, g, ctx.xi.tensor_product(psi))))
    return ctx.conformal_hat, rhs


def _probe_b23(ctx: ProbeContext):
    lhs = ctx.conformal_hat.contract_with(1, ctx.xi)
    rhs = ctx.conformal_lc.contract_with(1, ctx.xi)
    return lhs, rhs


def _probe_bianchi(ctx: ProbeContext):
    # R[l, k, i, j] + R[l, i, j, k] + R[l, j, k, i]
    r = ctx.lc_bundle.riemann
    lhs = r + r.permute((0, 3, 1, 2)) + r.permute((0, 2, 3, 1))
    return lhs, Tensor.zeros(_RANK4, ctx.dim)


def _probe_cflat(ctx: ProbeContext):
    return ctx.conformal_lc, Tensor.zeros(_RANK4, ctx.dim)


# Hypotheses a probe can require, by name; ProbeContext.unmet lists the failed ones.
_PARALLEL = frozenset({"unit-parallel-xi"})
_DIM3 = frozenset({"dim-3"})


# The one dataclass of the package: callers swap a probe's fn with
# dataclasses.replace (the fuzz tests, the benchmark's tracer).
@dataclass(frozen=True)
class ProbeDef:
    fn: Callable[[ProbeContext], tuple[Value, Value]]
    description: str
    requires: frozenset[str] = frozenset()   # hypotheses; the probe skips if one fails
    discrepancy: bool = False    # expected to disagree with the cataloged constant
    note: str = ""


REGISTRY: dict[str, ProbeDef] = {
    "A1": ProbeDef(_probe_a1, "torsion of the hat connection has the semi-symmetric form"),
    "B2": ProbeDef(_probe_b2, "non-metricity equals -psi_j g_ik - psi_k g_ij"),
    "B3": ProbeDef(_probe_b3, "hat curvature equals curvature shifted by alpha* terms"),
    "B5": ProbeDef(_probe_b5, "R(U,V)xi = 0", _PARALLEL),
    "B6": ProbeDef(_probe_b6, "S(U,xi) = 0", _PARALLEL),
    "B7": ProbeDef(_probe_b7, "nabla psi = 0", _PARALLEL),
    "B8": ProbeDef(_probe_b8, "hat curvature equals curvature plus psi(Y)[psi(V)U - psi(U)V]",
                   _PARALLEL),
    "B9": ProbeDef(_probe_b9, "hat Ricci equals Ricci plus (n-1) psi x psi", _PARALLEL),
    "B10": ProbeDef(_probe_b10, "hat scalar curvature against the cataloged value r - 2",
                    _PARALLEL | _DIM3, discrepancy=True,
                    note="direct trace of the B9 relation gives r + 2 for unit psi"),
    "B11": ProbeDef(_probe_b11, "hat R(U,V)xi = psi(V)U - psi(U)V", _PARALLEL),
    "B12": ProbeDef(_probe_b12, "psi(hat R(U,V)Y) = 0", _PARALLEL),
    "B13": ProbeDef(_probe_b13, "hat S(U,xi) = (n-1) psi(U) and hat Q xi = (n-1) xi",
                    _PARALLEL),
    "B14": ProbeDef(_probe_b14, "xi-derivative of the hat scalar curvature vanishes",
                    _PARALLEL,
                    note="hat scalar curvature is frame-constant here, so the "
                         "derivative vanishes identically"),
    "B15": ProbeDef(_probe_b15, "dimension-3 decomposition of the curvature tensor", _DIM3),
    "B17": ProbeDef(_probe_b17, "hat Ricci operator against its cataloged closed form",
                    _PARALLEL | _DIM3, discrepancy=True,
                    note="closed form evaluated at the directly computed hat scalar; "
                         "it inherits the B10 constant"),
    "B18": ProbeDef(_probe_b18, "covariant derivative of the hat Ricci operator vanishes",
                    _PARALLEL | _DIM3,
                    note="both sides vanish identically on a homogeneous frame with "
                         "unit parallel xi"),
    "B20": ProbeDef(_probe_b20, "projective tensors of both connections coincide", _PARALLEL),
    "B22": ProbeDef(_probe_b22, "hat conformal tensor equals conformal plus correction terms",
                    _PARALLEL | _DIM3,
                    note="correction terms re-derived from B8/B9; the cataloged "
                         "xi-term signs are corrected"),
    "B23": ProbeDef(_probe_b23, "hat C(U,V)xi = C(U,V)xi", _PARALLEL),
    "BIANCHI": ProbeDef(_probe_bianchi, "first Bianchi identity for the curvature tensor"),
    "CFLAT": ProbeDef(_probe_cflat, "conformal tensor of the metric connection vanishes",
                      _DIM3),
}

PROBE_ORDER: tuple[str, ...] = tuple(REGISTRY)
GENERAL_SUITE: tuple[str, ...] = tuple(
    pid for pid, d in REGISTRY.items() if _PARALLEL.isdisjoint(d.requires))
PARALLEL_SUITE: tuple[str, ...] = tuple(pid for pid in REGISTRY if pid not in GENERAL_SUITE)
DISCREPANCY_PROBES: frozenset[str] = frozenset(
    pid for pid, d in REGISTRY.items() if d.discrepancy)

SUITES: dict[str, tuple[str, ...]] = {
    "general": GENERAL_SUITE,
    "parallel": PARALLEL_SUITE,
    "all": PROBE_ORDER,
}


def run_probe(spec: GeometrySpec, probe_id: str) -> ProbeResult:
    """Run one identity probe on a spec, in its shared context."""
    ctx = ProbeContext.of(spec)
    try:
        defn = REGISTRY[probe_id]
    except KeyError:
        raise UnknownProbeError(f"unknown probe id {probe_id!r}") from None
    skip = [note for hyp, (note, _) in ctx.unmet.items() if hyp in defn.requires]
    if not skip:
        try:
            lhs, rhs = defn.fn(ctx)
        except UnsupportedDimensionError as exc:
            skip = [str(exc)]
    if skip:
        return ProbeResult(probe_id, ProbeStatus.SKIPPED, None, None, ZERO,
                           note="; ".join(skip))
    return judge(probe_id, lhs, rhs, defn.note, defn.discrepancy)
