"""The shared geometry context and the probe verdict.

This is what the soliton checks, the reports and the CLI need of the probes:
ProbeContext, which validates a spec and builds each connection and
curvature once, and which every public function finds by ProbeContext.of;
the verdict types and judge, the one rule that turns a computed lhs/rhs pair
into pass, fail or paper-mismatch; and the names of the probe suites. The
probe registry and the suites live in probes, which a soliton check never loads.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Union

from .connection import (Connection, alpha_star, is_parallel, levi_civita,
                         non_metricity, ssnmc, torsion)
from .curvature import CurvatureBundle, conformal, curvature
from .errors import GeometryError
from .geometry import GeometrySpec, ValidationReport, validate
from .rat import ZERO, Rat
from .record import Record
from .tensor import Tensor

# The names of probes.SUITES, for the CLI's --suite choices.
SUITE_NAMES: tuple[str, ...] = ("all", "general", "parallel")

Value = Union[Tensor, Rat, dict]


class ProbeStatus(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    SKIPPED = "skipped"
    PAPER_MISMATCH = "paper-mismatch"


class ProbeResult(Record):
    def __init__(self, probe_id: str, status: ProbeStatus, lhs: Value | None,
                 rhs: Value | None, max_abs_deviation: Rat, note: str = ""):
        fields = self.__dict__
        fields["probe_id"] = probe_id
        fields["status"] = status
        fields["lhs"] = lhs
        fields["rhs"] = rhs
        fields["max_abs_deviation"] = max_abs_deviation
        fields["note"] = note


def deviation(lhs: Value, rhs: Value) -> Rat:
    """Largest componentwise |lhs - rhs|; zero means exact equality."""
    if isinstance(lhs, Tensor) and isinstance(rhs, Tensor):
        if lhs == rhs:
            return ZERO
        return (lhs - rhs).max_abs()
    if isinstance(lhs, dict) and isinstance(rhs, dict):
        if lhs.keys() != rhs.keys():
            raise ValueError("mismatched comparison parts")
        return max((deviation(lhs[k], rhs[k]) for k in sorted(lhs)), default=ZERO)
    return abs(lhs - rhs)


def worst_component(lhs: Value, rhs: Value) -> tuple[str | None, tuple[int, ...]]:
    """Where |lhs - rhs| is largest, first in row-major order: the part key of a
    dict-valued side (None otherwise) and the 1-based component index (() for a scalar)."""
    if isinstance(lhs, dict):
        key = max(sorted(lhs), key=lambda k: deviation(lhs[k], rhs[k]))
        return key, worst_component(lhs[key], rhs[key])[1]
    if not isinstance(lhs, Tensor):
        return None, ()
    diff = [abs(x) for x in (lhs - rhs).nums]
    flat, index = diff.index(max(diff)), []
    for _ in range(lhs.rank):
        flat, i = divmod(flat, lhs.dim)
        index.append(i + 1)
    return None, tuple(reversed(index))


def judge(probe_id: str, lhs: Value, rhs: Value, note: str = "",
          discrepancy: bool = False) -> ProbeResult:
    """Pass on exact equality; else paper-mismatch if a designated discrepancy, else fail."""
    dev = deviation(lhs, rhs)
    if dev == 0:
        status = ProbeStatus.PASS
    elif discrepancy:
        status = ProbeStatus.PAPER_MISMATCH
    else:
        status = ProbeStatus.FAIL
    return ProbeResult(probe_id, status, lhs, rhs, dev, note=note)


class ProbeContext:
    """Shared computations for one geometry; probes reuse everything here.

    Every public function takes a GeometrySpec and finds its context through
    ProbeContext.of, which keeps the last one: successive calls on one spec
    object validate it and build each quantity once. Identity decides, never
    equality; a spec is a frozen record, so a kept context never goes stale.
    """

    _last: ProbeContext | None = None  # the context of the spec last asked about

    def __init__(self, spec: GeometrySpec):
        self.spec = spec

    @staticmethod
    def of(spec: GeometrySpec) -> ProbeContext:
        """The kept context if spec is the last spec asked about, else a new one, kept instead."""
        ctx = ProbeContext._last  # read once: a racing thread costs a rebuild, never a wrong ctx
        if ctx is None or ctx.spec is not spec:
            ctx = ProbeContext._last = ProbeContext(spec)
        return ctx

    @cached_property
    def validation(self) -> ValidationReport:
        return validate(self.spec)

    def require_valid(self) -> ProbeContext:
        """Return self if the geometry passes validation; raise GeometryError if not."""
        if not self.validation.ok:
            raise GeometryError(
                f"geometry fails structural validation ({self.validation.failures})")
        return self

    @cached_property
    def lc(self) -> Connection:
        return levi_civita(self.spec.frame, self.spec.metric)

    @cached_property
    def hat(self) -> Connection:
        return ssnmc(self.lc, self.spec.distinguished)

    @cached_property
    def lc_bundle(self) -> CurvatureBundle:
        return curvature(self.lc, self.spec.frame, self.spec.metric)

    @cached_property
    def hat_bundle(self) -> CurvatureBundle:
        return curvature(self.hat, self.spec.frame, self.spec.metric)

    @cached_property
    def alpha(self) -> Tensor:
        return alpha_star(self.lc, self.spec.distinguished)

    @cached_property
    def torsion_hat(self) -> Tensor:
        return torsion(self.hat, self.spec.frame)

    @cached_property
    def non_metricity_hat(self) -> Tensor:
        return non_metricity(self.hat, self.spec.metric)

    @cached_property
    def conformal_lc(self) -> Tensor:
        return conformal(self.lc_bundle, self.spec.metric)

    @cached_property
    def conformal_hat(self) -> Tensor:
        return conformal(self.hat_bundle, self.spec.metric)

    @cached_property
    def parallel(self) -> bool:
        return is_parallel(self.lc, self.spec.distinguished)

    @cached_property
    def unmet(self) -> dict[str, str]:
        """The skip note of each hypothesis this geometry fails, by name."""
        unmet = {}
        if not self.parallel:
            unmet["unit-parallel-xi"] = "parallel-xi hypothesis fails: nabla xi != 0"
        elif not self.validation.unit_xi:
            unmet["unit-parallel-xi"] = "unit-xi hypothesis fails: g(xi, xi) != 1"
        if self.dim != 3:
            unmet["dim-3"] = ("dim-3 hypothesis fails: derived in dimension 3 only, "
                              f"got dim {self.dim}")
        return unmet

    # Shorthand accessors used all over the probe bodies.
    @property
    def psi(self) -> Tensor:
        return self.spec.distinguished.psi

    @property
    def xi(self) -> Tensor:
        return self.spec.distinguished.xi

    @property
    def g(self):
        return self.spec.metric.g

    @property
    def dim(self) -> int:
        return self.spec.dim


def operator_derivative(q: Tensor, gamma: Tensor) -> Tensor:
    """((nabla_{e_j} Q) e_i)^l at [l, i, j], for a (1,1) tensor Q and a connection's Gamma.

    Q^m_i Gamma^l_jm - Gamma^m_ji Q^l_m, summed over m.
    """
    return (gamma.contract_with(2, q) - q.contract_with(1, gamma)).permute((0, 2, 1))
