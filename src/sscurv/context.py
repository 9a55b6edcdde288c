"""The shared geometry context and the probe verdict.

This is what the soliton checks, the reports and the CLI need of the probes:
ProbeContext, which validates a spec and builds each connection and
curvature once, and which every public function finds by ProbeContext.of;
FieldContext, the level below it, which holds what reads only the metric and
xi (a probe's field-only right side, the zero tensors) and which a context
finds by FieldContext.of, so that geometries on one field (every fuzz
candidate: g = I, xi = e3) build those quantities once between them;
ProbeContext.unmet, the one decider of the paper's class, whose entries give
both the probe skip notes and the soliton out-of-scope reasons; the verdict
types and judge, the one rule that turns a computed lhs/rhs pair into pass,
fail or paper-mismatch; and the names of the probe suites. The probe
registry and the suites live in probes, which a soliton check never loads.

Both levels keep the last one they were asked about and decide by identity,
never by equality: a spec is kept for the same spec object, a field for the
same metric and distinguished-field objects. All three are frozen records,
so a kept level never goes stale, and an equal but distinct object gets a
level of its own.

A field also holds the fuzzer's verdict table, the one table keyed by value:
a frame's structure constants map to what the 21 probes said of that frame on
this field, so a frame drawn again is judged once. Equal structure constants
on one field are one geometry, and a Tensor compares and hashes by its exact
canonical entries, so an entry never goes stale. The table belongs to one
snapshot of the probe definitions and starts empty under another.
"""

from __future__ import annotations

import enum
import operator
from itertools import product
from typing import Callable, NamedTuple, Union

from .connection import (Connection, alpha_star, is_parallel, levi_civita,
                         non_metricity, semi_symmetric_torsion, ssnmc, torsion)
from .curvature import CurvatureBundle, conformal, constant_sectional, curvature
from .errors import GeometryError
from .geometry import (DistinguishedField, GeometrySpec, MetricFrame, ValidationReport,
                       validate)
from .rat import ZERO, Rat
from .record import Record, _memo
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
    worst = max(product(range(lhs.dim), repeat=lhs.rank),
                key=lambda idx: abs(lhs[idx] - rhs[idx]))
    return None, tuple(i + 1 for i in worst)


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


# Frames one verdict table holds; a full table is cleared and starts again,
# so a large custom fuzz pool cannot grow it without bound.
VERDICT_CAP = 4096


class Verdict(NamedTuple):
    """What the fuzzer keeps of one frame on one field: whether the geometry
    validates and has parallel xi, each probe's status value in probe order,
    and (probe id, status value, max |deviation| string, 1-based component,
    part key or None) for each result that is an unexpected failure."""

    ok: bool
    parallel: bool
    statuses: tuple[str, ...]
    bad: tuple[tuple, ...]


class FieldContext:
    """What reads only the metric and xi, built once for the geometries on that field.

    A probe splits its right side in two: a module-level function of the
    field, which once() runs once per field, and the rest, computed per
    geometry. ProbeContext.field finds the field through FieldContext.of,
    which keeps the last one: identity decides, never equality.
    """

    _last: FieldContext | None = None  # the field last asked about

    def __init__(self, metric: MetricFrame, distinguished: DistinguishedField):
        self.metric = metric
        self.distinguished = distinguished
        self._kept: dict = {}
        self._probe_defs: tuple = ()
        self._verdicts: dict[Tensor, Verdict] = {}
        self._shared: dict[Verdict, Verdict] = {}

    @staticmethod
    def of(metric: MetricFrame, distinguished: DistinguishedField) -> FieldContext:
        """The kept field if both objects are the last ones asked about, else a new one, kept instead."""
        field = FieldContext._last  # read once, as in ProbeContext.of
        if field is None or field.metric is not metric or field.distinguished is not distinguished:
            field = FieldContext._last = FieldContext(metric, distinguished)
        return field

    def once(self, fn: Callable[[FieldContext], Value]) -> Value:
        """fn(self), computed on the first call with this fn and kept; fn never returns None."""
        value = self._kept.get(fn)
        if value is None:
            value = self._kept[fn] = fn(self)
        return value

    def verdicts(self, probe_defs: tuple) -> dict[Tensor, Verdict]:
        """The verdicts of frames judged on this field, keyed by their structure
        constants, under probe_defs; empty if probe_defs differs by identity,
        element by element, from the definitions last asked about."""
        kept = self._probe_defs
        if len(kept) != len(probe_defs) or not all(map(operator.is_, kept, probe_defs)):
            self._probe_defs = probe_defs
            self._verdicts, self._shared = {}, {}
        return self._verdicts

    def keep_verdict(self, c: Tensor, verdict: Verdict) -> Verdict:
        """Enter a frame's verdict in the table last returned by verdicts(),
        clearing the table first when it is full. Frames with one status
        pattern share one statuses tuple, and equal verdicts one Verdict."""
        shared = self._shared  # statuses tuples and verdicts, each its own key
        if len(self._verdicts) >= VERDICT_CAP:
            self._verdicts.clear()
            shared.clear()
        verdict = verdict._replace(statuses=shared.setdefault(verdict.statuses, verdict.statuses))
        verdict = self._verdicts[c] = shared.setdefault(verdict, verdict)
        return verdict

    def zeros(self, variance: tuple[str, ...]) -> Tensor:
        """The zero tensor of this variance in the field's dimension."""
        value = self._kept.get(variance)
        if value is None:
            value = self._kept[variance] = Tensor.zeros(variance, self.dim)
        return value

    @_memo
    def torsion_shape(self) -> Tensor:
        """psi(V)U - psi(U)V, the semi-symmetric torsion shape that A1 and B11 compare to."""
        return semi_symmetric_torsion(self.distinguished)

    @property
    def psi(self) -> Tensor:
        return self.distinguished.psi

    @property
    def xi(self) -> Tensor:
        return self.distinguished.xi

    @property
    def g(self) -> Tensor:
        return self.metric.g

    @property
    def dim(self) -> int:
        return self.metric.dim


class ProbeContext:
    """Shared computations for one geometry; probes reuse everything here.

    Every public function takes a GeometrySpec and finds its context through
    ProbeContext.of, which keeps the last one: successive calls on one spec
    object validate it and build each quantity once. Identity decides, never
    equality; a spec is a frozen record, so a kept context never goes stale.
    What reads only the metric and xi lives one level down, in self.field.
    """

    _last: ProbeContext | None = None  # the context of the spec last asked about
    # (problem, residual) of the soliton problem last asked about, kept by
    # solitons under the same rule: identity decides, and a problem is frozen.
    last_residual: tuple | None = None

    def __init__(self, spec: GeometrySpec):
        self.spec = spec

    @staticmethod
    def of(spec: GeometrySpec) -> ProbeContext:
        """The kept context if spec is the last spec asked about, else a new one, kept instead."""
        ctx = ProbeContext._last  # read once: a racing thread costs a rebuild, never a wrong ctx
        if ctx is None or ctx.spec is not spec:
            ctx = ProbeContext._last = ProbeContext(spec)
        return ctx

    @_memo
    def field(self) -> FieldContext:
        """The spec's metric and xi, shared with every spec on the same two objects."""
        return FieldContext.of(self.spec.metric, self.spec.distinguished)

    @_memo
    def validation(self) -> ValidationReport:
        return validate(self.spec)

    def require_valid(self) -> ProbeContext:
        """Return self if the geometry passes validation; raise GeometryError if not."""
        if not self.validation.ok:
            raise GeometryError(
                f"geometry fails structural validation ({self.validation.failures})")
        return self

    @_memo
    def lc(self) -> Connection:
        return levi_civita(self.spec.frame, self.spec.metric)

    @_memo
    def hat(self) -> Connection:
        return ssnmc(self.lc, self.spec.distinguished)

    @_memo
    def lc_bundle(self) -> CurvatureBundle:
        return curvature(self.lc, self.spec.frame, self.spec.metric)

    @_memo
    def hat_bundle(self) -> CurvatureBundle:
        return curvature(self.hat, self.spec.frame, self.spec.metric)

    @_memo
    def alpha(self) -> Tensor:
        return alpha_star(self.lc, self.spec.distinguished)

    @_memo
    def torsion_hat(self) -> Tensor:
        return torsion(self.hat, self.spec.frame)

    @_memo
    def non_metricity_hat(self) -> Tensor:
        return non_metricity(self.hat, self.spec.metric)

    @_memo
    def conformal_lc(self) -> Tensor:
        return conformal(self.lc_bundle, self.spec.metric)

    @_memo
    def conformal_hat(self) -> Tensor:
        return conformal(self.hat_bundle, self.spec.metric)

    @_memo
    def kappa_lc(self) -> Rat | None:
        """constant_sectional of the Levi-Civita bundle: kappa, or None."""
        return constant_sectional(self.lc_bundle, self.spec.metric)

    @_memo
    def kappa_hat(self) -> Rat | None:
        """constant_sectional of the hat bundle: kappa, or None."""
        return constant_sectional(self.hat_bundle, self.spec.metric)

    @_memo
    def parallel(self) -> bool:
        return is_parallel(self.lc, self.spec.distinguished)

    @_memo
    def unmet(self) -> dict[str, tuple[str, tuple[str, ...]]]:
        """Each hypothesis of the paper's class this geometry fails, by name and
        in order, as (probe skip note, the reasons a soliton conclusion names).

        The one decider of the class: run_probe skips on the notes and
        solitons.conclusion_check names the reasons. psi = 0 (xi = 0) means xi
        is parallel and not unit, so it is a reason of unit-parallel-xi.
        """
        unmet, unit = {}, self.validation.unit_xi
        if not (self.parallel and unit):
            reasons = tuple(reason for reason, fails in (
                ("psi = 0", self.validation.degenerate_xi), ("xi not unit", not unit),
                ("xi not parallel", not self.parallel)) if fails)
            unmet["unit-parallel-xi"] = (
                "unit-xi hypothesis fails: g(xi, xi) != 1" if self.parallel
                else "parallel-xi hypothesis fails: nabla xi != 0", reasons)
        if self.dim != 3:
            unmet["dim-3"] = ("dim-3 hypothesis fails: derived in dimension 3 only, "
                              f"got dim {self.dim}", (f"dim {self.dim} != 3",))
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
