"""Probe-suite runner and the randomized fuzzer; both probe specs in their shared contexts."""

from __future__ import annotations

import random

from .context import worst_component
from .errors import InputError, SscurvError
from .geometry import DistinguishedField, FrameAlgebra, GeometrySpec, MetricFrame
from .geomio import geometry_to_dict, rat_value
from .probes import (DISCREPANCY_PROBES, PROBE_ORDER, SUITES, ProbeContext,
                     ProbeStatus, run_probe)
from .rat import ONE, ZERO, Rat, RatLike, format_rat, rat
from .record import Record
from .report import build_report, config_digest
from ._version import __version__
from .tensor import Tensor

DEFAULT_POOL: tuple[Rat, ...] = (rat(-2), rat(-1), rat(-1, 2), rat(0),
                                 rat(1, 2), rat(1), rat(2))


def run_suite(spec: GeometrySpec, suite: str = "all", ids: tuple[str, ...] | None = None,
              include_tables: bool = True) -> dict:
    """Run a probe suite on a valid spec and assemble its report, which names
    the suite; given ids, run those instead, and the report names no suite.

    A probe whose hypotheses fail (unit parallel xi, dimension 3) or whose
    formula is undefined in this dimension skips itself with the reason, so
    "all" is always safe to request.
    """
    ProbeContext.of(spec).require_valid()
    if ids is None:
        try:
            ids = SUITES[suite]
        except KeyError:
            raise SscurvError(f"unknown suite {suite!r}; choose from "
                              f"{', '.join(sorted(SUITES))}") from None
    else:
        unknown = [pid for pid in ids if pid not in PROBE_ORDER]
        if unknown:
            raise SscurvError(f"unknown probe ids: {', '.join(unknown)}")
        suite = None
    results = [run_probe(spec, pid) for pid in ids]
    return build_report(spec, suite=suite, probes=results, include_tables=include_tables)


class FuzzConfig(Record):
    def __init__(self, count: int = 100, seed: int = 0, pool: tuple[RatLike, ...] = DEFAULT_POOL,
                 require_parallel_xi: bool = False):
        if count < 1:
            raise SscurvError("count must be positive")
        try:
            pool = tuple(sorted(rat_value(x, path=None, field="pool") for x in pool))
        except InputError as exc:
            raise SscurvError(f"pool must contain exact rationals: {exc}") from None
        fields = self.__dict__
        fields["count"] = count
        fields["seed"] = seed
        fields["pool"] = pool
        fields["require_parallel_xi"] = require_parallel_xi


# 0-based (k, i, j) with i < j: the independent structure-constant slots in
# dimension 3, in the fixed draw order used by the fuzzer.
_FREE_SLOTS = tuple((k, i, j) for k in range(3) for (i, j) in ((0, 1), (0, 2), (1, 2)))


def _draw_candidate(rng: random.Random, config: FuzzConfig) -> FrameAlgebra:
    entries: dict[tuple[int, int, int], Rat] = {}
    if config.require_parallel_xi:
        # Solution space of nabla xi = 0 with g = id, xi = e3: everything
        # vanishes except C^1_12, C^2_12 and the pair C^1_23 = -C^2_13.
        a, b, t = (rng.choice(config.pool) for _ in range(3))
        entries[(0, 0, 1)] = a
        entries[(1, 0, 1)] = b
        entries[(0, 1, 2)] = t
        entries[(1, 0, 2)] = -t
    else:
        # Sparsity-stratified sampling: filling all nine slots i.i.d. from
        # the pool passes Jacobi on well under 1% of draws, which would
        # leave the accepted stream nearly empty. Drawing a uniform
        # sparsity level first keeps the same support (0 is in the pool)
        # while accepting a useful fraction.
        level = rng.randrange(len(_FREE_SLOTS) + 1)
        chosen = sorted(rng.sample(_FREE_SLOTS, level))
        for slot in chosen:
            entries[slot] = rng.choice(config.pool)
    return FrameAlgebra.from_entries(3, entries)


def fuzz(config: FuzzConfig) -> dict:
    """Generate random frame algebras, keep the valid ones, run every probe.

    Same seed, same report, byte for byte. Any probe Fail, or a
    paper-mismatch outside the two designated discrepancy probes, is
    recorded as an unexpected failure with the geometry embedded as a
    reproducible counterexample certificate. The certificate names where
    the two sides differ most: the 1-based component index and, for a
    probe with dict-valued sides, the part key.
    """
    rng = random.Random(config.seed)
    metric = MetricFrame.identity(3)
    xi = Tensor.vector([ZERO, ZERO, ONE])
    dist = DistinguishedField.from_xi(xi, metric)

    counts = {pid: {s.value: 0 for s in ProbeStatus} for pid in PROBE_ORDER}
    unexpected = []
    accepted = 0
    parallel_accepted = 0

    for index in range(config.count):
        frame = _draw_candidate(rng, config)
        if frame.jacobi_violations():
            continue
        spec = GeometrySpec(f"fuzz-{config.seed}-{index}", frame, metric, dist)
        ctx = ProbeContext.of(spec)
        if not ctx.validation.ok:
            continue
        if config.require_parallel_xi and not ctx.parallel:
            continue
        accepted += 1
        if ctx.parallel:
            parallel_accepted += 1
        for pid in PROBE_ORDER:
            result = run_probe(spec, pid)
            counts[pid][result.status.value] += 1
            bad_fail = result.status is ProbeStatus.FAIL
            bad_mismatch = (result.status is ProbeStatus.PAPER_MISMATCH
                            and pid not in DISCREPANCY_PROBES)
            if bad_fail or bad_mismatch:
                part, component = worst_component(result.lhs, result.rhs)
                cert = {
                    "candidate_index": index,
                    "probe_id": pid,
                    "status": result.status.value,
                    "max_abs_deviation": format_rat(result.max_abs_deviation),
                    "component": list(component),
                }
                if part is not None:
                    cert["part"] = part
                cert["geometry"] = geometry_to_dict(spec)
                unexpected.append(cert)

    cfg = {
        "seed": config.seed,
        "count": config.count,
        "pool": [format_rat(x) for x in config.pool],
        "require_parallel_xi": config.require_parallel_xi,
    }
    return {
        "fuzz": cfg,
        "engine": {"name": "sscurv", "version": __version__},
        "input_digest": config_digest(cfg),
        "generated": config.count,
        "accepted": accepted,
        "parallel_accepted": parallel_accepted,
        "probe_counts": counts,
        "unexpected": unexpected,
        "ok": not unexpected,
    }
