"""Probe-suite runner and the randomized fuzzer; both probe specs in their shared contexts.

The fuzzer keeps its verdicts in one dict, the one store keyed by value: a
frame's structure constants map to what the 21 probes said of that frame, so
a frame drawn again is judged once. Every fuzz candidate has the same metric
and xi (_fuzz_field), so equal structure constants are one geometry, and a
Tensor compares and hashes by its exact canonical entries: an entry never
goes stale. The dict belongs to one snapshot of the probe definitions and
starts empty under another. DEFAULT_POOL is prepared once, at import.

A candidate's draw reads the stream's random.Random only through
getrandbits (_below), in the order rng.randrange, rng.sample and rng.choice
would: the same candidates and the same generator state after them, without
the stdlib's pure-Python wrappers. The benchmark's oracle replays each stream
with those stdlib calls. random.Random seeds from |seed|, so seeds n and -n
draw the same candidates; their reports differ in the recorded seed and the
input_digest only.
"""

from __future__ import annotations

import functools
import operator
import random
from collections import Counter
from typing import NamedTuple

from .context import worst_component
from .errors import InputError, SscurvError
from .geometry import DistinguishedField, FrameAlgebra, GeometrySpec, MetricFrame
from .geomio import geometry_to_dict, rat_value
from .probes import (DISCREPANCY_PROBES, PROBE_ORDER, REGISTRY, SUITES, ProbeContext,
                     ProbeStatus, run_probe)
from .rat import ONE, ZERO, Rat, RatLike, format_rat, format_rats, rat
from .record import Record
from .report import build_report, config_digest
from ._version import __version__
from .tensor import DOWN, UP, Tensor, _packed

DEFAULT_POOL: tuple[Rat, ...] = (rat(-2), rat(-1), rat(-1, 2), rat(0),
                                 rat(1, 2), rat(1), rat(2))

_STATUS_VALUES = tuple(s.value for s in ProbeStatus)  # the probe_counts keys, in order


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


class _Pool(NamedTuple):
    """A fuzz pool prepared once: its Rats in ascending order, their integer
    numerators over their lcm with that lcm, and their canonical strings."""

    rats: tuple[Rat, ...]
    ints: tuple[tuple[int, ...], int]
    strings: tuple[str, ...]


def _prepare_pool(pool) -> _Pool:
    """Check and sort a pool, and write its numerators and strings."""
    try:
        values = [rat_value(x, path=None, field="pool") for x in pool]
    except InputError as exc:
        raise SscurvError(f"pool must contain exact rationals: {exc}") from None
    if not values:
        raise SscurvError("pool must not be empty")
    # Sorted by exact integer keys, the numerators over the pool's lcm;
    # sorted is stable, so equal values keep their order.
    keys, den = _packed([x.as_integer_ratio() for x in values])
    order = sorted(range(len(keys)), key=keys.__getitem__)
    nums = tuple(map(keys.__getitem__, order))
    return _Pool(tuple(map(values.__getitem__, order)), (nums, den),
                 tuple(format_rats(nums, den)))


_DEFAULT_PREPARED = _prepare_pool(DEFAULT_POOL)


class FuzzConfig(Record):
    """One fuzz stream's settings; the pool is kept as exact Rats in ascending order.

    DEFAULT_POOL, the pool every stream passes unless told otherwise, is
    prepared once at import and matched by identity; any other pool is
    prepared by the config that is given it. Never by value: 0.5 ==
    Fraction(1, 2) with an equal hash, and the float must be refused. Each
    config holds the prepared pool it was made with in a slot, which is not
    a field: equality, hash, repr and vars() skip it.
    """

    __slots__ = ("_prepared",)

    def __init__(self, count: int = 100, seed: int = 0, pool: tuple[RatLike, ...] = DEFAULT_POOL,
                 require_parallel_xi: bool = False):
        for name, value in (("count", count), ("seed", seed)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise SscurvError(f"{name} must be an int, got {value!r}")
        if count < 1:
            raise SscurvError("count must be positive")
        if not isinstance(require_parallel_xi, bool):
            raise SscurvError(f"require_parallel_xi must be a bool, got {require_parallel_xi!r}")
        prepared = _DEFAULT_PREPARED if pool is DEFAULT_POOL else _prepare_pool(pool)
        fields = self.__dict__
        fields["count"] = count
        fields["seed"] = seed
        fields["pool"] = prepared.rats
        fields["require_parallel_xi"] = require_parallel_xi
        object.__setattr__(self, "_prepared", prepared)  # Record blocks __setattr__

    def __reduce__(self):
        # Restoring the slot would go through the blocked __setattr__.
        return FuzzConfig, self._values()


# 0-based (k, i, j) with i < j: the independent structure-constant slots in
# dimension 3, in the fixed draw order used by the fuzzer, as the flat offsets
# of C^k_ij and C^k_ji. The offsets of C^k_ij rise with (k, i, j), so sorting
# the pairs sorts the slots.
_FREE_SLOTS = tuple(((k * 3 + i) * 3 + j, (k * 3 + j) * 3 + i)
                    for k in range(3) for (i, j) in ((0, 1), (0, 2), (1, 2)))


def _below(getrandbits, n: int) -> int:
    """A uniform int in [0, n), n > 0, drawn as CPython's Random._randbelow
    draws it (_randbelow_with_getrandbits): k = n.bit_length() bits, redrawn
    while the result is n or more. randrange(n), choice and sample read the
    generator only through it."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _draw_candidate(rng: random.Random, config: FuzzConfig) -> FrameAlgebra:
    """One candidate frame, its integers drawn through _below in the order
    rng.randrange, rng.sample and rng.choice would draw them."""
    pool, den = config._prepared.ints
    bits, size = rng.getrandbits, len(pool)
    nums = [0] * 27
    if config.require_parallel_xi:
        # Solution space of nabla xi = 0 with g = id, xi = e3: everything
        # vanishes except C^1_12, C^2_12 and the pair C^1_23 = -C^2_13;
        # each is rng.choice(pool).
        a = pool[_below(bits, size)]
        b = pool[_below(bits, size)]
        t = pool[_below(bits, size)]
        nums[1], nums[3] = a, -a      # C^1_12, C^1_21
        nums[10], nums[12] = b, -b    # C^2_12, C^2_21
        nums[5], nums[7] = t, -t      # C^1_23, C^1_32
        nums[11], nums[15] = -t, t    # C^2_13, C^2_31
    else:
        # Sparsity-stratified sampling: filling all nine slots i.i.d. from
        # the pool passes Jacobi on well under 1% of draws, which would
        # leave the accepted stream nearly empty. Drawing a uniform
        # sparsity level first keeps the same support (0 is in the pool)
        # while accepting a useful fraction. The level is
        # rng.randrange(10); the slots are rng.sample(_FREE_SLOTS, level),
        # the partial swap sample runs on a population of 9 (its list
        # branch); each value is rng.choice(pool).
        free = len(_FREE_SLOTS)
        level = _below(bits, free + 1)
        slots = list(_FREE_SLOTS)
        chosen = []
        for left in range(free, free - level, -1):  # slots[:left] not yet chosen
            j = _below(bits, left)
            chosen.append(slots[j])
            slots[j] = slots[left - 1]
        for ij, ji in sorted(chosen):
            x = pool[_below(bits, size)]
            nums[ij], nums[ji] = x, -x
    return FrameAlgebra(3, Tensor.from_ints((UP, DOWN, DOWN), 3, nums, den))


@functools.cache
def _fuzz_field() -> tuple[MetricFrame, DistinguishedField]:
    """g = I and the unit xi = e3 of every fuzz candidate, built once per process:
    every stream's candidates share them, so a frame's structure constants
    alone decide its geometry, and so its verdict."""
    metric = MetricFrame.identity(3)
    return metric, DistinguishedField.from_xi(Tensor.vector([ZERO, ZERO, ONE]), metric)


# Frames the verdict dict holds; a full dict is cleared and starts again,
# so a large custom fuzz pool cannot grow it without bound.
VERDICT_CAP = 4096


class Verdict(NamedTuple):
    """What the fuzzer keeps of one frame: whether xi is parallel, each
    probe's status value in probe order, and (probe id, status value, max
    |deviation| string, 1-based component, part key or None) for each result
    that is an unexpected failure."""

    parallel: bool
    statuses: tuple[str, ...]
    bad: tuple[tuple, ...]


# (the probe definitions in probe order, {frame.c: Verdict}) of the last
# stream; None before the first.
_table: tuple[tuple, dict[Tensor, Verdict]] | None = None


def _judge_frame(spec: GeometrySpec) -> Verdict:
    """Run every probe on a fuzz candidate that passed Jacobi. Its draw is
    antisymmetric on g = I and the unit, compatible xi = e3, so it validates;
    one that did not would raise GeometryError, not be counted."""
    ctx = ProbeContext.of(spec).require_valid()
    statuses, bad = [], []
    for pid in PROBE_ORDER:
        result = run_probe(spec, pid)
        status = result.status
        statuses.append(status.value)
        if status is ProbeStatus.FAIL or (status is ProbeStatus.PAPER_MISMATCH
                                          and pid not in DISCREPANCY_PROBES):
            part, component = worst_component(result.lhs, result.rhs)
            bad.append((pid, status.value, format_rat(result.max_abs_deviation),
                        component, part))
    return Verdict(ctx.parallel, tuple(statuses), tuple(bad))


def fuzz(config: FuzzConfig) -> dict:
    """Generate random frame algebras, keep the ones that pass Jacobi, run every probe.

    The draw decides which candidates belong to the parallel stream: each
    frame it writes under require_parallel_xi has Gamma^k_i3 = 0 at g = I,
    so xi = e3 is parallel on it and no judged candidate is dropped.

    Same seed, same report, byte for byte. Any probe Fail, or a
    paper-mismatch outside the two designated discrepancy probes, is
    recorded as an unexpected failure with the geometry embedded as a
    reproducible counterexample certificate. The certificate names where
    the two sides differ most: the 1-based component index and, for a
    probe with dict-valued sides, the part key.

    The pool is small, so frames repeat, within a stream and across
    streams. Each frame that passes the Jacobi filter is judged once per
    probe registry: its verdict goes into the verdict dict, and a frame
    drawn again is counted from the dict, its certificates naming its own
    index and geometry. The dict is kept with the probe definitions it was
    filled under, by identity; any other definition starts a new one.
    """
    global _table
    rng = random.Random(config.seed)
    metric, dist = _fuzz_field()
    probe_defs = tuple(map(REGISTRY.__getitem__, PROBE_ORDER))
    table = _table
    if table is None or not all(map(operator.is_, table[0], probe_defs)):
        table = _table = (probe_defs, {})
    verdicts = table[1]

    patterns = Counter()  # statuses tuple -> accepted candidates with it
    unexpected = []
    accepted = 0
    parallel_accepted = 0

    for index in range(config.count):
        frame = _draw_candidate(rng, config)
        if frame.jacobi_violations():
            continue
        # A candidate's spec is built only to judge its frame or to certify it.
        verdict = verdicts.get(frame.c)
        if verdict is None:
            if len(verdicts) >= VERDICT_CAP:
                verdicts.clear()
            spec = GeometrySpec(f"fuzz-{config.seed}-{index}", frame, metric, dist)
            verdict = verdicts[frame.c] = _judge_frame(spec)
        parallel, statuses, bad = verdict
        accepted += 1
        parallel_accepted += parallel
        patterns[statuses] += 1
        if bad:
            spec = GeometrySpec(f"fuzz-{config.seed}-{index}", frame, metric, dist)
        for pid, status, dev, component, part in bad:
            cert = {
                "candidate_index": index,
                "probe_id": pid,
                "status": status,
                "max_abs_deviation": dev,
                "component": list(component),
            }
            if part is not None:
                cert["part"] = part
            cert["geometry"] = geometry_to_dict(spec)
            unexpected.append(cert)

    counts = {pid: dict.fromkeys(_STATUS_VALUES, 0) for pid in PROBE_ORDER}
    for statuses, n in patterns.items():
        for pid, status in zip(PROBE_ORDER, statuses):
            counts[pid][status] += n

    cfg = {
        "seed": config.seed,
        "count": config.count,
        "pool": list(config._prepared.strings),  # a list of its own in each report
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
