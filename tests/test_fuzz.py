"""Fuzzer determinism and status expectations."""

import copy
import dataclasses
import itertools
import json
import pickle
import random
from collections import defaultdict
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import sscurv.geometry
import sscurv.suite
from conftest import count_calls
from sscurv import (DistinguishedField, FrameAlgebra, FuzzConfig, GeometryError, GeometrySpec,
                    ProbeContext, ProbeStatus, SscurvError, Tensor, builtin, emit_report,
                    exit_code, format_rat, fuzz, rat, run_probe, run_suite)
from sscurv import probes
from sscurv.geomio import geometry_from_dict
from sscurv.geometry import validate
from sscurv.suite import DEFAULT_POOL, _draw_candidate, _fuzz_field


def test_config_validation():
    with pytest.raises(SscurvError):
        FuzzConfig(count=0)
    with pytest.raises(SscurvError):
        FuzzConfig(pool=(0.5, 1))
    # Both streams draw from the pool: an empty one is refused up front,
    # not left to rng.choice.
    for require_parallel_xi in (False, True):
        with pytest.raises(SscurvError, match="pool must not be empty"):
            FuzzConfig(pool=(), require_parallel_xi=require_parallel_xi)
    # count and seed are refused up front unless they are ints: not written
    # to the report as true, nor left to range or to the report writer.
    for bad in ({"count": True}, {"count": 2.5}, {"count": "3"}, {"seed": 1.5},
                {"seed": False}, {"seed": None}):
        with pytest.raises(SscurvError, match="must be an int"):
            FuzzConfig(**bad)
    # require_parallel_xi is refused unless it is a bool: "no" does not run
    # the parallel stream, nor 1 get written to the report as 1.
    for bad in ("no", 1, 0, None):
        with pytest.raises(SscurvError, match="require_parallel_xi must be a bool"):
            FuzzConfig(require_parallel_xi=bad)


def test_pool_entries_are_normalised_to_rats():
    # Strings go through parse_rat, ints and Rats through rat: one pool, however
    # spelled, gives one config and one report.
    want = (rat(-1), rat(0), rat(1, 2))
    spellings = (("1/2", "-1", "0"), (rat(1, 2), -1, "0"), want)
    for pool in spellings:
        config = FuzzConfig(count=30, seed=7, pool=pool)
        assert config.pool == want and all(type(x) is type(rat(0)) for x in config.pool)
    reports = {emit_report(fuzz(FuzzConfig(count=30, seed=7, pool=p)), "json")
               for p in spellings}
    assert len(reports) == 1
    assert FuzzConfig(pool=(rat(1), "1/2")).pool == (rat(1, 2), rat(1))
    for bad in ((True,), (rat(1), 0.5), ("0.5",), ("1/0",), (None,)):
        with pytest.raises(SscurvError, match="exact rationals"):
            FuzzConfig(pool=bad)


def test_a_kept_pool_answers_only_for_its_own_tuple():
    # The prepared default pool is matched by identity. 0.5 equals 1/2 and
    # hashes alike, so a pool matched by value would let the float in.
    half = (rat(1, 2),)
    assert 0.5 == half[0] and hash(0.5) == hash(half[0])
    assert FuzzConfig(count=3).pool is FuzzConfig().pool  # prepared once, at import
    floats = tuple(map(float, DEFAULT_POOL))
    assert floats == DEFAULT_POOL
    with pytest.raises(SscurvError, match="exact rationals"):
        FuzzConfig(pool=floats)
    for bad in ((0.5,), (True,), (), ("1/x",), ([1, 2],)):
        FuzzConfig(pool=half)
        with pytest.raises(SscurvError):
            FuzzConfig(pool=bad)


def test_a_list_pool_is_read_on_every_config():
    pool = [rat(1), rat(2)]
    before = FuzzConfig(count=30, seed=4, pool=pool)
    pool[0] = rat(-3)
    after = FuzzConfig(count=30, seed=4, pool=pool)
    assert (before.pool, after.pool) == ((rat(1), rat(2)), (rat(-3), rat(2)))
    for config, spelled in ((after, (-3, 2)), (before, (1, 2))):
        doc = fuzz(config)
        assert doc["fuzz"]["pool"] == list(map(str, spelled))
        assert doc == fuzz(FuzzConfig(count=30, seed=4, pool=spelled))


def test_each_config_prepares_its_pool_once(monkeypatch):
    # A config holds the pool it prepared: a list pool is not prepared again
    # by fuzz, nor a tuple pool once another config has taken the class's slot.
    calls = count_calls(monkeypatch, sscurv.suite, "_prepare_pool")
    listed = FuzzConfig(count=20, seed=3, pool=[rat(1), rat(-1)])
    doc = fuzz(listed)
    assert len(calls) == 1
    a = FuzzConfig(count=20, seed=3, pool=(rat(1), rat(2)))
    b = FuzzConfig(count=20, seed=3, pool=(rat(-1), rat(2)))
    fuzz(a), fuzz(b), fuzz(a)
    assert len(calls) == 3
    # copy and pickle build the config anew, from its fields.
    for twin in (copy.copy(listed), copy.deepcopy(listed), pickle.loads(pickle.dumps(listed))):
        assert twin == listed and list(vars(twin)) == list(vars(listed))
        assert fuzz(twin) == doc


def test_reports_of_one_config_own_their_pool_lists():
    config = FuzzConfig(count=10, seed=5)
    first, second = fuzz(config), fuzz(config)
    assert first["fuzz"]["pool"] is not second["fuzz"]["pool"]
    want = emit_report(second, "json")
    first["fuzz"]["pool"].append("99")
    assert emit_report(second, "json") == want == emit_report(fuzz(config), "json")


def test_a_kept_pool_leaves_fields_equality_and_repr():
    kept = FuzzConfig(count=5, seed=2)
    listed = FuzzConfig(count=5, seed=2, pool=list(DEFAULT_POOL))
    for config in (kept, listed):
        assert list(vars(config)) == ["count", "seed", "pool", "require_parallel_xi"]
        assert repr(config) == (f"FuzzConfig(count=5, seed=2, pool={tuple(sorted(DEFAULT_POOL))!r}"
                                f", require_parallel_xi=False)")
    assert kept == listed and hash(kept) == hash(listed)
    assert kept != FuzzConfig(count=5, seed=2, pool=DEFAULT_POOL[1:])


def test_default_pool():
    assert sorted(DEFAULT_POOL) == sorted(
        (rat(-2), rat(-1), rat(-1, 2), rat(0), rat(1, 2), rat(1), rat(2)))


def test_same_seed_same_report():
    a = fuzz(FuzzConfig(count=120, seed=42))
    b = fuzz(FuzzConfig(count=120, seed=42))
    assert json.dumps(a) == json.dumps(b)


def test_different_seed_differs():
    a = fuzz(FuzzConfig(count=200, seed=1))
    b = fuzz(FuzzConfig(count=200, seed=2))
    assert a != b


def test_general_stream_no_unexpected_failures():
    report = fuzz(FuzzConfig(count=300, seed=11))
    assert report["ok"] is True
    assert report["unexpected"] == []
    assert report["accepted"] >= 1
    counts = report["probe_counts"]
    for pid in ("A1", "B2", "B3", "B15", "BIANCHI", "CFLAT"):
        assert counts[pid]["pass"] == report["accepted"]
        assert counts[pid]["fail"] == 0


def test_parallel_stream_statuses():
    report = fuzz(FuzzConfig(count=300, seed=11, require_parallel_xi=True))
    assert report["ok"] is True
    accepted = report["accepted"]
    assert accepted == report["parallel_accepted"] >= 10
    counts = report["probe_counts"]
    for pid in ("B8", "B9", "B11", "B12", "B13"):
        assert counts[pid]["pass"] == accepted
    for pid in ("B10", "B17"):
        assert counts[pid]["paper-mismatch"] == accepted
        assert counts[pid]["pass"] == 0
    mismatching = {pid for pid, c in counts.items() if c["paper-mismatch"]}
    assert mismatching == {"B10", "B17"}


def test_accepted_geometries_reconstructible():
    # Counterexample certificates must parse back to valid geometries; the
    # same dict shape is used for accepted geometries, checked here via a
    # direct draw replay.
    from sscurv.geometry import MetricFrame
    from sscurv.geomio import geometry_to_dict

    config = FuzzConfig(count=50, seed=5)
    metric = MetricFrame.identity(3)
    dist = DistinguishedField.from_xi(Tensor.vector([0, 0, 1]), metric)
    for index, frame in _accepted_frames(config):
        spec = GeometrySpec(f"fuzz-{config.seed}-{index}", frame, metric, dist)
        assert validate(spec).ok
        round_tripped = geometry_from_dict(geometry_to_dict(spec))
        assert round_tripped.spec == spec


def test_wrong_probe_yields_reproducible_certificates(monkeypatch):
    # A B2 whose right side is doubled fails on every accepted candidate,
    # since psi = e3 makes the true right side nonzero.
    _double_b2(monkeypatch)
    doc = fuzz(FuzzConfig(count=20, seed=42))
    certs = doc["unexpected"]
    assert doc["accepted"] >= 1
    assert len(certs) == doc["accepted"] == doc["probe_counts"]["B2"]["fail"]
    assert {(c["probe_id"], c["status"]) for c in certs} == {("B2", "fail")}
    assert len({c["candidate_index"] for c in certs}) == len(certs)
    assert doc["ok"] is False
    assert exit_code(doc) == 1
    text = emit_report(doc, "text")
    assert f"UNEXPECTED failures: {len(certs)}" in text
    for cert in certs:
        assert f"candidate {cert['candidate_index']} probe B2 status fail" in text

    specs = [geometry_from_dict(c["geometry"]).spec for c in certs]
    for cert, spec in zip(certs, specs):
        result = run_probe(spec, "B2")
        assert result.status is ProbeStatus.FAIL
        assert format_rat(result.max_abs_deviation) == cert["max_abs_deviation"]
        # The certificate names the first component, row-major and 1-based,
        # where |lhs - rhs| is largest.
        gaps = {idx: abs(result.lhs[idx] - result.rhs[idx])
                for idx in itertools.product(range(3), repeat=3)}
        worst = next(idx for idx, gap in gaps.items() if gap == max(gaps.values()))
        assert cert["component"] == [i + 1 for i in worst]
        assert "part" not in cert
        assert (f"candidate {cert['candidate_index']} probe B2 status fail "
                f"at ({', '.join(map(str, cert['component']))})") in text
    monkeypatch.undo()
    assert all(run_probe(spec, "B2").status is ProbeStatus.PASS for spec in specs)

    # A dict-valued probe also names the part: B13 with its operator side
    # doubled is off by (n - 1) xi = 2 e3, at component 3 of operator_xi.
    defn = probes.REGISTRY["B13"]

    def doubled_operator(ctx):
        lhs, rhs = defn.fn(ctx)
        return lhs, {**rhs, "operator_xi": rhs["operator_xi"].scale(2)}

    monkeypatch.setitem(probes.REGISTRY, "B13", dataclasses.replace(defn, fn=doubled_operator))
    doc = fuzz(FuzzConfig(count=20, seed=42, require_parallel_xi=True))
    assert doc["accepted"] >= 1 and len(doc["unexpected"]) == doc["accepted"]
    for cert in doc["unexpected"]:
        assert (cert["probe_id"], cert["part"], cert["component"]) == ("B13", "operator_xi", [3])
        assert cert["max_abs_deviation"] == "2"
    assert "probe B13 status fail at operator_xi(3)" in emit_report(doc, "text")


def test_fuzz_scans_each_candidate_for_antisymmetry_once(monkeypatch):
    # The Jacobi prefilter and validate read one pair of verdicts kept on
    # the frame: one antisymmetry scan per candidate, accepted ones included.
    scans = []
    scan = FrameAlgebra.antisymmetry_violations

    def counting(frame):
        scans.append(frame)
        return scan(frame)

    monkeypatch.setattr(FrameAlgebra, "antisymmetry_violations", counting)
    doc = fuzz(FuzzConfig(count=40, seed=42))
    assert doc["accepted"] >= 2
    assert len(scans) == doc["generated"]
    assert len({id(frame) for frame in scans}) == len(scans)


@pytest.mark.parametrize("parallel, xi", [(True, (0, 0, -1)), (False, (1, 0, 0))])
def test_another_xi_on_a_stream_frame_gets_its_own_context(parallel, xi):
    # The stream's last frame and its metric object, with another xi: neither
    # the context nor the verdict kept from the stream may answer for it.
    config = FuzzConfig(count=30, seed=42, require_parallel_xi=parallel)
    fuzz(config)
    _, frame = _accepted_frames(config)[-1]
    metric, _ = _fuzz_field()
    spec = GeometrySpec("other-xi", frame, metric,
                        DistinguishedField.from_xi(Tensor.vector(xi), metric))
    report = emit_report(run_suite(spec), "json")
    # A deep copy is another spec object, so it gets a fresh context.
    assert emit_report(run_suite(copy.deepcopy(spec)), "json") == report
    statuses = {p["id"]: p["status"] for p in json.loads(report)["probes"]}
    assert "fail" not in statuses.values()
    assert statuses["A1"] == statuses["B2"] == "pass"


@pytest.mark.parametrize("parallel", (False, True))
def test_stream_bytes_do_not_depend_on_what_ran_before(monkeypatch, parallel):
    config = FuzzConfig(count=60, seed=42, require_parallel_xi=parallel)
    monkeypatch.setattr(ProbeContext, "_last", None)
    monkeypatch.setattr(sscurv.suite, "_table", None)
    first = emit_report(fuzz(config), "json")
    again = emit_report(fuzz(config), "json")  # on the table the first stream filled
    run_suite(builtin("h2xr"))  # another geometry, in a context of its own
    assert first == again == emit_report(fuzz(config), "json")


def _accepted_frames(config):
    """(index, frame) of each candidate of the stream that passes Jacobi; on
    g = I and xi = e3 each one validates, and the parallel draws have nabla xi = 0."""
    rng = random.Random(config.seed)
    drawn = ((index, _draw_candidate(rng, config)) for index in range(config.count))
    return [(index, frame) for index, frame in drawn if not frame.jacobi_violations()]


def _double_b2(monkeypatch):
    """Swap in a B2 whose right side is doubled: it fails on every candidate."""
    defn = probes.REGISTRY["B2"]

    def doubled(ctx):
        lhs, rhs = defn.fn(ctx)
        return lhs, rhs.scale(2)

    monkeypatch.setitem(probes.REGISTRY, "B2", dataclasses.replace(defn, fn=doubled))


def _shipped_verdicts():
    """The fuzzer's verdict dict, as the last stream left it."""
    return sscurv.suite._table[1]


@pytest.mark.parametrize("parallel", (False, True))
def test_a_repeated_stream_runs_no_probe(monkeypatch, parallel):
    # The table keeps a verdict for every frame the first run judged, so the
    # second run validates nothing and runs no probe, and writes the same bytes.
    config = FuzzConfig(count=60, seed=42, require_parallel_xi=parallel)
    first = emit_report(fuzz(config), "json")
    probes_run = count_calls(monkeypatch, probes, "run_probe")
    validations = count_calls(monkeypatch, sscurv.geometry, "validate")
    assert emit_report(fuzz(config), "json") == first
    assert probes_run == [] and validations == []


def test_frames_repeated_in_a_stream_are_judged_once(monkeypatch):
    # A two-value pool leaves five parallel frames that pass Jacobi, each
    # drawn many times in one stream on a fresh table.
    monkeypatch.setattr(sscurv.suite, "_table", None)
    config = FuzzConfig(count=80, seed=3, pool=(0, 1), require_parallel_xi=True)
    frames = [frame for _, frame in _accepted_frames(config)]
    distinct = {frame.c for frame in frames}
    assert len(frames) > 2 * len(distinct)
    probes_run = count_calls(monkeypatch, probes, "run_probe")
    validations = count_calls(monkeypatch, sscurv.geometry, "validate")
    doc = fuzz(config)
    assert doc["ok"] and doc["accepted"] == doc["parallel_accepted"] == len(frames)
    assert len(validations) == len(distinct)
    assert {spec.frame.c for spec, in validations} == distinct
    assert len(probes_run) == len(distinct) * len(probes.PROBE_ORDER)
    assert len(_shipped_verdicts()) == len(distinct)


def test_a_registry_swap_after_a_warm_stream_yields_every_certificate(monkeypatch):
    config = FuzzConfig(count=40, seed=42)
    clean = fuzz(config)  # every frame of the stream judged by the shipped probes
    assert clean["ok"] and clean["accepted"] >= 2
    _double_b2(monkeypatch)
    doc = fuzz(config)
    certs = doc["unexpected"]
    assert doc["accepted"] == clean["accepted"]
    assert len(certs) == doc["accepted"] == doc["probe_counts"]["B2"]["fail"]
    assert [c["candidate_index"] for c in certs] == [i for i, _ in _accepted_frames(config)]
    monkeypatch.undo()
    assert emit_report(fuzz(config), "json") == emit_report(clean, "json")


def test_certificates_of_a_repeated_frame_name_their_own_candidate(monkeypatch):
    _double_b2(monkeypatch)
    config = FuzzConfig(count=40, seed=3, pool=(0, 1), require_parallel_xi=True)
    doc = fuzz(config)
    certs = doc["unexpected"]
    accepted = _accepted_frames(config)
    assert [c["candidate_index"] for c in certs] == [index for index, _ in accepted]
    by_frame = defaultdict(list)
    for cert, (index, frame) in zip(certs, accepted):
        spec = geometry_from_dict(cert["geometry"]).spec
        assert spec.name == f"fuzz-3-{index}" and spec.frame == frame
        by_frame[frame.c].append(cert)
    assert max(map(len, by_frame.values())) > 1
    for same in by_frame.values():
        # One frame, one verdict: the certificates differ in the index and name only.
        parts = {json.dumps({**c, "candidate_index": None,
                             "geometry": {**c["geometry"], "name": None}}) for c in same}
        assert len(parts) == 1


@pytest.mark.parametrize("parallel", (False, True))
@pytest.mark.parametrize("cap", (1, 3))
def test_a_small_verdict_cap_leaves_stream_bytes_unchanged(monkeypatch, parallel, cap):
    config = FuzzConfig(count=100, seed=42, require_parallel_xi=parallel)
    monkeypatch.setattr(sscurv.suite, "_table", None)
    want = emit_report(fuzz(config), "json")
    monkeypatch.setattr(sscurv.suite, "_table", None)
    monkeypatch.setattr(sscurv.suite, "VERDICT_CAP", cap)
    assert emit_report(fuzz(config), "json") == want  # on a fresh table
    assert 1 <= len(_shipped_verdicts()) <= cap
    assert emit_report(fuzz(config), "json") == want  # on the table it left


def test_judging_a_frame_that_fails_validation_raises():
    # Every frame the fuzzer judges passed Jacobi on g = I and the unit,
    # compatible xi = e3, so it validates. A frame that fails ([e1,e2] = e3/2,
    # [e1,e3] = 2e1/3: the cyclic sum at (1, 2, 3) is nonzero) is refused
    # loudly, never counted.
    frame = FrameAlgebra.from_entries(3, {(2, 0, 1): rat(1, 2), (0, 0, 2): rat(2, 3)})
    assert frame.jacobi_violations()
    metric, dist = _fuzz_field()
    with pytest.raises(GeometryError, match="jacobi"):
        sscurv.suite._judge_frame(GeometrySpec("fuzz-jacobi", frame, metric, dist))


_STORE_RATS = (rat(-2), rat(-1), rat(-1, 2), rat(0), rat(1, 3), rat(1, 2), rat(1), rat(2))


@settings(deadline=None)
@given(seed=st.integers(0, 2 ** 32), count=st.integers(1, 40),
       pool=st.sets(st.sampled_from(_STORE_RATS), min_size=1, max_size=4),
       parallel=st.booleans(), cap=st.integers(1, 3))
def test_the_verdict_store_never_changes_stream_bytes(seed, count, pool, parallel, cap):
    config = FuzzConfig(count=count, seed=seed, pool=tuple(pool), require_parallel_xi=parallel)
    with mock.patch.object(sscurv.suite, "_table", None):
        want = emit_report(fuzz(config), "json")  # on a fresh dict
        assert emit_report(fuzz(config), "json") == want  # on the dict it left
        with mock.patch.object(sscurv.suite, "_table", None), \
                mock.patch.object(sscurv.suite, "VERDICT_CAP", cap):
            assert emit_report(fuzz(config), "json") == want
            assert len(_shipped_verdicts()) <= cap
        # An equal but distinct B2 starts a new dict.
        defn, warm = probes.REGISTRY["B2"], _shipped_verdicts()
        with mock.patch.dict(probes.REGISTRY, {"B2": dataclasses.replace(defn)}):
            assert emit_report(fuzz(config), "json") == want
            assert _shipped_verdicts() is not warm
        assert probes.REGISTRY["B2"] is defn
        assert emit_report(fuzz(config), "json") == want  # the shipped B2 put back
