"""Fuzzer determinism and status expectations."""

import dataclasses
import itertools
import json

import pytest

from sscurv import (FuzzConfig, ProbeStatus, SscurvError, emit_report, exit_code,
                    format_rat, fuzz, rat, run_probe)
from sscurv import probes
from sscurv.geomio import geometry_from_dict
from sscurv.geometry import validate
from sscurv.suite import DEFAULT_POOL


def test_config_validation():
    with pytest.raises(SscurvError):
        FuzzConfig(count=0)
    with pytest.raises(SscurvError):
        FuzzConfig(pool=(0.5, 1))


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
    import random
    from sscurv.suite import _draw_candidate
    from sscurv.geometry import GeometrySpec, MetricFrame, DistinguishedField
    from sscurv.tensor import Tensor
    from sscurv.geomio import geometry_to_dict

    config = FuzzConfig(count=50, seed=5)
    rng = random.Random(config.seed)
    metric = MetricFrame.identity(3)
    dist = DistinguishedField.from_xi(Tensor.vector([0, 0, 1]), metric)
    for index in range(config.count):
        frame = _draw_candidate(rng, config)
        if frame.jacobi_violations():
            continue
        spec = GeometrySpec(f"fuzz-{config.seed}-{index}", frame, metric, dist)
        assert validate(spec).ok
        round_tripped = geometry_from_dict(geometry_to_dict(spec))
        assert round_tripped.spec == spec


def test_wrong_probe_yields_reproducible_certificates(monkeypatch):
    # A B2 whose right side is doubled fails on every accepted candidate,
    # since psi = e3 makes the true right side nonzero.
    defn = probes.REGISTRY["B2"]

    def doubled(ctx):
        lhs, rhs = defn.fn(ctx)
        return lhs, rhs.scale(2)

    monkeypatch.setitem(probes.REGISTRY, "B2", dataclasses.replace(defn, fn=doubled))
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
