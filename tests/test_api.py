"""The package surface and the shared geometry context."""

import types

import pytest

import sscurv
from conftest import make_spec
from sscurv import (GeometryError, ProbeContext, ScalarJet, SolitonKind, SolitonProblem,
                    builtin, rat, residual, run_suite, validate)
from sscurv.cli import main


def test_all_names_exist_and_none_is_a_module():
    assert len(set(sscurv.__all__)) == len(sscurv.__all__)
    for name in sscurv.__all__:
        assert not isinstance(getattr(sscurv, name), types.ModuleType), name
    star = {}
    exec("from sscurv import *", star)
    assert set(star) - {"__builtins__"} == set(sscurv.__all__)


def test_context_of_wraps_a_spec_and_keeps_a_context():
    spec = builtin("h2xr")
    ctx = ProbeContext.of(spec)
    assert isinstance(ctx, ProbeContext) and ctx.spec is spec
    assert ProbeContext.of(ctx) is ctx
    assert ctx.require_valid() is ctx


def test_one_failure_summary_for_library_and_cli(tmp_path, capsys):
    # [e1,e2] = e3 with [e1,e3] = e1 breaks Jacobi; the metric is indefinite too.
    spec = make_spec("bad", {(2, 0, 1): 1, (0, 0, 2): 1},
                     g_rows=[[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    failures = validate(spec).failures
    assert failures.startswith("jacobi: Jacobi sum nonzero at (i, j, k) = (1, 2, 3)")
    assert failures.endswith("; metric-positive-definite: a leading principal minor "
                             "is not positive")
    expected = f"geometry fails structural validation ({failures})"
    problem = SolitonProblem(SolitonKind.YAMABE, rat(0), ScalarJet.zero(3))
    for call in (lambda: ProbeContext(spec).require_valid(), lambda: run_suite(spec),
                 lambda: residual(spec, problem)):
        with pytest.raises(GeometryError) as err:
            call()
        assert str(err.value) == expected

    path = tmp_path / "bad.json"
    path.write_text(sscurv.dumps_geometry(spec))
    assert main(["probe", "--geometry", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: geometry fails validation ({failures})\n"
