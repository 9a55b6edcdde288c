"""The package surface, its cold start, the frozen records and the shared context."""

import ast
import copy
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sscurv
from conftest import make_spec
from sscurv import (Check, Connection, ConnectionKind, DistinguishedField, FrameAlgebra,
                    FuzzConfig, GeometryError, GeometrySpec, LoadedGeometry, MetricFrame,
                    NamedCheck, ProbeContext, ScalarJet, SolitonKind, SolitonProblem,
                    SscurvError, Tensor, ValenceError, ValidationReport, builtin, rat,
                    residual, run_probe, run_suite, validate)
from sscurv.cli import main
from sscurv.tensor import DOWN, UP

# A child interpreter imports the same sscurv as these tests, installed or not.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(Path(sscurv.__file__).parents[1]), os.environ.get("PYTHONPATH"))))}


def child_modules(*args) -> set[str]:
    """Every module a fresh `python -X importtime ARGS` imports, by name."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env=CHILD_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


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
    assert ctx.require_valid() is ctx


def test_context_of_shares_by_identity_in_one_slot():
    spec = builtin("h2xr")
    ctx = ProbeContext.of(spec)
    assert ProbeContext.of(spec) is ctx
    twin = copy.deepcopy(spec)
    assert twin == spec and twin is not spec
    assert ProbeContext.of(twin) is not ctx and ProbeContext.of(twin).spec is twin
    # One slot: asking about the twin replaced the context kept for spec.
    assert ProbeContext.of(spec) is not ctx and ProbeContext.of(spec).spec is spec
    assert ProbeContext(spec) is not ProbeContext.of(spec)  # the constructor never shares


def test_interleaved_specs_report_as_fresh_contexts():
    a, b = builtin("h2xr"), builtin("example1")
    problem = SolitonProblem(SolitonKind.YAMABE, rat(0), ScalarJet.zero(3))
    shared = [(run_suite(s), residual(s, problem)) for s in (a, b, a)]
    fresh = [(run_suite(copy.deepcopy(s)), residual(copy.deepcopy(s), problem))
             for s in (a, b, a)]
    assert shared == fresh
    assert [doc["geometry"] for doc, _ in shared] == ["h2xr", "example1", "h2xr"]


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


# `curvature` and `rat` are bound at import; the modules curvature imports
# come with it. Everything else waits for first use.
EAGER_MODULES = {"sscurv", "sscurv._version", "sscurv.rat", "sscurv.curvature",
                 "sscurv.connection", "sscurv.geometry", "sscurv.errors", "sscurv.tensor",
                 "sscurv.record"}


def test_import_loads_only_the_eager_submodules():
    loaded = {m for m in child_modules("-c", "import sscurv") if m.startswith("sscurv")}
    assert loaded == EAGER_MODULES


def test_soliton_command_skips_registry_suite_and_dataclasses():
    loaded = child_modules("-m", "sscurv.cli", "soliton", "--builtin", "h2xr",
                           "--type", "yamabe", "--lambda", "0")
    assert "sscurv.solitons" in loaded
    assert not {"dataclasses", "sscurv.probes", "sscurv.suite"} & loaded


def test_shadowing_names_survive_every_submodule_import():
    code = ("import importlib, pkgutil, sscurv\n"
            "for info in pkgutil.iter_modules(sscurv.__path__):\n"
            "    importlib.import_module('sscurv.' + info.name)\n"
            "print(type(sscurv.rat).__name__, type(sscurv.curvature).__name__)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=CHILD_ENV, timeout=60)
    assert proc.stdout.split() == ["function", "function"], proc.stderr
    for info in pkgutil.iter_modules(sscurv.__path__):
        importlib.import_module(f"sscurv.{info.name}")
    assert sscurv.rat is sys.modules["sscurv.rat"].rat
    assert sscurv.curvature is sys.modules["sscurv.curvature"].curvature


def test_every_public_name_is_its_home_modules_object():
    for module, names in sscurv._EXPORTS.items():
        home = importlib.import_module(f"sscurv.{module}")
        for name in names:
            assert getattr(sscurv, name) is getattr(home, name), name
    assert set(sscurv.SUITES) == set(sscurv.context.SUITE_NAMES)
    with pytest.raises(AttributeError):
        sscurv.no_such_name


def test_package_names_read_through_to_their_home_module(monkeypatch):
    # The package keeps the home module, not the name: a name rebound there
    # is read through, and the original again once it is put back.
    suite = importlib.import_module("sscurv.suite")
    original = sscurv.fuzz
    assert original is suite.fuzz

    def patched(config):
        return {}

    monkeypatch.setattr(suite, "fuzz", patched)
    assert sscurv.fuzz is patched
    monkeypatch.undo()
    assert sscurv.fuzz is original


def test_first_access_to_a_name_loads_its_home_module():
    code = ("import sys, sscurv\n"
            "print(sorted(m for m in sys.modules if m.startswith('sscurv')))\n"
            "run_suite = sscurv.run_suite\n"
            "print('sscurv.suite' in sys.modules, run_suite is sys.modules['sscurv.suite'].run_suite)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=CHILD_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    at_import, after_access = proc.stdout.splitlines()
    assert at_import == repr(sorted(EAGER_MODULES))
    assert after_access == "True True"


def comps_readers(path: Path) -> set[str]:
    """Qualified names of the functions in a source file that read an attribute `comps`."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Attribute) and node.attr == "comps":
            found.add(".".join(scope) or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def test_only_the_boundaries_read_tensor_comps():
    # A tensor has one representation, integer numerators over one
    # denominator. Values leave it through tensor.py alone: t[idx] for one
    # Rat (t[()] checks the rank), strings() for the serialiser. No module
    # in the package reads a `comps` attribute, and Tensor has none.
    package = Path(sscurv.__file__).parent
    readers = {(path.name, name) for path in sorted(package.glob("*.py"))
               for name in comps_readers(path)}
    assert readers == set()
    assert Tensor.__slots__ == ("variance", "dim", "nums", "den")
    assert not hasattr(Tensor.zeros((), 1), "comps")


def _problem(name):
    return SolitonProblem(SolitonKind.YAMABE, rat(len(name)), ScalarJet.zero(3))


# Each record class, built from a builtin geometry's name: the same name
# gives equal records, another name a different one.
RECORDS = {
    "FrameAlgebra": lambda name: builtin(name).frame,
    "MetricFrame": lambda name: MetricFrame.from_tensor(
        builtin(name).metric.g.scale(rat(len(name)))),
    "DistinguishedField": lambda name: DistinguishedField.from_xi(
        builtin(name).distinguished.xi.scale(rat(len(name))), builtin(name).metric),
    "ScalarJet": lambda name: ScalarJet(Tensor((DOWN,), 3, [rat(len(name))] * 3),
                                        Tensor.zeros((DOWN, DOWN), 3)),
    "GeometrySpec": builtin,
    "Check": lambda name: Check(name, True),
    "ValidationReport": lambda name: ValidationReport((Check(name, True),), True, False),
    "Connection": lambda name: ProbeContext(builtin(name)).lc,
    "CurvatureBundle": lambda name: ProbeContext(builtin(name)).lc_bundle,
    "LoadedGeometry": lambda name: LoadedGeometry(builtin(name), (f"note on {name}",)),
    "ProbeResult": lambda name: run_probe(builtin(name), "B3"),
    "SolitonProblem": _problem,
    "NamedCheck": lambda name: NamedCheck(name, False, "note"),
    "SolitonVerdict": lambda name: residual(builtin(name), _problem(name)),
    "FuzzConfig": lambda name: FuzzConfig(count=5, seed=len(name)),
}


@pytest.mark.parametrize("cls_name", sorted(RECORDS))
def test_records_are_frozen_values(cls_name):
    make = RECORDS[cls_name]
    a, b, other = make("h2xr"), make("h2xr"), make("example1")
    assert type(a).__name__ == cls_name
    fields = list(inspect.signature(type(a)).parameters)
    assert list(vars(a)) == fields
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    for field in fields:
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and a != object()
    assert repr(a) == f"{cls_name}({', '.join(f'{f}={getattr(a, f)!r}' for f in fields)})"


@pytest.mark.parametrize("make", [
    lambda: builtin("h2xr"),
    lambda: run_probe(builtin("h2xr"), "B13"),  # a dict lhs of tensors
    lambda: residual(builtin("h2xr"), SolitonProblem(SolitonKind.YAMABE, rat(0),
                                                     ScalarJet.zero(3))),
], ids=["GeometrySpec", "ProbeResult", "SolitonVerdict"])
def test_records_holding_tensors_copy_and_pickle(make):
    a = make()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and b == a and hash(b) == hash(a)
    t = pickle.loads(pickle.dumps(Tensor.vector([1, rat(1, 2)])))
    assert t == Tensor.vector([1, rat(1, 2)])
    with pytest.raises(AttributeError):
        t.nums = ()


def test_record_constructors_check_their_fields():
    jet = ScalarJet.zero(3)
    for kind, m in ((SolitonKind.M_QUASI, None), (SolitonKind.M_QUASI, 0),
                    (SolitonKind.RICCI, 2)):
        with pytest.raises(SscurvError, match="m"):
            SolitonProblem(kind, rat(1), jet, m)
    assert SolitonProblem(SolitonKind.M_QUASI, rat(1), jet, 2).m == 2
    with pytest.raises(SscurvError, match="count"):
        FuzzConfig(count=0)
    with pytest.raises(SscurvError, match="exact rationals"):
        FuzzConfig(pool=(rat(1), 0.5))
    assert FuzzConfig(pool=(rat(1), rat(-1))).pool == (rat(-1), rat(1))
    with pytest.raises(ValenceError):
        Connection(Tensor.zeros((DOWN, DOWN, DOWN), 3), ConnectionKind.CUSTOM)
    with pytest.raises(ValenceError):
        ScalarJet(Tensor.zeros((UP,), 3), Tensor.zeros((DOWN, DOWN), 3))
    with pytest.raises(ValenceError):
        ScalarJet(Tensor.zeros((DOWN,), 2), Tensor.zeros((DOWN, DOWN), 3))
    with pytest.raises(ValenceError):
        FrameAlgebra(2, Tensor.zeros((UP, DOWN, DOWN), 3))
    # The metric and field records check their variances and dims themselves,
    # so their factories refuse a wrong shape with the same error.
    g, g_inv = Tensor.zeros((DOWN, DOWN), 3), Tensor.zeros((UP, UP), 3)
    xi, psi = Tensor.zeros((UP,), 3), Tensor.zeros((DOWN,), 3)
    for bad in ((g_inv, g_inv), (g, g), (xi, g_inv), (g, Tensor.zeros((UP, UP), 2))):
        with pytest.raises(ValenceError):
            MetricFrame(*bad)
    for bad in ((psi, psi), (xi, xi), (g_inv, psi), (xi, Tensor.zeros((DOWN,), 2))):
        with pytest.raises(ValenceError):
            DistinguishedField(*bad)
    for bad in (g_inv, xi, Tensor.zeros((DOWN, DOWN, DOWN), 3)):
        with pytest.raises(ValenceError):
            MetricFrame.from_tensor(bad)
    for bad in (psi, Tensor.zeros((UP, UP), 3), Tensor.zeros((UP,), 2)):
        with pytest.raises(ValenceError):
            DistinguishedField.from_xi(bad, MetricFrame.identity(3))
    assert MetricFrame(g, g_inv).dim == DistinguishedField(xi, psi).xi.dim == 3
    spec = builtin("h2xr")
    with pytest.raises(ValenceError, match="disagree"):
        GeometrySpec("mixed", spec.frame, MetricFrame.identity(2), spec.distinguished)
    with pytest.raises(ValenceError, match="disagree"):
        GeometrySpec("mixed", spec.frame, spec.metric,
                     DistinguishedField.from_xi(Tensor.vector([rat(1)] * 2),
                                                MetricFrame.identity(2)))
