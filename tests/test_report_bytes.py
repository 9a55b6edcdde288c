"""Report bytes pinned by digest.

The digests were recorded at commit 43b5dba, whose kernels loop densely over
every index tuple through checked indexing. The zero-skipping flat-offset
kernels must reproduce those reports byte for byte: exact arithmetic leaves
no room for a sum taken in another order to differ.
"""

import gc
import hashlib
import json
import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import DIM, c_rows_of, oracle_inverse
from sscurv import (BUILTIN_NAMES, DistinguishedField, FrameAlgebra, FuzzConfig,
                    GeometrySpec, MetricFrame, ProbeContext, ScalarJet, SolitonKind,
                    SolitonProblem, Tensor, build_report, builtin, constant_sectional, fuzz,
                    proof_step_probes, rat, residual, run_suite)
import sscurv.suite
from sscurv.geomio import dumps_json
from sscurv.report import emit_report, serialize_value, verdict_to_dict
from sscurv.tensor import DOWN, UP

SUITE_DIGESTS = {
    ("example1", "json"): "dffb31a8a7158a07f97a892de06b7ba7df54faabfec66c01516e56c30bcc95c7",
    ("example1", "text"): "ba5c3d1a292cd023d113881bedc3682befca5b23eccb621d5ce51c000eac2ae1",
    ("h2xr", "json"): "7ae6541a07b4318138653976a6c9aa3ea553ecacb11ae4fbfa286f6b4ef195d6",
    ("h2xr", "text"): "f36e4095e917b403323590ab35a41604a3d6c198697067782075c9d9985ffc1e",
    ("flat", "json"): "8d6ffab7b7b8a5c5f18ef4380ff497135ecb9cb953bb2ccc52c8a042ad89e004",
    ("flat", "text"): "5084a8abb8d99a5e2ceeec7b365499ddfa29c4cb48050cfec7886db11fbe2d83",
}

# Seed 42, 100 candidates per stream (40 general and 9 parallel accepted).
FUZZ_DIGESTS = {
    (False, "json"): "1771b36d676323c1e254473042edac758125ebba7e07fcc6f9efb60f9a3bcc07",
    (False, "text"): "cb264c6b9ad85fcc8e66086950b95cd9bec8f5ef67c71d1d0300634114ce9345",
    (True, "json"): "e632951593c3177770ab33e4de35ef206935f543d1f466bed73e28d37a7d4ad3",
    (True, "text"): "00bf7487b3abe967e9c035085672eeed1903c754e44e68dd387cb95accda1177",
}


# Seed 7, 200 candidates per stream, on pools other than the default: the
# draws are put over the pool's lcm (15 and 1 here, 2 by default), with signs.
# (json, text) digests, recorded at commit 7cb8cd9.
POOL = ("-1/5", 0, "1/3", 7)
POOL_FUZZ_DIGESTS = {
    (POOL, False): ("0cac20ac0fb1c79f7aae24efa48a9a0caaf5d18077b39ae553922675ceb7db95",
                    "29fb563bd283bd0dcd93b80785239264aa7ded5f4e36153e4a9ca677337dee4c"),
    (POOL, True): ("5331cef9da2be8bb0c6ed1ff5af0dfa4fe84efe9149a824a8006f64367d57194",
                   "4abd960d749180f124a652891d28a6a96accb04c8f84cd0a904b6a7f782cbc0d"),
    ((0,), False): ("d64b517175c8fecfadd1d73e1937eb7712e4f446153e0f5cb6a2cc02090292a8",
                    "e7ca39853c18d773e24d9e8baf8fbc2da9de2224bd4b791f631921091a180939"),
}


def digest(doc, fmt):
    return hashlib.sha256(emit_report(doc, fmt).encode()).hexdigest()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_suite_report_bytes(name):
    doc = run_suite(builtin(name), "all")
    for fmt in ("json", "text"):
        assert digest(doc, fmt) == SUITE_DIGESTS[name, fmt], (name, fmt)


@pytest.mark.parametrize("parallel", (False, True))
def test_fuzz_report_bytes(monkeypatch, parallel):
    # First on a fresh verdict table, then on the table the same stream just
    # filled, where every frame is counted from its verdict.
    monkeypatch.setattr(sscurv.suite, "_table", None)
    config = FuzzConfig(count=100, seed=42, require_parallel_xi=parallel)
    for field in ("fresh", "warm"):
        doc = fuzz(config)
        for fmt in ("json", "text"):
            assert digest(doc, fmt) == FUZZ_DIGESTS[parallel, fmt], (parallel, fmt, field)


@pytest.mark.parametrize("pool, parallel", list(POOL_FUZZ_DIGESTS))
def test_custom_pool_fuzz_report_bytes(pool, parallel):
    doc = fuzz(FuzzConfig(count=200, seed=7, pool=pool, require_parallel_xi=parallel))
    assert (digest(doc, "json"), digest(doc, "text")) == POOL_FUZZ_DIGESTS[pool, parallel]


# -- general metrics --------------------------------------------------------
#
# Two geometries off the identity metric, built here from a normal form
# pushed forward by a fixed rational B (new frame e'_a = B^c_a e_c):
# C'^k_ab = (B^-1)^k_m C^m_cd B^c_a B^d_b, g' = B^T B, xi' = B^-1 xi.
# Their digests were recorded at commit d5ab679, before the integer kernels.

def _push_forward(name, c_rows, b_rows, xi):
    n = DIM
    b = [[Fraction(x) for x in row] for row in b_rows]
    b_inv = oracle_inverse(b)
    c = [sum(b_inv[k][m] * c_rows[m][p][q] * b[p][i] * b[q][j]
             for m in range(n) for p in range(n) for q in range(n))
         for k in range(n) for i in range(n) for j in range(n)]
    g = [[sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    xi = [sum(b_inv[k][m] * Fraction(xi[m]) for m in range(n)) for k in range(n)]
    frame = FrameAlgebra(n, Tensor((UP, DOWN, DOWN), n, [rat(str(x)) for x in c]))
    metric = MetricFrame.from_tensor(
        Tensor.from_rows((DOWN, DOWN), [[rat(str(x)) for x in row] for row in g]))
    dist = DistinguishedField.from_xi(Tensor.vector([rat(str(x)) for x in xi]), metric)
    return GeometrySpec(name, frame, metric, dist)


def _structure(entries):
    """Nested C^k_ij from 0-based {(k, i, j): value}, completed antisymmetrically."""
    c = [[[Fraction(0)] * DIM for _ in range(DIM)] for _ in range(DIM)]
    for (k, i, j), v in entries.items():
        c[k][i][j] = Fraction(v)
        c[k][j][i] = -Fraction(v)
    return c


def milnor_pushed():
    # Unimodular [e2,e3] = 2 e1, [e3,e1] = -e2, [e1,e2] = 1/2 e3; xi = e3 (unit, not parallel).
    c = _structure({(0, 1, 2): 2, (1, 2, 0): -1, (2, 0, 1): Fraction(1, 2)})
    b = [[1, Fraction(1, 2), 0], [Fraction(-1, 3), 1, 1], [0, 2, 1]]
    return _push_forward("milnor-pushed", c, b, (0, 0, 1))


def solvable_pushed():
    # Non-unimodular [e3, e_a] = A e_a with A = [[1, 2], [-1/2, 1/3]]; xi not unit.
    c = _structure({(0, 2, 0): 1, (1, 2, 0): Fraction(-1, 2),
                    (0, 2, 1): 2, (1, 2, 1): Fraction(1, 3)})
    b = [[2, 0, 1], [1, 1, 0], [0, Fraction(-1, 3), 1]]
    return _push_forward("solvable-pushed", c, b, (1, -1, 2))


GENERAL_GEOMETRIES = {"milnor-pushed": milnor_pushed, "solvable-pushed": solvable_pushed}

GENERAL_SUITE_DIGESTS = {
    "milnor-pushed": "b38fbb52f290ed26757004bf8aa7d65ed190a0f661c35250bc27ddfd3e753723",
    "solvable-pushed": "fd4e0c7ab2e9d1376e659f41e6dfd1013931da177ac6de8c751a5f2ffb88c67f",
}


@pytest.mark.parametrize("name", sorted(GENERAL_GEOMETRIES))
def test_general_metric_suite_report_bytes(name):
    spec = GENERAL_GEOMETRIES[name]()
    assert spec.metric.g != MetricFrame.identity(DIM).g
    doc = run_suite(spec, "all")
    assert digest(doc, "json") == GENERAL_SUITE_DIGESTS[name], name


def _jet(spec, d, sym):
    """Consistent jet dd = sym + 1/2 C^k_ij d_k."""
    c = c_rows_of(spec.frame)
    d = [Fraction(x) for x in d]
    dd = [[Fraction(sym[i][j]) + sum(c[k][i][j] * d[k] for k in range(DIM)) / 2
           for j in range(DIM)] for i in range(DIM)]
    return ScalarJet(Tensor.covector([rat(str(x)) for x in d]),
                     Tensor.from_rows((DOWN, DOWN), [[rat(str(x)) for x in r] for r in dd]))


def milnor_problems(spec):
    """One problem per kind; only the zero-jet Yamabe one at lambda = r-hat is a soliton."""
    eye = [[int(i == j) for j in range(DIM)] for i in range(DIM)]
    zero = [[0] * DIM for _ in range(DIM)]
    sym = [[1, 0, Fraction(1, 3)], [0, -1, 0], [Fraction(1, 3), 0, 2]]
    return [
        SolitonProblem(SolitonKind.RICCI, rat(-1), _jet(spec, (1, 0, Fraction(-1, 2)), sym)),
        SolitonProblem(SolitonKind.YAMABE, rat(-17, 8), ScalarJet.zero(DIM)),
        SolitonProblem(SolitonKind.EINSTEIN, rat(1, 2), _jet(spec, (0, 2, 1), zero)),
        SolitonProblem(SolitonKind.M_QUASI, rat(3, 2), _jet(spec, (-1, Fraction(1, 3), 0), eye),
                       m=2),
    ]


def _literal_jet(d, dd):
    return ScalarJet(Tensor.covector([rat(x) for x in d]),
                     Tensor.from_rows((DOWN, DOWN), [[rat(x) for x in row] for row in dd]))


def h2xr_problems(spec):
    """A soliton of each kind with a nonzero jet, so every proof step is evaluated.

    The jets solve the soliton equation and the commutator constraint, but
    constant first derivatives are not integrable here, so the proof steps
    report fail; the digests pin those deviations too.
    """
    return [
        SolitonProblem(SolitonKind.RICCI, rat(-1), _literal_jet(
            ("1", "0", "-1/2"), [["5/2", "-1", "0"], ["0", "5/2", "0"], ["0", "0", "-1/2"]])),
        SolitonProblem(SolitonKind.YAMABE, rat(1, 2), _literal_jet(
            ("0", "2", "1"), [["1/2", "0", "0"], ["0", "-3/2", "0"], ["0", "0", "-3/2"]])),
        SolitonProblem(SolitonKind.EINSTEIN, rat(2), _literal_jet(
            ("1/3", "-1", "0"), [["-2", "-1/3", "0"], ["0", "-1", "0"], ["0", "0", "-4"]])),
        SolitonProblem(SolitonKind.M_QUASI, rat(3, 2), _literal_jet(
            ("-1", "1/3", "2"),
            [["4/3", "5/6", "-1"], ["-1/6", "5/9", "1/3"], ["-1", "1/3", "-1/2"]]), m=2),
    ]


SOLITON_GEOMETRIES = {
    "h2xr": (lambda: builtin("h2xr"), h2xr_problems),
    "milnor-pushed": (milnor_pushed, milnor_problems),
}

VERDICT_DIGESTS = {
    ("h2xr", "ricci"):
        "6866f55f3facce6a286b37b834fe436e74150cb4360b854384aef848c1ca79f0",
    ("h2xr", "yamabe"):
        "209487dc1910cad395bcefa5e4472a8721e07cf54e4a306a90a2e99b44d5ecce",
    ("h2xr", "einstein"):
        "d47e44110a6174c5e4dc66ff11354f9eb367be3bcca1bec796f6e6e05c9e0cb3",
    ("h2xr", "mquasi"):
        "f64e880a0cd566a59c0b43f7840d6c80faf87da694800d291837f1f4a83981ad",
    ("milnor-pushed", "ricci"):
        "8869ab10081a985fbc6318a3a4422c0dcd94a9b9e2c42254c5f5189b3a4de115",
    ("milnor-pushed", "yamabe"):
        "2c75a049c713df91a45910aa53d4a74c01a1bcc4c0560dc735a7ef72d9c7fdd3",
    ("milnor-pushed", "einstein"):
        "8d7954cec5403394413f2844550fea6bdd56c6698031dd88fc9a42d4e9a410d0",
    ("milnor-pushed", "mquasi"):
        "7a6ceaa6b68a6a0940e2707cb0f8e6614450f28faab27eab01c3e56dbd8ee5fe",
}


@pytest.mark.parametrize("name", sorted(SOLITON_GEOMETRIES))
def test_soliton_verdict_bytes(name):
    build, problems = SOLITON_GEOMETRIES[name]
    spec = build()
    for problem in problems(spec):
        doc = verdict_to_dict(problem, residual(spec, problem),
                              proof_step_probes(spec, problem))
        assert doc["is_soliton"] == (name == "h2xr" or problem.kind is SolitonKind.YAMABE)
        text = json.dumps(doc, indent=2)
        assert (hashlib.sha256(text.encode()).hexdigest()
                == VERDICT_DIGESTS[name, problem.kind.value]), (name, problem.kind)


# -- failure text and constant sectional curvature --------------------------
#
# Geometries that fail validation, reported with include_tables=False, and
# the constant sectional curvature of both connections on three geometries.
# The digests were recorded at commit 45276a3, whose checks ran in Fraction
# arithmetic; the integer checks must reproduce every detail string and kappa.

def _tensor(variance, n, values):
    return Tensor(variance, n, [rat(str(x)) for x in values])


def _spec(name, c, g_rows, xi, psi=None, jet=None):
    n = len(g_rows)
    frame = FrameAlgebra(n, _tensor((UP, DOWN, DOWN), n, c))
    metric = MetricFrame.from_tensor(_tensor((DOWN, DOWN), n, [x for r in g_rows for x in r]))
    xi = _tensor((UP,), n, xi)
    dist = (DistinguishedField.from_xi(xi, metric) if psi is None
            else DistinguishedField(xi, _tensor((DOWN,), n, psi)))
    return GeometrySpec(name, frame, metric, dist, jet)


def _antisymmetric(n, entries):
    c = [Fraction(0)] * n ** 3
    for (k, i, j), v in entries.items():
        c[(k * n + i) * n + j] = Fraction(v)
        c[(k * n + j) * n + i] = -Fraction(v)
    return c


GENERAL_G = [[2, Fraction(1, 3), 0], [Fraction(1, 3), 1, Fraction(-1, 5)], [0, Fraction(-1, 5), 3]]


def failing_geometries():
    # [e1,e2] = 1/2 e3, [e1,e3] = 2/3 e1: the cyclic sum at (1, 2, 3) is nonzero.
    jacobi = _antisymmetric(3, {(2, 0, 1): Fraction(1, 2), (0, 0, 2): Fraction(2, 3)})
    skew = _antisymmetric(3, {(0, 1, 2): Fraction(1, 7), (1, 2, 0): Fraction(-3, 11)})
    lopsided = list(skew)
    lopsided[(1 * 3 + 0) * 3 + 1] = Fraction(1, 3)   # C^2_12 = 1/3 but C^2_21 = 0
    lopsided[(2 * 3 + 2) * 3 + 2] = Fraction(-2, 5)  # C^3_33 != 0
    h2xr = _antisymmetric(3, {(0, 0, 1): -1})
    jet = ScalarJet(_tensor((DOWN,), 3, [Fraction(1, 3), 2, 0]),
                    _tensor((DOWN, DOWN), 3, [1, Fraction(1, 2), 0, Fraction(1, 2), 0, 0, 0, 0, 5]))
    return {
        "jacobi": _spec("jacobi", jacobi, GENERAL_G, (0, Fraction(1, 2), 1)),
        "non-antisymmetric": _spec("non-antisymmetric", lopsided, GENERAL_G, (1, 0, 0)),
        "non-symmetric-metric": _spec(
            "non-symmetric-metric", skew, [[1, Fraction(1, 2), 0], [0, 1, 0], [0, 0, 1]], (0, 0, 1)),
        "indefinite-metric": _spec(
            "indefinite-metric", skew,
            [[1, Fraction(1, 3), 0], [Fraction(1, 3), Fraction(-1, 2), 0], [0, 0, 3]], (0, 0, 1)),
        "semidefinite-metric": _spec(
            "semidefinite-metric", skew, [[1, 1, 0], [1, 1, 1], [0, 1, 1]], (0, 0, 1)),
        "psi-mismatch": _spec("psi-mismatch", h2xr, GENERAL_G, (0, 0, 1), psi=(0, Fraction(1, 5), 1)),
        "inconsistent-jet": _spec("inconsistent-jet", h2xr,
                                  [[1, 0, 0], [0, 1, 0], [0, 0, 1]], (0, 0, 1), jet=jet),
        "dim2-lopsided": _spec("dim2-lopsided", [1, Fraction(1, 2), 0, 0, 0, 0, Fraction(2, 7), 0],
                               [[0, 1], [1, 0]], (1, 1)),
    }


FAILURE_DIGESTS = {
    "jacobi":
        "7ffdf7d75936f133ea86e703f5e0dad69e7ffd1f4ec32e19db78b67bb6b5e4bd",
    "non-antisymmetric":
        "b04acdc47faabbf0d5623eb148d0aedc13f02891d808124b185fb363aebf8921",
    "non-symmetric-metric":
        "6561380572ef9099837d60554427d98e7523853b6de9cbeceac09493ae06313a",
    "indefinite-metric":
        "5e92525f90aa8e595fc915d143694d45b4946273076c289362b5cd6e41b18f4d",
    "semidefinite-metric":
        "2abcb0b1d61a7376e256eaeaf45481ca34ee26e930c9be2e7422e06e645b2e10",
    "psi-mismatch":
        "f8bcc5bee46e2141e4b6b63eac9586a44b67f1415f6f8b9b0e032cec56e5e377",
    "inconsistent-jet":
        "4ec10d567c483a3f15019ef501c782c5d599e1019d83e5f444b7804de8e66e47",
    "dim2-lopsided":
        "f2d4d5d5e2feac9be19304eaba9a4f32d0bdfb90517f9452a62a028fafb5b35b",
}


@pytest.mark.parametrize("name", sorted(FAILURE_DIGESTS))
def test_failing_validation_report_bytes(name):
    spec = failing_geometries()[name]
    doc = build_report(spec, include_tables=False)
    assert not doc["validation"]["ok"]
    assert digest(doc, "json") == FAILURE_DIGESTS[name], name


def round_su2_pushed():
    # [e2,e3] = e1, [e3,e1] = e2, [e1,e2] = e3 with g = I has constant
    # curvature 1/4; pushed forward it keeps kappa on a general metric.
    c = _structure({(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1})
    b = [[1, Fraction(1, 2), 0], [Fraction(-1, 3), 1, 1], [0, 2, 1]]
    return _push_forward("round-su2-pushed", c, b, (0, 0, 1))


SECTIONAL_GEOMETRIES = {
    "h2xr": lambda: builtin("h2xr"),
    "flat": lambda: builtin("flat"),
    "milnor-pushed": milnor_pushed,
    "round-su2-pushed": round_su2_pushed,
}

SECTIONAL_DIGESTS = {
    "h2xr": "cedc62c407d514a02f8b3c14b030a5916d85c5f36d4ddffa7d7f94adc54e3489",
    "flat": "bb225b52a480ba12140e58a9570f4407d7d8d949cef372f94717fa4aef42c1f9",
    "milnor-pushed": "cedc62c407d514a02f8b3c14b030a5916d85c5f36d4ddffa7d7f94adc54e3489",
    "round-su2-pushed": "0ec2769694b91a5f57e5367482002bef9719bb40e483f03f7dba10c8d374999b",
}


@pytest.mark.parametrize("name", sorted(SECTIONAL_DIGESTS))
def test_constant_sectional_bytes(name):
    ctx = ProbeContext(SECTIONAL_GEOMETRIES[name]())
    doc = {kind: serialize_value(constant_sectional(bundle, ctx.spec.metric))
           for kind, bundle in (("lc", ctx.lc_bundle), ("ssnmc", ctx.hat_bundle))}
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SECTIONAL_DIGESTS[name], (name, text)


# -- the JSON writer --------------------------------------------------------
#
# Every digest above goes through geomio.dumps_json; these tests hold it to
# json.dumps(indent=2) on any report-shaped tree, not only on the pinned ones.

_awkward_text = st.text(st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f az\u00e9\u2028\u20ac\U0001f600'))
_report_leaves = (st.none() | st.booleans() | st.integers()
                  | st.integers(-10 ** 60, 10 ** 60) | st.text() | _awkward_text)
_report_trees = st.recursive(
    _report_leaves,
    lambda kids: (st.lists(kids, max_size=5) | st.lists(kids, max_size=5).map(tuple)
                  | st.dictionaries(st.text() | _awkward_text, kids, max_size=5)),
    max_leaves=40)

# Near-matrices: lists of rows where a row may be empty, a tuple, mixed
# str/int, or nested one level deeper, next to plain rows of strings.
_cells = (st.text(max_size=3) | _awkward_text | st.integers(-5, 5)
          | st.lists(st.text(max_size=2), max_size=2))
_rows = (st.lists(st.text(max_size=3) | _awkward_text, max_size=4)
         | st.lists(st.text(max_size=3), max_size=4).map(tuple)
         | st.lists(_cells, max_size=4))
_matrices = st.lists(_rows, min_size=1, max_size=4)
_SHARED_ROW = ["1", "-1/2"]


@st.composite
def _trees_sharing_a_list(draw):
    """A tree that holds one list object twice, at one depth or at two."""
    shared = draw(_matrices | st.lists(_report_trees, min_size=1, max_size=4))
    other = draw(_report_trees)
    if draw(st.booleans()):
        return [shared, other, shared]
    return {"a": shared, "b": [other, {"c": shared}], "d": [[shared]]}


# Near-grids: uniform grids of strings of depth 1-4, square or not, as they
# are, with one defect that sends the writer item by item (a tuple level, an
# empty sub-list, a ragged level, an int leaf, a str among lists), or with one
# of their sub-grids shared at a second depth.
_GRID_DEFECTS = ("none", "tuple", "empty", "ragged", "int", "str", "shared")


def _grid_of(shape, leaves):
    """A fresh nested list of this shape, filled row-major from the iterator leaves."""
    if len(shape) == 1:
        return [next(leaves) for _ in range(shape[0])]
    return [_grid_of(shape[1:], leaves) for _ in range(shape[0])]


@st.composite
def _near_grids(draw):
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4), label="shape")
    size = math.prod(shape)
    leaves = draw(st.lists(st.text(max_size=3) | _awkward_text, min_size=size, max_size=size))
    grid = _grid_of(shape, iter(leaves))
    defect = draw(st.sampled_from(_GRID_DEFECTS), label="defect")
    if defect == "none":
        return grid
    # Walk down to a list node; an int leaf goes into a row of leaves.
    depth = len(shape) - 1 if defect == "int" else draw(st.integers(0, len(shape) - 1))
    parent, at, node = None, 0, grid
    for _ in range(depth):
        parent, at = node, draw(st.integers(0, len(node) - 1))
        node = node[at]
    i = draw(st.integers(0, len(node) - 1))
    if defect == "tuple":
        if parent is None:
            return tuple(grid)
        parent[at] = tuple(node)
    elif defect == "empty":
        node[i] = []
    elif defect == "ragged":
        node.append(node[-1])
    elif defect == "int":
        node[i] = draw(st.integers(-5, 5))
    elif defect == "str":
        node[i] = draw(st.text(max_size=3))
    else:  # one level deeper than it sits in the grid
        for _ in range(depth + 1):
            node = [node]
        return {"grid": grid, "again": node}
    return grid


# Near-tables: dicts of dicts with one tuple of str keys and int leaves, as
# probe_counts is, as they are or with one defect that sends the writer item
# by item (a bool, str or nested-list leaf, a row with its keys in another
# order or one key missing, an empty row), or with one row object under a
# second key; each sometimes twice in a list, one level deeper.
_TABLE_DEFECTS = ("none", "bool", "str", "list", "order", "missing", "empty", "shared")
_keys = st.lists(st.text(max_size=3) | _awkward_text, min_size=1, max_size=4, unique=True)


@st.composite
def _near_tables(draw):
    keys, cols = draw(_keys, label="keys"), draw(_keys, label="cols")
    table = {key: {col: draw(st.integers() | st.integers(-10 ** 30, 10 ** 30)) for col in cols}
             for key in keys}
    defect = draw(st.sampled_from(_TABLE_DEFECTS), label="defect")
    key, col = draw(st.sampled_from(keys)), draw(st.sampled_from(cols))
    row = table[key]
    if defect == "bool":
        row[col] = draw(st.booleans())
    elif defect == "str":
        row[col] = draw(st.text(max_size=3))
    elif defect == "list":
        row[col] = draw(st.lists(st.lists(st.text(max_size=2), max_size=2), max_size=2))
    elif defect == "order":
        table[key] = dict(reversed(row.items()))
    elif defect == "missing":
        del row[col]
    elif defect == "empty":
        table[key] = {}
    elif defect == "shared":
        table["again " + key] = row
    return {"t": [table, table]} if draw(st.booleans()) else table


@settings(max_examples=max(300, settings.default.max_examples))
@given(_report_trees | _matrices | _trees_sharing_a_list() | _near_grids() | _near_tables())
@example(_grid_of((3, 3, 3, 3), iter(map(str, range(81)))))
@example(_grid_of((2, 5), iter(["0", "1/2", "-3", "\u00e9", "\u2028", "", '"', "\\", "x", "9"])))
@example(["0", "1/2", 3, True, "-1"])
@example([True, 1, False, 0, None, -0])
@example({"": [], "e": {}, "n": [[], [[]], {"x": {}}], "t": ("a", ("b",))})
@example([["a", "b"], [], ("c",), ["d", 1], [["e"]], ["f"]])
@example([["a"], "b"])
@example([["a"], {"b": "c"}])
@example({"x": _SHARED_ROW, "y": [_SHARED_ROW, [_SHARED_ROW]], "z": [[_SHARED_ROW]] * 2})
@example({"B2": {"pass": 3, "fail": 0}, "B3": {"pass": -1, "fail": 10 ** 40}})
@example({"%d": {"%": 1, "x%s": 2}, "%%": {"%": -3, "x%s": 10 ** 40}})
@example([{"a": {"x": 1}}, {"a": {"x": True}}, {"a": {"x": 1}, "b": {}}])
def test_writer_matches_json_dumps_indent_2(value):
    assert dumps_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    0.5, ["1", 2.0], {1, 2}, b"x", ["a", b"x"], object(), {1: "a"}, {"k": {None: 0}},
], ids=["float", "float-in-row", "set", "bytes", "bytes-in-row", "object", "int-key",
        "none-key"])
def test_writer_refuses_non_report_values(value):
    with pytest.raises(TypeError):
        dumps_json(value)


@pytest.mark.parametrize("value", [
    {"a": {"x": 1}, 2: {"x": 1}}, {"a": {1: 0}, "b": {1: 0}}, {"a": {"x": 1}, "b": {"x": 1, 2: 0}},
], ids=["row-key", "column-key", "one-column-key"])
def test_writer_refuses_a_table_with_a_non_str_key(value):
    with pytest.raises(TypeError, match="report keys must be str, got int"):
        dumps_json(value)


def _lists(value):
    """Every list object in a report tree, depth first."""
    if isinstance(value, dict):
        for item in value.values():
            yield from _lists(item)
    elif isinstance(value, list):
        yield value
        for item in value:
            yield from _lists(item)


def test_one_report_shares_each_distinct_tensor_list():
    doc = run_suite(builtin("h2xr"), "all")
    b3 = next(p for p in doc["probes"] if p["id"] == "B3")
    assert b3["lhs"] is doc["tables"]["riemann_ssnmc"]
    for p in doc["probes"]:  # a passing tensor probe has equal sides: one list
        if p["status"] == "pass" and isinstance(p["lhs"], list):
            assert p["lhs"] is p["rhs"], p["id"]
    assert json.loads(emit_report(doc, "json")) == doc


def test_no_list_outlives_its_report():
    spec = builtin("h2xr")
    first, second = run_suite(spec, "all"), run_suite(spec, "all")
    assert emit_report(first, "json") == emit_report(second, "json")
    seen = {id(x) for x in _lists(first)}
    assert not any(id(x) in seen for x in _lists(second))


def test_writer_leaves_no_reference_cycles():
    doc = run_suite(builtin("example1"), "all")
    emit_report(doc, "json")
    gc.disable()
    try:
        gc.collect()
        for _ in range(3):
            emit_report(doc, "json")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_writer_keeps_bytes_across_interleaved_reports():
    # The writer keeps grid frames, dict key prefixes and table frames across
    # calls: reports of other shapes written in between change no byte.
    spec = milnor_pushed()
    problem = milnor_problems(spec)[0]
    docs = {
        "h2xr suite": run_suite(builtin("h2xr"), "all"),
        "fuzz": fuzz(FuzzConfig(count=100, seed=42)),
        "general-metric suite": run_suite(spec, "all"),
        "general-metric verdict": verdict_to_dict(problem, residual(spec, problem),
                                                  proof_step_probes(spec, problem)),
    }
    first = {name: emit_report(doc, "json") for name, doc in docs.items()}
    for name, doc in docs.items():
        assert first[name] == json.dumps(doc, indent=2) + "\n", name
    for _ in range(3):
        for name, doc in reversed(docs.items()):
            assert emit_report(doc, "json") == first[name], name


def test_writer_caches_are_bounded():
    from sscurv import geomio
    for cache in (geomio._grid_frame, geomio._key_prefixes, geomio._table_frame):
        assert cache.cache_info().maxsize is not None, cache.__name__
