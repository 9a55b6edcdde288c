"""Curvature bundles, sectional curvature, projective and conformal tensors."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (DIM, c_rows_of, geometries, make_spec, oracle_curvature,
                      small_nonzero_rats, small_rats, spd_metrics, tensor_to_rows,
                      valid_frames)
from sscurv import (DegeneratePlaneError, FrameAlgebra, Tensor,
                    UnsupportedDimensionError, ValenceError, builtin, conformal,
                    constant_sectional, curvature, levi_civita, projective, rat,
                    sectional, ssnmc)
from sscurv.probes import ProbeContext

E1 = Tensor.vector([1, 0, 0])
E2 = Tensor.vector([0, 1, 0])
E3 = Tensor.vector([0, 0, 1])


def lc_bundle(name):
    spec = builtin(name)
    return spec, curvature(levi_civita(spec.frame, spec.metric), spec.frame, spec.metric)


def hat_bundle(name):
    spec = builtin(name)
    lc = levi_civita(spec.frame, spec.metric)
    return spec, curvature(ssnmc(lc, spec.distinguished), spec.frame, spec.metric)


def test_example1_curvature_table():
    spec, b = lc_bundle("example1")
    r = b.riemann
    # The nine cataloged components, R[l, Y, U, V].
    def vec(k, i, j):
        return [r[l, k, i, j] for l in range(DIM)]
    assert vec(2, 0, 1) == [rat(0)] * 3            # R(k1,k2)k3 = 0
    assert vec(2, 1, 2) == [0, rat(-1), 0]          # R(k2,k3)k3 = -k2
    assert vec(2, 0, 2) == [rat(-1), 0, 0]          # R(k1,k3)k3 = -k1
    assert vec(1, 0, 1) == [rat(-1), 0, 0]          # R(k1,k2)k2 = -k1
    assert vec(1, 1, 2) == [0, 0, rat(1)]           # R(k2,k3)k2 = k3
    assert vec(1, 0, 2) == [rat(0)] * 3             # R(k1,k3)k2 = 0
    assert vec(0, 0, 1) == [0, rat(1), 0]           # R(k1,k2)k1 = k2
    assert vec(0, 1, 2) == [rat(0)] * 3             # R(k2,k3)k1 = 0
    assert vec(0, 0, 2) == [0, 0, rat(1)]           # R(k1,k3)k1 = k3


def test_example1_ricci_and_scalar():
    spec, b = lc_bundle("example1")
    assert b.ricci == spec.metric.g.scale(rat(-2))
    assert b.scalar == rat(-6)
    # Raising S = -2 g gives Q = -2 id (slot kept in place, variance (d, u)).
    q = b.ricci.apply_metric(spec.metric.g_inv, 1)
    assert q.variance == ("d", "u")
    for a in range(DIM):
        for l in range(DIM):
            assert q[a, l] == (rat(-2) if a == l else 0)
    assert b.ricci_op == Tensor.build(("u", "d"), DIM, lambda l, a: -2 * (l == a))


def test_flat_curvature_vanishes():
    _, b = lc_bundle("flat")
    assert b.riemann.is_zero() and b.ricci.is_zero() and b.scalar == 0


def test_h2xr_lc_scalar():
    _, b = lc_bundle("h2xr")
    assert b.scalar == rat(-2)
    assert [b.ricci[i, i] for i in range(DIM)] == [rat(-1), rat(-1), rat(0)]


def test_h2xr_hat_bundle():
    spec, b = hat_bundle("h2xr")
    assert [b.riemann[l, 2, 0, 2] for l in range(DIM)] == [rat(1), 0, 0]  # Rhat(e1,e3)e3 = e1
    assert b.ricci == Tensor.from_rows(("d", "d"),
                                       [[-1, 0, 0], [0, -1, 0], [0, 0, 2]])
    assert b.scalar == rat(0)


@settings(max_examples=40)
@given(geometries())
def test_curvature_matches_independent_oracle(spec):
    lc = levi_civita(spec.frame, spec.metric)
    b = curvature(lc, spec.frame, spec.metric)
    oracle = oracle_curvature(tensor_to_rows(lc.gamma), c_rows_of(spec.frame))
    assert tensor_to_rows(b.riemann) == oracle


def test_sectional_example1():
    spec, b = lc_bundle("example1")
    assert sectional(b, spec.metric, E1, E3) == rat(-1)
    assert sectional(b, spec.metric, E1, E2) == rat(-1)


def test_sectional_flat():
    spec, b = lc_bundle("flat")
    assert sectional(b, spec.metric, E1, E2) == 0
    assert sectional(b, spec.metric, E2, E3) == 0


def test_sectional_h2xr_hat():
    spec, b = hat_bundle("h2xr")
    assert sectional(b, spec.metric, E1, E3) == rat(1)
    assert sectional(b, spec.metric, E1, E2) == rat(-1)


def test_sectional_degenerate_plane():
    spec, b = lc_bundle("flat")
    with pytest.raises(DegeneratePlaneError):
        sectional(b, spec.metric, E1, E1)
    with pytest.raises(ValenceError):
        sectional(b, spec.metric, E1, E1.apply_metric(spec.metric.g, 0))


def test_sectional_matches_the_index_sum_on_a_general_metric():
    # Reference: g(R(u,v)v, u) / (g(u,u) g(v,v) - g(u,v)^2) summed index by index.
    spec = make_spec("general", {(0, 0, 2): -1, (1, 1, 2): -1},
                     g_rows=[[2, 1, 0], [1, 3, "1/2"], [0, "1/2", 1]], xi=(0, 0, 1))
    ctx = ProbeContext(spec)
    g = spec.metric.g
    u, v = Tensor.vector([1, "1/2", 2]), Tensor.vector([0, 1, -1])

    def inner(a, b):
        return sum(g[i, j] * a[i] * b[j] for i in range(DIM) for j in range(DIM))

    for b in (ctx.lc_bundle, ctx.hat_bundle):
        r = b.riemann
        num = sum(g[l, m] * r[l, k, i, j] * v[k] * u[i] * v[j] * u[m]
                  for l in range(DIM) for k in range(DIM) for i in range(DIM)
                  for j in range(DIM) for m in range(DIM))
        want = num / (inner(u, u) * inner(v, v) - inner(u, v) ** 2)
        assert sectional(b, spec.metric, u, v) == want


def test_sectional_invariant_under_plane_basis_change():
    spec, b = lc_bundle("example1")
    u = Tensor.vector([1, 0, 2])
    v = Tensor.vector([0, 1, 1])
    u2 = u.scale(rat(3)) + v.scale(rat(-2))
    v2 = v.scale(rat(1, 2))
    assert sectional(b, spec.metric, u, v) == sectional(b, spec.metric, u2, v2)


def test_constant_sectional():
    spec, b = lc_bundle("flat")
    assert constant_sectional(b, spec.metric) == 0
    spec, b = lc_bundle("example1")
    assert constant_sectional(b, spec.metric) == rat(-1)
    spec, b = hat_bundle("h2xr")
    assert constant_sectional(b, spec.metric) is None


def test_projective_flat_zero_psi():
    spec, b = lc_bundle("flat")
    # With a zero jet of curvature everything in P is zero.
    assert projective(b).is_zero()


def test_projective_coincide_h2xr():
    _, bh = hat_bundle("h2xr")
    _, bl = lc_bundle("h2xr")
    assert projective(bh) == projective(bl)


def test_projective_example1_recorded():
    # xi is not parallel here, so equality is not guaranteed by the gated
    # probe; direct evaluation shows it still holds (alpha* based identity).
    _, bh = hat_bundle("example1")
    _, bl = lc_bundle("example1")
    assert projective(bh) == projective(bl)


def test_conformal_lc_vanishes_on_builtins():
    for name in ("example1", "h2xr", "flat"):
        spec, b = lc_bundle(name)
        assert conformal(b, spec.metric).is_zero()


def test_conformal_hat_xi_relation_h2xr():
    spec = builtin("h2xr")
    ctx = ProbeContext(spec)
    ch, cl = ctx.conformal_hat, ctx.conformal_lc
    xi = spec.distinguished.xi
    assert ch.contract_with(1, xi) == cl.contract_with(1, xi)


def test_conformal_hat_correction_terms_h2xr():
    # Independent evaluation of the correction-term form of the hat
    # conformal tensor (derived by substituting the curvature and Ricci
    # shifts into the defining formula).
    spec = builtin("h2xr")
    ctx = ProbeContext(spec)
    c = ctx.conformal_lc
    psi, xi, g = spec.distinguished.psi, spec.distinguished.xi, spec.metric.g

    def d(c1, c2):
        return rat(1) if c1 == c2 else rat(0)

    expected = Tensor.build(
        ("u", "d", "d", "d"), DIM,
        lambda l, k, i, j: (c[l, k, i, j]
                            - psi[j] * psi[k] * d(l, i) + psi[i] * psi[k] * d(l, j)
                            - 2 * g[j, k] * psi[i] * xi[l] + 2 * g[i, k] * psi[j] * xi[l]
                            + g[j, k] * d(l, i) - g[i, k] * d(l, j)))
    assert ctx.conformal_hat == expected


def test_dim_guard_for_projective_and_conformal():
    from sscurv import MetricFrame

    def bundle(frame):
        metric = MetricFrame.identity(frame.dim)
        return curvature(levi_civita(frame, metric), frame, metric), metric

    # Dim 2 (the hyperbolic plane): projective has its coefficient 1/(n-1)
    # and vanishes, since R = (r/2) g-wedge there; conformal needs n >= 3.
    b, metric = bundle(FrameAlgebra.from_entries(2, {(0, 0, 1): rat(-1)}))
    assert not b.riemann.is_zero()
    assert projective(b).is_zero()
    with pytest.raises(UnsupportedDimensionError, match="dim >= 3, got dim 2"):
        conformal(b, metric)
    b, _ = bundle(FrameAlgebra.from_entries(1, {}))
    with pytest.raises(UnsupportedDimensionError, match="dim >= 2, got dim 1"):
        projective(b)


@st.composite
def lc_bundles(draw, dim):
    """Levi-Civita bundle of a Jacobi-closed frame in dim 3 or 4 under a
    positive-definite metric that is not the identity."""
    frame = draw(valid_frames())
    entries = {(k, i, j): frame.c[k, i, j] for k in range(3)
               for i in range(3) for j in range(i + 1, 3) if frame.c[k, i, j]}
    if dim == 4 and draw(st.booleans()):
        # [e_i, e4] = a_i e_i: e4 acts diagonally on an abelian ideal.
        entries = {(i, i, 3): rat(str(draw(small_rats))) for i in range(3)}
    frame = FrameAlgebra.from_entries(dim, entries)
    metric = draw(spd_metrics(dim, small_nonzero_rats))
    return curvature(levi_civita(frame, metric), frame, metric), metric


def trace(t):
    n = t.dim
    return [sum(t[i, k, i, j] for i in range(n)) for k in range(n) for j in range(n)]


@pytest.mark.parametrize("dim", (3, 4))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_projective_and_conformal_are_trace_free(dim, data):
    b, metric = data.draw(lc_bundles(dim))
    assert not any(trace(projective(b)))
    assert not any(trace(conformal(b, metric)))


@settings(max_examples=40)
@given(geometries())
def test_first_bianchi_and_antisymmetry(spec):
    lc = levi_civita(spec.frame, spec.metric)
    hat = ssnmc(lc, spec.distinguished)
    bl = curvature(lc, spec.frame, spec.metric)
    bh = curvature(hat, spec.frame, spec.metric)
    r = bl.riemann
    for l in range(DIM):
        for k in range(DIM):
            for i in range(DIM):
                for j in range(DIM):
                    assert r[l, k, i, j] + r[l, i, j, k] + r[l, j, k, i] == 0
    for b in (bl, bh):
        for l in range(DIM):
            for k in range(DIM):
                for i in range(DIM):
                    for j in range(DIM):
                        assert b.riemann[l, k, i, j] == -b.riemann[l, k, j, i]


@settings(max_examples=40)
@given(geometries())
def test_lc_ricci_symmetric_and_conformal_flat(spec):
    lc = levi_civita(spec.frame, spec.metric)
    b = curvature(lc, spec.frame, spec.metric)
    for i in range(DIM):
        for j in range(DIM):
            assert b.ricci[i, j] == b.ricci[j, i]
    assert conformal(b, spec.metric).is_zero()


def test_ricci_operator_trace_is_scalar_curvature():
    spec, b = lc_bundle("example1")
    assert sum(b.ricci_op[i, i] for i in range(DIM)) == rat(-6)
    spec, b = hat_bundle("h2xr")
    assert sum(b.ricci_op[i, i] for i in range(DIM)) == b.scalar == 0


def test_custom_connection_curvature_matches_oracle():
    # Curvature and torsion accept injected coefficient tables, not just
    # the two built-in constructions.
    from sscurv import Connection, ConnectionKind, torsion
    spec = builtin("h2xr")
    gamma = Tensor.build(("u", "d", "d"), DIM,
                         lambda k, i, j: rat(k - i + 2 * j, 3))
    conn = Connection(gamma, ConnectionKind.CUSTOM)
    b = curvature(conn, spec.frame, spec.metric)
    oracle = oracle_curvature(tensor_to_rows(gamma), c_rows_of(spec.frame))
    assert tensor_to_rows(b.riemann) == oracle
    t = torsion(conn, spec.frame)
    c = spec.frame.c
    for k in range(DIM):
        for i in range(DIM):
            for j in range(DIM):
                assert t[k, i, j] == gamma[k, i, j] - gamma[k, j, i] - c[k, i, j]
