"""Connection construction, torsion, non-metricity, parallelness, alpha*."""

import pytest
from hypothesis import given, settings

from conftest import (DIM, c_rows_of, geometries, make_spec, oracle_koszul,
                      tensor_to_rows)
from sscurv import (Connection, ConnectionKind, DegenerateMetricError, FrameAlgebra,
                    SscurvError, Tensor, alpha_star, builtin, is_parallel, levi_civita,
                    non_metricity, rat, ssnmc, torsion)
from sscurv.connection import semi_symmetric_torsion
from sscurv.tensor import DOWN, UP


def gamma_table(conn):
    return {(k, i, j): conn.gamma[k, i, j]
            for k in range(DIM) for i in range(DIM) for j in range(DIM)
            if conn.gamma[k, i, j] != 0}


def test_example1_levi_civita_table():
    spec = builtin("example1")
    lc = levi_civita(spec.frame, spec.metric)
    assert gamma_table(lc) == {
        (0, 0, 2): rat(-1),  # nabla_k1 k3 = -k1
        (2, 0, 0): rat(1),   # nabla_k1 k1 = k3
        (2, 1, 1): rat(1),   # nabla_k2 k2 = k3
        (1, 1, 2): rat(-1),  # nabla_k2 k3 = -k2
    }


def test_example1_ssnmc_table():
    spec = builtin("example1")
    hat = ssnmc(levi_civita(spec.frame, spec.metric), spec.distinguished)
    assert gamma_table(hat) == {
        (2, 0, 0): rat(1),  # nablahat_k1 k1 = k3
        (2, 1, 1): rat(1),  # nablahat_k2 k2 = k3
        (2, 2, 2): rat(1),  # nablahat_k3 k3 = k3
    }


def test_abelian_levi_civita_vanishes():
    spec = builtin("flat")
    assert levi_civita(spec.frame, spec.metric).gamma.is_zero()


def test_h2xr_levi_civita_matches_koszul_oracle():
    spec = builtin("h2xr")
    lc = levi_civita(spec.frame, spec.metric)
    oracle = oracle_koszul(c_rows_of(spec.frame), tensor_to_rows(spec.metric.g))
    assert tensor_to_rows(lc.gamma) == oracle
    # Frozen values from the oracle: nabla_e1 e1 = e2, nabla_e1 e2 = -e1, rest zero.
    assert gamma_table(lc) == {(1, 0, 0): rat(1), (0, 0, 1): rat(-1)}


def test_h2xr_ssnmc_adds_identity_in_xi_direction():
    spec = builtin("h2xr")
    lc = levi_civita(spec.frame, spec.metric)
    hat = ssnmc(lc, spec.distinguished)
    for i in range(DIM):
        for k in range(DIM):
            shift = rat(1) if k == i else rat(0)
            assert hat.gamma[k, i, 2] == lc.gamma[k, i, 2] + shift
        for j in range(2):
            for k in range(DIM):
                assert hat.gamma[k, i, j] == lc.gamma[k, i, j]


def test_singular_metric_raises():
    spec = builtin("flat")
    g = Tensor.from_rows(("d", "d"), [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    from sscurv import MetricFrame
    with pytest.raises(DegenerateMetricError):
        MetricFrame.from_tensor(g)


@pytest.mark.parametrize("build, match", [
    # [e1, e2] = e3 written without its mirror [e2, e1] = -e3: the Koszul
    # sums assume antisymmetric brackets, so the result has torsion.
    (lambda spec: levi_civita(FrameAlgebra(3, Tensor.build(
        (UP, DOWN, DOWN), 3, lambda k, i, j: int((k, i, j) == (2, 0, 1)))), spec.metric),
     "produced torsion"),
    (lambda spec: ssnmc(Connection(levi_civita(spec.frame, spec.metric).gamma,
                                   ConnectionKind.CUSTOM), spec.distinguished),
     "extends Levi-Civita"),
    (lambda spec: alpha_star(Connection(levi_civita(spec.frame, spec.metric).gamma,
                                        ConnectionKind.CUSTOM), spec.distinguished),
     "through the Levi-Civita connection"),
], ids=["levi_civita", "ssnmc", "alpha_star"])
def test_connections_refuse_what_they_are_not_built_from(build, match):
    with pytest.raises(SscurvError, match=match):
        build(builtin("h2xr"))


def test_ssnmc_with_zero_psi_is_levi_civita():
    spec = make_spec("flat0", {}, xi=(0, 0, 0))
    lc = levi_civita(spec.frame, spec.metric)
    assert ssnmc(lc, spec.distinguished).gamma == lc.gamma


def test_torsion_of_levi_civita_vanishes():
    for name in ("example1", "h2xr", "flat"):
        spec = builtin(name)
        lc = levi_civita(spec.frame, spec.metric)
        assert torsion(lc, spec.frame).is_zero()


def test_torsion_of_ssnmc_example1():
    spec = builtin("example1")
    hat = ssnmc(levi_civita(spec.frame, spec.metric), spec.distinguished)
    t = torsion(hat, spec.frame)
    assert [t[k, 0, 2] for k in range(DIM)] == [rat(1), rat(0), rat(0)]  # T(k1,k3) = k1
    assert t == semi_symmetric_torsion(spec.distinguished)


def test_torsion_of_ssnmc_h2xr():
    spec = builtin("h2xr")
    hat = ssnmc(levi_civita(spec.frame, spec.metric), spec.distinguished)
    t = torsion(hat, spec.frame)
    assert [t[k, 0, 2] for k in range(DIM)] == [rat(1), rat(0), rat(0)]
    assert [t[k, 1, 2] for k in range(DIM)] == [rat(0), rat(1), rat(0)]
    assert all(t[k, 0, 1] == 0 for k in range(DIM))


def test_is_semi_symmetric_zero_cases():
    spec0 = make_spec("flat0", {}, xi=(0, 0, 0))
    zero = Tensor.zeros(("u", "d", "d"), DIM)
    assert zero == semi_symmetric_torsion(spec0.distinguished)
    assert zero != semi_symmetric_torsion(builtin("flat").distinguished)


def test_non_metricity_example1():
    spec = builtin("example1")
    hat = ssnmc(levi_civita(spec.frame, spec.metric), spec.distinguished)
    n = non_metricity(hat, spec.metric)
    assert n[0, 0, 2] == rat(-1)


def test_non_metricity_h2xr_e3e3e3():
    spec = builtin("h2xr")
    hat = ssnmc(levi_civita(spec.frame, spec.metric), spec.distinguished)
    assert non_metricity(hat, spec.metric)[2, 2, 2] == rat(-2)


def test_is_parallel_cases():
    e1 = builtin("example1")
    assert not is_parallel(levi_civita(e1.frame, e1.metric), e1.distinguished)
    flat = builtin("flat")
    assert is_parallel(levi_civita(flat.frame, flat.metric), flat.distinguished)
    h = builtin("h2xr")
    assert is_parallel(levi_civita(h.frame, h.metric), h.distinguished)


def test_alpha_star_example1():
    spec = builtin("example1")
    a = alpha_star(levi_civita(spec.frame, spec.metric), spec.distinguished)
    assert a[0, 0] == rat(-1)
    assert a[2, 2] == rat(-1)
    assert a[0, 2] == rat(0)


def test_alpha_star_zero_psi():
    spec = make_spec("flat0", {}, xi=(0, 0, 0))
    assert alpha_star(levi_civita(spec.frame, spec.metric), spec.distinguished).is_zero()


def test_alpha_star_h2xr_is_minus_psi_psi():
    spec = builtin("h2xr")
    a = alpha_star(levi_civita(spec.frame, spec.metric), spec.distinguished)
    psi = spec.distinguished.psi
    expected = Tensor.build(("d", "d"), DIM, lambda i, j: -psi[i] * psi[j])
    assert a == expected
    assert a[2, 2] == rat(-1)


@settings(max_examples=60)
@given(geometries())
def test_levi_civita_torsion_free_and_metric(spec):
    lc = levi_civita(spec.frame, spec.metric)
    assert torsion(lc, spec.frame).is_zero()
    assert non_metricity(lc, spec.metric).is_zero()
    assert tensor_to_rows(lc.gamma) == oracle_koszul(
        c_rows_of(spec.frame), tensor_to_rows(spec.metric.g))


@settings(max_examples=60)
@given(geometries())
def test_ssnmc_torsion_and_non_metricity_shapes(spec):
    lc = levi_civita(spec.frame, spec.metric)
    hat = ssnmc(lc, spec.distinguished)
    assert torsion(hat, spec.frame) == semi_symmetric_torsion(spec.distinguished)
    psi, g = spec.distinguished.psi, spec.metric.g
    expected = Tensor.build(("d", "d", "d"), DIM,
                            lambda i, j, k: -psi[j] * g[i, k] - psi[k] * g[i, j])
    assert non_metricity(hat, spec.metric) == expected


@settings(max_examples=60)
@given(geometries())
def test_parallel_xi_forces_alpha_star_form(spec):
    lc = levi_civita(spec.frame, spec.metric)
    if not is_parallel(lc, spec.distinguished):
        return
    psi = spec.distinguished.psi
    expected = Tensor.build(("d", "d"), DIM, lambda i, j: -psi[i] * psi[j])
    assert alpha_star(lc, spec.distinguished) == expected
