from itertools import combinations

import numpy as np
import pytest

from asymflat.curvature import (
    Connection,
    _christoffel_from_jets,
    _riemann_from_jets,
    pack_22,
    PolynomialDoubleFormField,
    christoffel,
    christoffel_d1,
    codiff,
    ext_deriv,
    jet_d_left,
    jet_d_right,
    jet_from_partials,
    jet_hodge,
    jet_wedge,
    metric_jet,
    riemann,
    riemann_cov_d1,
    riemann_jet,
)
from asymflat.dforms import DoubleForm, PointMetric, bianchi, contract, hodge, inner, transpose, wedge
from asymflat.fields import EuclideanMetric, make_rt_perturbation, make_schwarzschild

from conftest import RoundSphereChart


def test_christoffel_flat_is_zero():
    g = EuclideanMetric(3)
    x = np.ones((4, 3))
    assert np.abs(christoffel(g, x)).max() == 0.0


def test_pack_22_matches_loop():
    rng = np.random.default_rng(2)
    arr = rng.standard_normal((3, 2, 5, 5, 5, 5))
    ref = np.empty((3, 2, 10, 10))
    for a, (i, j) in enumerate(combinations(range(5), 2)):
        for b, (k, l) in enumerate(combinations(range(5), 2)):
            ref[..., a, b] = arr[..., i, j, k, l]
    assert np.array_equal(pack_22(arr, 5).comps, ref)


def test_curvature_from_jets_matches_field_calls():
    g = make_rt_perturbation(4, 1.0, seed=2, parity="mixed", amplitude=0.3)
    x = np.array([[3.0, -1.0, 2.0, 0.5], [0.2, 4.0, -1.5, 2.5]])
    G, d1, d2 = g.eval(x), g.d1(x), g.d2(x)
    assert np.array_equal(_christoffel_from_jets(G, d1), christoffel(g, x))
    assert np.array_equal(pack_22(_riemann_from_jets(G, d1, d2), 4).comps,
                          riemann(g, x).comps)


def test_christoffel_d1_matches_fd():
    g = make_schwarzschild(3, 1, 1.0)
    x = np.array([4.0, -2.0, 3.0])
    h = 1e-5
    dG = christoffel_d1(g, x)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (christoffel(g, x + e) - christoffel(g, x - e)) / (2 * h)
        assert np.abs(dG[k] - fd).max() < 1e-8


def test_riemann_sign_on_round_sphere():
    # positive constant curvature: R = (lambda/2) g owedge g with lambda = 1/a^2
    n, a = 3, 2.0
    g = RoundSphereChart(n, a)
    x = np.array([0.3, -0.4, 0.8])
    R = riemann(g, x)
    gform = DoubleForm(n, 1, 1, g.eval(x))
    expected = (0.5 / a**2) * wedge(gform, gform)
    assert np.allclose(R.comps, expected.comps, atol=1e-11)


def test_riemann_symmetries_and_bianchi():
    g = make_schwarzschild(5, 2, 1.0)
    x = np.array([3.0, 1.0, -2.0, 0.5, 2.0])
    R = riemann(g, x)
    assert np.allclose(R.comps, transpose(R).comps, atol=1e-12)
    assert np.abs(bianchi(R, "left").comps).max() < 1e-11


def test_second_bianchi_identity():
    # cyclic sum of nabla_m R_{ij k l} over (m, i, j) vanishes
    g = make_schwarzschild(3, 1, 1.0)
    x = np.array([3.0, -1.0, 2.0])
    cov = riemann_cov_d1(g, x)
    cyc = cov + np.einsum("...mijkl->...ijmkl", cov) + np.einsum("...mijkl->...jmikl", cov)
    assert np.abs(cyc).max() < 1e-10


def test_riemann_cov_d1_matches_fd_in_normalish_chart():
    # check nabla R against finite differences of R plus connection terms
    g = make_schwarzschild(3, 1, 0.5)
    x = np.array([5.0, 2.0, -3.0])
    h = 1e-5
    from asymflat.curvature import _riemann_array
    dR_fd = np.empty((3, 3, 3, 3, 3))
    for m in range(3):
        e = np.zeros(3)
        e[m] = h
        dR_fd[m] = (_riemann_array(g, x + e) - _riemann_array(g, x - e)) / (2 * h)
    R = _riemann_array(g, x)
    gam = christoffel(g, x)
    corr = (np.einsum("...ami,...ajkl->...mijkl", gam, R)
            + np.einsum("...amj,...iakl->...mijkl", gam, R)
            + np.einsum("...amk,...ijal->...mijkl", gam, R)
            + np.einsum("...aml,...ijka->...mijkl", gam, R))
    assert np.abs(riemann_cov_d1(g, x) - (dR_fd - corr)).max() < 1e-8


def test_ext_deriv_flat_squares_to_zero():
    F = PolynomialDoubleFormField.random(4, 1, 1, seed=3)
    x = np.random.default_rng(0).standard_normal((5, 4))
    jet = jet_from_partials(4, 1, 1, F.eval(x).comps, F.d1(x), F.d2(x))
    assert jet_d_left(jet_d_left(jet)).form().norm().max() < 1e-12
    assert jet_d_right(jet_d_right(jet)).form().norm().max() < 1e-12


def test_ext_deriv_gradient_of_scalar():
    # D of a (0,0) field is minus the gradient packed as a (1,0) form
    n = 3
    from asymflat.fields import RadialPoly, TensorRadialPoly
    poly = RadialPoly.monomial(n, (1, 1, 0), 0.0)
    arr = np.empty((1, 1), dtype=object)
    arr[0, 0] = poly
    F = PolynomialDoubleFormField(n, 0, 0, TensorRadialPoly(n, arr))
    x = np.array([2.0, 3.0, -1.0])
    D = ext_deriv(F, x, "left")
    grad = np.array([x[1], x[0], 0.0])
    assert np.allclose(D.comps[:, 0], -grad)


def test_codiff_is_adjoint_to_ext_deriv_flat():
    # integrate by parts numerically on a periodic-free check: pointwise
    # adjointness does not hold, so verify the composition identity instead:
    # delta on a gradient gives minus the Laplacian of the potential
    n = 3
    from asymflat.fields import RadialPoly, TensorRadialPoly
    poly = (RadialPoly.monomial(n, (2, 0, 0), 0.0)
            + RadialPoly.monomial(n, (0, 3, 0), 0.0))
    arr = np.empty((1, 1), dtype=object)
    arr[0, 0] = poly
    F = PolynomialDoubleFormField(n, 0, 0, TensorRadialPoly(n, arr))
    trp1 = F.trp.deriv()
    trp2 = trp1.deriv()

    from asymflat.curvature import DoubleFormField
    gradF = DoubleFormField(
        n, 1, 0,
        lambda y: trp1(y)[..., :, :, 0],
        lambda y: trp2(y)[..., :, :, :, 0],
    )
    x = np.array([1.0, 2.0, -1.5])
    dd = codiff(gradF, x, "left")
    lap = 2.0 + 6.0 * x[1]
    assert np.isclose(dd.item(), lap, rtol=1e-10)


def test_jet_wedge_leibniz():
    n = 4
    F = PolynomialDoubleFormField.random(n, 1, 1, seed=5)
    H = PolynomialDoubleFormField.random(n, 1, 0, seed=6)
    x = np.random.default_rng(1).standard_normal((3, n))
    jF = jet_from_partials(n, 1, 1, F.eval(x).comps, F.d1(x), F.d2(x))
    jH = jet_from_partials(n, 1, 0, H.eval(x).comps, H.d1(x), H.d2(x))
    jW = jet_wedge(jF, jH)
    # level 0 is the plain wedge
    assert np.allclose(jW.levels[0], wedge(F.eval(x), H.eval(x)).comps)
    # level 1 satisfies the Leibniz rule componentwise (flat connection)
    for k in range(n):
        lhs = jW.levels[1][..., k, :, :]
        rhs = (wedge(DoubleForm(n, 1, 1, F.d1(x)[..., k, :, :]), H.eval(x)).comps
               + wedge(F.eval(x), DoubleForm(n, 1, 0, H.d1(x)[..., k, :, :])).comps)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_jet_hodge_curved_depth_broadcast():
    n = 3
    g = make_schwarzschild(n, 1, 1.0)
    x = np.array([4.0, 1.0, -1.0])
    jR = riemann_jet(g, x, depth=1)
    G = PointMetric(g.eval(x))
    starred = jet_hodge(jR, G)
    assert np.allclose(starred.levels[0], hodge(jR.form(), G).comps)
    for m in range(n):
        lv = DoubleForm(n, 2, 2, jR.levels[1][..., m, :, :])
        assert np.allclose(starred.levels[1][..., m, :, :], hodge(lv, G).comps)


def test_metric_jet_is_parallel():
    j = metric_jet(4, depth=2)
    assert np.abs(j.levels[1]).max() == 0.0
    assert np.abs(j.levels[2]).max() == 0.0


def test_riemann_jet_flat_vanishes():
    g = EuclideanMetric(3)
    x = np.ones((2, 3)) * 3.0
    j = riemann_jet(g, x, depth=1)
    assert np.abs(j.levels[0]).max() == 0.0
    assert np.abs(j.levels[1]).max() == 0.0


def test_connection_kinds():
    assert Connection().kind == "flat"
    g = make_schwarzschild(3, 1, 1.0)
    conn = Connection(g)
    assert conn.kind == "levi-civita"
    x = np.array([3.0, 0.0, 0.0])
    assert np.allclose(conn.christoffel(x), christoffel(g, x))
