from itertools import combinations
from math import comb

import numpy as np
import pytest

from asymflat.curvature import (
    _christoffel_from_jets,
    _riemann_packed,
    pack_22,
    PolynomialDoubleFormField,
    christoffel,
    codiff,
    deviation_field,
    ext_deriv,
    jet_d_left,
    jet_d_right,
    jet_from_partials,
    jet_hodge,
    riemann,
    riemann_jet,
)
from asymflat.curvature import (
    DoubleFormField,
    d_left_comps,
    d_right_comps,
)
from asymflat.dforms import (
    DoubleForm,
    PointMetric,
    bianchi,
    coform,
    derivation_action,
    form,
    hodge,
    transpose,
    wedge,
)
from asymflat.fields import (
    EuclideanMetric,
    TensorRadialPoly,
    make_rt_perturbation,
    make_schwarzschild,
)
from asymflat.gbc import GBCContext, lovelock, variation_residual
from asymflat.invariants import _center_form, _flux_integrands

from conftest import (
    CountingMetric,
    RoundSphereChart,
    christoffel_d1,
    curvature_cases,
    jet_wedge,
    metric_jet,
    points_at_radii,
    riemann_array_dense,
    riemann_from_jets_dense,
    riemann_partial_d1,
)


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
    assert np.array_equal(_riemann_packed(G, d1, d2).comps, riemann(g, x).comps)


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


def _unpack_22(comps, n):
    """The full 4-index array of packed (2,2) components, antisymmetric in
    (0,1) and (2,3)."""
    full = np.zeros(comps.shape[:-2] + (n,) * 4)
    pairs = list(combinations(range(n), 2))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            v = comps[..., a, b]
            full[..., i, j, k, l] = full[..., j, i, l, k] = v
            full[..., j, i, k, l] = full[..., i, j, l, k] = -v
    return full


def _connection_correction(gam, R):
    """The four connection terms of nabla_m R_ijkl from its plain partials."""
    return (np.einsum("...ami,...ajkl->...mijkl", gam, R)
            + np.einsum("...amj,...iakl->...mijkl", gam, R)
            + np.einsum("...amk,...ijal->...mijkl", gam, R)
            + np.einsum("...aml,...ijka->...mijkl", gam, R))


def test_second_bianchi_identity():
    # cyclic sum of nabla_m R_{ij k l} over (m, i, j) vanishes
    g = make_schwarzschild(3, 1, 1.0)
    x = np.array([3.0, -1.0, 2.0])
    cov = _unpack_22(riemann_jet(g, x, 1).levels[1], 3)
    cyc = cov + np.einsum("...mijkl->...ijmkl", cov) + np.einsum("...mijkl->...jmikl", cov)
    assert np.abs(cyc).max() < 1e-10


def test_riemann_cov_d1_matches_fd_in_normalish_chart():
    # check nabla R against finite differences of R plus connection terms
    g = make_schwarzschild(3, 1, 0.5)
    x = np.array([5.0, 2.0, -3.0])
    h = 1e-5
    dR_fd = np.empty((3, 3, 3, 3, 3))
    for m in range(3):
        e = np.zeros(3)
        e[m] = h
        dR_fd[m] = (riemann_array_dense(g, x + e) - riemann_array_dense(g, x - e)) / (2 * h)
    corr = _connection_correction(christoffel(g, x), riemann_array_dense(g, x))
    cov = riemann_jet(g, x, 1).levels[1]
    assert np.abs(cov - pack_22(dR_fd - corr, 3).comps).max() < 1e-8


def test_riemann_jet_matches_explicit_connection_correction():
    # the packed derivation action equals the four-term n^5 correction of
    # the exact partials
    cases = [(make_schwarzschild(5, 2, 1.0, center=[0.3, 0, 0, -0.2, 0]),
              np.array([[6.0, -2.0, 3.0, 1.0, -4.0], [2.0, 5.0, -1.0, 3.0, 2.5]])),
             (make_schwarzschild(3, 1, 1.0), np.array([[3.0, -1.0, 2.0], [0.5, 2.5, -2.0]])),
             (make_rt_perturbation(4, 1.0, seed=2, parity="mixed", amplitude=0.3),
              np.array([[3.0, -1.0, 2.0, 0.5], [0.2, 4.0, -1.5, 2.5]]))]
    for g, x in cases:
        oracle = riemann_partial_d1(g, x) - _connection_correction(
            christoffel(g, x), riemann_from_jets_dense(g.eval(x), g.d1(x), g.d2(x)))
        ref = pack_22(oracle, g.n).comps
        cov = riemann_jet(g, x, 1).levels[1]
        assert np.abs(cov - ref).max() <= 1e-13 * np.abs(ref).max()


BATCH_SHAPES = [(), (5,), (2, 3)]


@pytest.mark.parametrize("n", range(3, 9))
def test_packed_riemann_matches_dense_reference(n):
    # the gathered slots of the lowered-Christoffel form against pack_22 of
    # the full n^4 array; the largest difference seen is 4.4e-16 max|R|
    for g in curvature_cases(n):
        for shape in BATCH_SHAPES:
            G, d1, d2 = g.jet(points_at_radii(n, shape), 2)
            ref = pack_22(riemann_from_jets_dense(G, d1, d2), n).comps
            R = _riemann_packed(G, d1, d2)
            assert R.comps.shape == shape + (comb(n, 2), comb(n, 2))
            assert np.abs(R.comps - ref).max() <= 1e-14 * np.abs(ref).max()
            assert np.array_equal(_riemann_packed(G, d1, d2, np.linalg.inv(G)).comps, R.comps)


@pytest.mark.parametrize("n", range(3, 9))
def test_christoffel_is_bit_identical_to_the_identity_einsum_copy(n):
    # the lowered symbols read d1 itself where an identity einsum copied it
    for g in curvature_cases(n):
        G, d1 = g.jet(points_at_radii(n, (2, 3)), 1)
        strided = np.ascontiguousarray(np.swapaxes(d1, 0, 1)).swapaxes(0, 1)
        for arr in (d1, strided):
            lower = 0.5 * (np.einsum("...ijl->...lij", arr) + np.einsum("...jil->...lij", arr)
                           - np.einsum("...lij->...lij", arr))
            ref = np.einsum("...al,...lij->...aij", np.linalg.inv(G), lower)
            assert np.array_equal(_christoffel_from_jets(G, arr), ref)


def test_ext_deriv_flat_squares_to_zero():
    F = PolynomialDoubleFormField.random(4, 1, 1, seed=3)
    x = np.random.default_rng(0).standard_normal((5, 4))
    jet = jet_from_partials(4, 1, 1, F.jet(x, 2))
    assert jet_d_left(jet_d_left(jet)).form().norm().max() < 1e-12
    assert jet_d_right(jet_d_right(jet)).form().norm().max() < 1e-12


def test_ext_deriv_gradient_of_scalar():
    # D of a (0,0) field is minus the gradient packed as a (1,0) form
    n = 3
    # x0 x1
    F = PolynomialDoubleFormField(n, 0, 0, TensorRadialPoly(n, (1, 1), [[1, 1, 0]], [0.0],
                                                            [[1.0]]))
    x = np.array([2.0, 3.0, -1.0])
    D = ext_deriv(F, x, "left")
    grad = np.array([x[1], x[0], 0.0])
    assert np.allclose(D.comps[:, 0], -grad)


def test_codiff_is_adjoint_to_ext_deriv_flat():
    # integrate by parts numerically on a periodic-free check: pointwise
    # adjointness does not hold, so verify the composition identity instead:
    # delta on a gradient gives minus the Laplacian of the potential
    n = 3
    # x0^2 + x1^3
    F = PolynomialDoubleFormField(n, 0, 0, TensorRadialPoly(n, (1, 1), [[2, 0, 0], [0, 3, 0]],
                                                            [0.0, 0.0], [[1.0, 1.0]]))
    trp1 = F.trp.deriv()
    gradF = DoubleFormField(n, 1, 0, lambda y, order: [lv[..., 0] for lv in trp1.jet(y, order)])
    x = np.array([1.0, 2.0, -1.5])
    dd = codiff(gradF, x, "left")
    lap = 2.0 + 6.0 * x[1]
    assert np.isclose(dd.item(), lap, rtol=1e-10)


def test_jet_wedge_leibniz():
    n = 4
    F = PolynomialDoubleFormField.random(n, 1, 1, seed=5)
    H = PolynomialDoubleFormField.random(n, 1, 0, seed=6)
    x = np.random.default_rng(1).standard_normal((3, n))
    jF = jet_from_partials(n, 1, 1, F.jet(x, 2))
    jH = jet_from_partials(n, 1, 0, H.jet(x, 2))
    jW = jet_wedge(jF, jH)
    # level 0 is the plain wedge
    assert np.allclose(jW.levels[0], wedge(F.eval(x), H.eval(x)).comps)
    # level 1 satisfies the Leibniz rule componentwise (flat connection)
    F1, H1 = F.jet(x, 1)[1], H.jet(x, 1)[1]
    for k in range(n):
        lhs = jW.levels[1][..., k, :, :]
        rhs = (wedge(DoubleForm(n, 1, 1, F1[..., k, :, :]), H.eval(x)).comps
               + wedge(F.eval(x), DoubleForm(n, 1, 0, H1[..., k, :, :])).comps)
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


def test_exterior_derivative_comps_match_wedge_loop():
    # the signed contractions against the interior-product table equal the
    # sums of wedges with the basis 1-forms they replaced
    rng = np.random.default_rng(4)
    for n in range(3, 7):
        eye = np.eye(n)
        for p in range(n + 1):
            for q in range(n + 1):
                covd = rng.standard_normal((2, n, comb(n, p), comb(n, q)))
                terms = [DoubleForm(n, p, q, covd[:, k]) for k in range(n)]
                if p + 1 <= n:
                    ref = -sum(wedge(form(n, eye[k]), terms[k]).comps for k in range(n))
                    assert np.abs(d_left_comps(n, p, q, covd).comps - ref).max() <= 1e-15
                if q + 1 <= n:
                    ref = -sum(wedge(terms[k], coform(n, eye[k])).comps for k in range(n))
                    assert np.abs(d_right_comps(n, p, q, covd).comps - ref).max() <= 1e-15


def test_curved_second_jet_level_matches_loop():
    n, p, q = 3, 1, 1
    g = make_rt_perturbation(n, 1.0, seed=2, parity="mixed", amplitude=0.3)
    F = PolynomialDoubleFormField.random(n, p, q, seed=5)
    x = np.array([[3.0, -1.0, 2.0], [0.5, 2.5, -2.0]])
    comps, d1, d2 = F.jet(x, 2)
    gam, dgam = christoffel(g, x), christoffel_d1(g, x)
    jet = jet_from_partials(n, p, q, [comps, d1, d2], gamma=gam, dgamma=dgam)
    cov1 = jet.levels[1]

    def act(A, w):
        return derivation_action(A, DoubleForm(n, p, q, w)).comps

    ref = np.empty_like(d2)
    for a in range(n):
        for b in range(n):
            ref[:, a, b] = (d2[:, a, b] - act(dgam[:, a, :, b, :], comps)
                            - act(gam[:, :, b, :], d1[:, a])
                            - np.einsum("...m,...mIJ->...IJ", gam[:, :, a, b], cov1)
                            - act(gam[:, :, a, :], cov1[:, b]))
    assert np.abs(jet.levels[2] - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("g", [
    make_rt_perturbation(3, 1.0, seed=2, parity="mixed", amplitude=0.3),
    make_schwarzschild(3, 1, 1.0, center=[0.5, 0.0, 0.0]),
], ids=["rt", "schwarzschild"])
def test_curved_codiff_of_gradient_is_laplace_beltrami(g):
    n = 3
    # f = x0^2 + x1^3 - 2 x0 x2
    f = TensorRadialPoly(n, (1, 1), [[2, 0, 0], [0, 3, 0], [1, 0, 1]], [0.0, 0.0, 0.0],
                         [[1.0, 1.0, -2.0]])
    trp1 = f.deriv()
    df = DoubleFormField(n, 1, 0, lambda y, order: [lv[..., 0] for lv in trp1.jet(y, order)])
    x = np.array([[3.0, -1.0, 2.0], [-2.5, 2.0, 1.5], [0.5, 3.5, -2.0]])
    grad, hess = trp1(x)[..., 0, 0], trp1.deriv()(x)[..., 0, 0]
    Ginv = np.linalg.inv(g.eval(x))
    lap = np.einsum("...ij,...ij->...", Ginv,
                    hess - np.einsum("...kij,...k->...ij", christoffel(g, x), grad))
    delta = codiff(df, x, "left", g=g).comps[..., 0, 0]
    assert np.abs(delta - lap).max() <= 1e-12 * max(1.0, np.abs(lap).max())


def test_curvature_consumers_evaluate_each_metric_jet_once():
    x = np.array([[3.0, -1.0, 2.0], [0.5, 2.5, -2.0]])
    nu = x / np.linalg.norm(x, axis=-1, keepdims=True)
    base = make_schwarzschild(3, 1, 1.0, center=[0.5, 0.0, 0.0])
    h = PolynomialDoubleFormField.random(3, 1, 1, seed=4)
    ctx = GBCContext(3, 1)
    consumers = {
        "christoffel": (lambda g: christoffel(g, x), ("eval", "d1")),
        "riemann": (lambda g: riemann(g, x), ("eval", "d1", "d2")),
        "riemann_jet": (lambda g: riemann_jet(g, x, 1), ("eval", "d1", "d2", "d3")),
        "riemann_partial_d1": (lambda g: riemann_partial_d1(g, x), ("eval", "d1", "d2", "d3")),
        "christoffel_d1": (lambda g: christoffel_d1(g, x), ("eval", "d1", "d2")),
        "lovelock": (lambda g: lovelock(g, x, ctx), ("eval", "d1", "d2")),
        "variation_residual": (lambda g: variation_residual(g, h, x, 1e-4),
                               ("eval", "d1", "d2")),
        "_flux_integrands": (lambda g: _flux_integrands(g, x, nu, ctx, center=True),
                             ("eval", "d1")),
        "_center_form": (lambda g: _center_form(g, x, ctx, 0), ("eval", "d1")),
        "codiff": (lambda g: codiff(h, x, "left", g=g), ("eval", "d1")),
        "ext_deriv": (lambda g: ext_deriv(h, x, "left", g=g), ("eval", "d1")),
        "deviation_field": (lambda g: deviation_field(g).jet(x, 2), ("eval", "d1", "d2")),
    }
    for name, (call, used) in consumers.items():
        g = CountingMetric(base)
        call(g)
        expected = {m: int(m in used) for m in g.calls}
        assert g.calls == expected, name
