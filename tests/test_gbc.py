import math

import numpy as np
import pytest

from asymflat.curvature import (
    DoubleFormField,
    PolynomialDoubleFormField,
    christoffel,
    christoffel_d1,
    jet_add,
    jet_d_left,
    jet_d_right,
    jet_from_partials,
    pack_22,
    riemann,
)
from asymflat.dforms import (
    DoubleForm,
    PointMetric,
    contract,
    hodge,
    metric_form,
    wedge,
    wedge_power,
)
from asymflat.fields import EuclideanMetric, make_rt_perturbation, make_schwarzschild
from asymflat.gbc import (
    GBCContext,
    _point_data,
    l_k,
    lovelock,
    p_k,
    ricci,
    scal,
    variation_residual,
)

from conftest import (
    RoundSphereChart,
    curvature_cases,
    points_at_radii,
    raise_left_dense,
    riemann_from_jets_dense,
)


def test_context_validation():
    with pytest.raises(ValueError):
        GBCContext(3, 0)
    with pytest.raises(ValueError):
        GBCContext(3, 2)
    ctx = GBCContext(4, 2)
    assert ctx.b_power_lovelock is None


def test_l1_is_scalar_curvature():
    for g in (make_schwarzschild(3, 1, 1.0),
              make_rt_perturbation(4, 1.2, seed=3, parity="mixed")):
        ctx = GBCContext(g.n, 1)
        x = np.random.default_rng(0).standard_normal((6, g.n)) * 0.5
        x[:, 0] += 2.0 * g.r_min
        assert np.allclose(l_k(g, x, ctx), scal(g, x), rtol=1e-10)


def test_scal_is_trace_of_ricci():
    g = make_rt_perturbation(3, 1.0, seed=5, parity="even")
    x = np.array([4.0, -1.0, 2.0])
    G = PointMetric(g.eval(x))
    tr = contract(ricci(g, x), G).item()
    assert np.isclose(tr, scal(g, x), rtol=1e-12)


def test_lk_on_round_sphere():
    # constant curvature lambda: L_k = lambda^k n!/(n-2k)!
    for n, k, a in [(3, 1, 1.5), (5, 1, 2.0), (5, 2, 2.0)]:
        g = RoundSphereChart(n, a)
        ctx = GBCContext(n, k)
        x = np.array([0.3, -0.2, 0.5, 0.1, -0.4][:n])
        lam = 1.0 / a**2
        expected = lam**k * math.factorial(n) / math.factorial(n - 2 * k)
        assert np.allclose(l_k(g, x, ctx), expected, rtol=1e-10)


def test_lovelock_on_round_sphere():
    # constant curvature lambda: T_k = lambda^k (n-1)! g
    n, k, a = 5, 2, 2.0
    g = RoundSphereChart(n, a)
    ctx = GBCContext(n, k)
    x = np.array([0.2, 0.4, -0.1, 0.3, 0.0])
    T = lovelock(g, x, ctx)
    lam = 1.0 / a**2
    expected = lam**k * math.factorial(n - 1) * g.eval(x)
    assert np.allclose(T.comps, expected, rtol=1e-10)


def test_lovelock_requires_room():
    g = RoundSphereChart(4, 1.0)
    with pytest.raises(ValueError):
        lovelock(g, np.zeros(4), GBCContext(4, 2))


def test_schwarzschild_is_lk_flat():
    # the generalized family is L_k-flat at its own order
    for n, k in [(3, 1), (4, 1), (5, 2)]:
        g = make_schwarzschild(n, k, 1.0)
        ctx = GBCContext(n, k)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((8, n))
        x = 5.0 * x / np.linalg.norm(x, axis=-1, keepdims=True)
        assert np.abs(l_k(g, x, ctx)).max() < 1e-10


def test_pk_star_relation():
    # *P_k recovers the curvature power times the metric power
    from asymflat.dforms import hodge, wedge, wedge_power
    from asymflat.curvature import riemann
    n, k = 5, 2
    g = make_rt_perturbation(n, 1.0, seed=9, parity="even")
    ctx = GBCContext(n, k)
    x = np.array([3.0, -2.0, 1.0, 2.0, -1.0])
    G = PointMetric(g.eval(x))
    P = p_k(g, x, ctx)
    R = riemann(g, x)
    gform = DoubleForm(n, 1, 1, G.G)
    rhs = (ctx.power_norm / ctx.norm_factorial) * wedge(
        wedge_power(R, k - 1), wedge_power(gform, n - 2 * k))
    sign = (-1) ** (2 * (n - 2) * 2)  # (p+q)(n-p-q) with p=q=2
    assert np.allclose(hodge(P, G).comps, sign * rhs.comps, atol=1e-11)


def test_flat_metric_curvatures_vanish():
    g = EuclideanMetric(5)
    ctx = GBCContext(5, 2)
    x = np.ones((3, 5)) * 2.0
    assert np.abs(l_k(g, x, ctx)).max() == 0.0
    assert np.abs(lovelock(g, x, ctx).comps).max() == 0.0
    assert np.abs(scal(g, x)).max() == 0.0


def _symmetric(field, scale=0.05):
    """scale (h + h^T) of a (1,1) field h, with its partials."""
    def sym(f):
        return lambda y: scale * (f(y) + np.swapaxes(f(y), -1, -2))

    return DoubleFormField(field.n, 1, 1, sym(lambda y: field.eval(y).comps),
                           sym(field.d1), sym(field.d2))


def test_variation_residual_second_order_at_flat():
    # around the flat metric the residual is O(eps^2)
    n = 3
    g = EuclideanMetric(n, r_min=0.0)
    hs = _symmetric(PolynomialDoubleFormField.random(n, 1, 1, seed=4))
    x = np.array([0.3, -0.2, 0.4])
    r1 = variation_residual(g, hs, x, 1e-3).norm().max()
    r2 = variation_residual(g, hs, x, 1e-4).norm().max()
    assert r1 / r2 > 50.0  # quadratic: factor ~100 per decade


def _dense_cases(n, shapes=((), (4,))):
    """Every metric of `curvature_cases(n)` with points of each batch shape."""
    return [(g, points_at_radii(n, shape)) for g in curvature_cases(n) for shape in shapes]


@pytest.mark.parametrize("n", range(3, 9))
def test_point_data_raise_matches_dense_einsum(n):
    # the 2 x 2 minors of G^-1 on the packed curvature against the n^6
    # einsum on the full array; the largest difference seen is 7.2e-16 max|R#|
    for g, x in _dense_cases(n):
        G, d1, d2 = g.jet(x, 2)
        ref = pack_22(raise_left_dense(np.linalg.inv(G), riemann_from_jets_dense(G, d1, d2)), n)
        G_out, R_sharp = _point_data(g, x)
        assert np.array_equal(G_out, G)
        assert np.abs(R_sharp.comps - ref.comps).max() <= 1e-14 * np.abs(ref.comps).max()


def _variation_residual_dense(g, h, x, eps):
    """variation_residual with both curvatures from the full n^4 reference,
    and the larger max|R| of the two."""
    n = g.n
    G, d1, d2 = g.jet(x, 2)
    h0, h1, h2 = eps * h.eval(x).comps, eps * h.d1(x), eps * h.d2(x)
    R_pert = riemann_from_jets_dense(G + h0, d1 + h1, d2 + h2)
    R_base = riemann_from_jets_dense(G, d1, d2)
    jh = jet_from_partials(n, 1, 1, h0, h1, h2,
                           gamma=christoffel(g, x), dgamma=christoffel_d1(g, x))
    box = jet_add(jet_d_left(jet_d_right(jh)), jet_d_right(jet_d_left(jh)))
    scale = max(np.abs(R_pert).max(), np.abs(R_base).max())
    return pack_22(R_pert - R_base, n).comps - 0.25 * box.form().comps, scale


@pytest.mark.parametrize("n", range(3, 9))
def test_variation_residual_matches_dense_reference(n):
    # bound relative to the larger of the two curvatures differenced; the
    # largest difference seen is 2.8e-16 of it
    h = _symmetric(PolynomialDoubleFormField.random(n, 1, 1, seed=4), scale=0.002)
    for g, x in _dense_cases(n, shapes=[(4,)]):
        ref, scale = _variation_residual_dense(g, h, x, 1e-2)
        assert np.abs(variation_residual(g, h, x, 1e-2).comps - ref).max() <= 1e-14 * scale


ORACLE_CASES = [(3, 1), (4, 1), (5, 1), (5, 2), (6, 2), (7, 3)]


@pytest.mark.parametrize("n,k", ORACLE_CASES)
def test_raised_curvature_route_matches_curved_stars(n, k):
    # l_k, p_k, lovelock, ricci and scal against g-stars and g-contractions
    # of the curved products R^j g^m, on a generic perturbation and on a
    # translated Schwarzschild field (L_k-flat at its own order)
    ctx = GBCContext(n, k)
    rng = np.random.default_rng(n + 10 * k)
    nu = rng.standard_normal((3, n))
    nu /= np.linalg.norm(nu, axis=-1, keepdims=True)
    x = (3.0 + 3.0 * rng.random((3, 1))) * nu
    metrics = (
        make_rt_perturbation(n, 1.0, seed=n + 10 * k, parity="mixed", amplitude=0.3),
        make_schwarzschild(n, k, 1.3, center=0.4 * np.ones(n) / np.sqrt(n)),
    )
    for g in metrics:
        G = PointMetric(g.eval(x))
        R = riemann(g, x)
        gform = metric_form(n, G.G)

        def curved(j, m):
            return hodge(wedge(wedge_power(R, j), wedge_power(gform, m)), G).comps

        def close(fast, ref, degree):
            # relative, with an absolute floor of the curvature scale where
            # the quantity cancels (L_k and Scal of Schwarzschild)
            scale = max(np.abs(ref).max(), np.abs(R.comps).max() ** degree)
            assert fast.shape == ref.shape
            assert np.abs(fast - ref).max() <= 1e-12 * scale

        norm = ctx.power_norm / ctx.norm_factorial
        close(l_k(g, x, ctx), norm * curved(k, n - 2 * k)[..., 0, 0], k)
        close(p_k(g, x, ctx).comps, norm * curved(k - 1, n - 2 * k), k - 1)
        lnorm = ctx.power_norm / math.factorial(n - 2 * k - 1)
        close(lovelock(g, x, ctx).comps, lnorm * curved(k, n - 2 * k - 1), k)
        close(ricci(g, x).comps, contract(R, G).comps, 1)
        close(scal(g, x), contract(contract(R, G), G).comps[..., 0, 0], 1)
