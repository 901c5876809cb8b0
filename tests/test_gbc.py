import math

import numpy as np
import pytest

from asymflat.curvature import PolynomialDoubleFormField, riemann
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
from asymflat.gbc import GBCContext, l_k, lovelock, p_k, ricci, scal, variation_residual

from conftest import RoundSphereChart


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


def test_variation_residual_second_order_at_flat():
    # around the flat metric the residual is O(eps^2)
    n = 3
    g = EuclideanMetric(n, r_min=0.0)
    h = PolynomialDoubleFormField.random(n, 1, 1, seed=4)

    def sym_h(field):
        from asymflat.curvature import DoubleFormField
        return DoubleFormField(
            n, 1, 1,
            lambda y: 0.05 * (field.eval(y).comps + np.swapaxes(field.eval(y).comps, -1, -2)),
            lambda y: 0.05 * (field.d1(y) + np.swapaxes(field.d1(y), -1, -2)),
            lambda y: 0.05 * (field.d2(y) + np.swapaxes(field.d2(y), -1, -2)),
        )

    hs = sym_h(h)
    x = np.array([0.3, -0.2, 0.4])
    r1 = variation_residual(g, hs, x, 1e-3).norm().max()
    r2 = variation_residual(g, hs, x, 1e-4).norm().max()
    assert r1 / r2 > 50.0  # quadratic: factor ~100 per decade


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
