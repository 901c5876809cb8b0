import numpy as np
import pytest
from scipy.stats import ortho_group

from asymflat.chartchange import (
    invariance_report,
    lie_deviation,
    make_diffeo,
    pullback_metric,
    zeta_harmonic,
    zeta_radial,
)
from asymflat.fields import EuclideanMetric, make_schwarzschild
from asymflat.gbc import GBCContext

from conftest import CountingMetric

RADII = [20.0 * 2**j for j in range(5)]


def rotation(n, seed):
    return ortho_group.rvs(n, random_state=seed)


def test_make_diffeo_identity():
    phi = make_diffeo(n=3)
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(phi.apply(x), x)
    assert np.allclose(phi.jacobian(x), np.eye(3))
    assert phi.r_valid == 0.0


def test_make_diffeo_rejects_nonorthogonal():
    with pytest.raises(ValueError):
        make_diffeo(Q=np.diag([2.0, 1.0, 1.0]))


def test_make_diffeo_rejects_noncontracting_zeta():
    # tau' = 0 with c = 5: |d zeta| stays around 5 on every shell
    z = zeta_radial(3, 5.0, 0.0)
    with pytest.raises(ValueError):
        make_diffeo(zeta=z, tau_prime=0.0, n=3)


def test_diffeo_apply_and_jacobian_consistency():
    z = zeta_radial(3, 0.5, 1.0)
    phi = make_diffeo(Q=rotation(3, 1), w=[1.0, -2.0, 0.5], zeta=z, tau_prime=1.0)
    x = np.array([8.0, -3.0, 5.0])
    J = phi.jacobian(x)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (phi.apply(x + e) - phi.apply(x - e)) / (2 * h)
        assert np.allclose(J[i], fd, atol=1e-8)


def test_pullback_derivatives_match_fd():
    z = zeta_harmonic(3, 0.3, 1.0)
    phi = make_diffeo(Q=rotation(3, 2), zeta=z, tau_prime=1.0)
    g = make_schwarzschild(3, 1, 1.0)
    gp = pullback_metric(phi, g)
    x = np.array([12.0, 5.0, -7.0])
    h = 1e-5
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd1 = (gp.eval(x + e) - gp.eval(x - e)) / (2 * h)
        assert np.abs(gp.d1(x)[k] - fd1).max() < 1e-9
        fd2 = (gp.d1(x + e) - gp.d1(x - e)) / (2 * h)
        assert np.abs(gp.d2(x)[k] - fd2).max() < 1e-8
        fd3 = (gp.d2(x + e) - gp.d2(x - e)) / (2 * h)
        assert np.abs(gp.d3(x)[k] - fd3).max() < 1e-7


def test_pullback_by_isometry_of_flat_is_flat():
    phi = make_diffeo(Q=rotation(4, 3), w=[1.0, 0.0, -1.0, 2.0])
    gp = pullback_metric(phi, EuclideanMetric(4))
    x = np.array([5.0, 1.0, -2.0, 3.0])
    assert np.allclose(gp.eval(x), np.eye(4), atol=1e-14)
    assert np.abs(gp.d1(x)).max() < 1e-14


def test_lie_deviation_leading_order():
    # Phi* b - b = d zeta + (d zeta)^T + O(|d zeta|^2)
    c = 1e-4
    z = zeta_radial(3, c, 1.0)
    phi = make_diffeo(zeta=z, tau_prime=1.0, n=3)
    gp = pullback_metric(phi, EuclideanMetric(3))
    x = np.array([10.0, 4.0, -6.0])
    dev = gp.eval(x) - np.eye(3)
    lead = lie_deviation(phi, x)
    assert np.abs(dev - lead).max() < 10 * c**2


def test_invariance_under_rotation_translation():
    g = make_schwarzschild(3, 1, 1.0)
    ctx = GBCContext(3, 1)
    phi = make_diffeo(Q=rotation(3, 5), w=[2.0, -1.0, 0.5])
    reports = invariance_report(g, phi, ctx, RADII, step=1.0)
    assert reports[0].passed
    # translation only perturbs subleading terms of the curve
    assert abs(reports[0].delta_limit) < 1e-5
    # a pure rotation leaves the integrand exactly invariant
    pure = make_diffeo(Q=rotation(3, 6))
    rep = invariance_report(g, pure, ctx, RADII[:3], level=6, step=1.0)
    assert abs(rep[0].delta_limit) < 1e-12


def test_invariance_under_compliant_zeta():
    # tau' = 1 > (n-2)/2 = 1/2: the mass must be chart-invariant
    g = make_schwarzschild(3, 1, 1.0)
    ctx = GBCContext(3, 1)
    z = zeta_harmonic(3, 0.2, 1.0)
    phi = make_diffeo(zeta=z, tau_prime=1.0, n=3)
    reports = invariance_report(g, phi, ctx, RADII, step=1.0)
    assert reports[0].passed
    assert reports[0].drift_slope < -0.5


def test_negative_control_slow_zeta_drifts():
    # tau' = 0.3 < 1/2 violates the threshold: the mass must drift
    g = make_schwarzschild(3, 1, 1.0)
    ctx = GBCContext(3, 1)
    z = zeta_radial(3, 0.5, 0.3)
    phi = make_diffeo(zeta=z, tau_prime=0.3, n=3)
    reports = invariance_report(g, phi, ctx, RADII, step=1.0)
    assert not reports[0].passed
    assert reports[0].drift_slope > -0.5


def test_invariance_report_serialization():
    g = make_schwarzschild(3, 1, 1.0)
    ctx = GBCContext(3, 1)
    phi = make_diffeo(Q=rotation(3, 7))
    d = invariance_report(g, phi, ctx, RADII[:3], level=4, step=1.0)[0].to_dict()
    assert {"quantity", "per_radius", "delta_limit", "drift_slope",
            "tolerance", "passed"} <= set(d)


def test_pullback_differentiates_phi_and_base_only_as_deep_as_asked():
    n = 3
    phi = make_diffeo(Q=rotation(n, 2), w=np.array([0.3, 0.0, -0.2]),
                      zeta=zeta_harmonic(n, 0.2, 1.6), tau_prime=1.6, n=n)
    orders = []
    zeta_jet = phi.zeta_jet

    def recording(x, order):
        orders.append(order)
        return zeta_jet(x, order)

    phi.zeta_jet = recording
    base = CountingMetric(make_schwarzschild(n, 1, 1.0))
    gp = pullback_metric(phi, base)
    x = np.array([[30.0, -10.0, 20.0], [5.0, 25.0, -20.0]])
    for method, depth in (("eval", 0), ("d1", 1), ("d2", 2), ("d3", 3)):
        orders.clear()
        base.calls = dict.fromkeys(base.calls, 0)
        getattr(gp, method)(x)
        assert max(orders) <= depth + 1, method
        assert base.calls == {m: int(i <= depth) for i, m in
                              enumerate(("eval", "d1", "d2", "d3"))}, method


def test_pullback_jet_levels_equal_single_order_calls():
    phi = make_diffeo(Q=rotation(4, 3), w=np.array([0.3, 0.0, -0.2, 0.1]),
                      zeta=zeta_harmonic(4, 0.2, 1.6), tau_prime=1.6, n=4)
    gp = pullback_metric(phi, make_schwarzschild(4, 1, 1.0))
    x = np.array([[30.0, -10.0, 20.0, 5.0], [5.0, 25.0, -20.0, 12.0]])
    levels = gp.jet(x, 3)
    singles = [gp.eval(x), gp.d1(x), gp.d2(x), gp.d3(x)]
    assert all(np.array_equal(a, b) for a, b in zip(levels, singles))


def test_pullback_consumers_build_the_pullback_once():
    from asymflat.gbc import lovelock
    from asymflat.invariants import _flux_integrands

    n = 5
    phi = make_diffeo(Q=rotation(n, 4), w=np.array([0.3, 0.0, -0.2, 0.1, 0.0]),
                      zeta=zeta_harmonic(n, 0.2, 1.6), tau_prime=1.6, n=n)
    orders = []
    zeta_jet = phi.zeta_jet

    def recording(x, order):
        orders.append(order)
        return zeta_jet(x, order)

    phi.zeta_jet = recording
    base = CountingMetric(make_schwarzschild(n, 2, 1.0))
    gp = pullback_metric(phi, base)
    ctx = GBCContext(n, 2)
    x = np.array([[30.0, -10.0, 20.0, 5.0, 0.0], [5.0, 25.0, -20.0, 0.0, 12.0]])
    nu = x / np.linalg.norm(x, axis=-1, keepdims=True)
    consumers = {
        "mass": lambda: _flux_integrands(gp, x, nu, ctx, center=False),
        "center": lambda: _flux_integrands(gp, x, nu, ctx, center=True),
        "lovelock": lambda: lovelock(gp, x, ctx),
    }
    for name, call in consumers.items():
        orders.clear()
        base.calls = dict.fromkeys(base.calls, 0)
        call()
        assert base.calls == {"eval": 1, "d1": 1, "d2": 1, "d3": 0}, name
        assert sorted(orders) == [0, 1, 2, 3], name


def test_make_diffeo_rejects_wrong_length_translation():
    for w in ([5.0], [1.0, 1.0], [[1.0, 0.0, 0.0]]):
        with pytest.raises(ValueError, match="translation"):
            make_diffeo(w=np.asarray(w), n=3)
