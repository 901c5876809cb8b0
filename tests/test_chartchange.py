import numpy as np
import pytest
from scipy.stats import ortho_group

from asymflat.chartchange import (
    Diffeo,
    invariance_report,
    make_diffeo,
    pullback_metric,
    zeta_harmonic,
    zeta_radial,
)
from asymflat import invariants
from asymflat.fields import EuclideanMetric, make_schwarzschild
from asymflat.gbc import GBCContext
from asymflat.invariants import gbc_mass, gbc_mass_center

from conftest import (
    CountingMetric,
    derived_depth,
    points_at_radii,
    pullback_jet_dense,
    reference_deriv_table,
)

RADII = [20.0 * 2**j for j in range(5)]


def rotation(n, seed):
    return ortho_group.rvs(n, random_state=seed)


def jacobian(phi, x):
    """DPhi with convention J[..., i, a] = d_i Phi^a."""
    x = np.asarray(x, dtype=float)
    z1 = phi.zeta_jet(x, 1)  # (..., i, c) = d_i zeta^c
    core = np.broadcast_to(np.eye(phi.n), z1.shape) + z1
    return np.einsum("ac,...ic->...ia", phi.Q, core)


def test_make_diffeo_identity():
    phi = make_diffeo(n=3)
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(phi.apply(x), x)
    assert np.allclose(jacobian(phi, x), np.eye(3))
    assert phi.r_valid == 0.0


def test_make_diffeo_rejects_nonorthogonal():
    with pytest.raises(ValueError):
        make_diffeo(Q=np.diag([2.0, 1.0, 1.0]))


def test_make_diffeo_rejects_noncontracting_zeta():
    # tau' = 0 with c = 5: |d zeta| stays around 5 on every shell
    z = zeta_radial(3, 5.0, 0.0)
    with pytest.raises(ValueError):
        make_diffeo(zeta=z, tau_prime=0.0, n=3)


def test_make_diffeo_r_valid_needs_every_outer_shell_to_contract():
    # zeta = c x r^(1/2) grows: its sup |d zeta| is below 0.9 on the inner
    # shells and rises above it further out, so no shell is valid
    z = zeta_radial(3, 0.05, -0.5)
    with pytest.raises(ValueError, match="outermost sampled shell"):
        make_diffeo(zeta=z, tau_prime=-0.5, n=3)
    # a falling sup that drops below 0.9 from r = 8 on: r_valid is 8
    phi = make_diffeo(zeta=zeta_radial(3, 3.0, 1.0), tau_prime=1.0, n=3)
    assert phi.r_valid == 8.0


def test_diffeo_apply_and_jacobian_consistency():
    z = zeta_radial(3, 0.5, 1.0)
    phi = make_diffeo(Q=rotation(3, 1), w=[1.0, -2.0, 0.5], zeta=z, tau_prime=1.0)
    x = np.array([8.0, -3.0, 5.0])
    J = jacobian(phi, x)
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


def lie_deviation(phi, x):
    """The symmetrized gradient d zeta + (d zeta)^T, the leading part of
    Phi* b - b for A = id and small zeta."""
    z1 = phi.zeta_jet(x, 1)
    return z1 + np.swapaxes(z1, -1, -2)


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


@pytest.mark.parametrize("step", [1.0, None])
def test_invariance_report_limits_are_those_of_gbc_mass_center(step):
    # both entry points build their limits through one result path
    g = make_schwarzschild(3, 1, 1.0, center=[0.3, -0.2, 0.1])
    ctx = GBCContext(3, 1)
    phi = make_diffeo(zeta=zeta_harmonic(3, 0.2, 1.0), tau_prime=1.0, n=3)
    reports = invariance_report(g, phi, ctx, RADII, level=4, include_center=True,
                                step=step)
    mass, centers = gbc_mass_center(g, ctx, RADII, level=4, step=step)
    assert reports[0].extra["mass_g"] == mass.limit
    assert [rep.extra["center_g"] for rep in reports[1:]] == [c.limit for c in centers]


def test_invariance_report_fails_on_an_unsettled_radius(monkeypatch):
    # a pure rotation leaves the mass and center unchanged, but with a zero
    # tolerance no radius settles, so no report may pass
    g = make_schwarzschild(3, 1, 1.0, center=[0.3, -0.2, 0.1])
    monkeypatch.setattr(invariants, "REFINE_RTOL", 0.0)
    with pytest.warns(RuntimeWarning, match="did not settle"):
        reports = invariance_report(g, make_diffeo(Q=rotation(3, 7)), GBCContext(3, 1),
                                    RADII[:3], level=3, include_center=True, step=1.0)
    assert len(reports) == 4 and not any(rep.passed for rep in reports)


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
    zeta_jets = phi.zeta_jets

    def recording(x, order):
        orders.extend(range(order + 1))
        return zeta_jets(x, order)

    phi.zeta_jets = recording
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
    zeta_jets = phi.zeta_jets

    def recording(x, order):
        orders.extend(range(order + 1))
        return zeta_jets(x, order)

    phi.zeta_jets = recording
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


def test_diffeo_constructor_seeds_the_zeta_jets():
    n = 3
    zeta = zeta_harmonic(n, 0.2, 1.6)
    phi = Diffeo(n, np.eye(n), np.zeros(n), zeta, 1.6, 10.0)
    x = np.array([[30.0, -10.0, 20.0], [5.0, 25.0, -20.0]])
    assert np.array_equal(phi.zeta_jet(x, 0), zeta(x))
    assert np.array_equal(phi.zeta_jet(x, 2),
                          reference_deriv_table(reference_deriv_table(zeta))(x))
    assert np.array_equal(phi.apply(x), x + zeta(x))


@pytest.mark.parametrize("n", (3, 4, 5))
def test_zeta_jets_equal_the_eager_derivative_chain(n):
    rng = np.random.default_rng(31 + n)
    for zeta in (zeta_harmonic(n, 0.2, 1.6), zeta_radial(n, 0.1, 1.6)):
        phi = make_diffeo(zeta=zeta, tau_prime=1.6, n=n)
        eager = [zeta]
        for m in range(4):
            eager.append(reference_deriv_table(eager[-1]))
        for shape in ((6,), (), (2, 3)):
            x = rng.standard_normal(shape + (n,)) * 30.0
            # ask out of order: a later, lower order reuses what is built
            orders = (4, 0, 2, 1, 3)
            lazy = {m: phi.zeta_jet(x, m) for m in orders}
            # the shared power table gives the same bits as each order alone
            shared = phi.zeta_jets(x, 4)
            for m in range(5):
                assert np.array_equal(lazy[m], eager[m](x)), m
                assert np.array_equal(shared[m], lazy[m]), m


def test_k1_mass_on_a_pullback_derives_zeta_only_to_order_two():
    # construction depth; the evaluation depth is checked by
    # test_pullback_differentiates_phi_and_base_only_as_deep_as_asked
    n = 4
    phi = make_diffeo(Q=rotation(n, 5), w=np.array([0.3, 0.0, -0.2, 0.1]),
                      zeta=zeta_harmonic(n, 0.2, 1.6), tau_prime=1.6, n=n)
    assert derived_depth(phi.zeta) == 1   # the contraction check's d zeta
    gp = pullback_metric(phi, make_schwarzschild(n, 1, 1.0))
    gbc_mass(gp, GBCContext(n, 1), RADII[:3], level=3, step=0.5)
    assert derived_depth(phi.zeta) == 2


def _reference_cases(n):
    """Harmonic and radial zeta, each plain and after a rotation and a
    translation, over the Schwarzschild family with the largest k < n / 2."""
    w = np.linspace(0.4, -0.3, n)
    for zeta, tau in ((zeta_harmonic(n, 0.2, 1.6), 1.6), (zeta_radial(n, 0.3, 1.0), 1.0)):
        for Q, shift in ((None, None), (rotation(n, n), w)):
            phi = make_diffeo(Q=Q, w=shift, zeta=zeta, tau_prime=tau, n=n)
            yield pullback_metric(phi, make_schwarzschild(n, (n - 1) // 2, 2.0))


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_pullback_jet_matches_the_dense_reference(n):
    # At order 0 both sides round entries of size one, and the Jacobian of a
    # rotated chart differs from the einsum one by an ulp, so the relative
    # bound needs max |g - delta| of a few percent: the base mass 2 keeps it
    # at 0.04 or more on these points (radii 4 to 9).
    worst = 0.0
    for gp in _reference_cases(n):
        for shape in ((), (4,), (2, 3)):
            x = points_at_radii(n, shape, seed=n)
            got = gp.jet(x, 3)
            ref = pullback_jet_dense(gp, x, 3)
            for m in range(4):
                assert got[m].shape == ref[m].shape == shape + (n,) * (m + 2)
                scale = np.abs(ref[m] - (np.eye(n) if m == 0 else 0.0)).max()
                worst = max(worst, np.abs(got[m] - ref[m]).max() / scale)
    print(f"n={n}: largest |jet - dense| / max|d^m(g - delta)| = {worst:.2e}")
    assert worst < 1e-14
