"""End-to-end acceptance gate.

Each test is one numbered criterion; `pytest -v` prints one pass/fail line
per criterion.  Tolerances are stated inline; radii schedules are dyadic
r0 * 2^j unless a docstring says otherwise.
"""

import time

import numpy as np
from scipy.stats import ortho_group

from asymflat.chartchange import (
    invariance_report,
    make_diffeo,
    pullback_metric,
    zeta_harmonic,
    zeta_radial,
)
from asymflat.curvature import (
    christoffel,
    jet_add,
    jet_d_left,
    jet_d_right,
    jet_from_partials,
    riemann,
    riemann_jet,
)
from asymflat.dforms import PointMetric, bianchi, contract, inner
from asymflat.fields import (
    TensorRadialPoly,
    make_rt_perturbation,
    make_schwarzschild,
)
from asymflat.gbc import GBCContext, l_k, lovelock, scal
from asymflat.identities import hodge_metric_power_identity, identity_suite
from asymflat.invariants import (
    _exponents,
    _raw_flux_curves,
    calibration_constants,
    curvature_center,
    extrapolate,
    gbc_center,
    gbc_mass,
    integrate_sphere,
    mass_integrand,
    sphere_rule,
)
from asymflat.parity import rt_check

from conftest import jet_wedge, metric_jet


DYADIC = lambda r0, levels: [r0 * 2.0**j for j in range(levels)]


def test_criterion_01_algebra_suite():
    """Every algebra and flat-calculus identity passes on >= 100 random
    double forms per (n, p, q) for n in 3..6 at tolerance 1e-12."""
    for n in (3, 4, 5, 6):
        checks = identity_suite(n, seed=0, count=100, tol=1e-12)
        failed = [c for c in checks if not c.passed]
        assert not failed, "\n".join(
            f"n={c.n} ({c.p},{c.q}) {c.name}: {c.error:.3e}" for c in failed)


def test_criterion_02_hodge_metric_powers():
    """*g^k = (k!/(n-k)!) g^(n-k) componentwise within 1e-13 for all
    k <= n <= 6."""
    for n in range(2, 7):
        err = hodge_metric_power_identity(n)
        assert err <= 1e-13, f"n={n}: {err:.3e}"


def test_criterion_03_lk_normalization():
    """L_1 = Scal to relative 1e-8 at 50 random Schwarzschild points for
    n in {3,4,5}; L_2 / (|R|^2 - 4|Ric|^2 + Scal^2) has spread < 1e-8
    across 20 random metrics at n = 5."""
    rng = np.random.default_rng(0)
    for n in (3, 4, 5):
        g = make_schwarzschild(n, 1, 1.0)
        ctx = GBCContext(n, 1)
        dirs = rng.standard_normal((50, n))
        x = (3.0 + 4.0 * rng.random((50, 1))) * dirs / np.linalg.norm(
            dirs, axis=-1, keepdims=True)
        L1 = l_k(g, x, ctx)
        S = scal(g, x)
        # the family is scalar-flat, so measure against the curvature scale
        scale = np.maximum(np.abs(S), riemann(g, x).norm())
        rel = np.abs(L1 - S) / scale
        assert rel.max() < 1e-8, f"n={n}: {rel.max():.3e}"

    n = 5
    ctx2 = GBCContext(n, 2)
    ratios = []
    for seed in range(20):
        g = make_rt_perturbation(n, 1.0, seed=seed, parity="mixed", amplitude=0.05)
        x = np.array([3.0, -1.0, 2.0, 1.5, -2.5])
        G = PointMetric(g.eval(x))
        R = riemann(g, x)
        Ric = contract(R, G)
        S = contract(Ric, G).item()
        # compressed (2,2) inner counts each index pair once: |R|^2 = 4 <R, R>
        gb = 4.0 * inner(R, R, G) - 4.0 * inner(Ric, Ric, G) + S**2
        ratios.append(l_k(g, x, ctx2) / gb)
    ratios = np.array(ratios)
    spread = (ratios.max() - ratios.min()) / abs(ratios.mean())
    assert spread < 1e-8, f"L_2 ratio spread {spread:.3e}"


def test_criterion_04_bianchi_identities():
    """BR = Bt R = 0 and the field-level D^g R = 0, D^g(*P_k) = 0 within
    1e-8 relative for analytic-derivative fields, n <= 5, k <= 2."""
    cases = [(make_schwarzschild(3, 1, 1.0), 1),
             (make_rt_perturbation(4, 1.0, seed=2, parity="even"), 1),
             (make_schwarzschild(5, 2, 1.0), 2),
             (make_rt_perturbation(5, 1.0, seed=4, parity="mixed"), 2)]
    for g, k in cases:
        n = g.n
        x = np.linspace(1.0, 2.0, n) * 3.0
        R = riemann(g, x)
        scale = max(float(R.norm().max()), 1e-30)
        assert bianchi(R, "left").norm().max() / scale < 1e-10
        assert bianchi(R, "right").norm().max() / scale < 1e-10
        jR = riemann_jet(g, x, depth=1)
        dscale = max(float(np.abs(jR.levels[1]).max()), 1e-30)
        assert jet_d_left(jR).form().norm().max() / dscale < 1e-8
        # *P_k = const * R^(k-1) owedge g^(n-2k); parallel for k = 1 and
        # killed by the second Bianchi identity for k = 2
        factors = ([jR] * (k - 1)
                   + [metric_jet(n, G=g.eval(x), depth=1)] * (n - 2 * k))
        W = factors[0]
        for f in factors[1:]:
            W = jet_wedge(W, f)
        wscale = max(float(np.abs(W.levels[1]).max()), dscale, 1e-30)
        assert jet_d_left(W).form().norm().max() / wscale < 1e-8


def test_criterion_05_flat_engine_identities():
    """(Dt D + D Dt) applied to a flat Lie derivative vanishes, and
    D^2 = Dt^2 = [D, Dt] = 0, all within 1e-12 on random polynomial
    fields."""
    n = 4
    rng = np.random.default_rng(3)
    # random polynomial vector field zeta with exact derivatives
    monos = [(0,) * n]
    for i in range(n):
        for d in (1, 2, 3):
            alpha = [0] * n
            alpha[i] = d
            monos.append(tuple(alpha))
    zeta = TensorRadialPoly(n, (n,), monos, np.zeros(len(monos)),
                            rng.standard_normal((n, len(monos))))
    z1 = zeta.deriv()
    z2 = z1.deriv()
    z3 = z2.deriv()
    x = rng.standard_normal((5, n))

    def sym(a):  # symmetrize the last two axes
        return a + np.swapaxes(a, -1, -2)

    h0 = sym(z1(x))
    h1 = sym(z2(x))
    h2 = sym(z3(x))
    jh = jet_from_partials(n, 1, 1, [h0, h1, h2])
    box = jet_add(jet_d_right(jet_d_left(jh)), jet_d_left(jet_d_right(jh)))
    scale = max(float(np.abs(h0).max()), 1.0)
    assert box.form().norm().max() / scale < 1e-12

    from asymflat.curvature import PolynomialDoubleFormField
    for p, q in [(1, 1), (2, 1)]:
        F = PolynomialDoubleFormField.random(n, p, q, seed=7)
        jF = jet_from_partials(n, p, q, F.jet(x, 2))
        assert jet_d_left(jet_d_left(jF)).form().norm().max() < 1e-12
        assert jet_d_right(jet_d_right(jF)).form().norm().max() < 1e-12
        comm = (jet_d_left(jet_d_right(jF)).form()
                - jet_d_right(jet_d_left(jF)).form())
        assert comm.norm().max() < 1e-12


def test_criterion_06_schwarzschild_mass_law():
    """Calibrated masses of g_{S,k,m} equal m^k within 1e-3 for
    m in {0.5, 2}, (n,k) in {(3,1), (5,2)}.

    The k = 1 family converges on the dyadic radii 20..320.  The k = 2
    family expands in powers of r^(-1/2), so the same five dyadic levels
    cannot separate the ladder (the fitted limit is off by order one);
    the schedule keeps r0 = 20 and extends to nine dyadic levels
    (20..5120), which resolves the ladder to ~1e-6."""
    t0 = time.time()
    ctx31 = GBCContext(3, 1)
    for m in (0.5, 2.0):
        res = gbc_mass(make_schwarzschild(3, 1, m), ctx31, DYADIC(20.0, 5),
                       step=1.0)
        assert abs(res.limit - m) < 1e-3, f"(3,1) m={m}: {res.limit}"
    ctx52 = GBCContext(5, 2)
    for m in (0.5, 2.0):
        res = gbc_mass(make_schwarzschild(5, 2, m), ctx52, DYADIC(20.0, 9),
                       step=0.5)
        assert abs(res.limit - m**2) < 1e-3, f"(5,2) m={m}: {res.limit}"
    assert time.time() - t0 < 300.0


def test_criterion_07_center_of_mass():
    """Translated Schwarzschild recovers its translation within 5e-3 on
    all axes and magnitudes; rotation/translation equivariance within
    5e-3; a centered field gives |C| < 1e-6."""
    t0 = time.time()
    ctx = GBCContext(3, 1)
    radii = DYADIC(20.0, 5)
    for c in ([0.0, 0.7, -0.4], [1.5, -0.5, 0.8]):
        g = make_schwarzschild(3, 1, 1.0, center=c)
        res = gbc_center(g, ctx, radii, step=1.0)
        C = np.array([r.limit for r in res])
        assert np.abs(C - np.asarray(c)).max() < 5e-3, f"c={c}: {C}"

    # equivariance: the pullback by Phi(x) = Qx + w of a field centered at c
    # is centered at Q^T (c - w)
    Q = ortho_group.rvs(3, random_state=11)
    w = np.array([0.5, -0.2, 0.1])
    c = np.array([0.6, -0.3, 0.2])
    g = make_schwarzschild(3, 1, 1.0, center=c)
    phi = make_diffeo(Q=Q, w=w)
    gp = pullback_metric(phi, g)
    res = gbc_center(gp, ctx, radii, step=1.0)
    C = np.array([r.limit for r in res])
    assert np.abs(C - Q.T @ (c - w)).max() < 5e-3

    g0 = make_schwarzschild(3, 1, 1.0)
    res0 = gbc_center(g0, ctx, radii, step=1.0)
    assert max(abs(r.limit) for r in res0) < 1e-6
    assert time.time() - t0 < 300.0


def _raw_center_curve(g, ctx, radii, level, axis):
    return _raw_flux_curves(g, ctx, radii, level)[1 + axis]


def _ratio(n, k, m, t, axis, radii, step):
    ctx = GBCContext(n, k)
    c_cal = calibration_constants(n, k)["c"]
    g = make_schwarzschild(n, k, m, center=t)
    center_curve = _raw_center_curve(g, ctx, radii, 8, axis)
    curv_curve = curvature_center(g, ctx, radii, 8, step)[axis].per_radius
    # m_k C^axis = c * (raw center limit); extrapolate the pointwise
    # ratio so shared ladder terms cancel
    rows = [(r, v / (c_cal * cr))
            for (r, v), (_, cr) in zip(curv_curve, center_curve)]
    return extrapolate(rows, _exponents(g, step, len(radii)))[0]


def test_criterion_08_curvature_center_ratio():
    """The ratio of the Lovelock flux against the conformal Killing fields
    to m_k C^alpha is one constant b_{n,k} across >= 3 translations
    and 2 masses, spread < 1e-2, for (n,k) in {(3,1), (5,2)}."""
    cases = {
        (3, 1): {
            "radii": DYADIC(20.0, 5), "step": 1.0,
            "combos": [(0.5, (0.8, 0.0, 0.0), 0),
                       (0.5, (0.0, 0.6, 0.3), 1),
                       (0.5, (0.4, -0.4, 0.5), 2),
                       (2.0, (0.8, 0.0, 0.0), 0),
                       (2.0, (0.0, 0.6, 0.3), 1)],
        },
        (5, 2): {
            "radii": DYADIC(20.0, 5), "step": 0.5,
            "combos": [(0.2, (1.0, 0.0, 0.0, 0.0, 0.0), 0),
                       (0.2, (0.0, 0.8, 0.0, 0.4, 0.0), 1),
                       (0.2, (0.5, 0.5, 0.5, 0.0, 0.0), 0),
                       (0.4, (1.0, 0.0, 0.0, 0.0, 0.0), 0)],
        },
    }
    for (n, k), case in cases.items():
        ratios = [_ratio(n, k, m, t, ax, case["radii"], case["step"])
                  for m, t, ax in case["combos"]]
        ratios = np.array(ratios)
        spread = (ratios.max() - ratios.min()) / abs(ratios.mean())
        assert spread < 1e-2, f"(n,k)=({n},{k}) ratios {ratios}"
        b = calibration_constants(n, k)["b"]
        assert abs(ratios.mean() - b) / abs(b) < 1e-2


def test_criterion_09_lovelock_trace_and_divergence():
    """c(T_k) = (n-2k) L_k within 1e-9 pointwise; the g-divergence of T_k
    vanishes within 1e-7 relative on analytic families."""
    cases = [(make_schwarzschild(3, 1, 1.0), 1),
             (make_rt_perturbation(4, 1.0, seed=5, parity="even"), 1),
             (make_rt_perturbation(5, 1.0, seed=6, parity="mixed"), 1),
             (make_schwarzschild(5, 2, 1.0), 2)]
    for g, k in cases:
        n = g.n
        ctx = GBCContext(n, k)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((10, n))
        x = (3.0 + 2.0 * rng.random((10, 1))) * x / np.linalg.norm(
            x, axis=-1, keepdims=True)
        T = lovelock(g, x, ctx)
        G = PointMetric(g.eval(x))
        tr = contract(T, G).comps[..., 0, 0]
        L = l_k(g, x, ctx)
        # L_k-flat cases leave both sides at roundoff: scale by |T_k|
        scale = np.maximum(np.abs((n - 2 * k) * L), T.norm())
        assert (np.abs(tr - (n - 2 * k) * L) / scale).max() < 1e-9

        # numerical divergence: central differences of T plus connection terms
        x1 = x[0]
        h = 1e-4
        dT = np.empty((n, n, n))
        for a in range(n):
            e = np.zeros(n)
            e[a] = h
            dT[a] = (lovelock(g, x1 + e, ctx).comps
                     - lovelock(g, x1 - e, ctx).comps) / (2 * h)
        T0 = lovelock(g, x1, ctx).comps
        gam = christoffel(g, x1)
        covd = (dT - np.einsum("mai,mj->aij", gam, T0)
                - np.einsum("maj,im->aij", gam, T0))
        Ginv = np.linalg.inv(g.eval(x1))
        div = np.einsum("ai,aij->j", Ginv, covd)
        scale = max(np.abs(covd).max(), 1e-30)
        assert np.abs(div).max() / scale < 1e-7, f"n={n} k={k}"


def test_criterion_10_chart_invariance():
    """Compliant zeta: extrapolated |delta m_k| < 1e-3 and |delta C_k| <
    5e-3; a below-threshold zeta triggers the drift flag."""
    t0 = time.time()
    ctx31 = GBCContext(3, 1)
    radii = DYADIC(20.0, 5)
    g = make_schwarzschild(3, 1, 1.0, center=[0.3, -0.2, 0.1])
    phi = make_diffeo(zeta=zeta_harmonic(3, 0.2, 1.0), tau_prime=1.0, n=3)
    reports = invariance_report(g, phi, ctx31, radii, include_center=True,
                                step=1.0)
    assert reports[0].passed and abs(reports[0].delta_limit) < 1e-3
    for rep in reports[1:]:
        assert rep.passed and abs(rep.delta_limit) < 5e-3, rep.quantity

    ctx52 = GBCContext(5, 2)
    g52 = make_schwarzschild(5, 2, 1.0)
    phi52 = make_diffeo(zeta=zeta_harmonic(5, 0.2, 1.6), tau_prime=1.6, n=5)
    rep52 = invariance_report(g52, phi52, ctx52, radii, step=0.5)
    assert rep52[0].passed and abs(rep52[0].delta_limit) < 1e-3

    bad = make_diffeo(zeta=zeta_radial(3, 0.5, 0.3), tau_prime=0.3, n=3)
    rep_bad = invariance_report(g, bad, ctx31, radii, step=1.0)
    assert not rep_bad[0].passed
    assert time.time() - t0 < 600.0


def test_criterion_11_parity():
    """Constructed odd mass integrands integrate to < 1e-10 on every test
    sphere; rt_check passes its positive controls and fails its negative
    control."""
    g = make_rt_perturbation(3, 1.0, seed=9, parity="odd")
    ctx = GBCContext(3, 1)
    for r in DYADIC(10.0, 5):
        val = integrate_sphere(sphere_rule(3, r, 10),
                               lambda xs, nus: mass_integrand(g, xs, nus, ctx))
        assert abs(val) < 1e-10, f"r={r}: {val:.3e}"

    radii = DYADIC(10.0, 5)
    for parity in ("even", "mixed"):
        pos = rt_check(make_rt_perturbation(3, 1.0, seed=1, parity=parity),
                       1.0, 2, radii)
        assert all(rep.passed for rep in pos), parity
    neg = rt_check(make_rt_perturbation(3, 1.0, seed=1, parity="odd"),
                   1.0, 1, radii)
    assert not neg[0].passed
