import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.special import roots_jacobi

from asymflat import invariants
from asymflat.chartchange import make_diffeo, pullback_metric, zeta_harmonic
from asymflat.fields import EuclideanMetric, make_rt_perturbation, make_schwarzschild
from asymflat.gbc import GBCContext
from asymflat.invariants import (
    _adaptive_integral,
    _flux_integrands,
    adm_mass_coordinate,
    calibration_constants,
    center_integrand,
    center_integrand_alt,
    curvature_center,
    curvature_center_integrand,
    decay_exponents,
    extrapolate,
    gbc_center,
    gbc_mass,
    gbc_mass_center,
    integrate_sphere,
    mass_integrand,
    mass_integrand_alt,
    SphereRule,
    sphere_rule,
    sphere_volume,
)

from conftest import tensor_sphere_rule

RADII = [20.0 * 2**j for j in range(5)]


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_sphere_volume_values():
    assert np.isclose(sphere_volume(3), 4.0 * math.pi)
    assert np.isclose(sphere_volume(4), 2.0 * math.pi**2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sphere_rule_constant_and_moments(n):
    r = 2.0
    rule = sphere_rule(n, r, 8)
    one = integrate_sphere(rule, lambda x, nu: np.ones(x.shape[0]))
    assert np.isclose(one, sphere_volume(n) * r ** (n - 1), rtol=1e-12)
    first = integrate_sphere(rule, lambda x, nu: x[:, 0])
    assert abs(first) < 1e-12
    second = integrate_sphere(rule, lambda x, nu: nu[:, 0] ** 2)
    assert np.isclose(second, sphere_volume(n) * r ** (n - 1) / n, rtol=1e-12)


def test_sphere_rule_polynomial_exactness():
    # degree-6 polynomial on S^2: x^2 y^4
    rule = sphere_rule(3, 1.0, 8)
    val = integrate_sphere(rule, lambda x, nu: x[:, 0] ** 2 * x[:, 1] ** 4)
    # int x^2 y^4 over S^2 = 4 pi * 1*3 / (3*5*7)
    assert np.isclose(val, 4.0 * math.pi * 3.0 / 105.0, rtol=1e-12)


def test_sphere_rule_validation():
    with pytest.raises(ValueError):
        sphere_rule(2, 1.0, 8)
    with pytest.raises(ValueError):
        sphere_rule(3, 1.0, 1)


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
def test_jacobi_rule_matches_scipy_and_is_exact(a):
    # Golub-Welsch rule against scipy's, and against the exact moments
    # int u^{2j} (1 - u^2)^a du = Gamma(j + 1/2) Gamma(a + 1) / Gamma(j + a + 3/2)
    for N in range(2, 40):
        u, w = invariants._jacobi_rule(N, a)
        u_ref, w_ref = roots_jacobi(N, a, a)
        assert np.abs(u - u_ref).max() <= 1e-15
        assert (np.abs(w - w_ref) / w_ref).max() <= 1e-11
        for j in range(N):
            exact = math.gamma(j + 0.5) * math.gamma(a + 1) / math.gamma(j + a + 1.5)
            assert abs(math.fsum(w * u ** (2 * j)) - exact) <= 1e-12 * exact
    assert not u.flags.writeable and not w.flags.writeable


def test_integrate_sphere_deterministic():
    rule = sphere_rule(4, 3.0, 10)
    f = lambda x, nu: np.sin(x[:, 0]) + x[:, 1] ** 2
    assert integrate_sphere(rule, f) == integrate_sphere(rule, f)


# ---------------------------------------------------------------------------
# unit rules: tensor product at n <= 4, fully symmetric at n >= 5
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4])
def test_tensor_rule_is_bit_identical_to_the_per_radius_construction(n):
    for level in (2, 5, 8):
        for r in (1.0, 20.0, 5120.0):
            rule = sphere_rule(n, r, level)
            points, weights, normals = tensor_sphere_rule(n, r, level)
            assert rule.level == level
            assert np.array_equal(rule.points, points)
            assert np.array_equal(rule.normals, normals)
            assert np.array_equal(rule.weights, weights)


def sphere_moment(n, a):
    """int_{S^{n-1}} prod_i x_i^(2 a_i) = 2 prod_i Gamma(a_i + 1/2) / Gamma(|a| + n/2)."""
    return (2.0 * math.prod(math.gamma(ai + 0.5) for ai in a)
            * math.gamma(0.5) ** (n - len(a)) / math.gamma(sum(a) + n / 2.0))


def partitions(s, largest):
    """Partitions of s with parts at most `largest`, largest part first."""
    if s == 0:
        yield ()
    for first in range(min(s, largest), 0, -1):
        for rest in partitions(s - first, first):
            yield (first,) + rest


def unit_moment(rule, a):
    """The rule's value of x^(2a) (leading coordinates) on the unit sphere."""
    terms = np.ones(rule.weights.shape)
    for i, ai in enumerate(a):
        terms = terms * rule.points[:, i] ** (2 * ai)
    return rule.weights @ terms


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_symmetric_rule_has_degree_2_level_minus_1(n):
    # a fully symmetric rule integrates every odd monomial to 0 and is
    # invariant under permutations, so the even monomials x^(2a) with
    # |a| <= level - 1 reduce to partitions a, each checked in two placements
    for level in range(2, 9):
        rule = sphere_rule(n, 1.0, level)
        for s in range(level):
            for a in partitions(s, s):
                if len(a) > n:
                    continue
                exact = sphere_moment(n, a)
                for placed in (a, (0,) * (n - len(a)) + a[::-1]):
                    got = unit_moment(rule, placed)
                    assert abs(got - exact) <= 1e-12 * exact, (level, placed)
        # x_1^(2 level) is of degree 2 level: no longer exact
        exact = sphere_moment(n, (level,))
        assert abs(unit_moment(rule, (level,)) - exact) > 1e-6 * exact


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_symmetric_rule_nodes_lie_on_the_sphere(n):
    for level in (2, 4, 8):
        rule = sphere_rule(n, 3.0, level)
        assert np.abs(np.linalg.norm(rule.normals, axis=1) - 1.0).max() <= 4e-16
        assert np.array_equal(rule.points, 3.0 * rule.normals)
        assert not rule.normals.flags.writeable


def test_symmetric_rule_node_counts():
    # every permutation and sign change of every partition of level - 1 into
    # at most n parts, against 2 level^(n-1) nodes of the tensor rule
    counts = {n: [sphere_rule(n, 1.0, level).points.shape[0] for level in (2, 3, 4, 5)]
              for n in (5, 6, 8)}
    assert counts == {5: [10, 50, 170, 450], 6: [12, 72, 292, 912],
                      8: [16, 128, 688, 2816]}


def test_unit_rule_rebuild_is_bit_identical():
    keys = [(n, level) for n in (4, 5, 7) for level in (3, 6)]
    before = {key: sphere_rule(key[0], 20.0, key[1]) for key in keys}
    sphere_rule.cache_clear()
    invariants._unit_rule.cache_clear()
    for (n, level), rule in before.items():
        again = sphere_rule(n, 20.0, level)
        assert again.normals is not rule.normals
        for name in ("points", "weights", "normals"):
            assert np.array_equal(getattr(again, name), getattr(rule, name))


@pytest.mark.parametrize("n, k, integrand", [
    (5, 2, _flux_integrands),
    (6, 2, _flux_integrands),
    (5, 2, curvature_center_integrand),
])
def test_symmetric_rule_matches_the_level_7_tensor_rule_on_fluxes(n, k, integrand):
    g = make_schwarzschild(n, k, 1.1, center=np.linspace(0.4, -0.2, n))
    kwargs = {"center": True} if integrand is _flux_integrands else {}
    f = partial(integrand, g, ctx=GBCContext(n, k), **kwargs)
    r = 20.0
    ref = integrate_sphere(SphereRule(n, r, 7, *tensor_sphere_rule(n, r, 7)), f)
    got = integrate_sphere(sphere_rule(n, r, 4), f)
    rtol = invariants.REFINE_RTOL
    assert np.all(np.abs(got - ref) <= rtol * np.maximum(np.abs(ref), 1.0))


# ---------------------------------------------------------------------------
# refinement: each radius is checked one level down, escalated if unsettled
# ---------------------------------------------------------------------------

RTOL = invariants.REFINE_RTOL  # _adaptive_integral's per-component test


def upward_integral(n, r, level, f, rtol=RTOL, max_refinements=3):
    """The upward refinement alone: level L, then L + max(2, L // 2), ...
    until two successive values agree; the reference for escalation."""
    val = integrate_sphere(sphere_rule(n, r, level), f)
    for _ in range(max_refinements):
        level += max(2, level // 2)
        new = integrate_sphere(sphere_rule(n, r, level), f)
        if np.all(np.abs(new - val) <= rtol * np.maximum(np.abs(new), 1.0)):
            return new
        val = new
    return val


def spy_passes(monkeypatch):
    """Record (rule level, integrand) for every quadrature pass."""
    passes = []

    def spy(rule, f, *args, **kwargs):
        passes.append((rule.level, f))
        return integrate_sphere(rule, f, *args, **kwargs)

    monkeypatch.setattr(invariants, "integrate_sphere", spy)
    return passes


def test_settled_radius_evaluates_its_level_and_the_one_below(monkeypatch):
    ctx = GBCContext(5, 2)
    g = make_schwarzschild(5, 2, 1.3, center=np.array([0.4, 0.0, -0.2, 0.1, 0.0]))
    for r in (20.0, 80.0, 320.0):
        nodes = []

        def counting(x, nu):
            nodes.append(x.shape[0])
            return _flux_integrands(g, x, nu, ctx, center=False)

        passes = spy_passes(monkeypatch)
        val = _adaptive_integral(5, r, 4, counting)
        monkeypatch.undo()
        assert passes == [(4, counting), (3, counting)]
        assert nodes == [170, 50]
        assert np.array_equal(val, integrate_sphere(sphere_rule(5, r, 4), counting))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_unresolved_radius_escalates_to_the_upward_value(n, monkeypatch):
    f = lambda x, nu: x[:, 0] ** 12
    passes = spy_passes(monkeypatch)
    val = _adaptive_integral(n, 1.0, 4, f)
    monkeypatch.undo()
    assert [level for level, _ in passes[:3]] == [4, 3, 6]
    assert val != integrate_sphere(sphere_rule(n, 1.0, 4), f)
    assert val == upward_integral(n, 1.0, 4, f)


@pytest.mark.parametrize("level, path", [(2, [2, 4]), (3, [3, 2])])
def test_coarsest_check_rule_is_level_two(level, path, monkeypatch):
    # x0^2 is exact at every level, so each radius settles on its first check
    f = lambda x, nu: np.stack([np.ones(x.shape[0]), x[:, 0] ** 2], -1)
    passes = spy_passes(monkeypatch)
    val = _adaptive_integral(3, 2.0, level, f)
    monkeypatch.undo()
    assert [lv for lv, _ in passes] == path
    expected = upward_integral(3, 2.0, 2, f) if level == 2 else \
        integrate_sphere(sphere_rule(3, 2.0, level), f)
    assert np.array_equal(val, expected)


def test_unsettled_integral_warns_and_returns_the_last_value():
    f = lambda x, nu: np.abs(x[:, 0])  # a kink: Gauss rules converge slowly
    with pytest.warns(RuntimeWarning, match=r"n=3, r=1 .* level 13: largest component"):
        val = _adaptive_integral(3, 1.0, 4, f)
    assert val == integrate_sphere(sphere_rule(3, 1.0, 13), f)


def test_pullback_and_curvature_center_curves_stay_within_the_refinement_test():
    n = 4
    Q = np.linalg.qr(np.random.default_rng(5).standard_normal((n, n)))[0]
    phi = make_diffeo(Q=Q, w=np.array([0.4, -0.3, 0.2, 0.1]),
                      zeta=zeta_harmonic(n, 0.25, 1.6), tau_prime=1.6, n=n)
    gp = pullback_metric(phi, make_schwarzschild(n, 1, 1.2, center=np.array([0.3, 0, 0, -0.2])))
    g3 = make_schwarzschild(3, 1, 0.9, center=np.array([0.6, -0.4, 0.5]))
    cases = [(n, 6, partial(_flux_integrands, gp, ctx=GBCContext(n, 1), center=False)),
             (3, 5, partial(curvature_center_integrand, g3, ctx=GBCContext(3, 1)))]
    for dim, level, f in cases:
        # the value the upward refinement confirmed a settled Q_L with
        finer = level + max(2, level // 2)
        for r in RADII:
            got = _adaptive_integral(dim, r, level, f)
            ref = integrate_sphere(sphere_rule(dim, r, finer), f)
            assert np.all(np.abs(got - ref) <= RTOL * np.maximum(np.abs(ref), 1.0))


def _chunk_cases():
    """(n, k, level, integrand) on a translated Schwarzschild, a pullback and
    the Lovelock path."""
    Q = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))[0]
    phi = make_diffeo(Q=Q, w=np.array([0.4, -0.3, 0.2, 0.1]),
                      zeta=zeta_harmonic(4, 0.25, 1.6), tau_prime=1.6, n=4)
    g4 = make_schwarzschild(4, 1, 1.2, center=np.array([0.3, 0, 0, -0.2]))
    g5 = make_schwarzschild(5, 2, 1.3, center=np.array([0.4, 0.0, -0.2, 0.1, 0.0]))
    ctx4, ctx5 = GBCContext(4, 1), GBCContext(5, 2)
    return [(5, 2, 4, partial(_flux_integrands, g5, ctx=ctx5, center=True)),
            (4, 1, 6, partial(_flux_integrands, pullback_metric(phi, g4), ctx=ctx4,
                              center=True)),
            (4, 1, 5, partial(curvature_center_integrand, g4, ctx=ctx4))]


def test_budgeted_chunks_leave_k1_integrals_bit_identical():
    # at n = 4 a chunk is 512 nodes, so the 686-node level-7 rule splits
    assert invariants._chunk_nodes(4, 1) == 512
    rule = sphere_rule(4, 40.0, 7)
    for _, _, _, f in _chunk_cases()[1:]:
        assert np.array_equal(integrate_sphere(rule, f, 512), integrate_sphere(rule, f))


def test_chunked_52_flux_keeps_the_mass_and_moves_the_center_in_the_last_bits():
    _, _, level, f = _chunk_cases()[0]
    rule = sphere_rule(5, 40.0, level)
    whole = integrate_sphere(rule, f)
    for chunk in (7, invariants._chunk_nodes(5, 2)):
        got = integrate_sphere(rule, f, chunk)
        assert got[0] == whole[0]
        assert np.all(np.abs(got - whole) <= 1e-14 * np.max(np.abs(whole)))


def test_chunk_estimate_bounds_the_traced_bytes_per_node():
    for n, k, level, f in _chunk_cases():
        rule = sphere_rule(n, 40.0, level)
        peaks = []
        for size in (8, 32):
            x, nu = rule.points[:size], rule.normals[:size]
            f(x, nu)  # kernels and index tables are built on first use
            tracemalloc.start()
            try:
                f(x, nu)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_node = (peaks[1] - peaks[0]) / 24
        assert per_node <= 3 * 8 * math.comb(2 * k, k) * n**4


def test_flux_curves_call_the_integrand_in_budgeted_chunks(monkeypatch):
    ctx = GBCContext(5, 2)
    g = make_schwarzschild(5, 2, 1.3, center=np.array([0.4, 0.0, -0.2, 0.1, 0.0]))
    sizes = []

    def counting(g, x, nu, ctx, center):
        sizes.append(x.shape[0])
        return _flux_integrands(g, x, nu, ctx, center)

    monkeypatch.setattr(invariants, "_flux_integrands", counting)
    invariants._raw_flux_curves(g, ctx, [20.0], 4, center=False)
    # a settled radius: the 170 level-4 nodes, then the 50 of level 3
    assert invariants._chunk_nodes(5, 2) == 69
    assert sizes == [69, 69, 32, 50]


def test_curvature_center_and_adm_curves_use_the_budgeted_chunk(monkeypatch):
    chunks = []

    def spy(rule, f, chunk=2048):
        chunks.append(chunk)
        return integrate_sphere(rule, f, chunk)

    monkeypatch.setattr(invariants, "integrate_sphere", spy)
    radii = [20.0, 40.0, 80.0]
    g = make_schwarzschild(5, 2, 0.2, center=np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    curvature_center(g, GBCContext(5, 2), radii, 4, step=0.5)
    assert chunks and set(chunks) == {69}
    chunks.clear()
    # the ADM integrand takes no context and is chunked as k = 1
    adm_mass_coordinate(make_schwarzschild(5, 1, 1.0), radii, 4)
    assert invariants._chunk_nodes(5, 1) == 209
    assert chunks and set(chunks) == {209}


# ---------------------------------------------------------------------------
# extrapolation
# ---------------------------------------------------------------------------

def test_decay_exponents_lattice():
    assert decay_exponents((0.5,), 4) == [0.5, 1.0, 1.5, 2.0]
    assert decay_exponents((1.5,), 4) == [1.5, 2.5, 3.0, 3.5]
    assert decay_exponents((2.0, 1.6), 3) == [1.6, 2.0, 2.6]
    assert decay_exponents((math.inf,), 3) == [1.0, 2.0, 3.0]
    # 0.1 + 0.1 + 0.1 rounds to 0.30000000000000004 and counts as 0.3
    assert decay_exponents((0.1, 0.3), 4) == [0.1, 0.2, 0.3, 0.4]


def test_pullback_declares_tau_prime():
    g = make_schwarzschild(4, 1, 1.0)
    phi = make_diffeo(zeta=zeta_harmonic(4, 0.2, 1.6), tau_prime=1.6, n=4)
    gp = pullback_metric(phi, g)
    assert gp.decay_orders == (2.0, 1.6)
    assert gp.tau == 1.6


def test_exponents_from_step_or_declared_orders():
    g = make_schwarzschild(5, 2, 1.0)
    assert invariants._exponents(g, 0.5, 3) == [0.5, 1.0, 1.5]
    assert invariants._exponents(g, None, 3) == decay_exponents(g.decay_orders, 3)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="step"):
            invariants._exponents(g, bad, 3)


def test_extrapolate_exact_curve_on_mixed_lattice():
    rs = [10.0 * 2**j for j in range(8)]
    ex = decay_exponents((2.0, 1.6), 6)
    coef = [3.0, -2.0, 0.5, 4.0]
    vals = [5.0 + sum(c * r ** -e for c, e in zip(coef, ex)) for r in rs]
    c0, e0, resid = extrapolate(list(zip(rs, vals)), ex)
    assert abs(c0 - 5.0) < 1e-10
    assert e0 == 1.6


def test_extrapolate_with_known_step():
    rs = [10.0 * 2**j for j in range(6)]
    vals = [2.0 - 4.0 / np.sqrt(r) + 1.0 / r for r in rs]
    c0, s, resid = extrapolate(list(zip(rs, vals)), [0.5, 1.0, 1.5, 2.0])
    assert abs(c0 - 2.0) < 1e-10
    assert s == 0.5


def test_extrapolate_constant_sequence():
    c0, s, resid = extrapolate([(10.0, 4.0), (20.0, 4.0), (40.0, 4.0)], [1.0])
    assert c0 == 4.0
    assert math.isnan(s)
    assert resid == 0.0


def test_extrapolate_noise_tolerance():
    rng = np.random.default_rng(0)
    rs = [10.0 * 2**j for j in range(7)]
    vals = [1.0 + 2.0 / r + rng.normal(scale=1e-10) for r in rs]
    c0, *_ = extrapolate(list(zip(rs, vals)), [1.0, 2.0, 3.0], terms=2)
    assert abs(c0 - 1.0) < 1e-6


def test_extrapolate_validation():
    with pytest.raises(ValueError):
        extrapolate([(1.0, 0.0), (2.0, 1.0)], [1.0])
    with pytest.raises(ValueError):
        extrapolate([(2.0, 0.0), (1.0, 1.0), (3.0, 2.0)], [1.0])
    samples = [(10.0, 1.1), (20.0, 1.05), (40.0, 1.025)]
    for bad in ([], [0.0], [-1.0], [math.nan], [math.inf], [1.0, 1.0], [2.0, 1.0]):
        with pytest.raises(ValueError, match="exponents"):
            extrapolate(samples, bad)


def test_declared_exponents_fix_wrong_limits_reported_converged():
    # a single profiled spacing gave 1.2054 (error 4.6e-3) and a center off
    # by 2.1e-4, both flagged converged
    g = make_schwarzschild(5, 2, 1.1)
    res = gbc_mass(g, GBCContext(5, 2), [20.0 * 2**j for j in range(7)], level=4)
    assert abs(res.limit - 1.21) < 1e-4
    t = np.array([0.5, -0.3, 0.2])
    g = make_schwarzschild(3, 1, 1.2, center=t)
    res = gbc_center(g, GBCContext(3, 1), [20.0 * 2**j for j in range(6)], level=5)
    assert np.abs(np.array([r.limit for r in res]) - t).max() < 1e-8


@pytest.mark.parametrize("n, k, mass_err, center_err", [
    (3, 1, 2.9e-6, 4.3e-6),
    (5, 2, 2.1e-6, 6.5e-7),
])
def test_declared_exponents_beat_profiled_spacing_100x(n, k, mass_err, center_err):
    # mass_err, center_err: the errors of a single profiled spacing
    t = np.zeros(n)
    t[0] = 0.5
    g = make_schwarzschild(n, k, 1.1, center=t)
    mass, center = gbc_mass_center(g, GBCContext(n, k),
                                   [20.0 * 2**j for j in range(9)], level=4)
    assert abs(mass.limit - 1.1 ** k) < mass_err / 100
    assert abs(center[0].limit - 0.5) < center_err / 100


# ---------------------------------------------------------------------------
# mass
# ---------------------------------------------------------------------------

def test_mass_integrand_alt_agrees_on_sphere():
    g = make_schwarzschild(3, 1, 1.0)
    ctx = GBCContext(3, 1)
    rule = sphere_rule(3, 25.0, 8)
    v1 = integrate_sphere(rule, lambda x, nu: mass_integrand(g, x, nu, ctx))
    v2 = integrate_sphere(rule, lambda x, nu: mass_integrand_alt(g, x, nu, ctx))
    assert np.isclose(v1, v2, rtol=1e-10)


def test_center_integrand_alt_agrees_on_sphere():
    g = make_schwarzschild(3, 1, 1.0, center=[0.5, 0.0, 0.0])
    ctx = GBCContext(3, 1)
    rule = sphere_rule(3, 25.0, 8)
    v1 = integrate_sphere(rule, lambda x, nu: center_integrand(g, x, nu, ctx, 0))
    v2 = integrate_sphere(rule, lambda x, nu: center_integrand_alt(g, x, nu, ctx, 0))
    assert np.isclose(v1, v2, rtol=1e-10)


def test_schwarzschild_mass_law_31():
    ctx = GBCContext(3, 1)
    for m in (0.5, 2.0):
        g = make_schwarzschild(3, 1, m)
        res = gbc_mass(g, ctx, RADII, step=1.0)
        assert abs(res.limit - m) < 1e-8
        assert res.converged


def test_mass_matches_adm_oracle():
    # independent coordinate-expression oracle at k = 1
    for g in (make_schwarzschild(3, 1, 1.3),
              make_schwarzschild(4, 1, 0.7),
              make_rt_perturbation(3, 1.0, seed=11, parity="even")):
        ctx = GBCContext(g.n, 1)
        res = gbc_mass(g, ctx, RADII)
        adm = adm_mass_coordinate(g, RADII)
        scale = max(abs(adm.limit), 1e-12)
        assert abs(res.limit - adm.limit) / scale < 1e-6


def test_mass_decay_warning():
    g = make_rt_perturbation(3, 0.4, seed=0, parity="even")
    ctx = GBCContext(3, 1)
    with pytest.warns(UserWarning):
        gbc_mass(g, ctx, RADII[:3], level=4)


def test_mass_requires_room():
    with pytest.raises(ValueError):
        gbc_mass(EuclideanMetric(4), GBCContext(4, 2), RADII)


# ---------------------------------------------------------------------------
# centers
# ---------------------------------------------------------------------------

def test_center_recovers_translation():
    c = np.array([0.8, -0.5, 0.3])
    g = make_schwarzschild(3, 1, 1.0, center=c)
    ctx = GBCContext(3, 1)
    res = gbc_center(g, ctx, RADII, step=1.0)
    C = np.array([r.limit for r in res])
    assert np.abs(C - c).max() < 1e-6


def test_center_divides_by_mk_at_k2():
    # at k >= 2 the raw center limit is m_k t, so dividing by (m_k)^k
    # would report t / m_k^(k-1) = t / 1.21 here
    t = np.array([0.4, 0.0, 0.2, 0.0, 0.0])
    g = make_schwarzschild(5, 2, 1.1, center=t)
    mass, res = gbc_mass_center(g, GBCContext(5, 2), [20.0 * 2**j for j in range(9)],
                                level=4, step=0.5)
    assert abs(mass.limit - 1.21) < 1e-3
    C = np.array([r.limit for r in res])
    assert np.abs(C - t).max() < 5e-3


def test_center_zero_for_centered_field():
    g = make_schwarzschild(3, 1, 1.0)
    ctx = GBCContext(3, 1)
    res = gbc_center(g, ctx, RADII, step=1.0)
    assert max(abs(r.limit) for r in res) < 1e-8


def test_center_rejects_zero_mass():
    g = EuclideanMetric(3, r_min=1.0)
    ctx = GBCContext(3, 1)
    with pytest.raises(ValueError):
        gbc_center(g, ctx, RADII)


def test_curvature_center_ratio_constant():
    # the Lovelock-flux center equals b * m_k * C componentwise
    c = np.array([0.6, 0.0, -0.4])
    g = make_schwarzschild(3, 1, 1.0, center=c)
    ctx = GBCContext(3, 1)
    mass, cen = gbc_mass_center(g, ctx, RADII, step=1.0)
    cc = curvature_center(g, ctx, RADII, step=1.0)
    b = calibration_constants(3, 1)["b"]
    for axis in (0, 2):
        expected = b * mass.limit * cen[axis].limit
        assert np.isclose(cc[axis].limit, expected, rtol=1e-4)


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

# (a, c, b) measured with `measure_calibration` against the generalized
# Schwarzschild family g_{S,k,m=1} on the dyadic radii 20 * 2^j, j = 0..7,
# and frozen here: "a" multiplies the prefactored mass, "c" normalizes the
# center and "b" is the curvature-center ratio constant.
CALIBRATION: dict[tuple[int, int], dict[str, float]] = {
    (3, 1): {"a": 1.0000000000, "c": 3.0000000035, "b": -100.5309649149},
    (4, 1): {"a": 1.0000000000, "c": 2.0000003318, "b": -473.7410112523},
    (5, 1): {"a": 1.0000000000, "c": 1.6663618420, "b": -1263.3093633393},
    (5, 2): {"a": 0.9999998189, "c": 1.6666670430, "b": -5053.2174650384},
}


def test_calibration_closed_forms_match_frozen_table():
    for (n, k), row in CALIBRATION.items():
        closed = calibration_constants(n, k)
        assert abs(closed["a"] - row["a"]) < 1e-6
        assert abs(closed["c"] - row["c"]) < 5e-4
        assert abs(closed["b"] - row["b"]) / abs(row["b"]) < 5e-4


def test_calibration_constants_validation():
    with pytest.raises(ValueError):
        calibration_constants(4, 2)


def test_result_serialization():
    g = make_schwarzschild(3, 1, 1.0)
    ctx = GBCContext(3, 1)
    res = gbc_mass(g, ctx, RADII[:3], level=4, step=1.0)
    d = res.to_dict()
    assert {"per_radius", "limit", "exponent", "residual",
            "constant_used", "converged"} <= set(d)
