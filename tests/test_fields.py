import numpy as np
import pytest

from asymflat.fields import (
    ChartError,
    EuclideanMetric,
    RadialPoly,
    TensorRadialPoly,
    fd_wrap,
    make_rt_perturbation,
    make_schwarzschild,
)


def fd_check(g, x, h=1e-5):
    """Central-difference check of d1, d2, d3 at a single point."""
    n = g.n
    x = np.asarray(x, dtype=float)
    d1_fd = np.empty((n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        d1_fd[k] = (g.eval(x + e) - g.eval(x - e)) / (2 * h)
    d2_fd = np.empty((n, n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        d2_fd[k] = (g.d1(x + e) - g.d1(x - e)) / (2 * h)
    d3_fd = np.empty((n, n, n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        d3_fd[k] = (g.d2(x + e) - g.d2(x - e)) / (2 * h)
    return (np.abs(g.d1(x) - d1_fd).max(),
            np.abs(g.d2(x) - d2_fd).max(),
            np.abs(g.d3(x) - d3_fd).max())


def test_radial_poly_derivative_exactness():
    n = 3
    # f = x0^2 |x|^-3
    f = RadialPoly.monomial(n, (2, 0, 0), -3.0)
    fx = f.deriv(0)
    x = np.array([1.2, -0.7, 2.1])
    h = 1e-6
    xp, xm = x.copy(), x.copy()
    xp[0] += h
    xm[0] -= h
    assert np.isclose(fx(x), (f(xp) - f(xm)) / (2 * h), rtol=1e-7)


def test_tensor_radial_poly_matches_scalar_eval():
    n = 3
    polys = [[RadialPoly.monomial(n, (1, 0, 0), -2.0), RadialPoly.zero(n)],
             [RadialPoly.zero(n), RadialPoly.monomial(n, (0, 0, 0), -1.0)]]
    arr = np.empty((2, 2), dtype=object)
    arr[:] = polys
    T = TensorRadialPoly(n, arr)
    x = np.random.default_rng(0).standard_normal((5, n)) + 3.0
    vals = T(x)
    assert vals.shape == (5, 2, 2)
    for b in range(5):
        for i in range(2):
            for j in range(2):
                assert np.isclose(vals[b, i, j], arr[i, j](x[b]))


def test_euclidean_metric():
    g = EuclideanMetric(4)
    x = np.ones((2, 4))
    assert np.allclose(g.eval(x), np.eye(4))
    assert np.abs(g.d1(x)).max() == 0.0
    assert g.tau == np.inf


def test_schwarzschild_derivatives_are_exact():
    g = make_schwarzschild(5, 2, 1.0)
    e1, e2, e3 = fd_check(g, [3.0, -2.0, 1.0, 0.5, 2.5])
    assert e1 < 1e-9
    assert e2 < 1e-8
    assert e3 < 1e-7


def test_schwarzschild_off_center():
    c = [0.5, -0.3, 0.2]
    g = make_schwarzschild(3, 1, 1.0, center=c)
    g0 = make_schwarzschild(3, 1, 1.0)
    x = np.array([4.0, 1.0, -2.0])
    assert np.allclose(g.eval(x), g0.eval(x - np.asarray(c)))


def test_schwarzschild_decay_rate():
    g = make_schwarzschild(3, 1, 1.0)
    rs = np.array([10.0, 20.0, 40.0])
    x = np.stack([rs, np.zeros(3), np.zeros(3)], axis=-1)
    dev = np.abs(g.deviation(x)).max(axis=(-2, -1))
    # tau = 1: deviation halves when the radius doubles
    assert np.allclose(dev[:-1] / dev[1:], 2.0, rtol=0.05)


def test_schwarzschild_requires_n_above_2k():
    with pytest.raises(ValueError):
        make_schwarzschild(4, 2, 1.0)


def test_schwarzschild_rejects_wrong_length_center():
    for center in ([1.0], [1.0, 1.0], 1.0, [[1.0, 0.0, 0.0]]):
        with pytest.raises(ValueError, match="center"):
            make_schwarzschild(3, 1, 1.0, center=center)


def test_default_jet_is_the_single_order_calls():
    g = make_rt_perturbation(4, 1.0, seed=2, parity="mixed", amplitude=0.3)
    x = np.array([[3.0, -1.0, 2.0, 0.5], [0.2, 4.0, -1.5, 2.5]])
    jet = g.jet(x, 3)
    singles = [g.eval(x), g.d1(x), g.d2(x), g.d3(x)]
    assert all(np.array_equal(a, b) for a, b in zip(jet, singles))
    assert len(g.jet(x, 1)) == 2
    with pytest.raises(ValueError):
        g.jet(x, 4)


def test_chart_error_below_r_min():
    g = make_schwarzschild(3, 1, 2.0)
    with pytest.raises(ChartError):
        g.check_chart(np.zeros(3))
    g.check_chart(np.array([10.0, 0.0, 0.0]))


def test_rt_perturbation_parities():
    for parity in ("even", "odd", "mixed"):
        g = make_rt_perturbation(3, 1.0, seed=2, parity=parity)
        x = np.array([5.0, -3.0, 2.0])
        e_plus = g.deviation(x)
        e_minus = g.deviation(-x)
        if parity == "even":
            assert np.allclose(e_plus, e_minus, atol=1e-14)
        elif parity == "odd":
            assert np.allclose(e_plus, -e_minus, atol=1e-14)


def test_rt_perturbation_derivatives():
    g = make_rt_perturbation(3, 1.0, seed=1, parity="mixed")
    e1, e2, e3 = fd_check(g, [4.0, -1.0, 2.0])
    assert e1 < 1e-9
    assert e2 < 1e-8
    assert e3 < 1e-7


def test_rt_perturbation_decay():
    g = make_rt_perturbation(3, 1.5, seed=0, parity="even")
    rs = np.array([10.0, 100.0])
    x = np.stack([rs / np.sqrt(2), rs / np.sqrt(2), np.zeros(2)], axis=-1)
    dev = np.abs(g.deviation(x)).max(axis=(-2, -1))
    rate = np.log(dev[0] / dev[1]) / np.log(10.0)
    assert abs(rate - 1.5) < 0.1


def test_fd_wrap_matches_exact():
    exact = make_schwarzschild(3, 1, 1.0)
    fd = fd_wrap(exact.eval, 3, order=4, h0=1e-2, tau=1.0, r_min=exact.r_min)
    x = np.array([6.0, -2.0, 3.0])
    assert np.allclose(fd.eval(x), exact.eval(x))
    assert np.abs(fd.d1(x) - exact.d1(x)).max() < 1e-8
    assert np.abs(fd.d2(x) - exact.d2(x)).max() < 1e-6
    assert np.abs(fd.d3(x) - exact.d3(x)).max() < 1e-4


def test_fd_wrap_rejects_bad_args():
    with pytest.raises(ValueError):
        fd_wrap(lambda x: np.eye(3), 3, order=3)
    with pytest.raises(ValueError):
        fd_wrap(lambda x: np.eye(3), 3, h0=0.0)
