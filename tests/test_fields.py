import numpy as np
import pytest

from asymflat.chartchange import zeta_harmonic, zeta_radial
from asymflat.curvature import PolynomialDoubleFormField, deviation_field
from asymflat.fields import (
    ChartError,
    EuclideanMetric,
    TensorRadialPoly,
    eval_polys,
    make_rt_perturbation,
    make_schwarzschild,
)

from conftest import (
    RadialPoly,
    accumulated_terms,
    compile_terms,
    derived_depth,
    reference_deriv,
    reference_deriv_array,
    reference_terms,
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
    f = TensorRadialPoly(n, (), [[2, 0, 0]], [-3.0], [[1.0]])
    x = np.array([1.2, -0.7, 2.1])
    fx = f.deriv()(x)[0]
    h = 1e-6
    xp, xm = x.copy(), x.copy()
    xp[0] += h
    xm[0] -= h
    assert np.isclose(fx, (f(xp) - f(xm)) / (2 * h), rtol=1e-7)


def test_tensor_radial_poly_matches_scalar_eval():
    n = 3
    # [[x0 |x|^-2, 0], [0, |x|^-1]]
    T = TensorRadialPoly(n, (2, 2), [[1, 0, 0], [0, 0, 0]], [-2.0, -1.0],
                         [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    arr = reference_terms(T)
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
    dev = np.abs(deviation_field(g).eval(x).comps).max(axis=(-2, -1))
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
        e = deviation_field(g)
        e_plus = e.eval(x).comps
        e_minus = e.eval(-x).comps
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
    dev = np.abs(deviation_field(g).eval(x).comps).max(axis=(-2, -1))
    rate = np.log(dev[0] / dev[1]) / np.log(10.0)
    assert abs(rate - 1.5) < 0.1


def _per_monomial_eval(T, x):
    """The monomial-by-monomial evaluation the power table replaced, kept as
    the reference it must match bit for bit."""
    coeff, alphas, betas = T.coeff, T.alphas, T.betas
    x = np.asarray(x, dtype=float)
    batch = x.shape[:-1]
    if len(betas) == 0:
        return np.zeros(batch + T.shape)
    r = np.linalg.norm(x, axis=-1)
    mono = np.empty(batch + (coeff.shape[1],))
    for m in range(coeff.shape[1]):
        term = np.ones(batch)
        for i in range(T.n):
            a = alphas[m, i]
            if a:
                term = term * x[..., i] ** a
        if betas[m] != 0.0:
            term = term * r ** betas[m]
        mono[..., m] = term
    return (mono @ coeff.T).reshape(batch + T.shape)


def _no_terms():
    return TensorRadialPoly(3, (2, 3), np.zeros((0, 3)), np.zeros(0), np.zeros((6, 0)))


def _constant_monomials():
    return TensorRadialPoly(3, (2,), [[0, 0, 0]], [0.0], [[1.5], [-0.25]])


def _table_cases():
    for n in (3, 4, 5):
        for zeta in (zeta_harmonic(n, 0.2, 1.6), zeta_radial(n, 0.3, 0.7)):
            for order in range(4):
                yield f"zeta n={n} order={order}", zeta
                zeta = zeta.deriv()
    for parity in ("even", "odd", "mixed"):
        yield f"rt e {parity}", make_rt_perturbation(4, 1.5, seed=3, parity=parity)._e
    yield "polynomial form", PolynomialDoubleFormField.random(4, 2, 1, seed=5).trp
    yield "no terms", _no_terms()
    yield "constant monomials", _constant_monomials()


def test_table_evaluation_is_bit_identical_to_per_monomial_loop():
    rng = np.random.default_rng(17)
    for name, T in _table_cases():
        for batch in ((), (1,), (7,), (3, 5)):
            x = rng.standard_normal(batch + (T.n,)) * 20.0
            got = T(x)
            assert got.shape == batch + T.shape, (name, batch)
            assert np.array_equal(got, _per_monomial_eval(T, x)), (name, batch)


def test_shared_power_table_is_bit_identical_per_polynomial():
    # every case of one dimension evaluated from one shared table, which
    # then spans exponents and radial powers that most of them do not use
    rng = np.random.default_rng(19)
    cases = list(_table_cases())
    for n in sorted({T.n for _, T in cases}):
        names, polys = zip(*[(name, T) for name, T in cases if T.n == n])
        for batch in ((), (1,), (7,), (3, 5)):
            x = rng.standard_normal(batch + (n,)) * 20.0
            for name, T, got in zip(names, polys, eval_polys(polys, x)):
                assert got.shape == batch + T.shape, (name, batch)
                assert np.array_equal(got, _per_monomial_eval(T, x)), (name, batch)
    # a jet is one shared table over the derivative chain of one polynomial
    for name, T in cases:
        for batch in ((), (6,), (2, 3)):
            x = rng.standard_normal(batch + (T.n,)) * 20.0
            chain = [T]
            for _ in range(2):
                chain.append(chain[-1].deriv())
            for got, want in zip(T.jet(x, 2), chain, strict=True):
                assert np.array_equal(got, want(x)), (name, batch)


def _deriv_cases():
    """Each case with the number of derivative orders to compare (fewer at
    large n, where the term-by-term reference takes seconds)."""
    for n in range(3, 9):
        yield f"harmonic zeta n={n}", zeta_harmonic(n, 0.2, 1.6), 4 if n <= 5 else 3
        yield f"radial zeta n={n}", zeta_radial(n, 0.3, 0.7), 4 if n <= 5 else 3
        for parity in ("even", "odd", "mixed"):
            rt = make_rt_perturbation(n, 1.5, seed=n, parity=parity)._e
            yield f"rt {parity} n={n}", rt, 3 if n <= 6 else 2
        for p, q in ((1, 0), (1, 1), (2, 1)):
            F = PolynomialDoubleFormField.random(n, p, q, seed=n + p + q)
            yield f"random ({p},{q}) n={n}", F.trp, 2
    yield "no terms", _no_terms(), 1
    yield "constant monomials", _constant_monomials(), 1


def test_table_deriv_equals_the_compiled_reference():
    # the table derivative against the term-by-term one compiled into a
    # table: same monomials, same column order, same coefficient bits
    for name, T, depth in _deriv_cases():
        arr = reference_terms(T)
        assert all(np.array_equal(a, b) for a, b in zip(compile_terms(arr, T.n),
                                                        (T.alphas, T.betas, T.coeff))), name
        for order in range(1, depth + 1):
            for poly in arr.reshape(-1):
                assert list(poly.terms.items()) == list(accumulated_terms(poly.terms).items())
                for i in range(T.n):
                    got = list(poly.deriv(i).terms.items())
                    assert got == list(reference_deriv(poly.terms, i).items()), (name, i)
            arr = reference_deriv_array(arr, T.n)
            T = T.deriv()
            ref = compile_terms(arr, T.n)
            assert T.shape == arr.shape, (name, order)
            for got, want in zip((T.alphas, T.betas, T.coeff), ref):
                assert got.dtype == want.dtype, (name, order)
                assert np.array_equal(got, want), (name, order)
    # constants differentiate to the table with no monomials
    assert _constant_monomials().deriv().coeff.shape == (6, 0)
    assert _no_terms().deriv().alphas.shape == (0, 3)


def test_rt_metric_derives_once_and_only_as_deep_as_read():
    g = make_rt_perturbation(4, 1.5, seed=1, parity="mixed")
    assert derived_depth(g._e) == 0
    x = np.array([[3.0, -1.0, 2.0, 0.5]])
    g.d2(x)
    assert derived_depth(g._e) == 2
    first = g._e.deriv()
    g.d1(x)
    assert g._e.deriv() is first and derived_depth(g._e) == 2


def test_evaluation_rejects_the_wrong_number_of_coordinates():
    zeta = zeta_harmonic(4, 0.2, 1.6)
    g = make_rt_perturbation(4, 1.5)
    for m in (3, 5):
        x = 5.0 * np.ones((2, m))
        with pytest.raises(ValueError, match="4 coordinates"):
            zeta(x)
        with pytest.raises(ValueError, match="4 coordinates"):
            eval_polys([zeta, zeta.deriv()], x)
        for f in (g.eval, g.d1, g.d2, g.d3):
            with pytest.raises(ValueError, match="4 coordinates"):
                f(x)


def test_random_polynomial_field_equals_its_monomial_sum():
    for n, p, q, degree in ((3, 1, 0, 2), (4, 2, 1, 2), (5, 1, 2, 3)):
        F = PolynomialDoubleFormField.random(n, p, q, seed=5, degree=degree)
        rng = np.random.default_rng(5)
        keys = [(tuple(int(a) for a in alpha), float(beta))  # the monomials in draw order
                for alpha, beta in zip(F.trp.alphas, F.trp.betas)]
        arr = np.empty(F.trp.shape, dtype=object)
        for idx in np.ndindex(arr.shape):
            ref = RadialPoly.zero(n)
            for alpha, beta in keys:
                ref = ref + RadialPoly.monomial(n, alpha, beta, rng.standard_normal())
            arr[idx] = ref
        for got, want in zip((F.trp.alphas, F.trp.betas, F.trp.coeff), compile_terms(arr, n)):
            assert np.array_equal(got, want)
