import numpy as np
import pytest

from asymflat.dforms import (
    DegreeError,
    DoubleForm,
    PointMetric,
    bianchi,
    coform,
    contract,
    evaluate,
    form,
    hodge,
    inner,
    interior,
    metric_form,
    scalar_form,
    transpose,
    wedge,
    wedge_power,
    zero_form,
)
from asymflat.multiindex import (
    index_position,
    interior_tensor,
    merge_sign,
    multi_indices,
)


def random_form(rng, n, p, q, batch=()):
    from math import comb
    return DoubleForm(n, p, q, rng.standard_normal(batch + (comb(n, p), comb(n, q))))


def random_metric(rng, n, batch=()):
    A = rng.standard_normal(batch + (n, n)) * 0.3
    return PointMetric(np.eye(n) + A @ np.swapaxes(A, -1, -2))


CURVED_DIMS = (3, 4, 5, 6)


def bidegrees(n):
    return [(p, q) for p in range(n + 1) for q in range(n + 1)]


def g_norm(a, G):
    return np.sqrt(inner(a, a, G))


def volume_form(n):
    """The double volume form dvol (x) dvol in bidegree (n, n)."""
    return DoubleForm(n, n, n, np.ones((1, 1)))


def test_shape_validation():
    with pytest.raises(ValueError):
        DoubleForm(4, 2, 1, np.zeros((5, 5)))


def test_degree_mismatch_raises():
    a = zero_form(4, 1, 1)
    b = zero_form(4, 2, 1)
    with pytest.raises(ValueError):
        a + b


def test_wedge_overflow_raises():
    a = zero_form(3, 2, 0)
    with pytest.raises(ValueError):
        wedge(a, a)


def test_metric_power_determinant_convention():
    # g^n = n! vol (x) vol pins the determinant (no-division) convention
    import math
    for n in (3, 4, 5):
        gn = wedge_power(metric_form(n), n)
        assert np.allclose(gn.comps, math.factorial(n) * volume_form(n).comps)


def test_wedge_of_one_forms_is_determinant():
    rng = np.random.default_rng(3)
    n = 5
    u, v, w = rng.standard_normal((3, n))
    omega = wedge(wedge(form(n, u), form(n, v)), form(n, w))
    x, y, z = rng.standard_normal((3, n))
    val = evaluate(omega, [x, y, z], [])
    det = np.linalg.det(np.array([[a @ b for b in (x, y, z)] for a in (u, v, w)]))
    assert np.isclose(val, det)


def test_evaluate_antisymmetry():
    rng = np.random.default_rng(4)
    a = random_form(rng, 4, 2, 1)
    x, y, z = rng.standard_normal((3, 4))
    assert np.isclose(evaluate(a, [x, y], [z]), -evaluate(a, [y, x], [z]))


def test_transpose_involution_and_evaluate():
    rng = np.random.default_rng(5)
    a = random_form(rng, 4, 2, 1)
    at = transpose(a)
    assert (at.p, at.q) == (1, 2)
    assert np.allclose(transpose(at).comps, a.comps)
    x, y, z = rng.standard_normal((3, 4))
    assert np.isclose(evaluate(a, [x, y], [z]), evaluate(at, [z], [x, y]))


def test_hodge_involution_flat():
    rng = np.random.default_rng(6)
    n = 4
    for p in range(n + 1):
        for q in range(n + 1):
            a = random_form(rng, n, p, q)
            sign = (-1) ** ((p + q) * (n - p - q))
            assert np.allclose(hodge(hodge(a)).comps, sign * a.comps, atol=1e-13)


def test_hodge_involution_curved():
    rng = np.random.default_rng(7)
    n = 4
    G = random_metric(rng, n)
    a = random_form(rng, n, 2, 1)
    sign = (-1) ** (3 * (n - 3))
    assert np.allclose(hodge(hodge(a, G), G).comps, sign * a.comps, atol=1e-12)


@pytest.mark.parametrize("n", CURVED_DIMS)
def test_curved_hodge_involution_and_isometry(n):
    # *^2 = (-1)^((p+q)(n-p-q)) id and <*a, *b>_g = <a, b>_g for every
    # bidegree, batched over three random metrics
    rng = np.random.default_rng(20 + n)
    G = random_metric(rng, n, batch=(3,))
    for p, q in bidegrees(n):
        a = random_form(rng, n, p, q, batch=(3,))
        b = random_form(rng, n, p, q, batch=(3,))
        sign = (-1) ** ((p + q) * (n - p - q))
        err = np.abs(hodge(hodge(a, G), G).comps - sign * a.comps).max()
        assert err <= 1e-12 * np.abs(a.comps).max(), (p, q)
        lhs = inner(hodge(a, G), hodge(b, G), G)
        rhs = inner(a, b, G)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * g_norm(a, G) * g_norm(b, G)), (p, q)


@pytest.mark.parametrize("n", CURVED_DIMS)
def test_curved_star_of_metric_powers(n):
    # *g^k = k!/(n-k)! g^(n-k) with g the curved metric itself
    import math
    rng = np.random.default_rng(30 + n)
    G = random_metric(rng, n, batch=(2,))
    g = metric_form(n, G.G)
    for k in range(n + 1):
        lhs = hodge(wedge_power(g, k), G).comps
        rhs = math.factorial(k) / math.factorial(n - k) * wedge_power(g, n - k).comps
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max(), k


def test_contract_traces_metric():
    n = 5
    c = contract(metric_form(n))
    assert np.isclose(c.item(), n)


def test_contract_adjoint_to_metric_wedge():
    rng = np.random.default_rng(8)
    n = 4
    G = random_metric(rng, n)
    a = random_form(rng, n, 1, 1)
    b = random_form(rng, n, 2, 2)
    gform = DoubleForm(n, 1, 1, G.G)
    lhs = inner(wedge(gform, a), b, G)
    rhs = inner(a, contract(b, G), G)
    assert np.isclose(lhs, rhs, rtol=1e-11)


@pytest.mark.parametrize("n", CURVED_DIMS)
def test_curved_contraction_adjoint_every_bidegree(n):
    # <g a, b>_g = <a, c(b)>_g for every (p, q) with room for g, batched over
    # three random metrics
    rng = np.random.default_rng(40 + n)
    G = random_metric(rng, n, batch=(3,))
    g = metric_form(n, G.G)
    for p, q in bidegrees(n - 1):
        a = random_form(rng, n, p, q, batch=(3,))
        b = random_form(rng, n, p + 1, q + 1, batch=(3,))
        ga = wedge(g, a)
        lhs = inner(ga, b, G)
        rhs = inner(a, contract(b, G), G)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * g_norm(ga, G) * g_norm(b, G)), (p, q)


def test_interior_first_slot():
    rng = np.random.default_rng(9)
    n = 4
    a = random_form(rng, n, 2, 1)
    X = rng.standard_normal(n)
    y, z = rng.standard_normal((2, n))
    assert np.isclose(
        evaluate(interior(X, a, "left"), [y], [z]), evaluate(a, [X, y], [z]))
    assert np.isclose(
        evaluate(interior(z, a, "right"), [X, y], []), evaluate(a, [X, y], [z]))


def test_bianchi_kills_metric_powers():
    # g^k satisfies the first Bianchi identity for every k
    n = 5
    for k in range(1, n):
        b = bianchi(wedge_power(metric_form(n), k), "left")
        assert np.abs(b.comps).max() < 1e-13


def test_bianchi_nonzero_on_generic_form():
    rng = np.random.default_rng(10)
    a = random_form(rng, 4, 1, 1)
    a = DoubleForm(4, 1, 1, a.comps - np.swapaxes(a.comps, -1, -2))  # antisymmetric part
    assert bianchi(a, "left").norm() > 0.1


def test_batched_broadcasting():
    rng = np.random.default_rng(11)
    a = random_form(rng, 3, 1, 1, batch=(7,))
    b = random_form(rng, 3, 1, 0, batch=(7,))
    out = wedge(a, b)
    assert out.batch_shape == (7,)
    for i in range(7):
        single = wedge(DoubleForm(3, 1, 1, a.comps[i]), DoubleForm(3, 1, 0, b.comps[i]))
        assert np.allclose(out.comps[i], single.comps)


def test_coform_and_scalar_constructors():
    n = 3
    s = scalar_form(n, 2.5)
    assert s.item() == 2.5
    c = coform(n, [1.0, 0.0, 0.0])
    assert (c.p, c.q) == (0, 1)
    assert np.allclose(wedge(s, c).comps, 2.5 * c.comps)


def test_inner_is_positive_definite_flat():
    rng = np.random.default_rng(12)
    a = random_form(rng, 4, 2, 2)
    assert inner(a, a) > 0


def bianchi_by_basis_loop(a, side):
    """The Bianchi maps as the sums over basis vectors that define them."""
    n = a.n
    out = None
    for e in np.eye(n):
        if side == "left":
            term = wedge(form(n, e), interior(e, a, "right"))
        else:
            term = wedge(interior(e, a, "left"), coform(n, e))
        out = term if out is None else out + term
    return -1.0 * out


@pytest.mark.parametrize("n", CURVED_DIMS)
def test_bianchi_matches_basis_loop(n):
    rng = np.random.default_rng(50 + n)
    for p, q in bidegrees(n):
        a = random_form(rng, n, p, q, batch=(2,))
        scale = np.abs(a.comps).max()
        if q >= 1 and p + 1 <= n:
            err = np.abs(bianchi(a, "left").comps
                         - bianchi_by_basis_loop(a, "left").comps).max()
            assert err <= 1e-13 * scale, (p, q)
        if p >= 1 and q + 1 <= n:
            err = np.abs(bianchi(a, "right").comps
                         - bianchi_by_basis_loop(a, "right").comps).max()
            assert err <= 1e-13 * scale, (p, q)


def test_bianchi_degree_overflow_raises():
    for n in CURVED_DIMS:
        for q in range(1, n + 1):
            with pytest.raises(DegreeError):
                bianchi(zero_form(n, n, q), "left")
            with pytest.raises(DegreeError):
                bianchi(zero_form(n, q, n), "right")
        # (p, 0) on the left and (0, q) on the right map to zero by convention
        assert bianchi(zero_form(n, n, 0), "left").p == n
        assert bianchi(zero_form(n, 0, n), "right").q == n


# Loop-built oracles: the dense tables the algebra used before it read every
# product from the shuffle table, built by brute force over all index pairs.

def oracle_wedge_matrix(n, p1, p2):
    """W[K, (I, J)] = merge sign when I, J are disjoint and sort to K."""
    rows1, rows2 = multi_indices(n, p1), multi_indices(n, p2)
    out_pos = index_position(n, p1 + p2)
    W = np.zeros((len(out_pos), len(rows1) * len(rows2)))
    for i, I in enumerate(rows1):
        for j, J in enumerate(rows2):
            if not set(I) & set(J):
                W[out_pos[tuple(sorted(I + J))], i * len(rows2) + j] = merge_sign(I, J)
    return W


def oracle_wedge(a, b):
    """The dense formula: Kronecker product of the factors times W on each block."""
    WL = oracle_wedge_matrix(a.n, a.p, b.p)
    WR = oracle_wedge_matrix(a.n, a.q, b.q)
    kron = np.einsum("...ij,...kl->...ikjl", a.comps, b.comps)
    kron = kron.reshape(kron.shape[:-4] + (WL.shape[1], WR.shape[1]))
    return np.einsum("ai,...ij,bj->...ab", WL, kron, WR, optimize=True)


def oracle_hodge(a):
    """(*a)[I^c, J^c] = sign(I, I^c) sign(J, J^c) a[I, J], one entry at a time."""
    n = a.n
    posL, posR = index_position(n, n - a.p), index_position(n, n - a.q)
    out = np.zeros(a.comps.shape[:-2] + (len(posL), len(posR)))
    for i, I in enumerate(multi_indices(n, a.p)):
        Ic = tuple(x for x in range(n) if x not in I)
        for j, J in enumerate(multi_indices(n, a.q)):
            Jc = tuple(x for x in range(n) if x not in J)
            out[..., posL[Ic], posR[Jc]] = (
                merge_sign(I, Ic) * merge_sign(J, Jc) * a.comps[..., i, j])
    return out


def oracle_interior_tensor(n, p):
    T = np.zeros((n, len(multi_indices(n, p - 1)), len(multi_indices(n, p))))
    big_pos = index_position(n, p)
    for j, J in enumerate(multi_indices(n, p - 1)):
        for k in range(n):
            if k not in J:
                T[k, j, big_pos[tuple(sorted((k,) + J))]] = merge_sign((k,), J)
    return T


@pytest.mark.parametrize("n", CURVED_DIMS)
def test_wedge_matches_dense_oracle(n):
    rng = np.random.default_rng(70 + n)
    for p1, q1 in bidegrees(n):
        for p2, q2 in bidegrees(n):
            if p1 + p2 > n or q1 + q2 > n:
                continue
            a = random_form(rng, n, p1, q1, batch=(4, 1))
            b = random_form(rng, n, p2, q2, batch=(1, 3))
            got = wedge(a, b)
            ref = oracle_wedge(a, b)
            assert got.comps.shape == ref.shape == (4, 3) + ref.shape[-2:]
            err = np.abs(got.comps - ref).max()
            assert err <= 1e-13 * np.abs(ref).max(), (p1, q1, p2, q2)


@pytest.mark.parametrize("n", CURVED_DIMS)
def test_flat_hodge_and_interior_match_loop_oracles(n):
    rng = np.random.default_rng(80 + n)
    for p, q in bidegrees(n):
        a = random_form(rng, n, p, q, batch=(3,))
        assert np.array_equal(hodge(a).comps, oracle_hodge(a)), (p, q)
    for p in range(1, n + 1):
        assert np.array_equal(interior_tensor(n, p), oracle_interior_tensor(n, p)), p


@pytest.mark.parametrize("n", CURVED_DIMS)
def test_contract_matches_dense_einsum_every_bidegree(n):
    # reference: the single four-operand einsum over both interior tensors
    rng = np.random.default_rng(60 + n)
    G = random_metric(rng, n, batch=(3,))
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            a = random_form(rng, n, p, q, batch=(3,))
            for metric in (None, G):
                Ginv = np.eye(n) if metric is None else np.linalg.inv(metric.G)
                ref = np.einsum("...kl,kaA,lbB,...AB->...ab", Ginv,
                                interior_tensor(n, p), interior_tensor(n, q),
                                a.comps, optimize=True)
                got = contract(a, metric)
                assert (got.p, got.q) == (p - 1, q - 1)
                assert np.abs(got.comps - ref).max() <= 1e-13, (p, q, metric is None)


# The interior-product steps as einsums over the dense interior tensor:
# references for the signed gathers and scatters through the shuffle table.

def einsum_insert_left(n, p, stacked):
    return -np.einsum("kAI,...kAJ->...IJ", interior_tensor(n, p + 1), stacked)


def einsum_insert_right(n, q, stacked):
    sign = -float((-1) ** q)
    return sign * np.einsum("kBJ,...kIB->...IJ", interior_tensor(n, q + 1), stacked)


def einsum_bianchi(a, side):
    n = a.n
    if side == "left":
        contracted = np.einsum("kbB,...AB->...kAb", interior_tensor(n, a.q), a.comps)
        return einsum_insert_left(n, a.p, contracted)
    contracted = np.einsum("kaA,...AB->...kaB", interior_tensor(n, a.p), a.comps)
    return einsum_insert_right(n, a.q, contracted)


def top_degree_cases(n):
    """Where the output block is a single entry (degree n next to degree 0
    or n), the einsum reduces all n^2 products in one unrolled dot and so
    adds the terms in another order than the ascending splits."""
    return {("insert_left", n - 1, 0), ("insert_left", n - 1, n),
            ("insert_right", 0, n - 1), ("insert_right", n, n - 1),
            ("bianchi_left", n - 1, 1), ("bianchi_right", 1, n - 1)}


@pytest.mark.parametrize("n", range(3, 9))
def test_gathered_insertions_and_bianchi_match_einsum(n):
    from math import comb
    from asymflat.dforms import _insert_left, _insert_right
    rng = np.random.default_rng(90 + n)
    top = top_degree_cases(n)
    for p, q in bidegrees(n):
        stacked = rng.standard_normal((3, n, comb(n, p), comb(n, q)))
        a = random_form(rng, n, p, q, batch=(3,))
        cases = []
        if p + 1 <= n:
            cases.append(("insert_left", _insert_left(n, p, stacked),
                          einsum_insert_left(n, p, stacked)))
        if q + 1 <= n:
            cases.append(("insert_right", _insert_right(n, q, stacked),
                          einsum_insert_right(n, q, stacked)))
        if q >= 1 and p + 1 <= n:
            cases.append(("bianchi_left", bianchi(a, "left").comps,
                          einsum_bianchi(a, "left")))
        if p >= 1 and q + 1 <= n:
            cases.append(("bianchi_right", bianchi(a, "right").comps,
                          einsum_bianchi(a, "right")))
        for name, got, ref in cases:
            assert got.shape == ref.shape, (name, p, q)
            if (name, p, q) in top:
                assert np.abs(got - ref).max() <= 4e-15, (name, p, q)
            else:
                assert np.array_equal(got, ref), (name, p, q)


def fancy_index_wedge(a, b):
    """The wedge gathered straight from the operands' own layout."""
    from asymflat.multiindex import shuffle_table
    lL, rL, sL = shuffle_table(a.n, a.p, b.p)
    lR, rR, sR = shuffle_table(a.n, a.q, b.q)
    prod = (a.comps[..., lL[:, :, None, None], lR[None, None]]
            * b.comps[..., rL[:, :, None, None], rR[None, None]])
    return np.einsum("...KsJt,Ks,Jt->...KJ", prod, sL, sR)


@pytest.mark.parametrize("n", CURVED_DIMS)
def test_batch_last_wedge_is_bit_identical_to_fancy_index_wedge(n):
    rng = np.random.default_rng(100 + n)
    batches = [((), ()), ((5,), (5,)), ((), (5,)), ((4, 5), (5,))]
    for p1, q1 in bidegrees(n):
        for p2, q2 in bidegrees(n):
            if p1 + p2 > n or q1 + q2 > n:
                continue
            for ba, bb in batches:
                a = random_form(rng, n, p1, q1, batch=ba)
                b = random_form(rng, n, p2, q2, batch=bb)
                # the identity suite wedges transposes, whose component
                # axes are swapped views; a batch axis can sit between them
                at = transpose(random_form(rng, n, q1, p1, batch=ba))
                inner_batch = np.moveaxis(
                    rng.standard_normal(at.comps.shape[-2:-1] + ba + at.comps.shape[-1:]),
                    0, -2)
                views = [(a, b), (b, a), (at, b), (b, at),
                         (DoubleForm(n, p1, q1, inner_batch), b)]
                for x, y in views:
                    got = wedge(x, y).comps
                    ref = fancy_index_wedge(x, y)
                    assert got.shape == ref.shape, (p1, q1, p2, q2, ba, bb)
                    assert np.array_equal(got, ref), (p1, q1, p2, q2, ba, bb)
