import numpy as np
import pytest

from asymflat.dforms import (
    DegreeError,
    DoubleForm,
    PointMetric,
    bianchi,
    coform,
    contract,
    derivation_action,
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
    merge_sign,
    multi_indices,
    shuffle_table,
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
        X = rng.standard_normal((3, n))
        if p >= 1:
            ref = np.einsum("...k,kaA,...Aj->...aj", X, oracle_interior_tensor(n, p), a.comps)
            assert np.abs(interior(X, a, "left").comps - ref).max() <= 1e-14, (p, q)
        if q >= 1:
            ref = np.einsum("...k,kbB,...iB->...ib", X, oracle_interior_tensor(n, q), a.comps)
            assert np.abs(interior(X, a, "right").comps - ref).max() <= 1e-14, (p, q)


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
                                oracle_interior_tensor(n, p),
                                oracle_interior_tensor(n, q), a.comps, optimize=True)
                got = contract(a, metric)
                assert (got.p, got.q) == (p - 1, q - 1)
                assert np.abs(got.comps - ref).max() <= 1e-13, (p, q, metric is None)


# The interior-product steps as einsums over the dense interior tensor:
# references for the signed gathers through the shuffle table.

def einsum_insert_left(n, p, stacked):
    return -np.einsum("kAI,...kAJ->...IJ", oracle_interior_tensor(n, p + 1), stacked)


def einsum_insert_right(n, q, stacked):
    sign = -float((-1) ** q)
    return sign * np.einsum("kBJ,...kIB->...IJ", oracle_interior_tensor(n, q + 1), stacked)


def einsum_bianchi(a, side):
    n = a.n
    if side == "left":
        contracted = np.einsum("kbB,...AB->...kAb", oracle_interior_tensor(n, a.q), a.comps)
        return einsum_insert_left(n, a.p, contracted)
    contracted = np.einsum("kaA,...AB->...kaB", oracle_interior_tensor(n, a.p), a.comps)
    return einsum_insert_right(n, a.q, contracted)


# Bit-exact references: the contraction as two matmuls over the dense
# interior tensor, and the Bianchi maps as a signed scatter through the
# shuffle table followed by the insertion.

def matmul_contract(a, G=None):
    TL, TR = oracle_interior_tensor(a.n, a.p), oracle_interior_tensor(a.n, a.q)
    comps = (TL.reshape(-1, TL.shape[-1]) @ a.comps).reshape(
        a.comps.shape[:-2] + TL.shape[:2] + a.comps.shape[-1:])
    if G is not None:
        comps = np.einsum("...kl,...kaB->...laB", np.linalg.inv(G.G), comps)
    return (comps @ np.swapaxes(TR, -1, -2)).sum(axis=-3)


def scatter_bianchi(a, side):
    from math import comb
    from asymflat.dforms import _insert_left, _insert_right
    n = a.n
    if side == "left":
        k, rest, sign = shuffle_table(n, 1, a.q - 1)
        contracted = np.zeros(a.comps.shape[:-1] + (n, comb(n, a.q - 1)))
        contracted[..., k, rest] = sign * a.comps[..., None]
        return _insert_left(n, a.p, np.swapaxes(contracted, -2, -3))
    k, rest, sign = shuffle_table(n, 1, a.p - 1)
    contracted = np.zeros(a.batch_shape + (n, comb(n, a.p - 1), comb(n, a.q)))
    contracted[..., k, rest, :] = sign[:, :, None] * a.comps[..., None, :]
    return _insert_right(n, a.q, contracted)


@pytest.mark.parametrize("n", range(3, 9))
def test_contract_and_bianchi_are_bit_identical_to_their_references(n):
    rng = np.random.default_rng(110 + n)
    G = random_metric(rng, n, batch=(3,))
    for p, q in bidegrees(n):
        # contiguous components, and a transposed view as the identity
        # suite passes
        forms = [random_form(rng, n, p, q, batch=(3,)),
                 transpose(random_form(rng, n, q, p, batch=(3,)))]
        for a in forms:
            if p >= 1 and q >= 1:
                for metric in (None, G):
                    assert np.array_equal(contract(a, metric).comps,
                                          matmul_contract(a, metric)), (p, q)
            if q >= 1 and p + 1 <= n:
                assert np.array_equal(bianchi(a, "left").comps,
                                      scatter_bianchi(a, "left")), (p, q)
            if p >= 1 and q + 1 <= n:
                assert np.array_equal(bianchi(a, "right").comps,
                                      scatter_bianchi(a, "right")), (p, q)


def oracle_derivation_tensor(n, p):
    """W[I, J, m, i] = sum_A T[i, A, I] T[m, A, J]: the derivation action of
    a matrix on p-form components, (A . w)[I] = W[I, J, m, i] A[m, i] w[J]."""
    T = oracle_interior_tensor(n, p)
    return np.einsum("iAI,mAJ->IJmi", T, T)


@pytest.mark.parametrize("n", range(2, 9))
def test_derivation_action_matches_dense_einsum(n):
    rng = np.random.default_rng(120 + n)
    W = [None] + [oracle_derivation_tensor(n, p) for p in range(1, n + 1)]
    # (batch of A, batch of a): unbatched, batched, and A with an extra
    # axis broadcast against a, as the covariant jets pass it
    batches = [((), ()), ((3,), (3,)), ((3, 2), (3, 1))]
    for p, q in bidegrees(n):
        if p == q == 0:
            continue  # no slot to act on
        for bA, ba in batches:
            A = rng.standard_normal(bA + (n, n))
            a = random_form(rng, n, p, q, batch=ba)
            got = derivation_action(A, a).comps
            ref = 0.0
            if p >= 1:
                ref = ref + np.einsum("IJmi,...mi,...Jq->...Iq", W[p], A, a.comps,
                                      optimize=True)
            if q >= 1:
                ref = ref + np.einsum("IJmi,...mi,...pJ->...pI", W[q], A, a.comps,
                                      optimize=True)
            assert got.shape == ref.shape, (p, q, bA, ba)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), (p, q, bA, ba)


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


def absolute_wedge(a, b):
    """Each entry's sum of |terms|: fancy_index_wedge without the signs."""
    lL, rL, _ = shuffle_table(a.n, a.p, b.p)
    lR, rR, _ = shuffle_table(a.n, a.q, b.q)
    prod = (a.comps[..., lL[:, :, None, None], lR[None, None]]
            * b.comps[..., rL[:, :, None, None], rR[None, None]])
    return np.abs(prod).sum(axis=(-3, -1))


@pytest.mark.parametrize("n", range(3, 9))
def test_per_split_wedge_matches_fancy_index_wedge(n, monkeypatch):
    # With the budget at 0 every wedge sums one (s, t) split pair at a time,
    # s-major.  Where an operand is batched the einsum sums in that order
    # too, and the bits agree.  The listed exception is unbatched x
    # unbatched, where the einsum reorders its sum: 5 666 of the 97 420
    # operand pairs of the bit-identity set at n = 3..8 differ, by at most
    # 5.9e-15 of max|ref|.  They are held to (N - 1) eps sum|terms|, the
    # bound on two summation orders of N = s t terms.  Above n = 5 every
    # 5^(n-5)-th bidegree pair is checked, to keep the loop short.
    from math import comb
    monkeypatch.setattr("asymflat.dforms.CHUNK_DOUBLES", 0)
    rng = np.random.default_rng(200 + n)
    pairs = [(p1, q1, p2, q2) for p1, q1 in bidegrees(n) for p2, q2 in bidegrees(n)
             if p1 + p2 <= n and q1 + q2 <= n]
    batches = [((), ()), ((5,), (5,)), ((), (5,)), ((4, 5), (5,))]
    for p1, q1, p2, q2 in pairs[::5 ** max(n - 5, 0)]:
        for ba, bb in batches:
            a = random_form(rng, n, p1, q1, batch=ba)
            b = random_form(rng, n, p2, q2, batch=bb)
            at = transpose(random_form(rng, n, q1, p1, batch=ba))
            for x, y in [(a, b), (b, a), (at, b), (b, at)]:
                got = wedge(x, y).comps
                ref = fancy_index_wedge(x, y)
                assert got.shape == ref.shape, (p1, q1, p2, q2, ba, bb)
                if ba or bb:
                    assert np.array_equal(got, ref), (p1, q1, p2, q2, ba, bb)
                else:
                    terms = comb(p1 + p2, p1) * comb(q1 + q2, q1)
                    bound = (terms - 1) * np.finfo(float).eps * absolute_wedge(x, y)
                    assert np.all(np.abs(got - ref) <= bound), (p1, q1, p2, q2)


def test_large_wedge_peaks_near_its_output():
    # n = 8, (2,2) ^ (2,2) on 64 forms gathers 70 x 6 x 70 x 6 x 64 doubles
    # (90 MB) if formed whole; summed one split pair at a time it peaks at
    # 4.1 times the 2.5 MB output (72 times when it was gathered whole)
    import tracemalloc
    rng = np.random.default_rng(8)
    a = random_form(rng, 8, 2, 2, batch=(64,))
    b = random_form(rng, 8, 2, 2, batch=(64,))
    tracemalloc.start()
    try:
        out = wedge(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * out.comps.nbytes
