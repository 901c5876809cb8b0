from math import comb

import numpy as np
import pytest

from asymflat.dforms import DoubleForm, evaluate, form, hodge, wedge
from asymflat.multiindex import (
    _compound_2,
    compound_matrix,
    eval_cache,
    index_position,
    merge_sign,
    multi_indices,
    shuffle_table,
)


def test_multi_indices_ordered_and_counted():
    idx = multi_indices(5, 3)
    assert len(idx) == 10
    assert all(a < b < c for a, b, c in idx)
    assert idx == tuple(sorted(idx))


def test_index_position_roundtrip():
    for n in (3, 5):
        for p in range(n + 1):
            table = index_position(n, p)
            for pos, I in enumerate(multi_indices(n, p)):
                assert table[I] == pos


def test_merge_sign_is_permutation_sign():
    assert merge_sign((0,), (1, 2)) == 1
    assert merge_sign((1,), (0, 2)) == -1
    assert merge_sign((2,), (0, 1)) == 1
    assert merge_sign((0, 1), (2, 3)) == 1
    assert merge_sign((2, 3), (0, 1)) == 1  # two transpositions each


def test_complement_partitions():
    n = 4
    for p in range(n + 1):
        left, right, _ = shuffle_table(n, p, n - p)
        I_all, J_all = multi_indices(n, p), multi_indices(n, n - p)
        assert sorted(left[0]) == list(range(len(I_all)))  # every I once
        for l, r in zip(left[0], right[0]):
            I, J = I_all[l], J_all[r]
            assert sorted(I + J) == list(range(n))


def _basis_forms(n, p):
    return DoubleForm(n, p, 0, np.eye(comb(n, p))[:, :, None])


def test_wedge_matrix_shape_and_sparsity():
    left, right, sign = shuffle_table(4, 1, 2)
    assert left.shape == right.shape == sign.shape == (4, 3)
    assert set(np.unique(sign)) == {-1.0, 1.0}
    # the dense matrix of alpha ^ beta on basis pairs: every column is 0 or +-e_K
    a = _basis_forms(4, 1)
    b = _basis_forms(4, 2)
    W = wedge(DoubleForm(4, 1, 0, a.comps[:, None]), DoubleForm(4, 2, 0, b.comps[None, :]))
    W = W.comps[..., 0].reshape(4 * 6, 4).T
    assert W.shape == (4, 4 * 6)
    assert set(np.unique(W)).issubset({-1.0, 0.0, 1.0})
    assert np.array_equal(np.abs(W).sum(axis=0), [float(len(set(I) | set(J)) == 3)
                                                  for I in multi_indices(4, 1)
                                                  for J in multi_indices(4, 2)])


def test_hodge_matrix_orthogonality():
    for n in (3, 4):
        for p in range(n + 1):
            H = hodge(_basis_forms(n, p)).comps[..., 0].T
            assert H.shape == (comb(n, n - p), comb(n, p))
            assert set(np.unique(H)).issubset({-1.0, 0.0, 1.0})
            assert np.allclose(np.abs(H) @ np.abs(H).T, np.eye(H.shape[0]))


def test_shuffle_table_lists_every_signed_split():
    for n in range(1, 7):
        for p1 in range(n + 1):
            for p2 in range(n - p1 + 1):
                p = p1 + p2
                left, right, sign = shuffle_table(n, p1, p2)
                assert left.shape == right.shape == sign.shape == (comb(n, p), comb(p, p1))
                assert not sign.flags.writeable
                I_all, J_all = multi_indices(n, p1), multi_indices(n, p2)
                for K, ls, rs, ss in zip(multi_indices(n, p), left, right, sign):
                    splits = [(I_all[l], J_all[r]) for l, r in zip(ls, rs)]
                    assert len(set(splits)) == comb(p, p1)
                    for (I, J), s in zip(splits, ss):
                        assert tuple(sorted(I + J)) == K
                        assert s == merge_sign(I, J)


def test_compound_matrix_is_multiplicative():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 4))
    for p in (1, 2, 3):
        CA = compound_matrix(A, p)
        CB = compound_matrix(B, p)
        CAB = compound_matrix(A @ B, p)
        assert np.allclose(CA @ CB, CAB, atol=1e-12)


def test_compound_matrix_determinant():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 5))
    C = compound_matrix(A, 5)
    assert C.shape == (1, 1)
    assert np.isclose(C[0, 0], np.linalg.det(A))


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_form_2x2_compound_matches_the_determinants(n):
    # batch shapes (), (m,) and (a, b); compound_matrix of a square M at
    # p = 2 is the closed form M_ik M_jl - M_il M_jk, checked against one LU
    # determinant per minor within 1e-14 of |M_ik M_jl| + |M_il M_jk|
    # (observed 7.6e-16 of it) and within 4e-15 max|M|^2
    rng = np.random.default_rng(n)
    r = eval_cache(n, 2)
    i, j, k, l = r[:, :1], r[:, 1:], r[:, 0], r[:, 1]
    for shape in [(), (4,), (2, 3)]:
        M = rng.standard_normal(shape + (n, n))
        out = compound_matrix(M, 2)
        assert np.array_equal(out, _compound_2(M))
        ref = np.linalg.det(M[..., r[:, None, :, None], r[None, :, None, :]])
        scale = np.abs(M[..., i, k] * M[..., j, l]) + np.abs(M[..., i, l] * M[..., j, k])
        assert out.shape == ref.shape
        assert np.all(np.abs(out - ref) <= 1e-14 * scale)
        assert np.abs(out - ref).max() <= 4e-15 * np.abs(M).max() ** 2


def test_compound_matrix_rectangular():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((2, 4, 6))
    for p in range(5):
        C = compound_matrix(M, p)
        assert C.shape == (2, comb(4, p), comb(6, p))
        for i, I in enumerate(multi_indices(4, p)):
            for j, J in enumerate(multi_indices(6, p)):
                minor = np.linalg.det(M[:, I, :][:, :, J])
                assert np.allclose(C[:, i, j], minor, rtol=1e-12, atol=1e-12)
    # rows of p vectors: the minors pair by Cauchy-Binet into evaluate
    for n in range(3, 7):
        for p in range(1, n + 1):
            A, V = rng.standard_normal((2, p, n))
            w = form(n, A[0])
            for a in A[1:]:
                w = wedge(w, form(n, a))
            assert np.allclose(w.comps[:, 0], compound_matrix(A, p)[0], atol=1e-12)
            expected = np.linalg.det(A @ V.T)
            assert np.isclose(evaluate(w, list(V), []), expected, rtol=1e-10, atol=1e-12)
            assert np.isclose(compound_matrix(V, p)[0] @ w.comps[:, 0], expected,
                              rtol=1e-10, atol=1e-12)
