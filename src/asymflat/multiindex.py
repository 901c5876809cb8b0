"""Strictly increasing multi-indices and the combinatorial tables built on them.

Everything in this module is pure combinatorics for exterior algebra in a
fixed dimension n <= MAX_DIM: enumeration of increasing index tuples,
shuffle/merge signs, complement signs, and the dense matrices that implement
wedge products, Hodge duality, interior products, and matrix-derivation
actions on compressed antisymmetric components.  All tables are cached.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

MAX_DIM = 8


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {n}")


@lru_cache(maxsize=None)
def multi_indices(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing p-tuples over [0, n), in lexicographic order."""
    _check_dim(n)
    if not 0 <= p <= n:
        raise ValueError(f"degree must be in [0, {n}], got {p}")
    return tuple(combinations(range(n), p))


@lru_cache(maxsize=None)
def index_position(n: int, p: int) -> dict[tuple[int, ...], int]:
    """Lookup table from an increasing p-tuple to its storage position."""
    return {idx: i for i, idx in enumerate(multi_indices(n, p))}


def merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Sign of sorting the concatenation of two disjoint increasing tuples.

    Returns the signature of the permutation taking (left + right) to its
    sorted order; this is the shuffle sign appearing in determinant-convention
    wedge products.
    """
    sign = 1
    for a in left:
        for b in right:
            if a > b:
                sign = -sign
    return sign


def complement(n: int, idx: tuple[int, ...]) -> tuple[int, ...]:
    """Increasing complement of `idx` inside [0, n)."""
    present = set(idx)
    return tuple(i for i in range(n) if i not in present)


@lru_cache(maxsize=None)
def wedge_matrix(n: int, p1: int, p2: int) -> np.ndarray:
    """Dense matrix W with (alpha ^ beta) = W @ kron-flattened (alpha, beta).

    Shape is (C(n, p1+p2), C(n, p1) * C(n, p2)); entry at (K, (I, J)) is the
    merge sign when I and J are disjoint and sort to K, else 0.
    """
    p = p1 + p2
    if p > n:
        raise ValueError(f"wedge degree overflow: {p1}+{p2} > {n}")
    out_pos = index_position(n, p)
    rows1 = multi_indices(n, p1)
    rows2 = multi_indices(n, p2)
    W = np.zeros((comb(n, p), len(rows1) * len(rows2)))
    for i, I in enumerate(rows1):
        seti = set(I)
        for j, J in enumerate(rows2):
            if seti & set(J):
                continue
            K = tuple(sorted(I + J))
            W[out_pos[K], i * len(rows2) + j] = merge_sign(I, J)
    return W


@lru_cache(maxsize=None)
def hodge_matrix(n: int, p: int) -> np.ndarray:
    """Signed permutation matrix of the Euclidean Hodge star on p-forms.

    (*alpha)[I_complement] = sign(I, I_complement) * alpha[I] for the
    standard volume form and the identity metric.
    """
    src = multi_indices(n, p)
    dst_pos = index_position(n, n - p)
    H = np.zeros((comb(n, n - p), comb(n, p)))
    for i, I in enumerate(src):
        Ic = complement(n, I)
        H[dst_pos[Ic], i] = merge_sign(I, Ic)
    return H


@lru_cache(maxsize=None)
def interior_tensor(n: int, p: int) -> np.ndarray:
    """Tensor T with (iota_X alpha)[I'] = sum_k X[k] T[k, I', I] alpha[I].

    T[k, I', I] is the sign of inserting k in front of I' when the sorted
    union equals I (zero if k already occurs in I').
    """
    if p < 1:
        raise ValueError("interior product needs degree >= 1")
    small = multi_indices(n, p - 1)
    big_pos = index_position(n, p)
    T = np.zeros((n, comb(n, p - 1), comb(n, p)))
    for j, J in enumerate(small):
        present = set(J)
        for k in range(n):
            if k in present:
                continue
            I = tuple(sorted((k,) + J))
            T[k, j, big_pos[I]] = merge_sign((k,), J)
    return T


@lru_cache(maxsize=None)
def derivation_tensor(n: int, p: int) -> np.ndarray:
    """Tensor W for the derivation action of a matrix A on p-form components.

    (A . alpha)[I] = sum over slots a of alpha(I with e_{I_a} replaced by
    A e_{I_a}) = einsum('IJmi,mi,J->I', W, A, alpha).  Used for connection
    corrections on compressed antisymmetric blocks.
    """
    # sum_i dx^i owedge iota_{A e_i}: W[I, J, m, i] = sum_A T[i, A, I] T[m, A, J]
    T = interior_tensor(n, p)
    return np.einsum("iAI,mAJ->IJmi", T, T)


@lru_cache(maxsize=None)
def eval_cache(n: int, p: int) -> np.ndarray:
    """Index array of shape (C(n,p), p) listing each multi-index as a row."""
    return np.array(multi_indices(n, p), dtype=np.intp).reshape(comb(n, p), p)


def compound_matrix(M: np.ndarray, p: int) -> np.ndarray:
    """p-th compound (matrix of p x p minors) of M, batched over leading axes.

    Entry [I, J] is det(M[I, J]) over increasing row/column multi-indices; it
    is the induced action of M on compressed p-form components.
    """
    n = M.shape[-1]
    if p == 0:
        return np.ones(M.shape[:-2] + (1, 1))
    idxs = multi_indices(n, p)
    C = comb(n, p)
    out = np.empty(M.shape[:-2] + (C, C))
    for i, I in enumerate(idxs):
        rows = M[..., I, :]
        for j, J in enumerate(idxs):
            out[..., i, j] = np.linalg.det(rows[..., :, J])
    return out
