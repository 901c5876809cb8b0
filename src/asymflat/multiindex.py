"""Strictly increasing multi-indices and the combinatorial tables built on them.

Everything in this module is pure combinatorics for exterior algebra in a
fixed dimension n <= MAX_DIM: enumeration of increasing index tuples and the
shuffle table, which lists every split of an increasing index K into I and J
with its merge sign (determinant convention).  Wedge products, Hodge stars,
dx-insertions and interior products are all read from that one table, as
signed gathers in `dforms`; no dense product or interior-product tensor is
built.  Compound matrices (all p x p minors) give the induced action of a
matrix on p-forms.  All tables are cached.
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


@lru_cache(maxsize=None)
def shuffle_table(n: int, p1: int, p2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every split of each increasing (p1+p2)-index K into I and J, I + J = K.

    Returns read-only arrays `left`, `right` and `sign` of shape
    (C(n, p1+p2), C(p1+p2, p1)): row K lists, for each choice of the p1
    positions of K that form I (in lexicographic order), the storage
    positions of I and of its complement J in K, and `merge_sign(I, J)`.
    This is the one table behind wedge products, Hodge stars and interior
    products.
    """
    p = p1 + p2
    rows = multi_indices(n, p)
    pos1, pos2 = index_position(n, p1), index_position(n, p2)
    splits = tuple(combinations(range(p), p1))
    left = np.empty((len(rows), len(splits)), dtype=np.intp)
    right = np.empty_like(left)
    sign = np.empty(left.shape)
    for r, K in enumerate(rows):
        for s, S in enumerate(splits):
            I = tuple(K[i] for i in S)
            J = tuple(K[j] for j in range(p) if j not in S)
            left[r, s], right[r, s], sign[r, s] = pos1[I], pos2[J], merge_sign(I, J)
    for a in (left, right, sign):  # every caller shares the cached table
        a.flags.writeable = False
    return left, right, sign


@lru_cache(maxsize=None)
def eval_cache(n: int, p: int) -> np.ndarray:
    """Index array of shape (C(n,p), p) listing each multi-index as a row."""
    return np.array(multi_indices(n, p), dtype=np.intp).reshape(comb(n, p), p)


def compound_matrix(M: np.ndarray, p: int) -> np.ndarray:
    """p-th compound (matrix of p x p minors) of M, batched over leading axes.

    Entry [I, J] is det(M[I, J]) over increasing row/column multi-indices; it
    is the induced action of M on compressed p-form components.  M may be
    rectangular; a square M at p = 2 takes the closed form `_compound_2`.
    """
    if p == 2 and M.shape[-1] == M.shape[-2]:
        return _compound_2(M)
    r = eval_cache(M.shape[-2], p)
    c = eval_cache(M.shape[-1], p)
    return np.linalg.det(M[..., r[:, None, :, None], c[None, :, None, :]])


def _compound_2(M: np.ndarray) -> np.ndarray:
    """compound_matrix(M, 2) of a square M from the closed form of each 2 x 2
    minor, M_ik M_jl - M_il M_jk, in place of one LU determinant per minor."""
    i, j = eval_cache(M.shape[-1], 2).T
    i, j, k, l = i[:, None], j[:, None], i[None, :], j[None, :]
    return M[..., i, k] * M[..., j, l] - M[..., i, l] * M[..., j, k]
