"""Sparse multilinear kernels for the mass and center flux integrands.

The mass flux <*(D~e owedge R^{k-1} owedge b^{n-2k}), nu> is linear in the
first partials dg of the metric, in P = R^{k-1} and in nu: the flat power
b^{n-2k}, the Euclidean star and the normal pairing are all constant.  So
the flux is a fixed form sum K[c, p, i] dg[c] P[p] nu[i] with only a small
fraction of its entries nonzero.  The center term
D~x^a owedge e owedge R^{k-1} owedge b^{n-2k} folds the same way, into
K[c, p, (a, i)] with c running over the components of e = g - delta.

A kernel keeps only the (c, p) pairs that carry a nonzero coefficient, with
their coefficient rows over the output axes, so evaluating it on a batch of
nodes is one gather and one small matrix product.  Kernels are composed from
the shuffle table and the exterior derivative, built on first use and
cached per (n, k) for the life of the process.  The dense
double-form path in `invariants` is the reference they are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .curvature import d_right_comps
from .dforms import DoubleForm, coform, metric_form, wedge, wedge_power
from .multiindex import shuffle_table

__all__ = ["FluxKernel", "mass_kernel", "center_kernel"]


@dataclass(frozen=True)
class FluxKernel:
    """The bilinear map (u, P) -> sum_j coef[j] u[first[j]] P[curv[j]].

    `first` and `curv` index the flattened first factor (dg or e) and the
    flattened R^{k-1}; `coef` has one row per stored pair and one column per
    output component.
    """

    first: np.ndarray  # (pairs,)
    curv: np.ndarray   # (pairs,)
    coef: np.ndarray   # (pairs, outputs)

    def __call__(self, u: np.ndarray, P: np.ndarray) -> np.ndarray:
        """Apply to batched flattened factors u (..., U) and P (..., M)."""
        return (u[..., self.first] * P[..., self.curv]) @ self.coef


def _check(n: int, k: int) -> None:
    if k < 1 or n < 2 * k:
        raise ValueError(f"flux kernels need k >= 1 and n >= 2k, got ({n}, {k})")


def _wedge_table(n: int, p1: int, p2: int) -> np.ndarray:
    """Dense W[K, I, J] = sign of I + J = K (zero elsewhere), from the shuffle table."""
    left, right, sign = shuffle_table(n, p1, p2)
    W = np.zeros((comb(n, p1 + p2), comb(n, p1), comb(n, p2)))
    W[np.arange(len(W))[:, None], left, right] = sign
    return W


def _closing_tensor(n: int) -> np.ndarray:
    """T[xl, xr, yl, yr, i] = component i of *(X owedge Y) for X of bidegree
    (1, 2) and Y of bidegree (n-2, n-2); the star lands in bidegree (1, 0)."""
    WL = _wedge_table(n, 1, n - 2)                        # [a, xl, yl]
    WR = _wedge_table(n, 2, n - 2).reshape(comb(n, 2), -1)  # [xr, yr]
    star = np.zeros((n, n))                               # (n-1, 0) -> (1, 0)
    star[np.arange(n)[::-1], np.arange(n)] = shuffle_table(n, n - 1, 1)[2][0]
    return np.einsum("ia,auv,xy->uxvyi", star, WL, WR)


def _curvature_map(n: int, k: int) -> np.ndarray:
    """B[yl, yr, p] with (P owedge b^{n-2k})[yl, yr] = sum_p B[yl, yr, p] P[p]."""
    d = 2 * k - 2
    b = wedge_power(metric_form(n), n - 2 * k).comps
    W = _wedge_table(n, d, n - 2 * k)
    B = np.einsum("ypb,zqc,bc->yzpq", W, W, b)
    return B.reshape(B.shape[:2] + (-1,))


def _fold(first_map: np.ndarray, n: int, k: int) -> FluxKernel:
    """Fold X = first_map[xl, xr, o, c] u[c] into *(X owedge P owedge b^{n-2k})
    and keep the nonzero (c, p) pairs, with outputs over (o, i)."""
    K = np.einsum("xzoc,xzyvi,yvp->cpoi", first_map, _closing_tensor(n),
                  _curvature_map(n, k), optimize=True)
    K = K.reshape(K.shape[:2] + (-1,))
    c, p = np.nonzero(np.any(K != 0.0, axis=-1))
    arrays = (c, p, K[c, p])
    for a in arrays:  # every caller shares the cached kernel
        a.flags.writeable = False
    return FluxKernel(*arrays)


@lru_cache(maxsize=None)
def mass_kernel(n: int, k: int) -> FluxKernel:
    """K[dg, R^{k-1}, i]: component i of *(D~e owedge R^{k-1} owedge b^{n-2k}).

    `first` indexes dg flattened from (d_c g_ij) over (c, i, j); the output
    is the (1, 0) star, to be paired with the normal.
    """
    _check(n, k)
    probes = np.eye(n ** 3).reshape(-1, n, n, n)
    X = d_right_comps(n, 1, 1, probes).comps            # [c, xl, xr]
    return _fold(np.moveaxis(X, 0, -1)[:, :, None, :], n, k)


@lru_cache(maxsize=None)
def center_kernel(n: int, k: int) -> FluxKernel:
    """K[e, R^{k-1}, (a, i)]: component i of *(D~x^a owedge e owedge W),
    W = R^{k-1} owedge b^{n-2k}, with D~x^a = -e~_a.

    `first` indexes e = g - delta flattened over (i, j); the outputs are
    ordered axis-major, (a, i) -> a * n + i.
    """
    _check(n, k)
    dx = np.broadcast_to(-np.eye(n)[:, None, :], (n, n * n, n))
    probes = np.broadcast_to(np.eye(n * n).reshape(1, -1, n, n), (n, n * n, n, n))
    X = wedge(coform(n, dx), DoubleForm(n, 1, 1, probes)).comps  # [a, c, xl, xr]
    return _fold(np.transpose(X, (2, 3, 0, 1)), n, k)
