"""Gauss-Bonnet-Chern curvatures, P_k and Lovelock tensors, and the
second-order curvature variation residual.

All stars and metric powers here are those of the pointwise metric g.
Raising the curvature's left block with g^-1 turns g into the flat b, so the
g-star of R^k g^m is the flat star of (R#)^k b^m with its right block lowered
once.  The mixed flat/curved expressions of the asymptotic invariants live
in the invariants module.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .dforms import (
    DoubleForm,
    contract,
    hodge,
    metric_form,
    wedge,
    wedge_power,
)
from .curvature import (
    DoubleFormField,
    _christoffel_d1_from_jets,
    _christoffel_from_jets,
    _riemann_packed,
    jet_add,
    jet_d_left,
    jet_d_right,
    jet_from_partials,
)
from .fields import MetricField
from .multiindex import compound_matrix

__all__ = [
    "GBCContext",
    "l_k",
    "p_k",
    "lovelock",
    "scal",
    "ricci",
    "variation_residual",
]


class GBCContext:
    """Dimension/order bookkeeping plus cached flat metric powers.

    Requires n >= 2k; the Lovelock tensor additionally needs n >= 2k + 1.
    The cached powers of the flat metric b are what the asymptotic-invariant
    integrands and the raised curvature powers of `l_k`, `p_k` and
    `lovelock` are wedged with.
    """

    def __init__(self, n: int, k: int):
        if k < 1:
            raise ValueError("curvature order k must be >= 1")
        if n < 2 * k:
            raise ValueError(f"need n >= 2k, got n={n}, k={k}")
        self.n = n
        self.k = k
        # the 2^k converts determinant-convention curvature powers to the
        # classical complete contractions, making L_1 the scalar curvature
        self.power_norm = 2.0 ** k
        self.norm_factorial = factorial(n - 2 * k)
        self.b_power = wedge_power(metric_form(n), n - 2 * k)
        if n >= 2 * k + 1:
            self.b_power_lovelock = wedge_power(metric_form(n), n - 2 * k - 1)
        else:
            self.b_power_lovelock = None


def _point_data(g: MetricField, x: np.ndarray):
    """The metric G at x and the curvature R# with its left block raised."""
    G, d1, d2 = g.jet(np.asarray(x, dtype=float), 2)
    Ginv = np.linalg.inv(G)
    R = _riemann_packed(G, d1, d2, Ginv)
    return G, DoubleForm(g.n, 2, 2, compound_matrix(Ginv, 2) @ R.comps)


def l_k(g: MetricField, x: np.ndarray, ctx: GBCContext) -> np.ndarray:
    """Gauss-Bonnet-Chern curvature L_k, normalized so L_1 = Scal.

    L_k = (2^k / (n-2k)!) * (R^owedge-k owedge g^owedge-(n-2k)); the 2^k
    matches the classical complete contractions of curvature powers.
    """
    _, R = _point_data(g, x)
    val = hodge(wedge(wedge_power(R, ctx.k), ctx.b_power))
    return val.comps[..., 0, 0] * ctx.power_norm / ctx.norm_factorial


def p_k(g: MetricField, x: np.ndarray, ctx: GBCContext) -> DoubleForm:
    """The (n-2, n-2) form P_k with *P_k = R^owedge-(k-1) owedge g^owedge-(n-2k) / (n-2k)!.

    The double star on bidegree (2,2) is the identity, so P_k is the g-star
    of the right-hand side.
    """
    G, R = _point_data(g, x)
    star = hodge(wedge(wedge_power(R, ctx.k - 1), ctx.b_power))
    norm = ctx.power_norm / ctx.norm_factorial
    return DoubleForm(ctx.n, 2, 2, norm * star.comps @ compound_matrix(G, 2))


def lovelock(g: MetricField, x: np.ndarray, ctx: GBCContext) -> DoubleForm:
    """Lovelock tensor T_k as a (1,1) form.

    T_k = (2^k / (n-2k-1)!) * (R^owedge-k owedge g^owedge-(n-2k-1)), the
    normalization under which the metric trace satisfies c(T_k) = (n-2k) L_k.
    """
    if ctx.n < 2 * ctx.k + 1:
        raise ValueError("Lovelock tensor needs n >= 2k + 1")
    G, R = _point_data(g, x)
    star = hodge(wedge(wedge_power(R, ctx.k), ctx.b_power_lovelock))
    norm = ctx.power_norm / factorial(ctx.n - 2 * ctx.k - 1)
    return DoubleForm(ctx.n, 1, 1, norm * star.comps @ G)


def ricci(g: MetricField, x: np.ndarray) -> DoubleForm:
    """Ricci tensor as the metric contraction of the curvature form."""
    G, R = _point_data(g, x)
    return DoubleForm(g.n, 1, 1, G @ contract(R).comps)


def scal(g: MetricField, x: np.ndarray) -> np.ndarray:
    """Scalar curvature as the double metric contraction of the curvature."""
    _, R = _point_data(g, x)
    return contract(contract(R)).comps[..., 0, 0]


def variation_residual(g: MetricField, h: DoubleFormField, x: np.ndarray,
                       eps: float) -> DoubleForm:
    """R^{g+eps h} - R^g - (1/4)(D Dt + Dt D)(eps h), derivatives in the g-connection.

    The subtracted term is the principal part of the curvature variation in
    this sign convention (validated against centered differences of the
    curvature), so the residual is O(eps) with curved g and O(eps^2) when g
    is flat.
    """
    x = np.asarray(x, dtype=float)
    G, d1, d2 = g.jet(x, 2)
    h0, h1, h2 = (eps * lv for lv in h.jet(x, 2))
    if np.any(np.linalg.eigvalsh(G + h0) <= 0):
        raise ValueError("perturbed metric not positive-definite")
    R_pert = _riemann_packed(G + h0, d1 + h1, d2 + h2)
    R_base = _riemann_packed(G, d1, d2)
    jh = jet_from_partials(g.n, 1, 1, [h0, h1, h2],
                           gamma=_christoffel_from_jets(G, d1),
                           dgamma=_christoffel_d1_from_jets(G, d1, d2))
    box = jet_add(jet_d_left(jet_d_right(jh)), jet_d_right(jet_d_left(jh)))
    return R_pert - R_base - 0.25 * box.form()
