"""Curvature, double-form fields and their covariant jets.

Every field is read through one `jet(x, order)` call that returns the plain
partials [F, dF, ..., d^order F], with the derivative axes between the batch
and the component axes: a `MetricField` gives its metric components, and a
`DoubleFormField` (n, p, q) its compressed (C(n,p), C(n,q)) components.  A
covariant jet is the list [F, nabla F, nabla nabla F] in the same layout;
`jet_from_partials` builds it from such a partials list and the Christoffel
symbols of a metric, or leaves it plain for the flat connection (g None).
The exterior derivatives insert the last derivative index into a block by
one signed gather through the shuffle table; the Hodge star
commutes with the Levi-Civita derivative and the Bianchi maps have constant
coefficients, so both act level by level.  `ext_deriv` and `codiff` are
these operators on a field's first-order jet.

Curvature consumers read the metric through one `MetricField.jet` call and
build Christoffel symbols and their derivatives from those arrays with the
private `_..._from_jets` helpers.  The curvature is built packed, as the
(2,2) double form its consumers read, by `_riemann_packed`: from the lowered
Christoffel symbols, one batched matmul for the quadratic term and one
gather of the C(n,2)^2 slots; the full n^4 array is kept only as a test
reference.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .dforms import (
    DoubleForm,
    PointMetric,
    _hodge_metric,
    _insert_left,
    _insert_right,
    derivation_action,
    hodge,
)
from .fields import MetricField, TensorRadialPoly
from .multiindex import eval_cache

__all__ = [
    "christoffel",
    "riemann",
    "pack_22",
    "DoubleFormField",
    "PolynomialDoubleFormField",
    "deviation_field",
    "ext_deriv",
    "codiff",
    "d_left_comps",
    "d_right_comps",
    "codiff_sign",
    "jet_d_left",
    "jet_d_right",
    "jet_hodge",
    "riemann_jet",
]


# ---------------------------------------------------------------------------
# connection and curvature
# ---------------------------------------------------------------------------

def christoffel(g: MetricField, x: np.ndarray) -> np.ndarray:
    """Levi-Civita symbols Gamma^a_ij, shape (..., a, i, j)."""
    return _christoffel_from_jets(*g.jet(x, 1))


def _lowered(d1: np.ndarray) -> np.ndarray:
    """First-kind symbols Gamma_{l,ij} = (d_i g_jl + d_j g_il - d_l g_ij) / 2
    from d1[..., k, i, j] = d_k g_ij, shape (..., l, i, j)."""
    return 0.5 * (np.einsum("...ijl->...lij", d1)
                  + np.einsum("...jil->...lij", d1)
                  - d1)


def _christoffel_from_jets(G: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """Christoffel symbols from the metric values G and first partials d1."""
    return np.einsum("...al,...lij->...aij", np.linalg.inv(G), _lowered(d1))


def _christoffel_d1_from_jets(G: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Christoffel partials d_k Gamma^a_ij, shape (..., k, a, i, j), from the
    metric values and first two partials."""
    Ginv = np.linalg.inv(G)
    dGinv = -np.einsum("...am,...kmn,...nl->...kal", Ginv, d1, Ginv)
    lower = _lowered(d1)
    dlower = 0.5 * (np.einsum("...kijl->...klij", d2)
                    + np.einsum("...kjil->...klij", d2)
                    - d2)
    return (np.einsum("...kal,...lij->...kaij", dGinv, lower)
            + np.einsum("...al,...klij->...kaij", Ginv, dlower))


@lru_cache(maxsize=None)
def _riemann_slots(n: int) -> np.ndarray:
    """Positions in a flattened n^4 array of the entries (i,l,j,k), (j,k,i,l),
    (i,k,j,l), (j,l,i,k) for each packed slot I = (i<j), J = (k<l), shape
    (4, C(n,2), C(n,2))."""
    i, j = eval_cache(n, 2).T
    i, j, k, l = i[:, None], j[:, None], i[None, :], j[None, :]
    slots = np.stack([np.ravel_multi_index(entry, (n,) * 4) for entry in
                      [(i, l, j, k), (j, k, i, l), (i, k, j, l), (j, l, i, k)]])
    slots.flags.writeable = False  # every caller shares the cached table
    return slots


def _riemann_packed(G: np.ndarray, d1: np.ndarray, d2: np.ndarray,
                    Ginv: np.ndarray | None = None) -> DoubleForm:
    """Curvature as a (2,2) double form from the metric jets G, d1, d2.

    R_ijkl = (d_i d_l g_jk + d_j d_k g_il - d_i d_k g_jl - d_j d_l g_ik) / 2
    + A_il,jk - A_ik,jl with A_il,jk = sum_a Gamma^a_il Gamma_a,jk, read only
    at i < j, k < l.  The sign is fixed so that the round sphere has positive
    values on (e_i, e_j; e_i, e_j), i.e. R = (lambda/2) g owedge g with
    lambda > 0.  `Ginv` is the inverse of G when the caller already has it.
    """
    n = G.shape[-1]
    batch = G.shape[:-2]
    lower = _lowered(d1).reshape(batch + (n, n * n))
    gam = (np.linalg.inv(G) if Ginv is None else Ginv) @ lower
    # A[..., (i,l), (j,k)], flattened like d2[..., i, l, j, k]
    A = (np.swapaxes(gam, -1, -2) @ lower).reshape(batch + (-1,))
    slots = _riemann_slots(n)
    dd = np.take(d2.reshape(batch + (-1,)), slots, axis=-1)
    quad = np.take(A, slots[::2], axis=-1)
    comps = (0.5 * (dd[..., 0, :, :] + dd[..., 1, :, :] - dd[..., 2, :, :] - dd[..., 3, :, :])
             + (quad[..., 0, :, :] - quad[..., 1, :, :]))
    return DoubleForm(n, 2, 2, comps)


def pack_22(arr: np.ndarray, n: int) -> DoubleForm:
    """Pack a 4-index array antisymmetric in (0,1) and (2,3) into a (2,2) form."""
    i, j = eval_cache(n, 2).T
    comps = arr[..., i[:, None], j[:, None], i[None, :], j[None, :]]
    return DoubleForm(n, 2, 2, comps)


def riemann(g: MetricField, x: np.ndarray) -> DoubleForm:
    """Riemann curvature of g at x as a symmetric (2,2) double form."""
    return _riemann_packed(*g.jet(x, 2))


def _riemann_partial_d1_from_jets(G: np.ndarray, d1: np.ndarray, d2: np.ndarray,
                                  d3: np.ndarray, gam: np.ndarray) -> np.ndarray:
    """Plain partials d_m R[i,j,k,l], shape (..., m, n, n, n, n), from the
    metric jets and the Christoffel symbols gam."""
    dgam = _christoffel_d1_from_jets(G, d1, d2)
    ddd = 0.5 * (np.einsum("...miljk->...mijkl", d3) + np.einsum("...mjkil->...mijkl", d3)
                 - np.einsum("...mikjl->...mijkl", d3) - np.einsum("...mjlik->...mijkl", d3))
    quad = (np.einsum("...mab,...ail,...bjk->...mijkl", d1, gam, gam)
            - np.einsum("...mab,...aik,...bjl->...mijkl", d1, gam, gam)
            + np.einsum("...ab,...mail,...bjk->...mijkl", G, dgam, gam)
            + np.einsum("...ab,...ail,...mbjk->...mijkl", G, gam, dgam)
            - np.einsum("...ab,...maik,...bjl->...mijkl", G, dgam, gam)
            - np.einsum("...ab,...aik,...mbjl->...mijkl", G, gam, dgam))
    return ddd + quad


# ---------------------------------------------------------------------------
# double-form fields
# ---------------------------------------------------------------------------

class DoubleFormField:
    """A (p,q) double-form field, read through `jet`.

    `jet(x, order)` returns the plain partials [F, dF, ..., d^order F] as
    component arrays, the m-th with m derivative axes between the batch and
    the (C(n,p), C(n,q)) component axes; `jet_fn(x, order)` computes them.
    `eval(x)` is the value alone, as a DoubleForm.
    """

    def __init__(self, n: int, p: int, q: int, jet_fn):
        self.n, self.p, self.q = n, p, q
        self._jet = jet_fn

    def jet(self, x: np.ndarray, order: int) -> list[np.ndarray]:
        return self._jet(np.asarray(x, dtype=float), order)

    def eval(self, x: np.ndarray) -> DoubleForm:
        return DoubleForm(self.n, self.p, self.q, self.jet(x, 0)[0])


class PolynomialDoubleFormField(DoubleFormField):
    """Component-wise polynomial double-form field with exact derivatives."""

    def __init__(self, n: int, p: int, q: int, trp: TensorRadialPoly):
        if trp.shape != (comb(n, p), comb(n, q)):
            raise ValueError("component polynomial array has wrong shape")
        super().__init__(n, p, q, trp.jet)
        self.trp = trp

    @classmethod
    def random(cls, n: int, p: int, q: int, seed: int = 0, degree: int = 2
               ) -> "PolynomialDoubleFormField":
        rng = np.random.default_rng(seed)
        Cp, Cq = comb(n, p), comb(n, q)
        monos = [(0,) * n]
        for d in range(1, degree + 1):
            for i in range(n):
                alpha = [0] * n
                alpha[i] = d
                monos.append(tuple(alpha))
            if d >= 2:
                for i in range(n - 1):
                    alpha = [0] * n
                    alpha[i], alpha[i + 1] = 1, d - 1
                    monos.append(tuple(alpha))
        coeff = rng.standard_normal((Cp * Cq, len(monos)))
        return cls(n, p, q, TensorRadialPoly(n, (Cp, Cq), monos, np.zeros(len(monos)), coeff))


def deviation_field(g: MetricField) -> DoubleFormField:
    """e = g - b as a (1,1) double-form field: one `g.jet` call per read."""
    def jet(x, order):
        G, *partials = g.jet(x, order)
        return [G - np.eye(g.n)] + partials

    return DoubleFormField(g.n, 1, 1, jet)


# ---------------------------------------------------------------------------
# exterior derivatives on component arrays
# ---------------------------------------------------------------------------

def d_left_comps(n: int, p: int, q: int, covd: np.ndarray) -> DoubleForm:
    """Left exterior derivative from the covariant derivative array.

    `covd` has shape (..., n, Cp, Cq) with the derivative axis first; the
    result is -sum_k dx^k owedge covd[k].
    """
    return DoubleForm(n, p + 1, q, _insert_left(n, p, covd))


def d_right_comps(n: int, p: int, q: int, covd: np.ndarray) -> DoubleForm:
    """Right exterior derivative: -sum_k covd[k] owedge dx~^k."""
    return DoubleForm(n, p, q + 1, _insert_right(n, q, covd))


def _jet_d(a: Jet, side: str) -> Jet:
    if side == "left":
        return jet_d_left(a)
    if side == "right":
        return jet_d_right(a)
    raise ValueError("side must be 'left' or 'right'")


def ext_deriv(omega: DoubleFormField, x: np.ndarray, side: str = "left",
              g: MetricField | None = None) -> DoubleForm:
    """Exterior derivative of a double-form field at x (left or right), in
    the Levi-Civita connection of g (None: the flat connection)."""
    x = np.asarray(x, dtype=float)
    gamma = None if g is None else christoffel(g, x)
    jet = jet_from_partials(omega.n, omega.p, omega.q, omega.jet(x, 1), gamma)
    return _jet_d(jet, side).form()


def codiff_sign(n: int, p: int, q: int, side: str) -> float:
    """Sign of the adjoint exterior derivative in delta = -(sign) * star D star."""
    if side == "left":
        return float((-1) ** (n * (p + 1) + q * (n - q)))
    return float((-1) ** (n * (q + 1) + p * (n - p)))


def codiff(omega: DoubleFormField, x: np.ndarray, side: str = "left",
           g: MetricField | None = None, G: PointMetric | None = None) -> DoubleForm:
    """Divergence delta = -D^* with D^* the signed star-D-star composition.

    With the flat connection (g None) the stars are Euclidean unless G is
    given; in the Levi-Civita connection of g they default to g at x.  The
    star commutes with the covariant derivative, so it acts on every jet
    level.
    """
    x = np.asarray(x, dtype=float)
    gamma = None
    if g is not None:
        Gx, d1 = g.jet(x, 1)
        gamma = _christoffel_from_jets(Gx, d1)
        G = PointMetric(Gx) if G is None else G
    jet = jet_from_partials(omega.n, omega.p, omega.q, omega.jet(x, 1), gamma)
    d_star = _jet_d(jet_hodge(jet, G), side)
    return -codiff_sign(omega.n, omega.p, omega.q, side) * hodge(d_star.form(), G)


# ---------------------------------------------------------------------------
# covariant jets
# ---------------------------------------------------------------------------

class Jet:
    """A double form together with covariant derivatives to some depth.

    levels[m] has shape (..., n^m derivative axes, Cp, Cq), fully covariant.
    """

    def __init__(self, n: int, p: int, q: int, levels: list[np.ndarray]):
        self.n, self.p, self.q = n, p, q
        self.levels = levels

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def form(self) -> DoubleForm:
        return DoubleForm(self.n, self.p, self.q, self.levels[0])


def jet_from_partials(n: int, p: int, q: int, partials: list[np.ndarray],
                      gamma: np.ndarray | None = None,
                      dgamma: np.ndarray | None = None) -> Jet:
    """Covariant jet from the plain partials [F, dF, ddF] (depth 0..2) of a
    field, the Christoffel symbols gamma and their partials dgamma (gamma
    None: the flat connection, where the partials are the jet)."""
    if gamma is None or len(partials) == 1:
        return Jet(n, p, q, list(partials))
    comps, partial1 = partials[:2]
    A = np.moveaxis(gamma, -2, -3)        # A[..., b, m, i] = Gamma^m_bi

    def act(M, w):
        return derivation_action(M, DoubleForm(n, p, q, w)).comps

    cov1 = partial1 - act(A, comps[..., None, :, :])
    if len(partials) == 2:
        return Jet(n, p, q, [comps, cov1])
    # d_a (nabla_b w) = dd w - D(d_a Gamma_b) w - D(Gamma_b) d_a w,
    # then nabla_a subtracts Gamma^m_ab nabla_m w and D(Gamma_a) nabla_b w
    dA = np.swapaxes(dgamma, -3, -2)      # dA[..., a, b, m, i] = d_a Gamma^m_bi
    cov2 = (partials[2]
            - act(dA, comps[..., None, None, :, :])
            - act(A[..., None, :, :, :], partial1[..., :, None, :, :])
            - np.einsum("...mab,...mIJ->...abIJ", gamma, cov1)
            - act(A[..., :, None, :, :], cov1[..., None, :, :, :]))
    return Jet(n, p, q, [comps, cov1, cov2])


def jet_add(a: Jet, b: Jet) -> Jet:
    depth = min(a.depth, b.depth)
    return Jet(a.n, a.p, a.q, [a.levels[m] + b.levels[m] for m in range(depth + 1)])


def jet_d_left(a: Jet) -> Jet:
    """Left exterior derivative of a jet (loses one derivative level).

    The exterior-derivative index is the last derivative axis of each level.
    """
    if a.depth < 1:
        raise ValueError("jet depth too small for an exterior derivative")
    return Jet(a.n, a.p + 1, a.q,
               [d_left_comps(a.n, a.p, a.q, lv).comps for lv in a.levels[1:]])


def jet_d_right(a: Jet) -> Jet:
    if a.depth < 1:
        raise ValueError("jet depth too small for an exterior derivative")
    return Jet(a.n, a.p, a.q + 1,
               [d_right_comps(a.n, a.p, a.q, lv).comps for lv in a.levels[1:]])


def jet_hodge(a: Jet, G: PointMetric | None = None) -> Jet:
    """Hodge star of a jet: the star commutes with the covariant derivative."""
    levels = []
    for m, lv in enumerate(a.levels):
        form_m = DoubleForm(a.n, a.p, a.q, lv)
        if G is None:
            levels.append(hodge(form_m).comps)
        else:
            # the pointwise metric broadcast over the m derivative axes
            Gm = np.expand_dims(G.G, tuple(range(-3, -3 - m, -1)))
            levels.append(_hodge_metric(form_m, Gm).comps)
    return Jet(a.n, a.n - a.p, a.n - a.q, levels)


def riemann_jet(g: MetricField, x: np.ndarray, depth: int = 1) -> Jet:
    """Curvature of g at x as a jet (depth 0 or 1) from one metric jet.

    Depth 1 takes the covariant derivative of the plain Riemann partials
    through `jet_from_partials`, the path every other field takes.
    """
    if depth >= 2:
        raise ValueError("riemann_jet supports depth <= 1")
    n = g.n
    jets = g.jet(x, depth + 2)
    R = _riemann_packed(*jets[:3]).comps
    if depth == 0:
        return Jet(n, 2, 2, [R])
    gam = _christoffel_from_jets(*jets[:2])
    dR = pack_22(_riemann_partial_d1_from_jets(*jets, gam), n).comps
    return jet_from_partials(n, 2, 2, [R, dR], gamma=gam)
