"""Connection, curvature, and field-level double-form operators.

Covariant jets are the one derivative path for double-form fields: a jet is
a list [F, nabla F, nabla nabla F] whose m-th entry carries m leading
covariant-derivative axes in front of the compressed component axes.
`jet_from_partials` builds it from plain partials and Christoffel symbols.
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
    metric_form,
    wedge,
)
from .fields import MetricField, TensorRadialPoly
from .multiindex import eval_cache

__all__ = [
    "Connection",
    "christoffel",
    "christoffel_d1",
    "riemann",
    "riemann_partial_d1",
    "pack_22",
    "DoubleFormField",
    "PolynomialDoubleFormField",
    "deviation_field",
    "ext_deriv",
    "codiff",
    "d_left_comps",
    "d_right_comps",
    "codiff_sign",
    "jet_wedge",
    "jet_d_left",
    "jet_d_right",
    "jet_hodge",
    "metric_jet",
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


def christoffel_d1(g: MetricField, x: np.ndarray) -> np.ndarray:
    """Partial derivatives d_k Gamma^a_ij, shape (..., k, a, i, j)."""
    return _christoffel_d1_from_jets(*g.jet(x, 2))


def _christoffel_d1_from_jets(G: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Christoffel partials from the metric values and first two partials."""
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


def riemann_partial_d1(g: MetricField, x: np.ndarray) -> np.ndarray:
    """Plain partial derivatives d_m R[i,j,k,l], shape (..., m, n, n, n, n)."""
    G, d1, d2, d3 = g.jet(x, 3)
    return _riemann_partial_d1_from_jets(G, d1, d2, d3, _christoffel_from_jets(G, d1))


def _riemann_partial_d1_from_jets(G: np.ndarray, d1: np.ndarray, d2: np.ndarray,
                                  d3: np.ndarray, gam: np.ndarray) -> np.ndarray:
    """Riemann partials from the metric jets and the Christoffel symbols gam."""
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


class Connection:
    """Flat background connection or the Levi-Civita connection of a metric."""

    def __init__(self, g: MetricField | None = None):
        self.g = g
        self.kind = "flat" if g is None else "levi-civita"

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.g is None:
            n = x.shape[-1]
            return np.zeros(x.shape[:-1] + (n,) * 3)
        return christoffel(self.g, x)


# ---------------------------------------------------------------------------
# double-form fields
# ---------------------------------------------------------------------------

class DoubleFormField:
    """A chart-point-to-DoubleForm map with optional partial derivatives.

    `d1(x)` returns plain partials with one leading derivative axis; `d2(x)`
    adds a second.  Fields built from closed forms provide these exactly.
    """

    def __init__(self, n: int, p: int, q: int, eval_fn, d1_fn=None, d2_fn=None):
        self.n, self.p, self.q = n, p, q
        self._eval = eval_fn
        self._d1 = d1_fn
        self._d2 = d2_fn

    def eval(self, x: np.ndarray) -> DoubleForm:
        return DoubleForm(self.n, self.p, self.q, self._eval(np.asarray(x, dtype=float)))

    def d1(self, x: np.ndarray) -> np.ndarray:
        if self._d1 is None:
            raise ValueError("field has no derivative evaluator")
        return self._d1(np.asarray(x, dtype=float))

    def d2(self, x: np.ndarray) -> np.ndarray:
        if self._d2 is None:
            raise ValueError("field has no second-derivative evaluator")
        return self._d2(np.asarray(x, dtype=float))


class PolynomialDoubleFormField(DoubleFormField):
    """Component-wise polynomial double-form field with exact derivatives."""

    def __init__(self, n: int, p: int, q: int, trp: TensorRadialPoly):
        if trp.shape != (comb(n, p), comb(n, q)):
            raise ValueError("component polynomial array has wrong shape")
        super().__init__(n, p, q, trp, trp.deriv(), trp.deriv().deriv())
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
    """e = g - b as a (1,1) double-form field with exact derivatives."""
    n = g.n
    return DoubleFormField(
        n, 1, 1,
        lambda x: g.jet(x, 0)[0] - np.eye(n),
        lambda x: g.jet(x, 1)[1],
        lambda x: g.jet(x, 2)[2],
    )


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


def _cov_d1_comps(comps: np.ndarray, partial: np.ndarray, gamma: np.ndarray | None,
                  n: int, p: int, q: int) -> np.ndarray:
    """nabla_k of compressed components from plain partials and Christoffels."""
    if gamma is None:
        return partial
    A = np.moveaxis(gamma, -2, -3)  # A[..., k, m, i] = Gamma^m_{k i}
    return partial - derivation_action(A, DoubleForm(n, p, q, comps[..., None, :, :])).comps


def _first_jet(omega: DoubleFormField, x: np.ndarray, gamma: np.ndarray | None) -> Jet:
    """Depth-1 covariant jet of a field at x for the Christoffel symbols
    `gamma` (None: the flat connection)."""
    return jet_from_partials(omega.n, omega.p, omega.q, omega.eval(x).comps,
                             omega.d1(x), gamma=gamma)


def _jet_d(a: Jet, side: str) -> Jet:
    if side == "left":
        return jet_d_left(a)
    if side == "right":
        return jet_d_right(a)
    raise ValueError("side must be 'left' or 'right'")


def ext_deriv(omega: DoubleFormField, x: np.ndarray, side: str = "left",
              conn: Connection | None = None) -> DoubleForm:
    """Exterior derivative of a double-form field at x (left or right)."""
    x = np.asarray(x, dtype=float)
    gamma = None if conn is None or conn.g is None else conn.christoffel(x)
    return _jet_d(_first_jet(omega, x, gamma), side).form()


def codiff_sign(n: int, p: int, q: int, side: str) -> float:
    """Sign of the adjoint exterior derivative in delta = -(sign) * star D star."""
    if side == "left":
        return float((-1) ** (n * (p + 1) + q * (n - q)))
    return float((-1) ** (n * (q + 1) + p * (n - p)))


def codiff(omega: DoubleFormField, x: np.ndarray, side: str = "left",
           conn: Connection | None = None, G: PointMetric | None = None) -> DoubleForm:
    """Divergence delta = -D^* with D^* the signed star-D-star composition.

    With the flat connection the stars are Euclidean unless G is given; with
    a Levi-Civita connection they default to its metric at x.  The star
    commutes with the covariant derivative, so it acts on every jet level.
    """
    x = np.asarray(x, dtype=float)
    gamma = None
    if conn is not None and conn.g is not None:
        Gx, d1 = conn.g.jet(x, 1)
        gamma = _christoffel_from_jets(Gx, d1)
        G = PointMetric(Gx) if G is None else G
    d_star = _jet_d(jet_hodge(_first_jet(omega, x, gamma), G), side)
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


def jet_from_partials(n: int, p: int, q: int, comps: np.ndarray,
                      partial1: np.ndarray | None = None,
                      partial2: np.ndarray | None = None,
                      gamma: np.ndarray | None = None,
                      dgamma: np.ndarray | None = None) -> Jet:
    """Build covariant jets from plain partial derivatives and Christoffels."""
    levels = [comps]
    if partial1 is not None:
        cov1 = _cov_d1_comps(comps, partial1, gamma, n, p, q)
        levels.append(cov1)
        if partial2 is not None:
            if gamma is None:
                levels.append(partial2)
            else:
                # d_a (nabla_b w) = dd w - D(d_a Gamma_b) w - D(Gamma_b) d_a w,
                # then nabla_a subtracts Gamma^m_ab nabla_m w and D(Gamma_a) nabla_b w
                A = np.moveaxis(gamma, -2, -3)        # A[..., b, m, i] = Gamma^m_bi
                dA = np.swapaxes(dgamma, -3, -2)      # dA[..., a, b, m, i] = d_a Gamma^m_bi

                def act(M, w):
                    return derivation_action(M, DoubleForm(n, p, q, w)).comps

                cov2 = (partial2
                        - act(dA, comps[..., None, None, :, :])
                        - act(A[..., None, :, :, :], partial1[..., :, None, :, :])
                        - np.einsum("...mab,...mIJ->...abIJ", gamma, cov1)
                        - act(A[..., :, None, :, :], cov1[..., None, :, :, :]))
                levels.append(cov2)
    return Jet(n, p, q, levels)


def jet_add(a: Jet, b: Jet) -> Jet:
    depth = min(a.depth, b.depth)
    return Jet(a.n, a.p, a.q, [a.levels[m] + b.levels[m] for m in range(depth + 1)])


def jet_wedge(a: Jet, b: Jet) -> Jet:
    """Kulkarni-Nomizu product of jets with the Leibniz rule on derivatives."""
    n = a.n
    p, q = a.p + b.p, a.q + b.q
    depth = min(a.depth, b.depth)

    def w(ca, pa, qa, cb, pb, qb):
        return wedge(DoubleForm(n, pa, qa, ca), DoubleForm(n, pb, qb, cb)).comps

    levels = [w(a.levels[0], a.p, a.q, b.levels[0], b.p, b.q)]
    if depth >= 1:
        lv1 = (w(a.levels[1], a.p, a.q, b.levels[0][..., None, :, :], b.p, b.q)
               + w(a.levels[0][..., None, :, :], a.p, a.q, b.levels[1], b.p, b.q))
        levels.append(lv1)
    if depth >= 2:
        a0 = a.levels[0][..., None, None, :, :]
        b0 = b.levels[0][..., None, None, :, :]
        a1a = a.levels[1][..., :, None, :, :]
        a1b = a.levels[1][..., None, :, :, :]
        b1a = b.levels[1][..., :, None, :, :]
        b1b = b.levels[1][..., None, :, :, :]
        lv2 = (w(a.levels[2], a.p, a.q, b0, b.p, b.q)
               + w(a1a, a.p, a.q, b1b, b.p, b.q)
               + w(a1b, a.p, a.q, b1a, b.p, b.q)
               + w(a0, a.p, a.q, b.levels[2], b.p, b.q))
        levels.append(lv2)
    return Jet(n, p, q, levels)


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


def metric_jet(n: int, G: np.ndarray | None = None, depth: int = 1,
               batch_shape: tuple[int, ...] = ()) -> Jet:
    """The metric as a covariantly constant (1,1) jet."""
    comps = metric_form(n, G).comps
    comps = np.broadcast_to(comps, batch_shape + comps.shape[-2:]).copy()
    levels = [comps]
    for m in range(1, depth + 1):
        levels.append(np.zeros(batch_shape + (n,) * m + comps.shape[-2:]))
    return Jet(n, 1, 1, levels)


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
    return jet_from_partials(n, 2, 2, R, dR, gamma=gam)
