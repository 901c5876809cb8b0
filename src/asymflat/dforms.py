"""Pointwise double forms: bidegree-(p,q) antisymmetric tensors and their algebra.

A double form of bidegree (p, q) in dimension n is stored densely over pairs
of strictly increasing multi-indices, with component array shape
``batch + (C(n,p), C(n,q))``; all operations broadcast over leading batch
axes.  Products use the determinant convention (shuffle sums, no factorial
division), which is pinned by the identity ``star(g^k) = k!/(n-k)! g^(n-k)``.
The wedge, the flat Hodge star, the Bianchi maps and the dx-insertions
behind D and D~ read the signed splits of `multiindex.shuffle_table` as
gathers (the Bianchi contraction as a scatter); no dense product, star or
interior-product matrix is formed on those paths.  The wedge gathers from
copies of its operands with the batch axes last, so each gathered entry is
one contiguous row over the batch.  The dense `interior_tensor` is read only
by `contract`, `interior` and `multiindex.derivation_tensor`.

Metric-dependent operations take a :class:`PointMetric` G and use no frame:
they raise the left block with the compound matrix of G^-1, apply the
identity-metric operation, and lower the right block once with a compound
matrix of G.  Interior products and the Bianchi maps do not depend on the
metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .multiindex import (
    compound_matrix,
    derivation_tensor,
    interior_tensor,
    shuffle_table,
)

__all__ = [
    "DoubleForm",
    "PointMetric",
    "wedge",
    "wedge_power",
    "contract",
    "inner",
    "hodge",
    "bianchi",
    "transpose",
    "interior",
    "form",
    "coform",
    "metric_form",
    "zero_form",
    "scalar_form",
    "evaluate",
]


class DegreeError(ValueError):
    """Raised on bidegree mismatches or degree overflow."""


@dataclass(frozen=True)
class DoubleForm:
    """Element(s) of the (p, q) double-form space in dimension n.

    `comps` has shape ``batch + (C(n,p), C(n,q))``; entry [I, J] is the value
    on the basis vectors indexed by the increasing multi-indices I and J.
    """

    n: int
    p: int
    q: int
    comps: np.ndarray

    def __post_init__(self):
        expected = (comb(self.n, self.p), comb(self.n, self.q))
        if self.comps.shape[-2:] != expected:
            raise ValueError(
                f"component shape {self.comps.shape[-2:]} does not match "
                f"(n,p,q)=({self.n},{self.p},{self.q}), expected {expected}"
            )

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.comps.shape[:-2]

    def __add__(self, other: "DoubleForm") -> "DoubleForm":
        _same_degree(self, other)
        return DoubleForm(self.n, self.p, self.q, self.comps + other.comps)

    def __sub__(self, other: "DoubleForm") -> "DoubleForm":
        _same_degree(self, other)
        return DoubleForm(self.n, self.p, self.q, self.comps - other.comps)

    def __mul__(self, scalar) -> "DoubleForm":
        return DoubleForm(self.n, self.p, self.q, self.comps * np.asarray(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "DoubleForm":
        return DoubleForm(self.n, self.p, self.q, -self.comps)

    def norm(self) -> np.ndarray:
        """Euclidean (identity-metric) norm over the component axes."""
        return np.sqrt(np.sum(self.comps**2, axis=(-2, -1)))

    def item(self) -> float:
        """Scalar value of an unbatched (0,0) form."""
        if (self.p, self.q) != (0, 0):
            raise DegreeError("item() is only defined for (0,0) forms")
        return float(self.comps.reshape(-1)[0]) if self.comps.size == 1 else self.comps[..., 0, 0]


@dataclass(frozen=True)
class PointMetric:
    """Inner product at a point: symmetric positive-definite matrix G.

    Batched over leading axes.
    """

    G: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
        if G.shape[-1] != G.shape[-2]:
            raise ValueError("metric matrix must be square")
        if not np.allclose(G, np.swapaxes(G, -1, -2), atol=1e-12):
            raise ValueError("metric matrix must be symmetric")
        try:
            np.linalg.cholesky(G)
        except np.linalg.LinAlgError as exc:
            raise ValueError("metric matrix must be positive-definite") from exc
        object.__setattr__(self, "G", G)


def _same_degree(a: DoubleForm, b: DoubleForm) -> None:
    if a.n != b.n:
        raise DegreeError(f"dimension mismatch: {a.n} vs {b.n}")
    if (a.p, a.q) != (b.p, b.q):
        raise DegreeError(f"bidegree mismatch: ({a.p},{a.q}) vs ({b.p},{b.q})")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def zero_form(n: int, p: int, q: int, batch_shape: tuple[int, ...] = ()) -> DoubleForm:
    return DoubleForm(n, p, q, np.zeros(batch_shape + (comb(n, p), comb(n, q))))


def scalar_form(n: int, value) -> DoubleForm:
    value = np.asarray(value, dtype=float)
    return DoubleForm(n, 0, 0, value[..., None, None])


def form(n: int, comps) -> DoubleForm:
    """A (1,0) form from its n coefficients."""
    comps = np.asarray(comps, dtype=float)
    return DoubleForm(n, 1, 0, comps[..., :, None])


def coform(n: int, comps) -> DoubleForm:
    """A (0,1) form (tilded variant) from its n coefficients."""
    comps = np.asarray(comps, dtype=float)
    return DoubleForm(n, 0, 1, comps[..., None, :])


def metric_form(n: int, G: np.ndarray | None = None) -> DoubleForm:
    """A symmetric bilinear form (the metric, by default the identity) in (1,1)."""
    if G is None:
        G = np.eye(n)
    return DoubleForm(n, 1, 1, np.asarray(G, dtype=float))


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def wedge(a: DoubleForm, b: DoubleForm) -> DoubleForm:
    """Kulkarni-Nomizu product: blockwise determinant-convention wedge."""
    if a.n != b.n:
        raise DegreeError(f"dimension mismatch: {a.n} vs {b.n}")
    n, p, q = a.n, a.p + b.p, a.q + b.q
    if p > n or q > n:
        raise DegreeError(
            f"degree overflow: ({a.p}+{b.p}, {a.q}+{b.q}) exceeds n={n}"
        )
    lL, rL, sL = shuffle_table(n, a.p, b.p)
    lR, rR, sR = shuffle_table(n, a.q, b.q)
    nb = max(a.comps.ndim, b.comps.ndim) - 2
    prod = (_batch_last(a.comps, nb)[lL[:, :, None, None], lR[None, None]]
            * _batch_last(b.comps, nb)[rL[:, :, None, None], rR[None, None]])
    comps = np.einsum("KsJt...,Ks,Jt->KJ...", prod, sL, sR)
    # the batch axes back in front of the component axes
    return DoubleForm(n, p, q, comps.transpose(tuple(range(2, nb + 2)) + (0, 1)))


def _batch_last(comps: np.ndarray, nb: int) -> np.ndarray:
    """Contiguous copy with the component axes first and the batch axes,
    padded on the left to nb, last: each gathered entry is one batch row."""
    c = comps.reshape((1,) * (nb + 2 - comps.ndim) + comps.shape)
    return np.ascontiguousarray(c.transpose((nb, nb + 1) + tuple(range(nb))))


def wedge_power(a: DoubleForm, k: int) -> DoubleForm:
    """k-th Kulkarni-Nomizu power; k = 0 gives the unit scalar form."""
    if k < 0:
        raise ValueError("wedge power must be nonnegative")
    out = scalar_form(a.n, np.ones(a.batch_shape))
    for _ in range(k):
        out = wedge(out, a)
    return out


def transpose(a: DoubleForm) -> DoubleForm:
    return DoubleForm(a.n, a.q, a.p, np.swapaxes(a.comps, -1, -2))


def _hodge_identity(a: DoubleForm) -> DoubleForm:
    # The complements of lex-ordered multi-indices come in reverse lex order,
    # so the star reverses both blocks and applies the split signs of K = [0, n).
    sL = shuffle_table(a.n, a.p, a.n - a.p)[2][0, ::-1]
    sR = shuffle_table(a.n, a.q, a.n - a.q)[2][0, ::-1]
    comps = sL[:, None] * a.comps[..., ::-1, ::-1] * sR
    return DoubleForm(a.n, a.n - a.p, a.n - a.q, comps)


def _hodge_metric(a: DoubleForm, G: np.ndarray) -> DoubleForm:
    """g-star for the metric matrix G (broadcast against the batch of `a`)."""
    raised = compound_matrix(np.linalg.inv(G), a.p) @ a.comps
    out = _hodge_identity(DoubleForm(a.n, a.p, a.q, raised))
    return DoubleForm(out.n, out.p, out.q,
                      out.comps @ compound_matrix(G, a.n - a.q))


def hodge(a: DoubleForm, G: PointMetric | None = None) -> DoubleForm:
    """Blockwise Hodge star; satisfies *^2 = (-1)^((p+q)(n-p-q)) id.

    With a metric: raise the left block with C_p(G^-1), star flat, lower the
    right block with C_{n-q}(G).
    """
    if G is None:
        return _hodge_identity(a)
    return _hodge_metric(a, G.G)


def contract(a: DoubleForm, G: PointMetric | None = None) -> DoubleForm:
    """Metric trace pairing one left with one right slot (adjoint of g-wedge)."""
    if a.p < 1 or a.q < 1:
        raise DegreeError("contraction needs p >= 1 and q >= 1")
    TL = interior_tensor(a.n, a.p)
    TR = interior_tensor(a.n, a.q)
    # iota_k on the left block, as one matmul: (..., k, a, B)
    comps = (TL.reshape(-1, TL.shape[-1]) @ a.comps).reshape(
        a.comps.shape[:-2] + TL.shape[:2] + a.comps.shape[-1:])
    if G is not None:  # pair k with l through G^-1
        comps = np.einsum("...kl,...kaB->...laB", np.linalg.inv(G.G), comps)
    # iota_l on the right block, summed over l
    comps = (comps @ np.swapaxes(TR, -1, -2)).sum(axis=-3)
    return DoubleForm(a.n, a.p - 1, a.q - 1, comps)


def inner(a: DoubleForm, b: DoubleForm, G: PointMetric | None = None) -> np.ndarray:
    """Tensor-product scalar product of two double forms of equal bidegree.

    With a metric, both blocks of `a` are raised: C_p(G^-1) a C_q(G^-1)^T.
    """
    _same_degree(a, b)
    comps = a.comps
    if G is not None:
        Ginv = np.linalg.inv(G.G)
        comps = (compound_matrix(Ginv, a.p) @ comps
                 @ np.swapaxes(compound_matrix(Ginv, a.q), -1, -2))
    return np.einsum("...ij,...ij->...", comps, b.comps)


def interior(X: np.ndarray, a: DoubleForm, side: str = "left") -> DoubleForm:
    """Insert the vector X into the first slot of the chosen block."""
    X = np.asarray(X, dtype=float)
    if side == "left":
        if a.p < 1:
            raise DegreeError("left interior product needs p >= 1")
        T = interior_tensor(a.n, a.p)
        comps = np.einsum("...k,kaA,...Aj->...aj", X, T, a.comps)
        return DoubleForm(a.n, a.p - 1, a.q, comps)
    if side == "right":
        if a.q < 1:
            raise DegreeError("right interior product needs q >= 1")
        T = interior_tensor(a.n, a.q)
        comps = np.einsum("...k,kbB,...iB->...ib", X, T, a.comps)
        return DoubleForm(a.n, a.p, a.q - 1, comps)
    raise ValueError("side must be 'left' or 'right'")


def _insert_left(n: int, p: int, stacked: np.ndarray) -> np.ndarray:
    """-sum_k dx^k owedge stacked[k] for stacked of shape (..., n, C(n,p), Cq).

    Row I of degree p + 1 gathers stacked[k, I minus k] for each k in I, one
    split of the shuffle table each, and adds the signed splits in ascending k.
    """
    if p + 1 > n:
        raise DegreeError(f"degree overflow: left degree {p}+1 exceeds n={n}")
    k, rest, sign = shuffle_table(n, 1, p)
    sign = -sign[:, :, None]
    gathered = stacked[..., k, rest, :]  # (..., C(n,p+1), p+1, Cq)
    out = sign[:, 0] * gathered[..., 0, :]
    for j in range(1, p + 1):
        out = out + sign[:, j] * gathered[..., j, :]
    return out


def _insert_right(n: int, q: int, stacked: np.ndarray) -> np.ndarray:
    """-sum_k stacked[k] owedge dx~^k for stacked of shape (..., n, Cp, C(n,q)).

    The mirror gather of `_insert_left`; dx~^k sits behind the q right slots,
    hence the (-1)^q on the split signs.
    """
    if q + 1 > n:
        raise DegreeError(f"degree overflow: right degree {q}+1 exceeds n={n}")
    k, rest, sign = shuffle_table(n, 1, q)
    sign = -float((-1) ** q) * sign
    gathered = np.swapaxes(stacked, -3, -2)[..., k, rest]  # (..., Cp, C(n,q+1), q+1)
    out = sign[:, 0] * gathered[..., 0]
    for j in range(1, q + 1):
        out = out + sign[:, j] * gathered[..., j]
    return out


def bianchi(a: DoubleForm, side: str = "left") -> DoubleForm:
    """Bianchi alternation map; zero on (p,0) (left) and (0,q) (right) by convention.

    Left: -sum_k dx^k owedge (iota_{e_k} on the right block); right: the mirror
    image.  Each entry of the interior product has at most one term, so it is
    a signed scatter through the shuffle table, followed by the insertion.
    """
    n = a.n
    if side == "left":
        if a.q == 0:
            return zero_form(n, a.p, 0, a.batch_shape)
        k, rest, sign = shuffle_table(n, 1, a.q - 1)
        contracted = np.zeros(a.comps.shape[:-1] + (n, comb(n, a.q - 1)))
        contracted[..., k, rest] = sign * a.comps[..., None]  # (..., A, k, b)
        contracted = np.swapaxes(contracted, -2, -3)
        return DoubleForm(n, a.p + 1, a.q - 1, _insert_left(n, a.p, contracted))
    if side == "right":
        if a.p == 0:
            return zero_form(n, 0, a.q, a.batch_shape)
        k, rest, sign = shuffle_table(n, 1, a.p - 1)
        contracted = np.zeros(a.batch_shape + (n, comb(n, a.p - 1), comb(n, a.q)))
        contracted[..., k, rest, :] = sign[:, :, None] * a.comps[..., None, :]
        return DoubleForm(n, a.p - 1, a.q + 1, _insert_right(n, a.q, contracted))
    raise ValueError("side must be 'left' or 'right'")


def derivation_action(A: np.ndarray, a: DoubleForm) -> DoubleForm:
    """Extend the matrix A as a derivation over both blocks of `a`.

    Replaces each argument slot e_i by A e_i and sums; this is the component
    form of connection corrections and Lie-algebra actions.
    """
    parts = []
    if a.p >= 1:
        WL = derivation_tensor(a.n, a.p)
        parts.append(np.einsum("IJmi,...mi,...Jq->...Iq", WL, A, a.comps))
    if a.q >= 1:
        WR = derivation_tensor(a.n, a.q)
        parts.append(np.einsum("IJmi,...mi,...pJ->...pI", WR, A, a.comps))
    if not parts:
        return zero_form(a.n, 0, 0, a.batch_shape)
    return DoubleForm(a.n, a.p, a.q, sum(parts))


def evaluate(a: DoubleForm, xs, ys) -> np.ndarray:
    """Evaluate on tuples of vectors (multilinear antisymmetric extension).

    `xs` is a sequence of p vectors, `ys` of q vectors (each of length n, or
    batched).  Uses the determinant convention on each block.
    """
    def block_dets(vectors, p):
        if p == 0:
            return np.ones(1)
        V = np.stack([np.asarray(v, dtype=float) for v in vectors], axis=-2)
        return compound_matrix(V, p)[..., 0, :]

    dL = block_dets(xs, a.p)
    dR = block_dets(ys, a.q)
    return np.einsum("...i,...ij,...j->...", dL, a.comps, dR)
