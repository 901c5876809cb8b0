"""Pointwise double forms: bidegree-(p,q) antisymmetric tensors and their algebra.

A double form of bidegree (p, q) in dimension n is stored densely over pairs
of strictly increasing multi-indices, with component array shape
``batch + (C(n,p), C(n,q))``; all operations broadcast over leading batch
axes.  Products use the determinant convention (shuffle sums, no factorial
division), which is pinned by the identity ``star(g^k) = k!/(n-k)! g^(n-k)``.
The wedge, the flat Hodge star, the dx-insertions behind D and D~ and the
one interior-product primitive `_interiors` read the signed splits of
`multiindex.shuffle_table` as gathers; `contract`, `interior`, the Bianchi
maps and `derivation_action` are built from `_interiors` and the
insertions, and no dense product, star or interior-product matrix is
formed.  The wedge gathers from copies of its operands with the batch axes
last, so each gathered entry is one contiguous row over the batch.  A
gathered product within `CHUNK_DOUBLES` is formed whole and summed by one
einsum; a larger one is summed one split pair at a time into an
output-sized accumulator and is never formed.  The flux chunks of
`invariants` are sized from the same budget.

Metric-dependent operations take a :class:`PointMetric` G and use no frame:
they raise the left block with the compound matrix of G^-1, apply the
identity-metric operation, and lower the right block once with a compound
matrix of G.  Interior products and the Bianchi maps do not depend on the
metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod

import numpy as np

from .multiindex import compound_matrix, shuffle_table

# doubles a gathered wedge product, or a flux chunk in `invariants`, may hold
# (2 MiB)
CHUNK_DOUBLES = 2 ** 18

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
    """Kulkarni-Nomizu product: blockwise determinant-convention wedge.

    Row (K, J) sums sL[K, s] sR[J, t] a[I_s, I'_t] b[K - I_s, J - I'_t] over
    the splits s of K and t of J.  When the gathered product, (K, s, J, t)
    times the batch, fits in `CHUNK_DOUBLES`, it is formed whole and summed
    by one einsum.  Above that the splits are summed one (s, t) pair at a
    time, s-major and t-minor, into one output-sized accumulator: each term
    is gathered from the rows of split s, signed and added.  Batched
    operands gave the einsum's bits on every pair tested; an unbatched pair
    can differ in the last bits, as the einsum then orders its sum itself.
    """
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
    A, B = _batch_last(a.comps, nb), _batch_last(b.comps, nb)
    batch = np.broadcast_shapes(a.batch_shape, b.batch_shape)
    if sL.size * sR.size * prod(batch) <= CHUNK_DOUBLES:
        gathered = (A[lL[:, :, None, None], lR[None, None]]
                    * B[rL[:, :, None, None], rR[None, None]])
        comps = np.einsum("KsJt...,Ks,Jt->KJ...", gathered, sL, sR)
    else:
        comps = np.zeros((len(lL), len(lR)) + batch)
        # A's terms carry the full batch, so B's multiply into them in place
        A = np.broadcast_to(A, A.shape[:2] + batch)
        rows, cols = (-1,) + (1,) * (nb + 1), (1, -1) + (1,) * nb
        for s in range(sL.shape[1]):
            As, Bs = A[lL[:, s]] * sL[:, s].reshape(rows), B[rL[:, s]]
            for t in range(sR.shape[1]):
                term = np.take(As, lR[:, t], axis=1)
                term *= np.take(Bs, rR[:, t], axis=1)
                term *= sR[:, t].reshape(cols)
                comps += term
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
    return DoubleForm(a.n, a.q, a.p, _transposed(a.comps))


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
    n = a.n
    comps = _interiors(n, a.p, a.comps)  # iota_k on the left block: (..., k, a, B)
    if G is not None:  # pair k with l through G^-1
        comps = np.einsum("...kl,...kaB->...laB", np.linalg.inv(G.G), comps)
    # iota_l on the right block of slice l, summed over l; numpy's order of
    # summation follows the memory layout, so the buffer is C-contiguous
    traced = np.empty(comps.shape[:-1] + (comb(n, a.q - 1),))
    for l in range(n):
        right = _interiors(n, a.q, _transposed(comps[..., l, :, :]), l)
        traced[..., l, :, :] = _transposed(right)
    return DoubleForm(n, a.p - 1, a.q - 1, traced.sum(axis=-3))


def inner(a: DoubleForm, b: DoubleForm, G: PointMetric | None = None) -> np.ndarray:
    """Tensor-product scalar product of two double forms of equal bidegree.

    With a metric, both blocks of `a` are raised: C_p(G^-1) a C_q(G^-1)^T.
    """
    _same_degree(a, b)
    comps = a.comps
    if G is not None:
        Ginv = np.linalg.inv(G.G)
        comps = (compound_matrix(Ginv, a.p) @ comps
                 @ _transposed(compound_matrix(Ginv, a.q)))
    return np.einsum("...ij,...ij->...", comps, b.comps)


def interior(X: np.ndarray, a: DoubleForm, side: str = "left") -> DoubleForm:
    """Insert the vector X into the first slot of the chosen block."""
    X = np.asarray(X, dtype=float)
    if side == "left":
        if a.p < 1:
            raise DegreeError("left interior product needs p >= 1")
        comps = np.einsum("...k,...kaj->...aj", X, _interiors(a.n, a.p, a.comps))
        return DoubleForm(a.n, a.p - 1, a.q, comps)
    if side == "right":
        if a.q < 1:
            raise DegreeError("right interior product needs q >= 1")
        comps = np.einsum("...k,...kbi->...ib", X,
                          _interiors(a.n, a.q, _transposed(a.comps)))
        return DoubleForm(a.n, a.p, a.q - 1, comps)
    raise ValueError("side must be 'left' or 'right'")


@lru_cache(maxsize=None)
def _interior_table(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The splits of `shuffle_table(n, 1, p - 1)` by k: positions and signs
    of shape (n, C(n, p-1)), entry [k, J] locating k + J among the p-indices
    with the merge sign of (k, J), and sign 0 where k is in J."""
    k, rest, sign = shuffle_table(n, 1, p - 1)
    pos = np.zeros((n, comb(n, p - 1)), dtype=np.intp)
    signs = np.zeros(pos.shape)
    pos[k, rest] = np.arange(comb(n, p))[:, None]
    signs[k, rest] = sign
    for t in (pos, signs):  # every caller shares the cached table
        t.flags.writeable = False
    return pos, signs


def _interiors(n: int, p: int, comps: np.ndarray,
               k: int | slice = slice(None)) -> np.ndarray:
    """iota_{e_k} on the left block of comps (..., C(n,p), Cq), every k at once.

    Returns (..., n, C(n,p-1), Cq), or (..., C(n,p-1), Cq) for one integer
    k: each entry is one signed gather, as no two splits share (k, J).  The
    right block is the same call on `_transposed` components; the gather
    reads strided views in place.
    """
    pos, signs = _interior_table(n, p)
    out = comps[..., pos[k], :]
    out *= signs[k][..., None]
    return out


def _transposed(comps: np.ndarray) -> np.ndarray:
    return np.swapaxes(comps, -1, -2)


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
    image.  Each is the interior products of one block followed by the
    insertion into the other.
    """
    n = a.n
    if side == "left":
        if a.q == 0:
            return zero_form(n, a.p, 0, a.batch_shape)
        contracted = _transposed(_interiors(n, a.q, _transposed(a.comps)))
        return DoubleForm(n, a.p + 1, a.q - 1, _insert_left(n, a.p, contracted))
    if side == "right":
        if a.p == 0:
            return zero_form(n, 0, a.q, a.batch_shape)
        return DoubleForm(n, a.p - 1, a.q + 1,
                          _insert_right(n, a.q, _interiors(n, a.p, a.comps)))
    raise ValueError("side must be 'left' or 'right'")


def derivation_action(A: np.ndarray, a: DoubleForm) -> DoubleForm:
    """Extend the matrix A as a derivation over both blocks of `a`.

    Replaces each argument slot e_i by A e_i and sums; this is the component
    form of connection corrections and Lie-algebra actions.  On a block of
    degree p it is sum_i dx^i owedge iota_{A e_i}: the interior products
    iota_{e_m}, one batched product with A^T over m, then the insertion.
    """
    n = a.n
    At = _transposed(np.asarray(A, dtype=float))

    def left(comps, p):
        iotas = _interiors(n, p, comps)  # (..., m, C(n,p-1), Cq)
        stacked = At @ iotas.reshape(iotas.shape[:-2] + (-1,))
        stacked = stacked.reshape(stacked.shape[:-1] + iotas.shape[-2:])
        return -_insert_left(n, p - 1, stacked)  # sum_i dx^i owedge stacked[i]

    comps = np.zeros(a.comps.shape)
    if a.p >= 1:
        comps = comps + left(a.comps, a.p)
    if a.q >= 1:
        comps = comps + _transposed(left(_transposed(a.comps), a.q))
    return DoubleForm(n, a.p, a.q, comps)


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
