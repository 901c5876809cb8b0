from itertools import product as iter_product

import numpy as np

from asymflat.chartchange import make_diffeo, pullback_metric, zeta_harmonic
from asymflat.curvature import (
    Jet,
    _christoffel_d1_from_jets,
    _christoffel_from_jets,
    _riemann_partial_d1_from_jets,
)
from asymflat.dforms import DoubleForm, metric_form, wedge
from asymflat.fields import (
    MetricField,
    TensorRadialPoly,
    make_rt_perturbation,
    make_schwarzschild,
)


# ---------------------------------------------------------------------------
# dense Riemann reference: the full n^4 array, raised with an n^6 einsum
# ---------------------------------------------------------------------------

def riemann_from_jets_dense(G, d1, d2):
    """Lowered curvature array R[..., i, j, k, l] from the metric jets.

    The overall sign is fixed so that the round sphere has positive values
    on (e_i, e_j; e_i, e_j), i.e. R = (lambda/2) g owedge g with lambda > 0.
    """
    gam = _christoffel_from_jets(G, d1)
    # second-derivative part: 1/2 (d_i d_l g_jk + d_j d_k g_il - d_i d_k g_jl - d_j d_l g_ik)
    dd = 0.5 * (np.einsum("...iljk->...ijkl", d2) + np.einsum("...jkil->...ijkl", d2)
                - np.einsum("...ikjl->...ijkl", d2) - np.einsum("...jlik->...ijkl", d2))
    quad = np.einsum("...ab,...ail,...bjk->...ijkl", G, gam, gam, optimize=True) \
        - np.einsum("...ab,...aik,...bjl->...ijkl", G, gam, gam, optimize=True)
    return dd + quad


def riemann_array_dense(g, x):
    """Lowered curvature array of the metric field g at x."""
    return riemann_from_jets_dense(*g.jet(x, 2))


def raise_left_dense(Ginv, R):
    """R# = g^-1 g^-1 R on the first index pair of the full array."""
    return np.einsum("...ai,...bj,...ijkl->...abkl", Ginv, Ginv, R, optimize=True)


# ---------------------------------------------------------------------------
# plain partials of the connection and the curvature, and the Leibniz rule
# on covariant jets: references for the jet paths of `curvature`
# ---------------------------------------------------------------------------

def christoffel_d1(g, x):
    """Partial derivatives d_k Gamma^a_ij, shape (..., k, a, i, j)."""
    return _christoffel_d1_from_jets(*g.jet(x, 2))


def riemann_partial_d1(g, x):
    """Plain partial derivatives d_m R[i,j,k,l], shape (..., m, n, n, n, n)."""
    G, d1, d2, d3 = g.jet(x, 3)
    return _riemann_partial_d1_from_jets(G, d1, d2, d3, _christoffel_from_jets(G, d1))


def jet_wedge(a, b):
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


def metric_jet(n, G=None, depth=1, batch_shape=()):
    """The metric as a covariantly constant (1,1) jet."""
    comps = metric_form(n, G).comps
    comps = np.broadcast_to(comps, batch_shape + comps.shape[-2:]).copy()
    levels = [comps]
    for m in range(1, depth + 1):
        levels.append(np.zeros(batch_shape + (n,) * m + comps.shape[-2:]))
    return Jet(n, 1, 1, levels)


# ---------------------------------------------------------------------------
# dense pullback reference: chain rule and Leibniz rule as one einsum per
# term and slot assignment
# ---------------------------------------------------------------------------

_LETTERS = "uvst"


def phi_jets_dense(phi, x, depth):
    """[J1, ..., J_{depth+1}] with J_m[..., k_1..k_{m-1}, i, a] = d..d_i Phi^a."""
    n = phi.n
    x = np.asarray(x, dtype=float)
    z1 = phi.zeta_jet(x, 1)
    J = [np.einsum("ac,...ic->...ia", phi.Q,
                   np.broadcast_to(np.eye(n), z1.shape) + z1)]
    for m in range(2, depth + 2):
        J.append(np.einsum("ac,...c->...a", phi.Q, phi.zeta_jet(x, m)))
    return J


def compose_jets_dense(gj, J):
    """Partials of g pulled through Phi (Faa di Bruno to order 3)."""
    depth = len(gj) - 1
    G = [gj[0]]
    if depth >= 1:
        G.append(np.einsum("...cab,...kc->...kab", gj[1], J[0]))
    if depth >= 2:
        G.append(np.einsum("...cdab,...kc,...ld->...klab", gj[2], J[0], J[0],
                           optimize=True)
                 + np.einsum("...cab,...klc->...klab", gj[1], J[1]))
    if depth >= 3:
        gd1, gd2, gd3 = gj[1:]
        J1, J2, J3 = J[:3]
        term = np.einsum("...cdeab,...kc,...ld,...me->...klmab",
                         gd3, J1, J1, J1, optimize=True)
        mixed = np.einsum("...cdab,...klc,...md->...klmab", gd2, J2, J1,
                          optimize=True)
        term = term + mixed
        term = term + np.swapaxes(mixed, -4, -3)
        term = term + np.moveaxis(mixed, -3, -5)
        term = term + np.einsum("...cab,...klmc->...klmab", gd1, J3)
        G.append(term)
    return G


def leibniz_terms_dense(order, jets, core_specs, out_core):
    """Total derivative of an einsum product, one einsum per ordered
    assignment of the `order` derivative slots to the factors."""
    nfac = len(jets)
    total = None
    for assign in iter_product(range(nfac), repeat=order):
        counts = [0] * nfac
        labels = [[] for _ in range(nfac)]
        for slot, f in enumerate(assign):
            counts[f] += 1
            labels[f].append(_LETTERS[slot])
        operands = [jets[f][counts[f]] for f in range(nfac)]
        specs = ["..." + "".join(labels[f]) + core_specs[f] for f in range(nfac)]
        out = "..." + "".join(_LETTERS[:order]) + out_core
        term = np.einsum(",".join(specs) + "->" + out, *operands, optimize=True)
        total = term if total is None else total + term
    return total


def pullback_jet_dense(gp, x, order):
    """[Phi* g, d(Phi* g), ...] to `order` from the dense chain and Leibniz rules."""
    x = np.asarray(x, dtype=float)
    J = phi_jets_dense(gp.phi, x, order)
    G = compose_jets_dense(gp.base.jet(gp.phi.apply(x), order), J)
    jets = [J[:order + 1], G, J[:order + 1]]
    return [leibniz_terms_dense(m, jets, ["ia", "ab", "jb"], "ij")
            for m in range(order + 1)]


def curvature_cases(n):
    """Translated Schwarzschild at every k with n > 2k, a mixed-parity RT
    perturbation and a harmonic-zeta pullback, in dimension n."""
    center = np.linspace(0.3, -0.2, n)
    cases = [make_schwarzschild(n, k, 1.0, center=center) for k in range(1, (n + 1) // 2)]
    cases.append(make_rt_perturbation(n, 1.0, seed=2, parity="mixed", amplitude=0.3))
    phi = make_diffeo(zeta=zeta_harmonic(n, 0.2, 1.6), tau_prime=1.6, n=n)
    cases.append(pullback_metric(phi, make_schwarzschild(n, 1, 1.0)))
    return cases


def points_at_radii(n, shape, seed=0):
    """Points of batch shape `shape` at radii between 4 and 9."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape + (n,))
    return x * (rng.uniform(4.0, 9.0, shape + (1,)) / np.linalg.norm(x, axis=-1, keepdims=True))


class RoundSphereChart(MetricField):
    """Stereographic chart of the round n-sphere of radius a.

    g = (4 a^4 / (a^2 + |x|^2)^2) delta, with constant sectional
    curvature 1/a^2, so R = (1/(2 a^2)) g owedge g in the packed convention.
    """

    def __init__(self, n: int, a: float = 1.0):
        self.n = n
        self.a = a
        self.tau = 2.0
        self.r_min = 0.0

    def _psi(self, x, order):
        r2 = np.sum(x**2, axis=-1)
        base = self.a**2 + r2
        psi = 4.0 * self.a**4 / base**2
        if order == 0:
            return psi
        grad = -4.0 * psi[..., None] * x / base[..., None]
        if order == 1:
            return grad
        eye = np.eye(self.n)
        hess = (-4.0 * psi / base)[..., None, None] * eye \
            + (24.0 * psi / base**2)[..., None, None] \
            * np.einsum("...i,...j->...ij", x, x)
        return hess

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        return self._psi(x, 0)[..., None, None] * np.eye(self.n)

    def d1(self, x):
        x = np.asarray(x, dtype=float)
        return np.einsum("...k,ij->...kij", self._psi(x, 1), np.eye(self.n))

    def d2(self, x):
        x = np.asarray(x, dtype=float)
        return np.einsum("...kl,ij->...klij", self._psi(x, 2), np.eye(self.n))


class CountingMetric(MetricField):
    """A metric that delegates to `base` and counts its eval/d1/d2/d3 calls."""

    def __init__(self, base: MetricField):
        self.base = base
        self.n, self.tau, self.r_min = base.n, base.tau, base.r_min
        self.calls = dict.fromkeys(("eval", "d1", "d2", "d3"), 0)

    def _call(self, name, x):
        self.calls[name] += 1
        return getattr(self.base, name)(x)

    def eval(self, x):
        return self._call("eval", x)

    def d1(self, x):
        return self._call("d1", x)

    def d2(self, x):
        return self._call("d2", x)

    def d3(self, x):
        return self._call("d3", x)


# ---------------------------------------------------------------------------
# term-by-term radial polynomial reference: one dict of (alpha, beta) -> c per
# tensor entry, derived entry by entry and axis by axis, then compiled into
# the (alphas, betas, coeff) table in first-seen monomial order
# ---------------------------------------------------------------------------

class RadialPoly:
    """Finite sums  c * x^alpha * |x|^beta  (beta real) as a dict of terms."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        # dict keys are already unique: only the zero coefficients go
        self.terms = {key: c for key, c in terms.items() if c != 0.0} if terms else {}

    @classmethod
    def monomial(cls, n: int, alpha, beta: float, coeff: float = 1.0) -> "RadialPoly":
        return cls(n, {(tuple(alpha), float(beta)): coeff})

    @classmethod
    def zero(cls, n: int) -> "RadialPoly":
        return cls(n)

    def __add__(self, other: "RadialPoly") -> "RadialPoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + c
        return RadialPoly(self.n, out)

    def deriv(self, i: int) -> "RadialPoly":
        out: dict = {}
        for (alpha, beta), c in self.terms.items():
            if alpha[i] > 0:
                a = list(alpha)
                a[i] -= 1
                key = (tuple(a), beta)
                out[key] = out.get(key, 0.0) + c * alpha[i]
            if beta != 0.0:
                a = list(alpha)
                a[i] += 1
                key = (tuple(a), beta - 2.0)
                out[key] = out.get(key, 0.0) + c * beta
        return RadialPoly(self.n, out)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        out = np.zeros(x.shape[:-1])
        for (alpha, beta), c in self.terms.items():
            term = np.full(x.shape[:-1], c)
            for i, a in enumerate(alpha):
                if a:
                    term = term * x[..., i] ** a
            if beta != 0.0:
                term = term * r**beta
            out = out + term
        return out


def accumulated_terms(terms):
    """The constructor before it relied on dict keys being unique: every
    coefficient was added into a fresh dict."""
    out = {}
    for key, c in terms.items():
        if c != 0.0:
            out[key] = out.get(key, 0.0) + c
    return out


def reference_deriv(terms, i):
    """d_i of a dict of terms, written out without `RadialPoly`."""
    out = {}
    for (alpha, beta), c in terms.items():
        if alpha[i] > 0:
            a = list(alpha)
            a[i] -= 1
            key = (tuple(a), beta)
            out[key] = out.get(key, 0.0) + c * alpha[i]
        if beta != 0.0:
            a = list(alpha)
            a[i] += 1
            key = (tuple(a), beta - 2.0)
            out[key] = out.get(key, 0.0) + c * beta
    return accumulated_terms(out)


def reference_terms(T: TensorRadialPoly) -> np.ndarray:
    """The object array of RadialPolys that the table T holds."""
    arr = np.empty(T.shape, dtype=object)
    flat = arr.reshape(-1)
    for e, row in enumerate(T.coeff):
        flat[e] = RadialPoly(T.n, {(tuple(int(a) for a in alpha), float(beta)): float(c)
                                   for alpha, beta, c in zip(T.alphas, T.betas, row)})
    return arr


def reference_deriv_array(arr: np.ndarray, n: int) -> np.ndarray:
    """Gradient of an object array of RadialPolys: new leading axis of length n."""
    out = np.empty((n,) + arr.shape, dtype=object)
    for k in range(n):
        for idx in np.ndindex(arr.shape):
            out[(k,) + idx] = arr[idx].deriv(k)
    return out


def compile_terms(arr: np.ndarray, n: int):
    """(alphas, betas, coeff) of an object array of RadialPolys, with the
    monomial columns in the order the entries first name them."""
    keys: dict = {}
    flat = arr.reshape(-1)
    for poly in flat:
        for key in poly.terms:
            keys.setdefault(key, len(keys))
    coeff = np.zeros((flat.size, len(keys)))
    for e, poly in enumerate(flat):
        for key, c in poly.terms.items():
            coeff[e, keys[key]] = c
    alphas = np.zeros((len(keys), n), dtype=int)
    betas = np.zeros(len(keys))
    for (alpha, beta), m in keys.items():
        alphas[m] = alpha
        betas[m] = beta
    return alphas, betas, coeff


def reference_deriv_table(T: TensorRadialPoly) -> TensorRadialPoly:
    """T.deriv() rebuilt term by term, as a new table."""
    arr = reference_deriv_array(reference_terms(T), T.n)
    return TensorRadialPoly(T.n, arr.shape, *compile_terms(arr, T.n))


def derived_depth(T: TensorRadialPoly) -> int:
    """How many derivative orders of T have been built so far."""
    depth = 0
    while T._deriv is not None:
        T, depth = T._deriv, depth + 1
    return depth
