"""Sphere quadrature, asymptotic-invariant integrands, extrapolation to
infinity, and the normalizing constants of the invariant family.

All stars, wedges, and exterior derivatives in the flux integrands are
Euclidean; only the curvature form R = R^g carries the metric.  The
normalizing constants are closed forms (`calibration_constants`);
`measure_calibration` re-measures them against the generalized
Schwarzschild family.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, product

import numpy as np

from .dforms import DoubleForm, coform, hodge, wedge, wedge_power
from .curvature import _riemann_packed, d_right_comps
from .fields import MetricField
from .gbc import GBCContext, lovelock
from .kernels import center_kernel, mass_kernel

__all__ = [
    "SphereRule",
    "InvariantResult",
    "sphere_volume",
    "sphere_rule",
    "mass_integrand",
    "mass_integrand_alt",
    "adm_integrand_coordinate",
    "center_integrand",
    "center_integrand_alt",
    "curvature_center_integrand",
    "integrate_sphere",
    "decay_exponents",
    "extrapolate",
    "gbc_mass",
    "adm_mass_coordinate",
    "gbc_center",
    "gbc_mass_center",
    "curvature_center",
    "calibration_constants",
    "measure_calibration",
]


# ---------------------------------------------------------------------------
# sphere quadrature
# ---------------------------------------------------------------------------

def sphere_volume(n: int) -> float:
    """Volume of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass
class SphereRule:
    """Quadrature rule on the coordinate sphere of radius r in R^n, exact for
    polynomials of degree 2 * level - 1 (see `sphere_rule`)."""

    n: int
    r: float
    level: int
    points: np.ndarray   # (N, n)
    weights: np.ndarray  # (N,), includes the surface element
    normals: np.ndarray  # (N, n), outward Euclidean unit normals


@lru_cache(maxsize=None)
def _jacobi_rule(level: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule of `level` nodes for the weight (1 - u^2)^a on [-1, 1].

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the zero-diagonal Jacobi matrix of the monic recurrence
    p_{j+1} = u p_j - beta_j p_{j-1}, with
    beta_j = j (j + 2a) / ((2j + 2a + 1) (2j + 2a - 1)), and the weights are
    the squared first components of its eigenvectors times the weight's mass
    mu_0 = 2^(2a+1) Gamma(a+1)^2 / Gamma(2a+2); both are symmetrized.
    Cached read-only.
    """
    j = np.arange(1, level, dtype=float)
    off = np.sqrt(j * (j + 2 * a) / ((2 * j + 2 * a + 1) * (2 * j + 2 * a - 1)))
    u, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 ** (2 * a + 1) * math.gamma(a + 1) ** 2 / math.gamma(2 * a + 2) * v[0] ** 2
    u = (u - u[::-1]) / 2
    w = (w + w[::-1]) / 2
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


def _tensor_unit_rule(n: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product rule on S^{n-1}, 2 * level^(n-1) nodes, polar-major.

    x_1 = u takes the `level` nodes of the Gauss-Jacobi rule for
    (1 - u^2)^((n-3)/2) (`_jacobi_rule`), and the other coordinates are
    sqrt(1 - u^2) times the rule on S^{n-2}; the recursion ends at 2 * level
    equispaced azimuths on S^1 (exact for trigonometric degree < 2 * level).
    """
    if n == 2:
        phi = (math.pi / level) * np.arange(2 * level)
        x = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        return x, np.full(2 * level, math.pi / level)
    u, wu = _jacobi_rule(level, (n - 3) / 2.0)
    y, wy = _tensor_unit_rule(n - 1, level)
    s = np.sqrt(np.maximum(1.0 - u * u, 0.0))
    x = np.concatenate([np.repeat(u, len(wy))[:, None],
                        (s[:, None, None] * y).reshape(-1, n - 1)], axis=1)
    return x, np.outer(wu, wy).reshape(-1)


def _symmetric_weight(n: int, m: int, parts: tuple) -> float:
    """Weight of the nodes of partition `parts` (its nonzero entries) in the
    degree-(2m+1) fully symmetric rule on the unit sphere S^{n-1}, as a
    fraction of the sphere's volume.

    With t = x_i^2 and u_j^2 = j / m, the interpolation factor of entry k is
    p_k(t) = prod_{j<k} (m t - j) / k!.  Sphere moments factor as
    mean(x^(2a)) = prod_i (2 a_i - 1)!! / prod_{j<|a|} (n + 2 j), so the
    mean of prod_i p_{k_i}(x_i^2) is one product of integer polynomials,
    whose degree-s coefficient is divided by n (n + 2) ... (n + 2s - 2).
    The weight is 2^(-K) times that mean; the sums are exact integers and
    the one division rounds correctly.
    """
    prod = [1]
    for k in parts:
        c = [1]  # prod_{j<k} (m t - j), lowest power first
        for j in range(k):
            c = [m * hi - j * lo for hi, lo in zip([0] + c, c + [0])]
        q = [ca * math.prod(range(1, 2 * a, 2)) for a, ca in enumerate(c)]
        prod = [sum(p * q[s - i] for i, p in enumerate(prod) if 0 <= s - i <= k)
                for s in range(len(prod) + k)]
    num = sum(ps * math.prod(range(n + 2 * s, n + 2 * m, 2)) for s, ps in enumerate(prod))
    den = (math.prod(range(n, n + 2 * m, 2)) * 2 ** len(parts)
           * math.prod(math.factorial(k) for k in parts))
    return num / den


def _symmetric_unit_rule(n: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Genz's fully symmetric interpolatory rule of degree 2*level - 1 on S^{n-1}.

    With m = level - 1 and u_j = sqrt(j / m), the nodes are every sign change
    of (u_{k_1}, ..., u_{k_n}) for every k in N^n with |k| = m (each
    permutation of each partition of m into at most n parts), and the nodes
    of one partition share one weight (`_symmetric_weight`).  Weights can be
    negative: sum|w| / sum w is 1.29 at n = 5, level 3 and 11.1 at n = 8,
    level 8.  A. Genz, J. Comput. Appl. Math. 157 (2003) 187-195; Stroud,
    *Approximate Calculation of Multiple Integrals*, 1971, ch. 7.
    """
    m = level - 1
    u = np.sqrt(np.arange(m + 1) / m)
    weight = {}
    xs, ws = [], []
    for bars in combinations(range(m + n - 1), n - 1):  # k by stars and bars
        k = np.diff((-1,) + bars + (m + n - 1,)) - 1
        nz = np.flatnonzero(k)
        parts = tuple(sorted(k[nz].tolist()))
        if parts not in weight:
            weight[parts] = _symmetric_weight(n, m, parts)
        signs = np.array(list(product((1.0, -1.0), repeat=nz.size)))
        block = np.zeros((signs.shape[0], n))
        block[:, nz] = signs * u[k[nz]]
        xs.append(block)
        ws.append(np.full(signs.shape[0], weight[parts]))
    return np.concatenate(xs), sphere_volume(n) * np.concatenate(ws)


@lru_cache(maxsize=None)
def _unit_rule(n: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only unit-sphere nodes and weights of `sphere_rule`, built once
    per (n, level)."""
    x, w = (_tensor_unit_rule if n <= 4 else _symmetric_unit_rule)(n, level)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=64)
def sphere_rule(n: int, r: float, level: int) -> SphereRule:
    """Rule of degree 2*level - 1 on the coordinate sphere of radius r.

    At n >= 5 it is Genz's fully symmetric rule (`_symmetric_unit_rule`),
    which reaches the degree from far fewer nodes: 170 against 512 at n = 5,
    level 4.  At n = 3 it saves nothing (66 against 50 nodes at level 5) and
    at n = 4 little (88 against 128 at level 4), so the tensor-product Gauss
    rule serves there (`_tensor_unit_rule`, 2 * level^(n-1) nodes: one
    Golub-Welsch eigendecomposition per polar cosine, and a recursion over
    the dimension).  The unit rule is built once per (n, level) and scaled by
    r (nodes) and r^(n-1) (weights).
    """
    if not 3 <= n <= 8:
        raise ValueError(f"sphere_rule supports 3 <= n <= 8, got {n}")
    if level < 2:
        raise ValueError("level must be >= 2")
    normals, w = _unit_rule(n, level)
    return SphereRule(n, float(r), level, r * normals, (r ** (n - 1)) * w, normals)


def integrate_sphere(rule: SphereRule, f, chunk: int = 2048):
    """Deterministic chunked quadrature with compensated final summation.

    `f(xs, nus)` returns one value per node, or a row of values per node for
    a vector integrand; each component is summed with `math.fsum`.  Returns
    a float, or an array of the integrand's trailing shape.
    """
    partials = []
    N = rule.points.shape[0]
    for s in range(0, N, chunk):
        xs = rule.points[s:s + chunk]
        nus = rule.normals[s:s + chunk]
        vals = np.asarray(f(xs, nus), dtype=float)
        w = rule.weights[s:s + chunk]
        partials.append(w.reshape(w.shape + (1,) * (vals.ndim - 1)) * vals)
    terms = np.concatenate(partials)
    if terms.ndim == 1:
        return math.fsum(terms.tolist())
    sums = [math.fsum(col) for col in terms.reshape(N, -1).T.tolist()]
    return np.array(sums).reshape(terms.shape[1:])


# ---------------------------------------------------------------------------
# flux integrands
# ---------------------------------------------------------------------------

def _flux_integrands(g: MetricField, x: np.ndarray, nu: np.ndarray,
                     ctx: GBCContext, center: bool) -> np.ndarray:
    """Mass flux scalar, then (when `center`) the n center fluxes, shape (..., 1 + n).

    The metric is read through one `jet` call; the folded kernels of
    the `kernels` module replace the wedges, stars and pairings of the
    dense reference `_flux_form` / `_center_form`.
    """
    n, k = ctx.n, ctx.k
    x = np.asarray(x, dtype=float)
    nu = np.asarray(nu, dtype=float)
    batch = x.shape[:-1]
    jets = g.jet(x, 1 if k == 1 else 2)
    G, d1 = jets[:2]
    if k == 1:
        P = np.ones(batch + (1,))
    else:
        R = _riemann_packed(*jets)
        P = (R if k == 2 else wedge_power(R, k - 1)).comps.reshape(batch + (-1,))
    star = mass_kernel(n, k)(d1.reshape(batch + (-1,)), P)
    mass = np.einsum("...i,...i->...", star, nu)
    if not center:
        return mass[..., None]
    e = (G - np.eye(n)).reshape(batch + (-1,))
    second = center_kernel(n, k)(e, P).reshape(batch + (n, n))
    axes = x * mass[..., None] - np.einsum("...ai,...i->...a", second, nu)
    return np.concatenate([mass[..., None], axes], axis=-1)


def _dense_factors(g: MetricField, x: np.ndarray, ctx: GBCContext):
    """G, its first partials and R^{k-1} (None for k = 1) at x from one jet."""
    x = np.asarray(x, dtype=float)
    jets = g.jet(x, 1 if ctx.k == 1 else 2)
    if ctx.k == 1:
        return jets[0], jets[1], None
    R = _riemann_packed(*jets)
    return jets[0], jets[1], wedge_power(R, ctx.k - 1)


def _wedge_tail(form: DoubleForm, W: DoubleForm | None, ctx: GBCContext) -> DoubleForm:
    """form owedge W owedge b^{n-2k}, with W = R^{k-1} left out for k = 1."""
    if W is not None:
        form = wedge(form, W)
    if ctx.n - 2 * ctx.k > 0:
        form = wedge(form, ctx.b_power)
    return form


def _flux_form(g: MetricField, x: np.ndarray, ctx: GBCContext) -> DoubleForm:
    """The (n-1, n) double form D~e owedge R^{k-1} owedge b^{n-2k} at x
    (dense reference of the folded mass kernel)."""
    _, d1, W = _dense_factors(g, x, ctx)
    return _wedge_tail(d_right_comps(ctx.n, 1, 1, d1), W, ctx)


def _pair_normal(form_1_0: DoubleForm, nu: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", form_1_0.comps[..., 0], nu)


def mass_integrand(g: MetricField, x: np.ndarray, nu: np.ndarray,
                   ctx: GBCContext) -> np.ndarray:
    """Flux scalar <*(D~e owedge R^{k-1} owedge b^{n-2k}), nu> (all flat)."""
    return _flux_integrands(g, x, nu, ctx, center=False)[..., 0]


def mass_integrand_alt(g: MetricField, x: np.ndarray, nu: np.ndarray,
                       ctx: GBCContext) -> np.ndarray:
    """Dense reference: the flux via the right block against the volume coform.

    The (n-1, n) flux form factors as phi tensor dvol~; pairing with dvol~
    leaves the (n-1)-form phi whose sphere integral is the flux integral.
    Pointwise this equals <*phi, nu> with the Euclidean star on forms.
    """
    n = ctx.n
    omega = _flux_form(g, x, ctx)
    phi = DoubleForm(n, n - 1, 0, omega.comps)  # right block is 1-dimensional
    star_phi = hodge(phi)
    return _pair_normal(star_phi, np.asarray(nu, dtype=float))


def adm_integrand_coordinate(g: MetricField, x: np.ndarray,
                             nu: np.ndarray) -> np.ndarray:
    """Coordinate ADM integrand (d_i g_ij - d_j g_ii) nu^j."""
    x = np.asarray(x, dtype=float)
    d1 = g.jet(x, 1)[1]
    t1 = np.einsum("...iij->...j", d1)
    t2 = np.einsum("...jii->...j", d1)
    return np.einsum("...j,...j->...", t1 - t2, np.asarray(nu, dtype=float))


def _center_form(g: MetricField, x: np.ndarray, ctx: GBCContext,
                 axis: int) -> np.ndarray:
    """Components of x^i D~e owedge W - D~x^i owedge e owedge W at x."""
    n = ctx.n
    x = np.asarray(x, dtype=float)
    G, d1, W = _dense_factors(g, x, ctx)
    first = _wedge_tail(d_right_comps(n, 1, 1, d1), W, ctx)
    # D~ x^i = -e~_i as a (0,1) form
    dV = np.zeros(x.shape[:-1] + (n,))
    dV[..., axis] = -1.0
    second = wedge(coform(n, dV), DoubleForm(n, 1, 1, G - np.eye(n)))
    return x[..., axis, None, None] * first.comps - _wedge_tail(second, W, ctx).comps


def center_integrand(g: MetricField, x: np.ndarray, nu: np.ndarray,
                     ctx: GBCContext, axis: int | None = None) -> np.ndarray:
    """Two-term flux *(x^i D~e owedge W - D~x^i owedge e owedge W)(nu), W = R^{k-1} owedge b^{n-2k}.

    All n axes from one pass, shape (..., n); `axis` selects one of them.
    """
    axes = _flux_integrands(g, x, nu, ctx, center=True)[..., 1:]
    return axes if axis is None else axes[..., axis]


def center_integrand_alt(g: MetricField, x: np.ndarray, nu: np.ndarray,
                         ctx: GBCContext, axis: int) -> np.ndarray:
    """Dense reference: pairing of the center flux against the volume coform."""
    x = np.asarray(x, dtype=float)
    phi = DoubleForm(ctx.n, ctx.n - 1, 0, _center_form(g, x, ctx, axis))
    return _pair_normal(hodge(phi), np.asarray(nu, dtype=float))


def curvature_center_integrand(g: MetricField, x: np.ndarray, nu: np.ndarray,
                               ctx: GBCContext, axis: int | None = None) -> np.ndarray:
    """T_k(X^{(alpha)}, nu) with X^{(alpha)} = r^2 d_alpha - 2 x^alpha r d_r.

    One Lovelock tensor per node serves all n fields: with v = T_k(., nu),
    T_k(X^{(alpha)}, nu) = r^2 v_alpha - 2 x^alpha <x, v>.  Shape (..., n);
    `axis` selects one field.
    """
    x = np.asarray(x, dtype=float)
    T = lovelock(g, x, ctx)
    v = np.einsum("...ij,...j->...i", T.comps, np.asarray(nu, dtype=float))
    r2 = np.sum(x * x, axis=-1)
    xv = np.einsum("...i,...i->...", x, v)
    out = r2[..., None] * v - 2.0 * xv[..., None] * x
    return out if axis is None else out[..., axis]


# ---------------------------------------------------------------------------
# extrapolation and results
# ---------------------------------------------------------------------------

def decay_exponents(orders, count: int) -> list[float]:
    """The first `count` elements, ascending, of the lattice
    {sum_a i_a tau_a + j : i_a, j >= 0, sum_a i_a >= 1} of the decay orders
    tau_a: the exponents at which a flux curve of a metric with those orders
    approaches its limit.  Only finite orders generate it, and values within
    1e-12 count once; with no finite order (the flat metric) it is 1, 2, ...
    """
    gens = sorted({float(t) for t in orders if math.isfinite(t)}) or [1.0]
    heap, out = list(gens), []
    while len(out) < count:
        e = heapq.heappop(heap)
        if out and e - out[-1] <= 1e-12:
            continue  # its successors are already queued from out[-1]
        out.append(e)
        for t in gens + [1.0]:
            heapq.heappush(heap, e + t)
    return out


def extrapolate(samples: list[tuple[float, float]], exponents: list[float],
                terms: int | None = None) -> tuple[float, float, float]:
    """Extrapolate value(r) -> c0 as r -> infinity; returns (c0, first
    exponent, max residual).

    The model is value(r) = c0 + sum_e c_e r^(-e) over the first `nterms`
    of `exponents`, which must be finite, > 0 and strictly increasing (the
    metric's `decay_exponents`, or step, 2 step, ... for a known ladder
    spacing).  `terms` caps nterms (default and bound: all but two samples).
    A constant sequence returns (constant, nan, 0).
    """
    ex = [float(e) for e in exponents]
    if not ex or not all(math.isfinite(e) and e > 0 for e in ex) \
            or any(b <= a for a, b in zip(ex, ex[1:])):
        raise ValueError(f"exponents must be finite, > 0 and strictly "
                         f"increasing, got {ex!r}")
    if len(samples) < 3:
        raise ValueError("extrapolation needs at least 3 samples")
    rs = np.array([float(r) for r, _ in samples])
    vals = np.array([float(v) for _, v in samples])
    if np.any(np.diff(rs) <= 0):
        raise ValueError("radii must be strictly increasing")
    spread = vals.max() - vals.min()
    scale = max(np.abs(vals).max(), 1.0)
    if spread <= 1e-15 * scale:
        return float(vals[0]), float("nan"), 0.0
    nterms = max(1, min(terms if terms is not None else len(rs) - 2,
                        len(rs) - 2))
    A = np.stack([np.ones_like(rs)] + [rs ** -e for e in ex[:nterms]], axis=1)
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
    return float(coef[0]), ex[0], float(np.abs(A @ coef - vals).max())


@dataclass
class InvariantResult:
    """Per-radius values, the extrapolated limit, and fit diagnostics:
    `exponent` is the leading exponent of the fit (nan for a constant curve)
    and `residual` its largest residual."""

    per_radius: list
    limit: float
    exponent: float
    residual: float
    constant_used: float = 1.0
    converged: bool = True

    def to_dict(self) -> dict:
        return {
            "per_radius": [[float(r), float(v)] for r, v in self.per_radius],
            "limit": float(self.limit),
            "exponent": float(self.exponent),
            "residual": float(self.residual),
            "constant_used": float(self.constant_used),
            "converged": bool(self.converged),
        }


REFINE_RTOL = 1e-8   # agreement of two successive levels, per component
MAX_REFINEMENTS = 3
# per-node doubles a flux or curvature chunk may hold (2 MiB); see `_chunk_nodes`
CHUNK_DOUBLES = 2 ** 18


def _chunk_nodes(n: int, k: int) -> int:
    """Nodes per call of an order-k flux or curvature-center integrand on S^{n-1}.

    Such an integrand holds about C(2k, k) n^4 doubles per node (its
    second-derivative jet, Riemann and kernel arrays are each of order n^4);
    tracemalloc reads 0.2-2.2 times that from (3,1) to (7,3).  A chunk of
    `CHUNK_DOUBLES` keeps a pass's temporaries to a few MB at any (n, k), so
    its peak memory no longer grows with the rule: 69 nodes at (5,2), 33 at
    (6,2), 3 at (8,3), and 512 or more at k = 1, n <= 4.  The integrals
    at k = 1, n <= 4 and the (5,2) mass do not depend on the chunk; the
    (5,2) center and (6,2) fluxes move in the last bits, because some
    batched products are blocked by the batch size.
    """
    return max(1, CHUNK_DOUBLES // (math.comb(2 * k, k) * n ** 4))


def _adaptive_integral(n: int, r: float, level: int, f, k: int = 1):
    """Sphere integral at `level`, checked one level down, refined if unsettled.

    Q_level is returned when it agrees with Q_{level-1} to
    `REFINE_RTOL * max(|Q|, 1)` in every component: the gap measures the
    coarser rule's error, which for a spectrally convergent rule bounds that
    of Q_level (Davis & Rabinowitz, Methods of Numerical Integration, ch. 5).
    Otherwise, and at level 2, where no coarser rule exists, the level grows
    by max(2, level // 2), so the degree about 1.5x, until two successive
    values agree, and the last is returned.  Returns (value, settled): a
    value still unsettled after `MAX_REFINEMENTS` steps comes with False and
    a RuntimeWarning.  An integrand of order k is called on
    `_chunk_nodes(n, k)` nodes at a time.
    """
    def settled(new, old):
        return bool(np.all(np.abs(new - old) <= REFINE_RTOL * np.maximum(np.abs(new), 1.0)))

    chunk = _chunk_nodes(n, k)
    val = integrate_sphere(sphere_rule(n, r, level), f, chunk)
    last = np.nan  # level 2 has no coarser rule to check against
    if level > 2:
        last = integrate_sphere(sphere_rule(n, r, level - 1), f, chunk)
        if settled(val, last):
            return val, True
    for _ in range(MAX_REFINEMENTS):
        level += max(2, level // 2)
        last, val = val, integrate_sphere(sphere_rule(n, r, level), f, chunk)
        if settled(val, last):
            return val, True
    warnings.warn(f"sphere integral at n={n}, r={r:g} did not settle by level "
                  f"{level}: largest component difference "
                  f"{np.max(np.abs(val - last)):.3g}", RuntimeWarning, stacklevel=2)
    return val, False


def _curves(g: MetricField, n: int, radii, level: int, integrand,
            scale: float = 1.0, **kwargs) -> tuple[list, bool]:
    """[(r, scale * sphere integral)] curves, one per integrand component,
    and whether every radius settled (`_adaptive_integral`).

    `integrand(g, xs, nus, **kwargs)` is integrated once per radius for all
    of its components, in the chunks of its order k: that of its `ctx`, or
    1 for the ADM integrand, which takes none.
    """
    k = kwargs["ctx"].k if "ctx" in kwargs else 1
    f = partial(integrand, g, **kwargs)
    rows, settled = [], True
    for r in radii:
        val, ok = _adaptive_integral(n, r, level, f, k)
        rows.append(np.atleast_1d(scale * val))
        settled = settled and ok
    return [[(float(r), float(v[c])) for r, v in zip(radii, rows)]
            for c in range(rows[0].size)], settled


def _exponents(g: MetricField, step: float | None, count: int) -> list[float]:
    """The first `count` extrapolation exponents of g's flux curves: step,
    2 step, ... for a given ladder spacing, else g's declared
    `decay_exponents`.  A given `step` must be finite and > 0."""
    if step is None:
        return decay_exponents(g.decay_orders, count)
    s = float(step)
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"step: the ladder spacing must be finite and > 0, got {s!r}")
    return [s * (j + 1) for j in range(count)]


def _result(per_radius: list, exponents: list[float], constant: float = 1.0,
            mass: float = 1.0, settled: bool = True) -> InvariantResult:
    """The extrapolated limit of one per-radius curve on `exponents`
    (`_exponents`), reported as `constant * limit / mass`; `converged` when
    every radius of the curve `settled` and the fit residual is within 10 %
    of the curve's scale."""
    limit, s, resid = extrapolate(per_radius, exponents)
    scale = max(abs(limit), max(abs(v) for _, v in per_radius), 1e-30)
    return InvariantResult(per_radius, constant * limit / mass, s,
                           abs(constant) * resid / abs(mass),
                           constant_used=constant,
                           converged=settled and resid <= 0.1 * scale + 1e-9)


# ---------------------------------------------------------------------------
# calibration constants
# ---------------------------------------------------------------------------

def calibration_constants(n: int, k: int) -> dict[str, float]:
    """Calibration constants (a, c, b) for the invariants at (n, k).

    "a" multiplies the mass after the (-1)^n / (2 (n-1)! omega_{n-1})
    prefactor, "c" normalizes the center and "b" is the curvature-center
    ratio constant (reported, not applied).  Values measured with
    `measure_calibration` identify the closed forms a = 1, c = n / (n - 2)
    and b = -2^(k+1) (n-1)! omega_{n-1} / (n-2k-1)! to the accuracy of the
    measurement (the tests keep a frozen table of such measurements); the
    closed forms cover every admissible (n, k).
    """
    if k < 1 or n < 2 * k + 1:
        raise ValueError(f"no calibration constants for (n, k) = ({n}, {k})")
    return {
        "a": 1.0,
        "c": n / (n - 2.0),
        "b": -(2.0 ** (k + 1)) * math.factorial(n - 1) * sphere_volume(n)
             / math.factorial(n - 2 * k - 1),
    }


def mass_prefactor(n: int) -> float:
    return (-1.0) ** n / (2.0 * math.factorial(n - 1) * sphere_volume(n))


def _raw_flux_curves(g: MetricField, ctx: GBCContext, radii, level: int,
                     center: bool = True) -> tuple[list, bool]:
    """Prefactored raw curves of the mass, then of the n center axes, and
    whether every radius settled.

    One flux evaluation per node serves the mass and every axis.
    """
    return _curves(g, ctx.n, radii, level, _flux_integrands,
                   mass_prefactor(ctx.n), ctx=ctx, center=center)


def _check_mass(g: MetricField, ctx: GBCContext) -> None:
    if ctx.n < 2 * ctx.k + 1:
        raise ValueError("mass needs n >= 2k + 1")
    threshold = (ctx.n - 2 * ctx.k) / (ctx.k + 1.0)
    if g.tau <= threshold:
        warnings.warn(
            f"decay order tau={g.tau} at or below the mass threshold "
            f"(n-2k)/(k+1)={threshold:.4g}; the limit may not exist",
            stacklevel=3)


def _center_results(curves: list, ctx: GBCContext, mass: InvariantResult,
                    exponents: list[float], settled: bool) -> list[InvariantResult]:
    if abs(mass.limit) < 1e-12:
        raise ValueError("center of mass undefined: vanishing mass")
    c = calibration_constants(ctx.n, ctx.k)["c"]
    return [_result(per_radius, exponents, c, mass.limit, settled)
            for per_radius in curves]


def gbc_mass(g: MetricField, ctx: GBCContext, radii, level: int = 8,
             step: float | None = None) -> InvariantResult:
    """Gauss-Bonnet-Chern mass m_k as an extrapolated, normalized limit.

    The limit is extrapolated on the lattice of g's declared `decay_orders`;
    a given `step` replaces it by step, 2 step, ... (for example 1/k for the
    generalized Schwarzschild family).
    """
    _check_mass(g, ctx)
    curves, settled = _raw_flux_curves(g, ctx, radii, level, center=False)
    return _result(curves[0], _exponents(g, step, len(radii)),
                   calibration_constants(ctx.n, ctx.k)["a"], settled=settled)


def adm_mass_coordinate(g: MetricField, radii, level: int = 8) -> InvariantResult:
    """ADM mass from the coordinate integrand; an independent k=1 oracle."""
    n = g.n
    pref = 1.0 / (2.0 * (n - 1) * sphere_volume(n))
    curves, settled = _curves(g, n, radii, level, adm_integrand_coordinate, pref)
    return _result(curves[0], _exponents(g, None, len(radii)), settled=settled)


def gbc_mass_center(g: MetricField, ctx: GBCContext, radii, level: int = 8,
                    step: float | None = None
                    ) -> tuple[InvariantResult, list[InvariantResult]]:
    """The mass m_k and the per-axis center C^i from one pass per radius."""
    _check_mass(g, ctx)
    exponents = _exponents(g, step, len(radii))
    curves, settled = _raw_flux_curves(g, ctx, radii, level)
    mass = _result(curves[0], exponents, calibration_constants(ctx.n, ctx.k)["a"],
                   settled=settled)
    return mass, _center_results(curves[1:], ctx, mass, exponents, settled)


def gbc_center(g: MetricField, ctx: GBCContext, radii, level: int = 8,
               step: float | None = None) -> list[InvariantResult]:
    """Per-axis center of mass C^i = c_{n,k} (raw limit)_i / m_k.

    The mass and every axis come from one pass per radius; use
    `gbc_mass_center` to keep the mass as well.
    """
    return gbc_mass_center(g, ctx, radii, level, step)[1]


def curvature_center(g: MetricField, ctx: GBCContext, radii, level: int = 8,
                     step: float | None = None) -> list[InvariantResult]:
    """Per-axis limits of the Lovelock flux against the conformal Killing fields."""
    exponents = _exponents(g, step, len(radii))
    curves, settled = _curves(g, ctx.n, radii, level, curvature_center_integrand, ctx=ctx)
    return [_result(per_radius, exponents, settled=settled) for per_radius in curves]


# ---------------------------------------------------------------------------
# calibration measurement
# ---------------------------------------------------------------------------

def measure_calibration(n: int, k: int, radii=None, level: int = 8) -> dict[str, float]:
    """Measure (a, c, b) for (n, k) against the Schwarzschild family.

    a: makes the prefactored mass of g_{S,k,m=1} equal 1.
    c: makes the first coordinate of the center of a Schwarzschild field
       translated by (1, 0, ..., 0) equal 1.
    b: ratio of the curvature-center flux to m_k * C^alpha.
    """
    from .fields import make_schwarzschild
    if radii is None:
        radii = [20.0 * 2 ** j for j in range(8)]
    g = make_schwarzschild(n, k, 1.0)
    ctx = GBCContext(n, k)
    exponents = _exponents(g, None, len(radii))
    raw = _raw_flux_curves(g, ctx, radii, level, center=False)[0][0]
    a = 1.0 / _result(raw, exponents).limit

    shift = np.zeros(n)
    shift[0] = 1.0
    gt = make_schwarzschild(n, k, 1.0, center=shift)
    curves, _ = _raw_flux_curves(gt, ctx, radii, level)
    mass_t = _result(curves[0], exponents).limit * a
    c = mass_t / _result(curves[1], exponents).limit

    b = curvature_center(gt, ctx, radii, level)[0].limit / mass_t
    return {"a": float(a), "c": float(c), "b": float(b)}
