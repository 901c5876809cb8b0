"""Sphere quadrature, asymptotic-invariant integrands, extrapolation to
infinity, and the normalizing constants of the invariant family.

All stars, wedges, and exterior derivatives in the flux integrands are
Euclidean; only the curvature form R = R^g carries the metric.  The
normalizing constants are closed forms (`calibration_constants`);
`measure_calibration` re-measures them against the generalized
Schwarzschild family.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import roots_jacobi

from .dforms import DoubleForm, coform, hodge, wedge, wedge_power
from .curvature import _riemann_from_jets, d_right_comps, pack_22
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
    """Product Gauss rule on the coordinate sphere of radius r in R^n."""

    n: int
    r: float
    points: np.ndarray   # (N, n)
    weights: np.ndarray  # (N,), includes the surface element
    normals: np.ndarray  # (N, n), outward Euclidean unit normals


@lru_cache(maxsize=64)
def sphere_rule(n: int, r: float, level: int) -> SphereRule:
    """Tensor-product rule: Gauss-Jacobi in each polar cosine, uniform azimuth.

    `level` is the number of nodes per polar angle; the azimuthal circle gets
    2*level equispaced nodes (exact for trigonometric degree < 2*level).
    """
    if not 3 <= n <= 8:
        raise ValueError(f"sphere_rule supports 3 <= n <= 8, got {n}")
    if level < 2:
        raise ValueError("level must be >= 2")
    # embedding: x_1 = cos t_1, x_2 = sin t_1 cos t_2, ...,
    # x_{n-1} = sin t_1 ... cos phi, x_n = sin t_1 ... sin phi
    # surface measure: prod_j sin(t_j)^{n-1-j} dt_j dphi
    ts = []
    ws = []
    for j in range(1, n - 1):
        a = (n - 1 - j - 1) / 2.0  # weight (1-u^2)^a du with u = cos t_j
        u, w = roots_jacobi(level, a, a)
        ts.append(u)
        ws.append(w)
    phi = (2.0 * math.pi / (2 * level)) * np.arange(2 * level)
    wphi = np.full(2 * level, 2.0 * math.pi / (2 * level))

    grids = np.meshgrid(*ts, phi, indexing="ij")
    wgrids = np.meshgrid(*ws, wphi, indexing="ij")
    shape = grids[0].shape
    x = np.empty(shape + (n,))
    sin_prod = np.ones(shape)
    for j in range(n - 2):
        u = grids[j]
        x[..., j] = sin_prod * u
        sin_prod = sin_prod * np.sqrt(np.maximum(1.0 - u * u, 0.0))
    x[..., n - 2] = sin_prod * np.cos(grids[n - 2])
    x[..., n - 1] = sin_prod * np.sin(grids[n - 2])
    w = np.ones(shape)
    for j in range(n - 1):
        w = w * wgrids[j]
    normals = x.reshape(-1, n)
    points = r * normals
    weights = (r ** (n - 1)) * w.reshape(-1)
    return SphereRule(n, float(r), points, weights, normals)


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
    g.check_chart(x)
    batch = x.shape[:-1]
    jets = g.jet(x, 1 if k == 1 else 2)
    G, d1 = jets[:2]
    if k == 1:
        P = np.ones(batch + (1,))
    else:
        R = pack_22(_riemann_from_jets(*jets), n)
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
    g.check_chart(x)
    jets = g.jet(x, 1 if ctx.k == 1 else 2)
    if ctx.k == 1:
        return jets[0], jets[1], None
    R = pack_22(_riemann_from_jets(*jets), ctx.n)
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
    g.check_chart(x)
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
    g.check_chart(x)
    T = lovelock(g, x, ctx)
    v = np.einsum("...ij,...j->...i", T.comps, np.asarray(nu, dtype=float))
    r2 = np.sum(x * x, axis=-1)
    xv = np.einsum("...i,...i->...", x, v)
    out = r2[..., None] * v - 2.0 * xv[..., None] * x
    return out if axis is None else out[..., axis]


# ---------------------------------------------------------------------------
# extrapolation and results
# ---------------------------------------------------------------------------

def extrapolate(samples: list[tuple[float, float]], s: float | None = None,
                step: float | None = None,
                terms: int | None = None) -> tuple[float, float, float]:
    """Extrapolate value(r) -> c0 as r -> infinity; returns (c0, s, max residual).

    The model is value(r) = c0 + sum_j c_j r^{-s j} with a single ladder
    spacing.  When `step` is given the spacing is known exactly (Richardson
    fit on the ladder step, 2 step, ...); otherwise the spacing s > 0 is
    profiled out by a bounded scalar minimization with one ladder rung
    withheld to keep the fit conditioned.  `terms` caps the ladder depth
    (default: all but two samples).  A constant sequence returns
    (constant, nan, 0).
    """
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

    def resid(sv: float, nt: int):
        cols = [np.ones_like(rs)]
        cols += [rs ** (-sv * (j + 1)) for j in range(nt)]
        A = np.stack(cols, axis=1)
        coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
        return coef, np.abs(A @ coef - vals).max()

    if step is not None:
        s = float(step)
    elif s is None:
        res = minimize_scalar(lambda sv: resid(sv, max(1, nterms - 1))[1],
                              bounds=(0.05, 20.0), method="bounded",
                              options={"xatol": 1e-10})
        s = float(res.x)
    coef, rmax = resid(s, nterms)
    return float(coef[0]), float(s), float(rmax)


@dataclass
class InvariantResult:
    """Per-radius values, the extrapolated limit, and fit diagnostics."""

    per_radius: list
    limit: float
    exponent: float
    residual: float
    constant_used: float = 1.0
    converged: bool = True
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "per_radius": [[float(r), float(v)] for r, v in self.per_radius],
            "limit": float(self.limit),
            "exponent": float(self.exponent),
            "residual": float(self.residual),
            "constant_used": float(self.constant_used),
            "converged": bool(self.converged),
            **self.extra,
        }


def _adaptive_integral(n: int, r: float, level: int, f,
                       rtol: float = 1e-8, max_refinements: int = 3):
    """Sphere integral refined (1.5x nodes per angle) until stable or capped.

    A vector integrand refines until every component is stable.
    """
    val = integrate_sphere(sphere_rule(n, r, level), f)
    for _ in range(max_refinements):
        level += max(2, level // 2)
        new = integrate_sphere(sphere_rule(n, r, level), f)
        if np.all(np.abs(new - val) <= rtol * np.maximum(np.abs(new), 1.0)):
            return new
        val = new
    return val


def _curves(g: MetricField, n: int, radii, level: int, integrand,
            scale: float = 1.0, **kwargs) -> list:
    """[(r, scale * sphere integral)] curves, one per integrand component.

    `integrand(g, xs, nus, **kwargs)` is integrated once per radius for all
    of its components.
    """
    rows = []
    for r in radii:
        f = partial(integrand, g, **kwargs)
        rows.append(np.atleast_1d(scale * _adaptive_integral(n, r, level, f)))
    return [[(float(r), float(v[c])) for r, v in zip(radii, rows)]
            for c in range(rows[0].size)]


def _flag_convergence(limit: float, residual: float, per_radius: list) -> bool:
    scale = max(abs(limit), max(abs(v) for _, v in per_radius), 1e-30)
    return residual <= 0.1 * scale + 1e-9


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
                     center: bool = True) -> list:
    """Prefactored raw curves of the mass, then of the n center axes.

    One flux evaluation per node serves the mass and every axis.
    """
    return _curves(g, ctx.n, radii, level, _flux_integrands,
                   mass_prefactor(ctx.n), ctx=ctx, center=center)


def _raw_mass_curve(g: MetricField, ctx: GBCContext, radii, level: int) -> list:
    return _raw_flux_curves(g, ctx, radii, level, center=False)[0]


def _raw_center_curve(g: MetricField, ctx: GBCContext, radii, level: int,
                      axis: int) -> list:
    return _raw_flux_curves(g, ctx, radii, level)[1 + axis]


def _check_mass(g: MetricField, ctx: GBCContext) -> None:
    if ctx.n < 2 * ctx.k + 1:
        raise ValueError("mass needs n >= 2k + 1")
    threshold = (ctx.n - 2 * ctx.k) / (ctx.k + 1.0)
    if g.tau <= threshold:
        warnings.warn(
            f"decay order tau={g.tau} at or below the mass threshold "
            f"(n-2k)/(k+1)={threshold:.4g}; the limit may not exist",
            stacklevel=3)


def _mass_result(per_radius: list, ctx: GBCContext, step: float | None) -> InvariantResult:
    limit, s, resid = extrapolate(per_radius, step=step)
    a = calibration_constants(ctx.n, ctx.k)["a"]
    return InvariantResult(per_radius, a * limit, s, abs(a) * resid,
                           constant_used=a,
                           converged=_flag_convergence(limit, resid, per_radius))


def _center_results(curves: list, ctx: GBCContext, mass: InvariantResult,
                    step: float | None) -> list[InvariantResult]:
    mk = mass.limit
    if abs(mk) < 1e-12:
        raise ValueError("center of mass undefined: vanishing mass")
    c = calibration_constants(ctx.n, ctx.k)["c"]
    denom = mk ** ctx.k
    results = []
    for per_radius in curves:
        limit, s, resid = extrapolate(per_radius, step=step)
        results.append(InvariantResult(
            per_radius, c * limit / denom, s, abs(c) * resid / abs(denom),
            constant_used=c,
            converged=_flag_convergence(limit, resid, per_radius)))
    return results


def gbc_mass(g: MetricField, ctx: GBCContext, radii, level: int = 8,
             step: float | None = None) -> InvariantResult:
    """Gauss-Bonnet-Chern mass m_k as an extrapolated, normalized limit.

    `step` fixes the decay-ladder spacing of the extrapolation when the
    asymptotic expansion of the metric is known (for example 1/k for the
    generalized Schwarzschild family); by default the spacing is profiled.
    """
    _check_mass(g, ctx)
    return _mass_result(_raw_mass_curve(g, ctx, radii, level), ctx, step)


def adm_mass_coordinate(g: MetricField, radii, level: int = 8) -> InvariantResult:
    """ADM mass from the coordinate integrand; an independent k=1 oracle."""
    n = g.n
    pref = 1.0 / (2.0 * (n - 1) * sphere_volume(n))
    per_radius = _curves(g, n, radii, level, adm_integrand_coordinate, pref)[0]
    limit, s, resid = extrapolate(per_radius)
    return InvariantResult(per_radius, limit, s, resid,
                           converged=_flag_convergence(limit, resid, per_radius))


def gbc_mass_center(g: MetricField, ctx: GBCContext, radii, level: int = 8,
                    step: float | None = None
                    ) -> tuple[InvariantResult, list[InvariantResult]]:
    """The mass m_k and the per-axis center C^i from one pass per radius."""
    _check_mass(g, ctx)
    curves = _raw_flux_curves(g, ctx, radii, level)
    mass = _mass_result(curves[0], ctx, step)
    return mass, _center_results(curves[1:], ctx, mass, step)


def gbc_center(g: MetricField, ctx: GBCContext, radii, level: int = 8,
               mass: InvariantResult | None = None,
               step: float | None = None) -> list[InvariantResult]:
    """Per-axis center of mass C^i = c_{n,k} (raw limit)_i / (m_k)^k.

    Every axis comes from one pass per radius, and so does the mass when
    `mass` is not given.
    """
    if mass is None:
        return gbc_mass_center(g, ctx, radii, level, step)[1]
    return _center_results(_raw_flux_curves(g, ctx, radii, level)[1:], ctx,
                           mass, step)


def curvature_center(g: MetricField, ctx: GBCContext, radii, level: int = 8,
                     step: float | None = None) -> list[InvariantResult]:
    """Per-axis limits of the Lovelock flux against the conformal Killing fields."""
    results = []
    for per_radius in _curves(g, ctx.n, radii, level,
                              curvature_center_integrand, ctx=ctx):
        limit, s, resid = extrapolate(per_radius, step=step)
        results.append(InvariantResult(
            per_radius, limit, s, resid,
            converged=_flag_convergence(limit, resid, per_radius)))
    return results


# ---------------------------------------------------------------------------
# calibration measurement
# ---------------------------------------------------------------------------

def measure_calibration(n: int, k: int, radii=None, level: int = 8) -> dict[str, float]:
    """Measure (a, c, b) for (n, k) against the Schwarzschild family.

    a: makes the prefactored mass of g_{S,k,m=1} equal 1.
    c: makes the first coordinate of the center of a Schwarzschild field
       translated by (1, 0, ..., 0) equal 1.
    b: ratio of the curvature-center flux to (m_k)^k * C^alpha.
    """
    from .fields import make_schwarzschild
    if radii is None:
        radii = [20.0 * 2 ** j for j in range(8)]
    step = 1.0 / k  # the model family expands in integer powers of r^{-1/k}
    g = make_schwarzschild(n, k, 1.0)
    ctx = GBCContext(n, k)
    raw = _raw_mass_curve(g, ctx, radii, level)
    limit, _, _ = extrapolate(raw, step=step)
    a = 1.0 / limit

    shift = np.zeros(n)
    shift[0] = 1.0
    gt = make_schwarzschild(n, k, 1.0, center=shift)
    curves = _raw_flux_curves(gt, ctx, radii, level)
    mass_t = extrapolate(curves[0], step=step)[0] * a
    raw_center = extrapolate(curves[1], step=step)[0]
    c = mass_t ** k / raw_center

    cc = extrapolate(_curv_curve(gt, ctx, radii, level, 0), step=step)[0]
    b = cc / (mass_t ** k * 1.0)
    return {"a": float(a), "c": float(c), "b": float(b)}


def _curv_curve(g: MetricField, ctx: GBCContext, radii, level: int, axis: int):
    return _curves(g, ctx.n, radii, level, curvature_center_integrand,
                   ctx=ctx)[axis]
