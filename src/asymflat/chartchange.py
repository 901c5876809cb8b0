"""Asymptotic diffeomorphisms Phi = A compose S, exact chain-rule metric
pullback, and invariance harnesses for the mass and the center.

A is a Euclidean isometry (orthogonal matrix plus translation) and
S(x) = x + zeta(x) with a decaying vector field zeta.  The pullback metric
carries derivatives to order three computed by exact chain rule from the
polynomial derivatives of zeta; no finite differencing enters, because the
invariance differences being measured are small.  `PullbackMetric.jet`
builds every asked order in one pass: Phi is differentiated once, the base
metric is read through one `jet` call at Phi(x), and one Faa di Bruno and
Leibniz expansion yields all orders; `eval`/`d1`/`d2`/`d3` are its levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from .fields import ChartError, MetricField, RadialPoly, TensorRadialPoly
from .gbc import GBCContext
from .invariants import (
    InvariantResult,
    _raw_flux_curves,
    calibration_constants,
    extrapolate,
)

__all__ = [
    "Diffeo",
    "InvarianceReport",
    "make_diffeo",
    "zeta_radial",
    "zeta_harmonic",
    "pullback_metric",
    "lie_deviation",
    "invariance_report",
]


# ---------------------------------------------------------------------------
# zeta families
# ---------------------------------------------------------------------------

def zeta_radial(n: int, c: float, tau_prime: float) -> TensorRadialPoly:
    """zeta = c x r^(-tau'); components are odd functions of x, so the
    symmetrized gradient (the leading deviation of the pullback) is even."""
    arr = np.empty((n,), dtype=object)
    for j in range(n):
        alpha = [0] * n
        alpha[j] = 1
        arr[j] = RadialPoly.monomial(n, alpha, -tau_prime, c)
    return TensorRadialPoly(n, arr)


def zeta_harmonic(n: int, c: float, tau_prime: float, axes=(0, 1)) -> TensorRadialPoly:
    """zeta^j = c x_a x_b x_j r^(-tau'-2) (odd components, anisotropic)."""
    a, b = axes
    arr = np.empty((n,), dtype=object)
    for j in range(n):
        alpha = [0] * n
        alpha[a] += 1
        alpha[b] += 1
        alpha[j] += 1
        arr[j] = RadialPoly.monomial(n, alpha, -tau_prime - 2.0, c)
    return TensorRadialPoly(n, arr)


# ---------------------------------------------------------------------------
# diffeomorphisms
# ---------------------------------------------------------------------------

@dataclass
class Diffeo:
    """Phi = A compose S with A(y) = Q y + w and S(x) = x + zeta(x)."""

    n: int
    Q: np.ndarray
    w: np.ndarray
    zeta: TensorRadialPoly | None
    tau_prime: float
    r_valid: float
    _jets: list = field(default_factory=list, repr=False)

    def zeta_jet(self, x: np.ndarray, order: int) -> np.ndarray:
        """order-th partial-derivative array of zeta (derivative axes lead)."""
        x = np.asarray(x, dtype=float)
        if self.zeta is None:
            shape = x.shape[:-1] + (self.n,) * (order + 1)
            return np.zeros(shape)
        return self._jets[order](x)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        s = x + self.zeta_jet(x, 0)
        return np.einsum("ab,...b->...a", self.Q, s) + self.w

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """DPhi with convention J[..., i, a] = d_i Phi^a."""
        x = np.asarray(x, dtype=float)
        z1 = self.zeta_jet(x, 1)  # (..., i, c) = d_i zeta^c
        core = np.broadcast_to(np.eye(self.n), z1.shape) + z1
        return np.einsum("ac,...ic->...ia", self.Q, core)


def make_diffeo(Q: np.ndarray | None = None, w: np.ndarray | None = None,
                zeta: TensorRadialPoly | None = None, tau_prime: float = np.inf,
                n: int | None = None, r_hint: float = 2.0,
                samples: int = 64, seed: int = 11) -> Diffeo:
    """Validate and build Phi = A compose S.

    The contraction bound sup |d zeta| < 1 is certified by sampling dyadic
    shells outward from `r_hint`; r_valid is the first sampled shell radius
    from which the sampled sup stays below 0.9.  A zeta that never
    contracts on the sampled range is rejected.
    """
    if n is None:
        for src in (Q, w):
            if src is not None:
                n = np.asarray(src).shape[-1]
                break
        else:
            if zeta is None:
                raise ValueError("cannot infer the dimension: pass n")
            n = zeta.n
    Q = np.eye(n) if Q is None else np.asarray(Q, dtype=float)
    w = np.zeros(n) if w is None else np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"translation w: expected {n} coordinates, "
                         f"got shape {w.shape}")
    if Q.shape != (n, n) or not np.allclose(Q.T @ Q, np.eye(n), atol=1e-12):
        raise ValueError("A must have an orthogonal matrix part")
    jets = []
    if zeta is not None:
        jet = zeta
        for _ in range(5):
            jets.append(jet)
            jet = jet.deriv()
    phi = Diffeo(n, Q, w, zeta, float(tau_prime), float("nan"), jets)
    if zeta is None:
        phi.r_valid = 0.0
        return phi

    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((samples, n))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    r_valid = None
    sups = []
    for j in range(12):
        r = r_hint * 2.0 ** j
        z1 = phi.zeta_jet(r * dirs, 1)
        sup = float(np.max(np.linalg.norm(z1, axis=(-2, -1))))
        sups.append(sup)
        if r_valid is None and sup < 0.9:
            r_valid = r
    if r_valid is None:
        raise ValueError(
            f"zeta does not contract on the sampled shells (min sup |dzeta| = {min(sups):.3g})")
    # injectivity spot check on the first valid shell
    pts = r_valid * dirs
    imgs = pts + phi.zeta_jet(pts, 0)
    d2 = np.sum((imgs[:, None, :] - imgs[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    if np.min(d2) <= 1e-20:
        raise ValueError("S is not injective on the sampled shell")
    phi.r_valid = r_valid
    return phi


# ---------------------------------------------------------------------------
# pullback metric with exact chain-rule jets
# ---------------------------------------------------------------------------

_LETTERS = "uvst"


def _phi_jets(phi: Diffeo, x: np.ndarray, depth: int) -> list[np.ndarray]:
    """[J1, ..., J_{depth+1}] with J_m[..., k_1..k_{m-1}, i, a] = d..d_i Phi^a."""
    n = phi.n
    x = np.asarray(x, dtype=float)
    z1 = phi.zeta_jet(x, 1)
    J = [np.einsum("ac,...ic->...ia", phi.Q,
                   np.broadcast_to(np.eye(n), z1.shape) + z1)]
    for m in range(2, depth + 2):
        J.append(np.einsum("ac,...c->...a", phi.Q, phi.zeta_jet(x, m)))
    return J


def _compose_jets(gj: list[np.ndarray], J: list[np.ndarray]):
    """Partial derivatives of g pulled through Phi (Faa di Bruno to order 3).

    `gj` is the base metric's jet [g, dg, ...] at Phi(x), to the depth asked
    of the pullback, and `J` the derivative arrays of Phi from `_phi_jets`.
    """
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
        # second-derivative factor sits on (kl), (km), or (lm); build the
        # first by contraction and the other two by permuting derivative axes
        mixed = np.einsum("...cdab,...klc,...md->...klmab", gd2, J2, J1,
                          optimize=True)
        term = term + mixed
        term = term + np.swapaxes(mixed, -4, -3)     # [k,m,l] placement (km)
        term = term + np.moveaxis(mixed, -3, -5)     # [l,m,k] placement (lm)
        term = term + np.einsum("...cab,...klmc->...klmab", gd1, J3)
        G.append(term)
    return G


def _leibniz_terms(order: int, jets: list[list[np.ndarray]],
                   core_specs: list[str], out_core: str) -> np.ndarray:
    """Total derivative of an einsum product via ordered axis assignment.

    `jets[f][m]` is the m-th derivative array of factor f with m symmetric
    derivative axes leading its core axes; assigning each of the `order`
    derivative slots to one factor and summing reproduces the full Leibniz
    expansion without explicit symmetrization.
    """
    nfac = len(jets)
    total = None
    for assign in iter_product(range(nfac), repeat=order):
        counts = [0] * nfac
        labels: list[list[str]] = [[] for _ in range(nfac)]
        for slot, f in enumerate(assign):
            counts[f] += 1
            labels[f].append(_LETTERS[slot])
        operands = []
        specs = []
        for f in range(nfac):
            operands.append(jets[f][counts[f]])
            specs.append("..." + "".join(labels[f]) + core_specs[f])
        out = "..." + "".join(_LETTERS[:order]) + out_core
        term = np.einsum(",".join(specs) + "->" + out, *operands, optimize=True)
        total = term if total is None else total + term
    return total


class PullbackMetric(MetricField):
    """(Phi* g)(x) = DPhi(x)^T g(Phi(x)) DPhi(x) with exact chain-rule jets."""

    def __init__(self, phi: Diffeo, g: MetricField):
        self.phi = phi
        self.base = g
        self.n = g.n
        self.tau = min(g.tau, phi.tau_prime)
        self.regularity = min(g.regularity, 3)
        self.r_min = self._find_r_min()

    def _find_r_min(self) -> float:
        rng = np.random.default_rng(23)
        dirs = rng.standard_normal((64, self.n))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        r = max(self.phi.r_valid, self.base.r_min, 1e-6)
        for j in range(16):
            cand = r * 2.0 ** j if r > 0 else 2.0 ** j
            y = self.phi.apply(cand * dirs)
            if np.min(np.linalg.norm(y, axis=-1)) >= self.base.r_min:
                return cand
        raise ChartError("pullback chart escapes the base chart at all sampled radii")

    def jet(self, x, order):
        """Partials of Phi* g to `order` from one pass: Phi is differentiated
        once, to order + 1, and the base metric read once, to `order`."""
        x = np.asarray(x, dtype=float)
        self.check_chart(x)
        y = self.phi.apply(x)
        self.base.check_chart(y)
        J = _phi_jets(self.phi, x, order)
        G = _compose_jets(self.base.jet(y, order), J)
        jets_J = J[:order + 1]
        jets = [jets_J, G, jets_J]
        return [_leibniz_terms(m, jets, ["ia", "ab", "jb"], "ij")
                for m in range(order + 1)]

    def eval(self, x):
        return self.jet(x, 0)[0]

    def d1(self, x):
        return self.jet(x, 1)[1]

    def d2(self, x):
        return self.jet(x, 2)[2]

    def d3(self, x):
        return self.jet(x, 3)[3]


def pullback_metric(phi: Diffeo, g: MetricField) -> PullbackMetric:
    return PullbackMetric(phi, g)


def lie_deviation(phi: Diffeo, x: np.ndarray) -> np.ndarray:
    """The symmetrized gradient d zeta + (d zeta)^T, the leading part of
    Phi* b - b for A = id and small zeta."""
    z1 = phi.zeta_jet(x, 1)
    return z1 + np.swapaxes(z1, -1, -2)


# ---------------------------------------------------------------------------
# invariance harness
# ---------------------------------------------------------------------------

@dataclass
class InvarianceReport:
    """Per-radius drift of an invariant under a chart change."""

    quantity: str
    per_radius: list          # (r, value_g, value_pullback, delta)
    delta_limit: float
    drift_slope: float
    tolerance: float
    passed: bool
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "per_radius": [[float(a) for a in row] for row in self.per_radius],
            "delta_limit": float(self.delta_limit),
            "drift_slope": float(self.drift_slope),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            **self.extra,
        }


def _drift_slope(radii, deltas) -> float:
    mags = np.abs(np.asarray(deltas, dtype=float))
    scale = mags.max()
    if scale < 1e-13:
        return float("-inf")
    mags = np.maximum(mags, 1e-16 * max(scale, 1.0))
    A = np.stack([np.ones(len(radii)), np.log(radii)], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.log(mags), rcond=None)
    return float(coef[1])


def invariance_report(g: MetricField, phi: Diffeo, ctx: GBCContext, radii,
                      level: int = 8, include_center: bool = False,
                      mass_tol: float = 1e-3, center_tol: float = 5e-3,
                      step: float | None = None) -> list[InvarianceReport]:
    """Compare mass (and optionally center) curves of g and Phi* g.

    Failures are reported through the pass flags, never raised: a drift
    that does not tend to zero shows up as delta_limit above tolerance
    and a non-negative fitted slope.
    """
    gp = pullback_metric(phi, g)
    radii = [float(r) for r in radii]
    reports = []
    cal = calibration_constants(ctx.n, ctx.k)

    # one pass per radius gives the mass and, when asked, every center axis
    curves_g = _raw_flux_curves(g, ctx, radii, level, center=include_center)
    curves_p = _raw_flux_curves(gp, ctx, radii, level, center=include_center)
    curve_g, curve_p = curves_g[0], curves_p[0]
    a = cal["a"]
    rows = [(r, a * vg, a * vp, a * (vp - vg))
            for (r, vg), (_, vp) in zip(curve_g, curve_p)]
    lim_g = extrapolate(curve_g, step=step)[0]
    lim_p = extrapolate(curve_p, step=step)[0]
    delta = a * (lim_p - lim_g)
    tol = mass_tol * max(1.0, abs(a * lim_g))
    reports.append(InvarianceReport(
        "mass", rows, delta, _drift_slope(radii, [row[3] for row in rows]),
        tol, abs(delta) < tol,
        extra={"mass_g": a * lim_g, "mass_pullback": a * lim_p}))

    if include_center:
        mk_g, mk_p = a * lim_g, a * lim_p
        c = cal["c"]
        for axis, (cg, cp) in enumerate(zip(curves_g[1:], curves_p[1:])):
            vg = c * extrapolate(cg, step=step)[0] / mk_g ** ctx.k
            vp = c * extrapolate(cp, step=step)[0] / mk_p ** ctx.k
            rows = [(r, c * a_ / mk_g ** ctx.k, c * b_ / mk_p ** ctx.k,
                     c * b_ / mk_p ** ctx.k - c * a_ / mk_g ** ctx.k)
                    for (r, a_), (_, b_) in zip(cg, cp)]
            delta = vp - vg
            reports.append(InvarianceReport(
                f"center[{axis}]", rows, delta,
                _drift_slope(radii, [row[3] for row in rows]),
                center_tol, abs(delta) < center_tol,
                extra={"center_g": vg, "center_pullback": vp}))
    return reports
