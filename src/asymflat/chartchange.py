"""Asymptotic diffeomorphisms Phi = A compose S, exact chain-rule metric
pullback, and invariance harnesses for the mass and the center.

A is a Euclidean isometry (orthogonal matrix plus translation) and
S(x) = x + zeta(x) with a decaying vector field zeta.  The pullback metric
carries derivatives to order three computed by exact chain rule from the
polynomial derivatives of zeta; no finite differencing enters, because the
invariance differences being measured are small.  `Diffeo` reads zeta
through `TensorRadialPoly.jet`, which derives one order at a time, the
first time that order is asked for, so a pullback read to order k builds
zeta only to order k + 1 (a k = 1 mass never builds order 3 or above).
`PullbackMetric.jet` builds every asked order in one pass over a flat
batch: zeta and its derivatives come from one shared table of coordinate
powers, each derivative of Phi is one matmul with Q^T, the base metric is
read through one `jet` call at Phi(x), and the Faa di Bruno and Leibniz
expansions of Phi* g = J G J^T are batched matmuls on C-contiguous
operands, one per slot count and mirror pair (`_compose_jets`,
`_leibniz`); `eval`/`d1`/`d2`/`d3` are its levels.
The one-einsum-per-term expansion stays in `tests/conftest.py` as the dense
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

import numpy as np

from .fields import ChartError, MetricField, TensorRadialPoly
from .gbc import GBCContext
from .invariants import (
    _center_results,
    _exponents,
    _raw_flux_curves,
    _result,
    calibration_constants,
)

__all__ = [
    "Diffeo",
    "InvarianceReport",
    "make_diffeo",
    "zeta_radial",
    "zeta_harmonic",
    "pullback_metric",
    "invariance_report",
]

# make_diffeo samples SHELL_SAMPLES seeded directions on dyadic shells from SHELL_R0
SHELL_R0, SHELL_SAMPLES, SHELL_SEED = 2.0, 64, 11
# invariance_report: |delta m_k| < MASS_TOL max(1, |m_k|), |delta C^i| < CENTER_TOL
MASS_TOL, CENTER_TOL = 1e-3, 5e-3


# ---------------------------------------------------------------------------
# zeta families
# ---------------------------------------------------------------------------

def zeta_radial(n: int, c: float, tau_prime: float) -> TensorRadialPoly:
    """zeta = c x r^(-tau'); components are odd functions of x, so the
    symmetrized gradient (the leading deviation of the pullback) is even."""
    return TensorRadialPoly(n, (n,), np.eye(n, dtype=int), np.full(n, -tau_prime),
                            np.diag(np.full(n, c)))


def zeta_harmonic(n: int, c: float, tau_prime: float, axes=(0, 1)) -> TensorRadialPoly:
    """zeta^j = c x_a x_b x_j r^(-tau'-2) (odd components, anisotropic)."""
    a, b = axes
    alphas = np.eye(n, dtype=int)
    alphas[:, a] += 1
    alphas[:, b] += 1
    return TensorRadialPoly(n, (n,), alphas, np.full(n, -tau_prime - 2.0),
                            np.diag(np.full(n, c)))


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

    def __post_init__(self):
        if self.zeta is None:
            # the zero field, with no monomials: its jets are zeros
            n = self.n
            self.zeta = TensorRadialPoly(n, (n,), np.zeros((0, n)), np.zeros(0),
                                         np.zeros((n, 0)))

    def zeta_jet(self, x: np.ndarray, order: int) -> np.ndarray:
        """order-th partial-derivative array of zeta (derivative axes lead)."""
        return self.zeta.jet(x, order)[order]

    def zeta_jets(self, x: np.ndarray, order: int) -> list[np.ndarray]:
        """[zeta_jet(x, m) for m = 0..order] from one shared power table."""
        return self.zeta.jet(x, order)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x + self.zeta_jet(x, 0)) @ self.Q.T + self.w


def make_diffeo(Q: np.ndarray | None = None, w: np.ndarray | None = None,
                zeta: TensorRadialPoly | None = None, tau_prime: float = np.inf,
                n: int | None = None) -> Diffeo:
    """Validate and build Phi = A compose S.

    The contraction bound sup |d zeta| < 1 is certified by sampling dyadic
    shells outward from `SHELL_R0`; r_valid is the first sampled shell radius
    from which the sampled sup stays below 0.9 on every shell further out.
    A zeta whose sampled sup on the outermost shell is 0.9 or more is
    rejected.
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
    phi = Diffeo(n, Q, w, zeta, float(tau_prime), float("nan"))
    if zeta is None:
        phi.r_valid = 0.0
        return phi

    rng = np.random.default_rng(SHELL_SEED)
    dirs = rng.standard_normal((SHELL_SAMPLES, n))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    radii = SHELL_R0 * 2.0 ** np.arange(12)
    z1 = phi.zeta_jet(radii[:, None, None] * dirs, 1)   # every shell at once
    sups = np.max(np.linalg.norm(z1, axis=(-2, -1)), axis=1)
    if sups[-1] >= 0.9:
        raise ValueError(
            f"zeta does not contract on the outermost sampled shell "
            f"(sup |dzeta| = {sups[-1]:.3g} at r = {radii[-1]:.4g})")
    j = len(sups)
    while j > 0 and sups[j - 1] < 0.9:
        j -= 1
    r_valid = float(radii[j])
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

def _phi_jets(Q: np.ndarray, dzeta: list[np.ndarray]) -> list[np.ndarray]:
    """[DPhi, D^2 Phi, ...] from [d zeta, d^2 zeta, ...] on a flat batch.

    J[m][:, K, i, a] = d_K d_i Phi^a with m derivative axes K: each level is
    one matmul of the zeta derivative array with Q^T.
    """
    n = len(Q)
    out = []
    for m, z in enumerate(dzeta):
        core = z + np.eye(n) if m == 0 else z
        out.append((core.reshape(-1, n) @ Q.T).reshape(z.shape))
    return out


def _lead(T: np.ndarray, axis: int) -> np.ndarray:
    """T with `axis` moved to follow the batch axis, C-contiguous."""
    return np.ascontiguousarray(np.moveaxis(T, axis, 1))


def _compose_jets(gj: list[np.ndarray], J: list[np.ndarray]) -> list[np.ndarray]:
    """Partials of g(Phi(x)) on a flat batch (Faa di Bruno to order 3).

    `gj` is the base metric's jet [g, dg, ...] at Phi(x), to the depth asked
    of the pullback, and `J` the derivative arrays of Phi from `_phi_jets`.
    Every contraction over a base derivative axis c is one batched matmul
    with that axis leading a C-contiguous operand.  Each result is symmetric
    in its derivative axes, so the order in which they come out is free.
    """
    depth = len(gj) - 1
    N, n = J[0].shape[:2]
    G = [gj[0]]
    if depth >= 1:
        dg = gj[1].reshape(N, n, n * n)
        G.append((J[0] @ dg).reshape(gj[1].shape))
    if depth >= 2:
        # A[:, m, d, ab] = sum_c J_mc d_c d_d g_ab, read again at order 3
        A = (J[0] @ gj[2].reshape(N, n, n ** 3)).reshape(gj[2].shape)
        A = _lead(A, 2).reshape(N, n, n ** 3)
        G.append((J[0] @ A).reshape(gj[2].shape)
                 + (J[1].reshape(N, n * n, n) @ dg).reshape(gj[2].shape))
    if depth >= 3:
        shape = gj[3].shape
        # contract c, then bring the next uncontracted axis to the front
        T = gj[3].reshape(N, n, n ** 4)
        for axis in (2, 3):
            T = _lead((J[0] @ T).reshape(shape), axis).reshape(N, n, n ** 4)
        T = J[0] @ T
        # d^2 Phi on (k, l) paired with d_m Phi, then on (k, m) and (l, m)
        mixed = (J[1].reshape(N, n * n, n) @ A).reshape(shape)
        T = T.reshape(shape)
        T += mixed
        T += np.swapaxes(mixed, 2, 3)
        T += np.moveaxis(mixed, 3, 1)
        T += (J[2].reshape(N, n ** 3, n) @ dg).reshape(shape)
        G.append(T)
    return G


def _leibniz(J: list[np.ndarray], G: list[np.ndarray]) -> list[np.ndarray]:
    """[d^m (J G J^T) for m = 0..len(G) - 1] on a flat batch.

    d^m sums over the ordered assignments of its m derivative slots to the
    three factors.  The assignments that give the factors (s0, s1, s2)
    slots are one product B = J[s0] G[s1] J[s2]^T with its derivative axes
    in every order, so d^m is the sum over all orders of those axes of
    F = sum_s B_s / (s0! s1! s2!).  An assignment and its mirror (the J and
    J^T slots swapped) give transposes of each other, because every level
    of G is symmetric, so F keeps one of each pair and d^m is S + S^T for
    that symmetrized half S; the all-G product is its own mirror and
    enters at half weight.

    Each product is two C-contiguous batched matmuls with the derivative
    axes folded into the rows: a contracts J[s0][:, K0, i, a], through
    P = G J^T when G carries no slot, else through G[s1] with a moved ahead
    of its derivative axes, and b contracts J[s2][:, K2, j, b].  The
    product comes out as [K0, i, K1, K2, j]; since K0 and i are derivative
    axes of Phi, which commute, it is read as [i, K0, K1, K2, j], so every
    product shares the layout [i, K, j] and F is a sum of whole arrays.
    """
    N, n = J[0].shape[:2]
    JT = {}     # JT[s][:, b, K, j] = J[s][:, K, j, b]
    P = {}      # P[s] = G J[s]^T, [a, K, j]

    def right(s):
        if s not in JT:
            JT[s] = _lead(J[s], s + 2).reshape(N, n, n ** (s + 1))
        return JT[s]

    def product(s0, s1, s2, w=1.0):
        """w J[s0] G[s1] J[s2]^T, with w applied to the smallest operand."""
        left = J[s0].reshape(N, n ** (s0 + 1), n)
        if s1 == 0:
            if s2 not in P:
                P[s2] = G[0] @ right(s2)
            B = left @ (P[s2] * w)
        else:
            # G[s1] as [a, K1, b], a temporary freed after the first matmul
            B = (left @ _lead(G[s1], s1 + 1).reshape(N, n, n ** (s1 + 1))
                 ).reshape(N, n ** (s0 + s1 + 1), n) @ (right(s2) * w)
        return B.reshape((N,) + (n,) * (s0 + s1 + s2 + 2))

    out = [product(0, 0, 0)]
    for m in range(1, len(G)):
        F = product(0, m, 0, 0.5 / factorial(m))
        for s0 in range(1, m + 1):
            for s2 in range(min(s0, m - s0) + 1):
                s1 = m - s0 - s2
                w = 1.0 / (factorial(s0) * factorial(s1) * factorial(s2))
                F += product(s0, s1, s2, 0.5 * w if s0 == s2 else w)
        # sum over every order of the derivative axes 2..m+1: F is symmetric
        # in the first t of them, and the next one is moved to each place
        for t in range(1, m):
            moved = [np.moveaxis(F, 2 + t, 2 + u) for u in range(t)]
            F = F + moved[0]
            for V in moved[1:]:
                F += V
        K = list(range(2, m + 2))
        D = np.empty((N,) + (n,) * (m + 2))
        np.add(F.transpose([0] + K + [1, m + 2]), F.transpose([0] + K + [m + 2, 1]),
               out=D)
        out.append(D)
    return out


class PullbackMetric(MetricField):
    """(Phi* g)(x) = DPhi(x)^T g(Phi(x)) DPhi(x) with exact chain-rule jets."""

    def __init__(self, phi: Diffeo, g: MetricField):
        self.phi = phi
        self.base = g
        self.n = g.n
        self.tau = min(g.tau, phi.tau_prime)
        self.regularity = min(g.regularity, 3)
        self.r_min = self._find_r_min()

    @property
    def decay_orders(self) -> tuple[float, ...]:
        return self.base.decay_orders + (self.phi.tau_prime,)

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
        """Partials of Phi* g to `order` from one pass: zeta is evaluated
        once, to order + 1, from one power table, and the base metric read
        once, to `order`, at Phi(x)."""
        x = np.asarray(x, dtype=float)
        self.check_chart(x)
        phi, n = self.phi, self.n
        flat = x.reshape(-1, n)
        zeta = phi.zeta_jets(flat, order + 1)
        y = (flat + zeta[0]) @ phi.Q.T + phi.w      # Phi(x), as in `apply`
        self.base.check_chart(y)
        J = _phi_jets(phi.Q, zeta[1:])
        del zeta    # not read again: free it before the larger arrays come
        G = _compose_jets(self.base.jet(y, order), J)
        return [d.reshape(x.shape[:-1] + d.shape[1:]) for d in _leibniz(J, G)]

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
                      step: float | None = None) -> list[InvarianceReport]:
    """Compare mass (and optionally center) limits and curves of g and Phi* g.

    Each limit is the one `gbc_mass_center` reports.  Failures are reported
    through the pass flags, never raised: a drift that does not tend to zero
    shows up as delta_limit above tolerance and a non-negative fitted slope.
    """
    gp = pullback_metric(phi, g)
    radii = [float(r) for r in radii]

    # one pass per radius gives the mass and, when asked, every center axis
    curves_g = _raw_flux_curves(g, ctx, radii, level, center=include_center)
    curves_p = _raw_flux_curves(gp, ctx, radii, level, center=include_center)
    a = calibration_constants(ctx.n, ctx.k)["a"]
    ex_g, ex_p = _exponents(g, step, len(radii)), _exponents(gp, step, len(radii))
    mass_g, mass_p = _result(curves_g[0], ex_g, a), _result(curves_p[0], ex_p, a)
    rows = [(r, a * vg, a * vp, a * (vp - vg))
            for (r, vg), (_, vp) in zip(curves_g[0], curves_p[0])]
    delta = mass_p.limit - mass_g.limit
    tol = MASS_TOL * max(1.0, abs(mass_g.limit))
    reports = [InvarianceReport(
        "mass", rows, delta, _drift_slope(radii, [row[3] for row in rows]),
        tol, abs(delta) < tol,
        extra={"mass_g": mass_g.limit, "mass_pullback": mass_p.limit})]

    if include_center:
        mk_g, mk_p = mass_g.limit, mass_p.limit
        centers = zip(_center_results(curves_g[1:], ctx, mass_g, ex_g),
                      _center_results(curves_p[1:], ctx, mass_p, ex_p))
        for axis, (cg, cp) in enumerate(centers):
            c = cg.constant_used
            rows = [(r, c * a_ / mk_g, c * b_ / mk_p, c * b_ / mk_p - c * a_ / mk_g)
                    for (r, a_), (_, b_) in zip(cg.per_radius, cp.per_radius)]
            delta = cp.limit - cg.limit
            reports.append(InvarianceReport(
                f"center[{axis}]", rows, delta,
                _drift_slope(radii, [row[3] for row in rows]),
                CENTER_TOL, abs(delta) < CENTER_TOL,
                extra={"center_g": cg.limit, "center_pullback": cp.limit}))
    return reports
