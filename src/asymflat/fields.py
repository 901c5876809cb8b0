"""Metric fields on exterior charts of R^n with exact derivatives to order 3.

Shipped families (generalized Schwarzschild, parity-controlled perturbations
of the flat metric) carry closed-form derivatives; a finite-difference wrapper
covers user-supplied black-box metrics.  Consumers read a metric through
`MetricField.jet(x, order)`, one call per batch of nodes, and each family
decides there which derivative orders it builds together.  Derivative array
conventions:

    d1[..., k, i, j]       = d_k g_ij
    d2[..., k, l, i, j]    = d_k d_l g_ij
    d3[..., k, l, m, i, j] = d_k d_l d_m g_ij
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "ChartError",
    "MetricField",
    "EuclideanMetric",
    "SchwarzschildMetric",
    "RTPerturbationMetric",
    "FDMetric",
    "RadialPoly",
    "TensorRadialPoly",
    "make_schwarzschild",
    "make_rt_perturbation",
    "fd_wrap",
]


class ChartError(ValueError):
    """Raised when a point lies outside a field's exterior chart."""


# ---------------------------------------------------------------------------
# radial polynomial calculus
# ---------------------------------------------------------------------------

class RadialPoly:
    """Finite sums of terms  c * x^alpha * |x|^beta  (beta real).

    Closed under partial differentiation, which makes it the backbone of the
    shipped decaying families: perturbations, diffeomorphism generators, and
    their derivatives to any order come out exact.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        # dict keys are already unique: only the zero coefficients go
        self.terms: dict[tuple[tuple[int, ...], float], float] = (
            {key: c for key, c in terms.items() if c != 0.0} if terms else {})

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

    def __mul__(self, scalar: float) -> "RadialPoly":
        return RadialPoly(self.n, {k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

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


class TensorRadialPoly:
    """An ndarray of RadialPolys with exact differentiation and fast evaluation.

    Evaluation is compiled once into a (entries x monomials) coefficient
    matrix so a whole derivative tensor costs one monomial table plus one
    matmul per batch of points.  The monomials come from one table of powers
    x_i ** a per coordinate, gathered per monomial and multiplied over i, and
    then by each distinct r ** beta gathered the same way (`eval_polys`,
    which shares that table between several polynomials).
    """

    def __init__(self, n: int, arr: np.ndarray):
        self.n = n
        self.arr = np.asarray(arr, dtype=object)
        self._compiled = None

    @property
    def shape(self):
        return self.arr.shape

    def deriv(self) -> "TensorRadialPoly":
        """Gradient: new leading axis of length n with partial derivatives."""
        out = np.empty((self.n,) + self.arr.shape, dtype=object)
        for k in range(self.n):
            for idx in np.ndindex(self.arr.shape):
                out[(k,) + idx] = self.arr[idx].deriv(k)
        return TensorRadialPoly(self.n, out)

    def _compile(self):
        keys: dict[tuple, int] = {}
        flat = self.arr.reshape(-1)
        for poly in flat:
            for key in poly.terms:
                if key not in keys:
                    keys[key] = len(keys)
        coeff = np.zeros((flat.size, max(len(keys), 1)))
        for e, poly in enumerate(flat):
            for key, c in poly.terms.items():
                coeff[e, keys[key]] = c
        alphas = np.zeros((max(len(keys), 1), self.n), dtype=int)
        betas = np.zeros(max(len(keys), 1))
        for (alpha, beta), m in keys.items():
            alphas[m] = alpha
            betas[m] = beta
        rbetas, rslot = np.unique(betas, return_inverse=True)
        self._compiled = (coeff, alphas, rbetas, rslot, len(keys))
        return self._compiled

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return eval_polys([self], x)[0]


def eval_polys(polys, x: np.ndarray) -> list[np.ndarray]:
    """Evaluate several TensorRadialPolys at x from one shared power table.

    The table holds x_i ** a for every coordinate up to the largest exponent
    any of `polys` uses, and r ** beta for every beta any of them uses; each
    polynomial then gathers its own monomial columns from it and runs its
    own matmul, so each result is bit-identical to evaluating that
    polynomial alone.
    """
    x = np.asarray(x, dtype=float)
    batch = x.shape[:-1]
    compiled = [T._compiled or T._compile() for T in polys]
    live = [c for c in compiled if c[4]]
    if live:
        ones = np.ones(x[..., 0].size)
        # powers[i][a] = x_i ** a, with the numpy-integer exponents that
        # `alphas` stores and on arrays of the batch shape, so each factor
        # is the pow call a monomial-by-monomial evaluation makes (numpy may
        # take another pow for a 0-d array than for a 1-d one) and the
        # results stay bit-identical; each power is then one flat row
        top = np.max([c[1].max(axis=0) for c in live], axis=0)
        powers = [np.stack([ones] + [(x[..., i] ** a).reshape(-1)
                                     for a in np.arange(1, top[i] + 1)])
                  for i in range(x.shape[-1])]
        betas = np.array(sorted({b for c in live for b in c[2]}))
        r = np.linalg.norm(x, axis=-1)
        radial = np.stack([ones if b == 0.0 else (r ** b).reshape(-1) for b in betas])
    out = []
    for T, (coeff, alphas, rbetas, rslot, nkeys) in zip(polys, compiled):
        if nkeys == 0:
            out.append(np.zeros(batch + T.shape))
            continue
        # one contiguous row per monomial and factor, multiplied over i and
        # then laid out C-ordered (nodes, monomials), which the matmul below
        # needs to sum in the same order as a built-up table
        mono = powers[0][alphas[:, 0]]
        for i in range(1, len(powers)):
            mono *= powers[i][alphas[:, i]]
        mono *= radial[np.searchsorted(betas, rbetas)[rslot]]
        mono = np.ascontiguousarray(mono.T).reshape(batch + (len(alphas),))
        out.append((mono @ coeff.T).reshape(batch + T.shape))
    return out


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------

class MetricField:
    """Base class: metric g_ij on the exterior chart |x| >= r_min.

    Subclasses implement eval/d1/d2/d3; `tau` is the declared decay order of
    g - delta and `regularity` the number of controlled derivative orders.
    Code outside this module reads a metric only through `jet`.  A family
    overrides `jet` only when its orders share work (the chain-rule pullback
    builds every order in one pass); the closed-form families keep the
    default, so that a profiler wrapping eval/d1/d2/d3 (perfbench's
    `fields.jet` spans) still sees every evaluation.
    """

    n: int
    tau: float
    r_min: float
    regularity: int = 3

    def eval(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def d1(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def d2(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def d3(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jet(self, x: np.ndarray, order: int) -> list[np.ndarray]:
        """[g, dg, ..., d^order g] at x, order 0..3."""
        if not 0 <= order <= 3:
            raise ValueError(f"jet order must be 0..3, got {order}")
        return [f(x) for f in (self.eval, self.d1, self.d2, self.d3)[:order + 1]]

    def check_chart(self, x: np.ndarray) -> None:
        r = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
        if np.any(r < self.r_min - 1e-12):
            raise ChartError(
                f"point at radius {float(np.min(r)):.4g} below chart minimum {self.r_min:.4g}"
            )

    def deviation(self, x: np.ndarray) -> np.ndarray:
        """e = g - delta at x."""
        return self.eval(x) - np.eye(self.n)


class EuclideanMetric(MetricField):
    """The flat background metric; decays at every rate (tau = inf)."""

    def __init__(self, n: int, r_min: float = 0.0):
        self.n = n
        self.tau = np.inf
        self.r_min = r_min

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.eye(self.n), x.shape[:-1] + (self.n, self.n)).copy()

    def d1(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (self.n,) * 3)

    def d2(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (self.n,) * 4)

    def d3(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (self.n,) * 5)


def _radial_unit(y: np.ndarray):
    """|y| and the unit vector y / |y|."""
    rho = np.linalg.norm(y, axis=-1)
    return rho, y / rho[..., None]


class SchwarzschildMetric(MetricField):
    """Generalized Schwarzschild metric (1 + m / (2 rho^(n/k-2)))^(4k/(n-2k)) delta.

    `rho` is the Euclidean distance to `center`.  Decay order is tau = n/k - 2.
    """

    def __init__(self, n: int, k: int, m: float, center=None,
                 r_min: float | None = None):
        if n <= 2 * k:
            raise ValueError(f"need n > 2k, got n={n}, k={k}")
        self.n = n
        self.k = k
        self.m = float(m)
        self.center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
        if self.center.shape != (n,):
            raise ValueError(f"center: expected {n} coordinates, "
                             f"got shape {self.center.shape}")
        self.s = n / k - 2.0
        self.t = 4.0 * k / (n - 2.0 * k)
        self.tau = self.s
        if r_min is None:
            if self.m > 0:
                # conformal factor is positive for all rho > 0; stay outside
                # the minimal surface rho^s = m/2 with a little margin
                r_min = 1.25 * (0.5 * self.m) ** (k / (n - 2.0 * k))
            else:
                r_min = 1.0
        self.r_min = float(r_min) + float(np.linalg.norm(self.center))
        # conformal factor must stay positive on the chart
        if self.m <= -2.0 * max(self.r_min - np.linalg.norm(self.center), 1e-9) ** self.s:
            raise ValueError("conformal factor nonpositive on the chart")

    def _factor_jets(self, x: np.ndarray, order: int):
        """y = x - center and the radial factor F = u^t with its radial
        derivatives [F, F', ...], each built only up to `order`."""
        y = np.asarray(x, dtype=float) - self.center
        rho = np.linalg.norm(y, axis=-1)
        s, t, m = self.s, self.t, self.m
        u = 1.0 + (m / 2.0) * rho ** (-s)
        F = [u**t]
        if order >= 1:
            u1 = -(s * m / 2.0) * rho ** (-s - 1.0)
            F.append(t * u ** (t - 1.0) * u1)
        if order >= 2:
            u2 = (s * m / 2.0) * (s + 1.0) * rho ** (-s - 2.0)
            F.append(t * (t - 1.0) * u ** (t - 2.0) * u1**2 + t * u ** (t - 1.0) * u2)
        if order >= 3:
            u3 = -(s * m / 2.0) * (s + 1.0) * (s + 2.0) * rho ** (-s - 3.0)
            F.append(t * (t - 1.0) * (t - 2.0) * u ** (t - 3.0) * u1**3
                     + 3.0 * t * (t - 1.0) * u ** (t - 2.0) * u1 * u2
                     + t * u ** (t - 1.0) * u3)
        return y, F

    def eval(self, x):
        _, (psi,) = self._factor_jets(x, 0)
        return psi[..., None, None] * np.eye(self.n)

    # d1/d2/d3: spatial derivatives of the radial factor F(|y|) built from
    # the radial derivatives F', F'', F''' (f1, f2, f3), each only to its order

    def d1(self, x):
        y, (_, f1) = self._factor_jets(x, 1)
        _, u = _radial_unit(y)
        return np.einsum("...k,ij->...kij", f1[..., None] * u, np.eye(self.n))

    def d2(self, x):
        y, (_, f1, f2) = self._factor_jets(x, 2)
        rho, u = _radial_unit(y)
        uu = np.einsum("...i,...j->...ij", u, u)
        eye = np.eye(self.n)
        hess = f2[..., None, None] * uu + (f1 / rho)[..., None, None] * (eye - uu)
        return np.einsum("...kl,ij->...klij", hess, eye)

    def d3(self, x):
        y, (_, f1, f2, f3) = self._factor_jets(x, 3)
        rho, u = _radial_unit(y)
        eye = np.eye(self.n)
        uuu = np.einsum("...ij,...k->...ijk", np.einsum("...i,...j->...ij", u, u), u)
        sym = (np.einsum("ij,...k->...ijk", eye, u)
               + np.einsum("ik,...j->...ijk", eye, u)
               + np.einsum("jk,...i->...ijk", eye, u))
        third = (f3[..., None, None, None] * uuu
                 + (f2 / rho)[..., None, None, None] * (sym - 3.0 * uuu)
                 + (f1 / rho**2)[..., None, None, None] * (3.0 * uuu - sym))
        return np.einsum("...klm,ij->...klmij", third, eye)


class _RadialPolyMetric(MetricField):
    """delta + e with e_ij given as a TensorRadialPoly matrix."""

    def __init__(self, n: int, e: TensorRadialPoly, tau: float, r_min: float):
        self.n = n
        self.tau = tau
        self.r_min = r_min
        self._e = e
        self._e1 = e.deriv()
        self._e2 = self._e1.deriv()
        self._e3 = self._e2.deriv()

    def eval(self, x):
        return np.eye(self.n) + self._e(x)

    def d1(self, x):
        return self._e1(x)

    def d2(self, x):
        return self._e2(x)

    def d3(self, x):
        return self._e3(x)


class RTPerturbationMetric(_RadialPolyMetric):
    """Flat metric plus a parity-controlled decaying perturbation.

    The angular profiles are restrictions of homogeneous harmonic polynomials,
    whose parity equals the parity of their degree; `parity='mixed'` adds an
    odd part decaying one order faster, i.e. the Regge-Teitelboim pattern.
    """

    def __init__(self, n: int, tau: float, seed: int = 0, parity: str = "even",
                 amplitude: float = 0.01, r_min: float = 2.0):
        if tau <= 0:
            raise ValueError("decay order tau must be positive")
        if parity not in ("even", "odd", "mixed"):
            raise ValueError("parity must be 'even', 'odd', or 'mixed'")
        rng = np.random.default_rng(seed)
        zero = RadialPoly.zero(n)
        e = np.full((n, n), zero, dtype=object)

        def add_sym(mat, poly):
            nonlocal e
            out = np.empty((n, n), dtype=object)
            for i in range(n):
                for j in range(n):
                    out[i, j] = e[i, j] + (float(mat[i, j]) * poly)
            e = out

        def sym(scale=1.0):
            A = rng.standard_normal((n, n))
            return scale * (A + A.T) / 2.0

        def harmonic_quadratic(beta: float):
            # x_a x_b (a != b) and x_a^2 - x_b^2 are harmonic of degree 2
            a, b = rng.choice(n, size=2, replace=False)
            if rng.random() < 0.5:
                al = [0] * n
                al[a], al[b] = 1, 1
                return RadialPoly.monomial(n, al, beta)
            al1, al2 = [0] * n, [0] * n
            al1[a], al2[b] = 2, 2
            return (RadialPoly.monomial(n, al1, beta)
                    + RadialPoly.monomial(n, al2, beta) * -1.0)

        if parity in ("even", "mixed"):
            add_sym(sym(amplitude), RadialPoly.monomial(n, (0,) * n, -tau))
            add_sym(sym(0.5 * amplitude), harmonic_quadratic(-tau - 2.0))
        odd_order = tau if parity == "odd" else tau + 1.0
        if parity in ("odd", "mixed"):
            A = sym(amplitude if parity == "odd" else 0.5 * amplitude)
            a = int(rng.integers(n))
            al = [0] * n
            al[a] = 1
            add_sym(A, RadialPoly.monomial(n, al, -odd_order - 1.0))

        super().__init__(n, TensorRadialPoly(n, e), tau, r_min)
        self.parity = parity
        # positivity on a sample grid
        rng2 = np.random.default_rng(seed + 1)
        dirs = rng2.standard_normal((64, n))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        pts = dirs[None, :, :] * np.array([r_min, 2 * r_min, 8 * r_min])[:, None, None]
        w = np.linalg.eigvalsh(self.eval(pts))
        if np.any(w <= 0):
            raise ValueError("perturbation amplitude too large: metric not positive-definite")


class FDMetric(MetricField):
    """Finite-difference derivative wrapper around a pointwise metric evaluator.

    Central differences of order 2 or 4 with step h = h0 * max(1, |x|), fixed
    at the base point so the relative truncation error is uniform in radius.
    """

    _STENCILS = {
        2: ((-1, 1), (-0.5, 0.5)),
        4: ((-2, -1, 1, 2), (1 / 12, -8 / 12, 8 / 12, -1 / 12)),
    }

    def __init__(self, f, n: int, order: int = 4, h0: float = 1e-2,
                 tau: float = 1.0, r_min: float = 2.0):
        if order not in self._STENCILS:
            raise ValueError("order must be 2 or 4")
        if h0 <= 0:
            raise ValueError("step underflow: h0 must be positive")
        self.f = f
        self.n = n
        self.order = order
        self.h0 = h0
        self.tau = tau
        self.r_min = r_min

    def eval(self, x):
        return np.asarray(self.f(np.asarray(x, dtype=float)), dtype=float)

    def _diff(self, x: np.ndarray, dirs: tuple[int, ...]) -> np.ndarray:
        """Nested central differences along the (ordered) directions `dirs`."""
        x = np.asarray(x, dtype=float)
        h = self.h0 * np.maximum(1.0, np.linalg.norm(x, axis=-1))

        def rec(pt, remaining):
            if not remaining:
                return self.eval(pt)
            k = remaining[0]
            offsets, weights = self._STENCILS[self.order]
            acc = None
            for off, wgt in zip(offsets, weights):
                shifted = pt.copy()
                shifted[..., k] = shifted[..., k] + off * h
                val = rec(shifted, remaining[1:]) * (wgt / h)[..., None, None]
                acc = val if acc is None else acc + val
            return acc

        return rec(x, dirs)

    def d1(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[:-1] + (self.n,) * 3)
        for k in range(self.n):
            out[..., k, :, :] = self._diff(x, (k,))
        return out

    def d2(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[:-1] + (self.n,) * 4)
        for k in range(self.n):
            for l in range(k, self.n):
                val = self._diff(x, (k, l))
                out[..., k, l, :, :] = val
                out[..., l, k, :, :] = val
        return out

    def d3(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[:-1] + (self.n,) * 5)
        for k in range(self.n):
            for l in range(k, self.n):
                for m in range(l, self.n):
                    val = self._diff(x, (k, l, m))
                    for perm in set(itertools.permutations((k, l, m))):
                        out[..., perm[0], perm[1], perm[2], :, :] = val
        return out


# convenience constructors ---------------------------------------------------

def make_schwarzschild(n: int, k: int, m: float, center=None) -> SchwarzschildMetric:
    return SchwarzschildMetric(n, k, m, center=center)


def make_rt_perturbation(n: int, tau: float, seed: int = 0, parity: str = "even",
                         amplitude: float = 0.01) -> RTPerturbationMetric:
    return RTPerturbationMetric(n, tau, seed=seed, parity=parity, amplitude=amplitude)


def fd_wrap(f, n: int, order: int = 4, h0: float = 1e-2, **kwargs) -> FDMetric:
    return FDMetric(f, n, order=order, h0=h0, **kwargs)
