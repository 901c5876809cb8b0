"""Metric fields on exterior charts of R^n with exact derivatives to order 3.

The shipped families (generalized Schwarzschild, parity-controlled
perturbations of the flat metric) carry closed-form derivatives; the
perturbations, and the chart changes of `chartchange`, are tensors of radial
polynomials held as one (alphas, betas, coeff) table (`TensorRadialPoly`)
and differentiated on that table.  Every field, these tables included, is
read through one `jet(x, order)` call per batch of nodes: [F, dF, ...,
d^order F], with the derivative axes between the batch and the component
axes; each metric family decides in `jet` which orders it builds together.
Derivative array conventions:

    d1[..., k, i, j]       = d_k g_ij
    d2[..., k, l, i, j]    = d_k d_l g_ij
    d3[..., k, l, m, i, j] = d_k d_l d_m g_ij
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ChartError",
    "MetricField",
    "EuclideanMetric",
    "SchwarzschildMetric",
    "RTPerturbationMetric",
    "TensorRadialPoly",
    "make_schwarzschild",
    "make_rt_perturbation",
]


class ChartError(ValueError):
    """Raised when a point lies outside a field's exterior chart."""


# ---------------------------------------------------------------------------
# radial polynomial calculus
# ---------------------------------------------------------------------------

class TensorRadialPoly:
    """A tensor of finite sums  c * x^alpha * |x|^beta  (beta real), held as
    one table with exact differentiation and fast evaluation.

    `alphas` (M, n) and `betas` (M,) list the M distinct monomials and
    `coeff` (E, M) the coefficient of each in each of the E entries of
    `shape`, taken in C order.  Columns whose coefficients are all exact
    zeros are dropped, so the zero tensor has M = 0.  The family is closed
    under partial differentiation, which makes it the backbone of the
    shipped decaying families: perturbations, diffeomorphism generators,
    and their derivatives to any order come out exact.  `deriv` is built
    the first time it is asked for and kept, so a chain T.deriv().deriv()
    is derived only as deep as it is read, and only once.

    A whole tensor costs one monomial table plus one matmul per batch of
    points.  The monomials come from one table of powers x_i ** a per
    coordinate, gathered per monomial and multiplied over i, and then by
    each distinct r ** beta gathered the same way (`eval_polys`, which
    shares that table between several polynomials).
    """

    __slots__ = ("n", "shape", "alphas", "betas", "coeff", "_deriv")

    def __init__(self, n: int, shape: tuple, alphas, betas, coeff):
        coeff = np.asarray(coeff, dtype=float)
        keep = coeff.any(axis=0)
        self.n = n
        self.shape = tuple(shape)
        self.alphas = np.asarray(alphas, dtype=int)[keep]
        self.betas = np.asarray(betas, dtype=float)[keep]
        self.coeff = coeff if keep.all() else coeff[:, keep]
        self._deriv = None

    def deriv(self) -> "TensorRadialPoly":
        """Gradient: new leading axis of length n with partial derivatives.

        d_k (x^a r^b) = a_k x^(a - e_k) r^b + b x^(a + e_k) r^(b - 2), so each
        column m yields a lowered and a raised candidate per axis k.  Equal
        monomials are merged; one entry receives at most two candidates per
        monomial, so the sum does not depend on their order.  The merged
        columns are ordered by their first nonzero occurrence over (entry,
        m, lowered before raised), the order in which a term-by-term
        derivative would first meet them, so that the evaluation matmul sums
        in that order too.
        """
        if self._deriv is None:
            n, (E, M) = self.n, self.coeff.shape
            # candidate (k, m, s): s = 0 lowers alpha_k, s = 1 raises it, and
            # its factor is alpha_k or beta; a zero factor makes no term
            factor = np.stack([self.alphas.T, np.broadcast_to(self.betas, (n, M))], axis=2)
            k, m, s = np.nonzero(factor)
            alphas = self.alphas[m]
            alphas[np.arange(len(k)), k] += 2 * s - 1
            keys, slot = np.unique(np.column_stack([alphas, self.betas[m] - 2.0 * s]),
                                   axis=0, return_inverse=True)
            key = np.zeros(factor.shape, dtype=int)
            key[k, m, s] = slot.reshape(-1)
            # every term of every entry (k, e) of the gradient, in the order
            # (k, e, m, s), and the (entry, monomial) pair it adds into
            k, e, m, s = np.nonzero((factor != 0)[:, None] & (self.coeff != 0)[..., None])
            col = key[k, m, s]
            pairs, pair = np.unique((k * E + e) * len(keys) + col, return_inverse=True)
            merged = np.zeros(len(pairs))
            np.add.at(merged, pair, self.coeff[e, m] * factor[k, m, s])
            # keep the monomials that are nonzero somewhere, each at the first
            # term that names it in an entry where it is nonzero
            cols, at = np.unique(col[merged[pair] != 0], return_index=True)
            cols = cols[np.argsort(at)]
            place = np.zeros(len(keys), dtype=int)
            place[cols] = np.arange(len(cols))
            coeff = np.zeros((n * E, len(cols)))
            live = merged != 0
            row, col = np.divmod(pairs[live], len(keys))
            coeff[row, place[col]] = merged[live]
            self._deriv = TensorRadialPoly(n, (n,) + self.shape, keys[cols, :n],
                                           keys[cols, n], coeff)
        return self._deriv

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return eval_polys([self], x)[0]

    def jet(self, x: np.ndarray, order: int) -> list[np.ndarray]:
        """[T, dT, ..., d^order T] at x from one shared power table, the
        derivative axes between the batch and the entry axes."""
        polys = [self]
        while len(polys) <= order:
            polys.append(polys[-1].deriv())
        return eval_polys(polys, x)


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
    for T in polys:
        if x.shape[-1] != T.n:
            raise ValueError(f"expected points with {T.n} coordinates, "
                             f"got shape {x.shape}")
    live = [T for T in polys if len(T.betas)]
    if live:
        ones = np.ones(x[..., 0].size)
        # powers[i][a] = x_i ** a, with the numpy-integer exponents that
        # `alphas` stores and on arrays of the batch shape, so each factor
        # is the pow call a monomial-by-monomial evaluation makes (numpy may
        # take another pow for a 0-d array than for a 1-d one) and the
        # results stay bit-identical; each power is then one flat row
        top = np.max([T.alphas.max(axis=0) for T in live], axis=0)
        powers = [np.stack([ones] + [(x[..., i] ** a).reshape(-1)
                                     for a in np.arange(1, top[i] + 1)])
                  for i in range(x.shape[-1])]
        betas = np.array(sorted({b for T in live for b in T.betas}))
        r = np.linalg.norm(x, axis=-1)
        radial = np.stack([ones if b == 0.0 else (r ** b).reshape(-1) for b in betas])
    out = []
    for T in polys:
        if not len(T.betas):
            out.append(np.zeros(batch + T.shape))
            continue
        # one contiguous row per monomial and factor, multiplied over i and
        # then laid out C-ordered (nodes, monomials), which the matmul below
        # needs to sum in the same order as a built-up table
        mono = powers[0][T.alphas[:, 0]]
        for i in range(1, len(powers)):
            mono *= powers[i][T.alphas[:, i]]
        mono *= radial[np.searchsorted(betas, T.betas)]
        mono = np.ascontiguousarray(mono.T).reshape(batch + (len(T.betas),))
        out.append((mono @ T.coeff.T).reshape(batch + T.shape))
    return out


# ---------------------------------------------------------------------------
# metric fields
# ---------------------------------------------------------------------------

class MetricField:
    """Base class: metric g_ij on the exterior chart |x| >= r_min.

    Subclasses implement eval/d1/d2/d3; `tau` is the declared decay order of
    g - delta, `decay_orders` every order that g - delta decays at (their
    minimum is `tau`; a flux curve's corrections sit on the lattice they
    generate, `invariants.decay_exponents`) and `regularity` the number of
    controlled derivative orders.
    Code outside this module reads a metric only through `jet`, and
    g - delta through `curvature.deviation_field(g)`.  A family overrides
    `jet` only when its orders share work (the chain-rule pullback builds
    every order in one pass); the closed-form families keep the default, so
    that a profiler wrapping eval/d1/d2/d3 (perfbench's `fields.jet` spans)
    still sees every evaluation.
    """

    n: int
    tau: float
    r_min: float
    regularity: int = 3

    @property
    def decay_orders(self) -> tuple[float, ...]:
        return (self.tau,)

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

    def eval(self, x):
        return np.eye(self.n) + self._e(x)

    def d1(self, x):
        return self._e.deriv()(x)

    def d2(self, x):
        return self._e.deriv().deriv()(x)

    def d3(self, x):
        return self._e.deriv().deriv().deriv()(x)


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
        # e = sum over monomials m of mats[m] * c_m x^alphas[m] r^betas[m];
        # the monomials of the separate terms below are all distinct
        alphas, betas, cols = [], [], []
        unit = np.eye(n, dtype=int)

        def add_sym(mat, monomials):
            for alpha, beta, c in monomials:
                alphas.append(alpha)
                betas.append(beta)
                cols.append(mat.reshape(-1) * c)

        def sym(scale=1.0):
            A = rng.standard_normal((n, n))
            return scale * (A + A.T) / 2.0

        def harmonic_quadratic(beta: float):
            # x_a x_b (a != b) and x_a^2 - x_b^2 are harmonic of degree 2
            a, b = rng.choice(n, size=2, replace=False)
            if rng.random() < 0.5:
                return [(unit[a] + unit[b], beta, 1.0)]
            return [(2 * unit[a], beta, 1.0), (2 * unit[b], beta, -1.0)]

        if parity in ("even", "mixed"):
            add_sym(sym(amplitude), [(0 * unit[0], -tau, 1.0)])
            add_sym(sym(0.5 * amplitude), harmonic_quadratic(-tau - 2.0))
        odd_order = tau if parity == "odd" else tau + 1.0
        if parity in ("odd", "mixed"):
            A = sym(amplitude if parity == "odd" else 0.5 * amplitude)
            a = int(rng.integers(n))
            add_sym(A, [(unit[a], -odd_order - 1.0, 1.0)])

        e = TensorRadialPoly(n, (n, n), alphas, betas, np.stack(cols, axis=1))
        super().__init__(n, e, tau, r_min)
        self.parity = parity
        # positivity on a sample grid
        rng2 = np.random.default_rng(seed + 1)
        dirs = rng2.standard_normal((64, n))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        pts = dirs[None, :, :] * np.array([r_min, 2 * r_min, 8 * r_min])[:, None, None]
        w = np.linalg.eigvalsh(self.eval(pts))
        if np.any(w <= 0):
            raise ValueError("perturbation amplitude too large: metric not positive-definite")


# convenience constructors ---------------------------------------------------

def make_schwarzschild(n: int, k: int, m: float, center=None) -> SchwarzschildMetric:
    return SchwarzschildMetric(n, k, m, center=center)


def make_rt_perturbation(n: int, tau: float, seed: int = 0, parity: str = "even",
                         amplitude: float = 0.01) -> RTPerturbationMetric:
    return RTPerturbationMetric(n, tau, seed=seed, parity=parity, amplitude=amplitude)

