import numpy as np

from asymflat.fields import MetricField


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
