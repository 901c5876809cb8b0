"""Randomized identity suite for the double-form algebra and the flat
exterior calculus.

Each check draws random double forms (or random polynomial double-form
fields) and records the worst deviation from the identity; the suite is the
engine behind the `verify` command and the algebra acceptance tests.  All
identities are stated exactly as implemented, including the sign
conventions fixed by this library.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .dforms import (
    DoubleForm,
    PointMetric,
    bianchi,
    contract,
    hodge,
    inner,
    metric_form,
    transpose,
    wedge,
    wedge_power,
)
from .curvature import (
    Jet,
    PolynomialDoubleFormField,
    jet_d_left,
    jet_d_right,
    jet_from_partials,
)

__all__ = ["IdentityCheck", "identity_suite", "hodge_metric_power_identity"]


@dataclass
class IdentityCheck:
    """Worst-case deviation of one identity at one bidegree signature."""

    name: str
    n: int
    p: int
    q: int
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.error <= self.tol

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "p": self.p,
            "q": self.q,
            "error": float(self.error),
            "tol": float(self.tol),
            "passed": bool(self.passed),
        }


def _random_form(rng, n: int, p: int, q: int, count: int) -> DoubleForm:
    return DoubleForm(n, p, q, rng.standard_normal((count, comb(n, p), comb(n, q))))


def _random_metric(rng, n: int) -> PointMetric:
    A = rng.standard_normal((n, n)) * 0.25
    return PointMetric(np.eye(n) + A @ A.T)


def hodge_metric_power_identity(n: int) -> float:
    """Max componentwise error in *g^k = (k!/(n-k)!) g^(n-k), flat metric."""
    g = metric_form(n)
    worst = 0.0
    for k in range(n + 1):
        lhs = hodge(wedge_power(g, k))
        rhs = (factorial(k) / factorial(n - k)) * wedge_power(g, n - k)
        worst = max(worst, float(np.abs(lhs.comps - rhs.comps).max()))
    return worst


def _algebra_checks(rng, n: int, count: int, tol: float) -> list[IdentityCheck]:
    checks = []
    sigs = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    for p, q in sigs:
        a = _random_form(rng, n, p, q, count)
        # Hodge involution
        err = (hodge(hodge(a)) - float((-1) ** ((p + q) * (n - p - q))) * a
               ).norm().max()
        checks.append(IdentityCheck("star.star = +- id", n, p, q, float(err), tol))
        # transpose of a star
        err = (transpose(hodge(a)) - hodge(transpose(a))).norm().max()
        checks.append(IdentityCheck("star commutes with transpose", n, p, q,
                                    float(err), tol))
        if q >= 1 and p + 1 <= n:
            b = bianchi(a, "left")
            err = (bianchi(transpose(a), "right")
                   - float((-1) ** p) * transpose(b)).norm().max()
            checks.append(IdentityCheck("Bt(w^t) = (-1)^p (Bw)^t", n, p, q,
                                        float(err), tol))
        for p2 in range(n - p + 1):
            for q2 in range(n - q + 1):
                if (p2, q2) > (1, 1):
                    continue  # low-degree second factors exercise every path
                b = _random_form(rng, n, p2, q2, count)
                sign = float((-1) ** (p * p2 + q * q2))
                err = (wedge(a, b) - sign * wedge(b, a)).norm().max()
                checks.append(IdentityCheck("graded commutativity", n, p, q,
                                            float(err), tol))
                err = (transpose(wedge(a, b))
                       - wedge(transpose(a), transpose(b))).norm().max()
                checks.append(IdentityCheck("transpose is a homomorphism", n, p, q,
                                            float(err), tol))
        # contraction is adjoint to multiplication by g (random metric)
        if p <= n - 1 and q <= n - 1:
            G = _random_metric(rng, n)
            b = _random_form(rng, n, p + 1, q + 1, count)
            gform = DoubleForm(n, 1, 1, G.G)
            lhs = inner(wedge(gform, a), b, G)
            rhs = inner(a, contract(b, G), G)
            scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1.0)
            err = np.abs(lhs - rhs).max() / scale
            checks.append(IdentityCheck("c adjoint to g-wedge", n, p, q,
                                        float(err), tol))
        # Bianchi anti-derivation rule
        if p >= 1 and q >= 1 and p + 1 <= n and q <= n:
            b = _random_form(rng, n, 1, 1, count)
            if p + 2 <= n and q + 1 <= n:
                lhs = bianchi(wedge(a, b), "left")
                rhs = (wedge(bianchi(a, "left"), b)
                       + float((-1) ** (p + q)) * wedge(a, bianchi(b, "left")))
                err = (lhs - rhs).norm().max()
                checks.append(IdentityCheck("B is a signed derivation", n, p, q,
                                            float(err), tol))
    # associativity on a few random triples
    for _ in range(3):
        p1, q1 = rng.integers(0, 2, size=2)
        a = _random_form(rng, n, int(p1), int(q1), count)
        b = _random_form(rng, n, 1, 1, count)
        c = _random_form(rng, n, 1, 0, count)
        err = (wedge(wedge(a, b), c) - wedge(a, wedge(b, c))).norm().max()
        checks.append(IdentityCheck("associativity", n, int(p1), int(q1),
                                    float(err), tol))
    checks.append(IdentityCheck("star of metric powers", n, 0, 0,
                                hodge_metric_power_identity(n), 1e-13))
    return checks


def _field_checks(rng, n: int, tol: float) -> list[IdentityCheck]:
    checks = []
    x = rng.standard_normal((6, n))
    for p, q in [(1, 0), (1, 1), (2, 1), (1, 2)]:
        if p > n or q > n:
            continue
        F = PolynomialDoubleFormField.random(n, p, q, seed=int(rng.integers(1 << 30)))
        jF = jet_from_partials(n, p, q, F.jet(x, 2))
        if p + 2 <= n:
            err = jet_d_left(jet_d_left(jF)).form().norm().max()
            checks.append(IdentityCheck("D^2 = 0", n, p, q, float(err), tol))
        if q + 2 <= n:
            err = jet_d_right(jet_d_right(jF)).form().norm().max()
            checks.append(IdentityCheck("Dt^2 = 0", n, p, q, float(err), tol))
        if p + 1 <= n and q + 1 <= n:
            err = (jet_d_left(jet_d_right(jF)).form()
                   - jet_d_right(jet_d_left(jF)).form()).norm().max()
            checks.append(IdentityCheck("[D, Dt] = 0", n, p, q, float(err), tol))
        # commutation of the flat exterior derivatives with the Bianchi maps
        if not (q >= 1 and p + 2 <= n or p >= 1 and q + 2 <= n):
            continue
        j1 = Jet(n, p, q, jF.levels[:2])
        DF, DtF = jet_d_left(j1).form(), jet_d_right(j1).form()
        if q >= 1 and p + 2 <= n:
            B = _bianchi_jet(j1, "left")
            BD = bianchi(DF, "left")
            DB = jet_d_left(B).form()
            checks.append(IdentityCheck("BD = -DB", n, p, q,
                                        float((BD + DB).norm().max()), tol))
            BDt = bianchi(DtF, "left")
            DtB = jet_d_right(B).form()
            sign = float((-1) ** (q + 1))
            err = (BDt - DtB - sign * DF).norm().max()
            checks.append(IdentityCheck("BDt = DtB + (-1)^(q+1) D", n, p, q,
                                        float(err), tol))
        if p >= 1 and q + 2 <= n:
            Bt = _bianchi_jet(j1, "right")
            BtD = bianchi(DF, "right")
            DBt = jet_d_left(Bt).form()
            err = (BtD + DBt + DtF).norm().max()
            checks.append(IdentityCheck("BtD = -DBt - Dt", n, p, q,
                                        float(err), tol))
            BtDt = bianchi(DtF, "right")
            DtBt = jet_d_right(Bt).form()
            checks.append(IdentityCheck("BtDt = -DtBt", n, p, q,
                                        float((BtDt + DtBt).norm().max()), tol))
    return checks


def _bianchi_jet(j: Jet, side: str) -> Jet:
    """The Bianchi map of a jet: it has constant coefficients, so it acts on
    every derivative level."""
    levels = [bianchi(DoubleForm(j.n, j.p, j.q, lv), side) for lv in j.levels]
    return Jet(j.n, levels[0].p, levels[0].q, [b.comps for b in levels])


def identity_suite(n: int, seed: int = 0, count: int = 100,
                   tol: float = 1e-12) -> list[IdentityCheck]:
    """Run every algebra and flat-calculus identity at dimension n."""
    rng = np.random.default_rng(seed)
    checks = _algebra_checks(rng, n, count, tol)
    checks += _field_checks(rng, n, tol)
    return checks
