"""Antipodal parity decomposition, decay-rate estimation, and the
parity-graded decay checks behind the center of mass.

The antipodal map sigma(x) = -x pulls a (p, q) double form back to
(-1)^(p+q) times its value at the reflected point; a field is even when the
pullback reproduces it.  The checks in this module certify fitted decay
slopes only, never exact parity claims for metrics that were not built with
a definite parity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dforms import DoubleForm
from .fields import MetricField

__all__ = [
    "ParityReport",
    "antipodal_pullback",
    "parity_split",
    "decay_rate",
    "sphere_sample",
    "rt_check",
]


@dataclass
class ParityReport:
    """Fitted decay slopes of one derivative order of the deviation."""

    component: str
    slope: float
    even_slope: float
    odd_slope: float
    required: float
    required_odd: float
    radii: list
    passed: bool

    def to_dict(self) -> dict:
        return {
            "component": self.component,
            "slope": float(self.slope),
            "even_slope": float(self.even_slope),
            "odd_slope": float(self.odd_slope),
            "required": float(self.required),
            "required_odd": float(self.required_odd),
            "radii": [float(r) for r in self.radii],
            "passed": bool(self.passed),
        }


def antipodal_pullback(omega, x: np.ndarray) -> DoubleForm:
    """(sigma* omega)(x) = (-1)^(p+q) omega(-x) for a double-form field."""
    x = np.asarray(x, dtype=float)
    if hasattr(omega, "check_chart"):
        omega.check_chart(x)
        omega.check_chart(-x)
    val = omega.eval(-x)
    if not isinstance(val, DoubleForm):
        raise TypeError("antipodal_pullback needs a DoubleForm-valued field")
    return float((-1) ** (val.p + val.q)) * val


def parity_split(omega, x: np.ndarray) -> tuple[DoubleForm, DoubleForm]:
    """Split a double-form field at x into its even and odd parts.

    Even means sigma* omega = omega; the parts are field values at x and
    satisfy even + odd = omega(x).  Splitting the even output again is a
    projection (the odd part of an even field vanishes identically).
    """
    x = np.asarray(x, dtype=float)
    val = omega.eval(x)
    if not isinstance(val, DoubleForm):
        raise TypeError("parity_split needs a DoubleForm-valued field")
    pulled = antipodal_pullback(omega, x)
    return 0.5 * (val + pulled), 0.5 * (val - pulled)


def sphere_sample(n: int, count: int = 128, seed: int = 7) -> np.ndarray:
    """Fixed quasi-uniform sample of unit directions (seeded, deterministic)."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((count, n))
    return dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)


def decay_rate(f, radii, samples_per_sphere: int = 128, n: int | None = None,
               directions: np.ndarray | None = None) -> float:
    """Log-log least-squares slope of the sup of |f| over sampled spheres.

    `f` maps a batch of chart points to nonnegative scalars (a field norm).
    Directions are a fixed quasi-uniform sample, not quadrature nodes, so
    that no parity class aliases to zero.  An identically zero field gets
    the flag slope -inf.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 4:
        raise ValueError("decay_rate needs at least 4 radii")
    if directions is None:
        if n is None:
            raise ValueError("pass either `directions` or the dimension `n`")
        directions = sphere_sample(n, samples_per_sphere)
    sups = _sup_curve(f, radii, directions)
    return _slope_of_sups(radii, sups, floor=1e-290)


def _sup_curve(f, radii, directions) -> np.ndarray:
    sups = []
    for r in radii:
        vals = np.asarray(f(r * directions), dtype=float)
        sups.append(float(np.max(np.abs(vals))))
    return np.array(sups)


def _slope_of_sups(radii, sups: np.ndarray, floor: float) -> float:
    if np.all(sups <= floor):
        return float("-inf")
    if np.any(sups <= 0.0):
        raise ValueError("field norm vanishes on some spheres but not all")
    A = np.stack([np.ones(len(radii)), np.log(radii)], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.log(sups), rcond=None)
    return float(coef[1])


def _tensor_norm(arr: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(arr * arr, axis=tuple(range(1, arr.ndim))))


def rt_check(g: MetricField, tau: float, ell: int, radii,
             samples_per_sphere: int = 128, slack: float = 0.1) -> list[ParityReport]:
    """Parity-graded decay reports for e, de, ..., d^ell e.

    Order m must decay like r^(-tau-m) and its odd part one order faster,
    r^(-tau-1-m); a slope passes when it is within `slack` of the
    requirement.  The pullback of an m-th derivative array picks up the
    sign (-1)^m on top of the (p+q)-sign of the deviation itself.
    """
    if ell > g.regularity:
        raise ValueError(
            f"rt_check to order {ell} needs regularity >= {ell}, got {g.regularity}")
    radii = [float(r) for r in radii]
    dirs = sphere_sample(g.n, samples_per_sphere)
    # one jet at the sampled points of each sphere and one at their
    # antipodes; sups[m] holds the full, even and odd sups of order m
    sups = np.empty((ell + 1, 3, len(radii)))
    for j, r in enumerate(radii):
        x = r * dirs
        plus, minus = g.jet(x, ell), g.jet(-x, ell)
        plus[0], minus[0] = plus[0] - np.eye(g.n), minus[0] - np.eye(g.n)
        for m in range(ell + 1):
            sign = (-1.0) ** m  # (p+q) of e is even; each derivative flips once
            parts = (plus[m], 0.5 * (plus[m] + sign * minus[m]),
                     0.5 * (plus[m] - sign * minus[m]))
            sups[m, :, j] = [np.max(np.abs(_tensor_norm(a))) for a in parts]
    names = ["e", "de", "dde", "ddde"]
    reports = []
    for m in range(ell + 1):
        full_sups, even_sups, odd_sups = sups[m]
        # parity parts that are pure roundoff relative to the full component
        # count as identically zero
        floor = max(1e-290, 1e-11 * float(full_sups.max()))
        slope = _slope_of_sups(radii, full_sups, floor=1e-290)
        even_slope = _slope_of_sups(radii, even_sups, floor=floor)
        odd_slope = _slope_of_sups(radii, odd_sups, floor=floor)
        req = -(tau + m)
        req_odd = -(tau + 1.0 + m)
        passed = (slope <= req + slack) and (odd_slope <= req_odd + slack)
        reports.append(ParityReport(names[m], slope, even_slope, odd_slope,
                                    req, req_odd, radii, passed))
    return reports
