"""Numerical double-form calculus and asymptotic invariants of
asymptotically flat metrics.

The package is organized bottom-up: `multiindex` and `dforms` implement the
compressed double-form algebra, `fields` the metric families with exact
derivatives, `curvature` the curvature operators and covariant jets, `gbc`
the Gauss-Bonnet-Chern curvatures and Lovelock tensors, `invariants` the
flux integrands with quadrature and extrapolation, `parity` and
`chartchange` the decay/parity and chart-invariance harnesses, and `cli`
the command-line front end.
"""

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
from .fields import (
    EuclideanMetric,
    MetricField,
    make_rt_perturbation,
    make_schwarzschild,
)
from .curvature import riemann
from .gbc import GBCContext, l_k, lovelock, p_k, ricci, scal
from .invariants import (
    InvariantResult,
    adm_mass_coordinate,
    curvature_center,
    extrapolate,
    gbc_center,
    gbc_mass,
    gbc_mass_center,
    sphere_rule,
)
from .parity import decay_rate, parity_split, rt_check
from .chartchange import invariance_report, make_diffeo, pullback_metric

__version__ = "0.1.0"

__all__ = [
    "DoubleForm", "PointMetric", "bianchi", "contract", "hodge", "inner",
    "metric_form", "transpose", "wedge", "wedge_power",
    "EuclideanMetric", "MetricField", "make_rt_perturbation",
    "make_schwarzschild", "riemann",
    "GBCContext", "l_k", "lovelock", "p_k", "ricci", "scal",
    "InvariantResult", "adm_mass_coordinate", "curvature_center",
    "extrapolate", "gbc_center", "gbc_mass", "gbc_mass_center", "sphere_rule",
    "decay_rate", "parity_split", "rt_check",
    "invariance_report", "make_diffeo", "pullback_metric",
    "__version__",
]
