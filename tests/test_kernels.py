"""The folded flux kernels against the dense double-form reference.

The dense path (`_flux_form`, `_center_form`, the `*_alt` integrands and the
per-axis curvature-center formula) is the readable definition; the kernels
must agree with it to 1e-12 relative at random points for every admissible
(n, k) with n <= 6.  Quadrature of vector integrands must sum and refine
each component as the scalar quadrature would.
"""

import numpy as np
import pytest

from asymflat.dforms import DoubleForm, hodge
from asymflat.fields import make_rt_perturbation, make_schwarzschild
from asymflat.gbc import GBCContext, lovelock
from asymflat.invariants import (
    _adaptive_integral,
    _center_form,
    _flux_form,
    _pair_normal,
    center_integrand,
    center_integrand_alt,
    curvature_center_integrand,
    integrate_sphere,
    mass_integrand,
    mass_integrand_alt,
    sphere_rule,
)
from asymflat.kernels import center_kernel, mass_kernel

# every (n, k) with n >= 2k that a GBCContext accepts; gbc_mass and the
# Lovelock tensor need n >= 2k + 1
ADMISSIBLE = [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (6, 3)]
LOVELOCK = [(n, k) for n, k in ADMISSIBLE if n >= 2 * k + 1]
# nonzero entries of the full multilinear forms; a densified build shows here
NNZ = {(3, 1): 12, (4, 1): 24, (4, 2): 144, (5, 1): 40, (5, 2): 720,
       (6, 1): 60, (6, 2): 2160, (6, 3): 900}
RTOL = 1e-12


def _points(n, count, seed):
    """Random points at radius 3..6 with their outward unit normals."""
    rng = np.random.default_rng(seed)
    nu = rng.standard_normal((count, n))
    nu /= np.linalg.norm(nu, axis=-1, keepdims=True)
    return (3.0 + 3.0 * rng.random((count, 1))) * nu, nu


def _metrics(n, k):
    # a generic symmetric perturbation (no conformal structure) and a
    # translated Schwarzschild field
    yield make_rt_perturbation(n, 1.0, seed=n + 10 * k, parity="mixed",
                               amplitude=0.3)
    if n >= 2 * k + 1:
        yield make_schwarzschild(n, k, 1.3, center=0.4 * np.ones(n) / np.sqrt(n))


def _close(fast, dense):
    assert fast.shape == dense.shape
    scale = np.abs(dense).max()
    assert scale > 0.0
    assert np.abs(fast - dense).max() <= RTOL * scale


@pytest.mark.parametrize("n,k", ADMISSIBLE)
def test_kernel_nonzero_counts(n, k):
    mass, center = mass_kernel(n, k), center_kernel(n, k)
    assert np.count_nonzero(mass.coef) == NNZ[(n, k)]
    assert np.count_nonzero(center.coef) == NNZ[(n, k)]
    assert mass.coef.shape == (len(mass.first), n)
    assert center.coef.shape == (len(center.first), n * n)


@pytest.mark.parametrize("n,k", ADMISSIBLE)
def test_mass_kernel_matches_dense(n, k):
    ctx = GBCContext(n, k)
    for seed, g in enumerate(_metrics(n, k)):
        x, nu = _points(n, 9, seed)
        dense = _pair_normal(hodge(_flux_form(g, x, ctx)), nu)
        fast = mass_integrand(g, x, nu, ctx)
        _close(fast, dense)
        _close(fast, mass_integrand_alt(g, x, nu, ctx))
        _close(mass_integrand(g, x[0], nu[0], ctx), dense[0])


@pytest.mark.parametrize("n,k", ADMISSIBLE)
def test_center_kernel_all_axes_match_dense(n, k):
    ctx = GBCContext(n, k)
    for seed, g in enumerate(_metrics(n, k)):
        x, nu = _points(n, 7, seed + 5)
        dense = np.stack([
            _pair_normal(hodge(DoubleForm(n, n - 1, n, _center_form(g, x, ctx, a))), nu)
            for a in range(n)], axis=-1)
        fast = center_integrand(g, x, nu, ctx)
        _close(fast, dense)
        _close(center_integrand(g, x, nu, ctx, 1), center_integrand_alt(g, x, nu, ctx, 1))
        _close(center_integrand(g, x[2], nu[2], ctx), dense[2])


@pytest.mark.parametrize("n,k", LOVELOCK)
def test_curvature_center_all_axes_match_per_axis(n, k):
    ctx = GBCContext(n, k)
    g = next(_metrics(n, k))
    x, nu = _points(n, 6, 3)
    T = lovelock(g, x, ctx).comps
    r2 = np.sum(x * x, axis=-1)
    per_axis = []
    for a in range(n):
        X = r2[:, None] * np.eye(n)[a] - 2.0 * x[:, a, None] * x
        per_axis.append(np.einsum("...i,...ij,...j->...", X, T, nu))
    fast = curvature_center_integrand(g, x, nu, ctx)
    _close(fast, np.stack(per_axis, axis=-1))
    _close(curvature_center_integrand(g, x, nu, ctx, 2), per_axis[2])


def test_kernels_are_built_lazily():
    mass_kernel.cache_clear()
    center_kernel.cache_clear()
    GBCContext(5, 2)
    assert mass_kernel.cache_info().currsize == 0
    assert center_kernel.cache_info().currsize == 0
    assert mass_kernel(5, 2) is mass_kernel(5, 2)


def test_kernel_rejects_inadmissible_orders():
    for n, k in ((3, 2), (5, 3), (3, 0)):
        with pytest.raises(ValueError):
            mass_kernel(n, k)


def test_vector_quadrature_matches_componentwise():
    rule = sphere_rule(4, 3.0, 6)
    fs = [lambda x, nu: np.sin(x[:, 0]) + x[:, 1] ** 2,
          lambda x, nu: nu[:, 2] * x[:, 3],
          lambda x, nu: np.ones(x.shape[0])]
    vec = integrate_sphere(rule, lambda x, nu: np.stack([f(x, nu) for f in fs], -1),
                           chunk=100)
    assert vec.shape == (3,)
    assert vec.tolist() == [integrate_sphere(rule, f, chunk=100) for f in fs]


def test_vector_refinement_waits_for_every_component():
    # the first component settles at once; the second needs more nodes
    scalar = _adaptive_integral(3, 1.0, 4, lambda x, nu: x[:, 0] ** 12)
    both = _adaptive_integral(
        3, 1.0, 4, lambda x, nu: np.stack([np.ones(x.shape[0]), x[:, 0] ** 12], -1))
    assert both[1] == scalar
