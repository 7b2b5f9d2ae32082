"""Test oracles: finite-difference checks of the derivative closures, the
band-limited function of a trace, the pairing of two traces, and the
measure of an annulus.  The program never calls them."""

import math

import numpy as np

from extbounds.fields import ScalarField, VectorField
from extbounds.geometry import ExteriorDomain
from extbounds.traces import SphereTrace, _require_compatible, basis_matrix


def check_gradient(
    f: ScalarField, points: np.ndarray, step: float = 1e-5, rtol: float = 1e-6
) -> float:
    """Max deviation between the gradient closure and central differences
    of the value closure, relative to the gradient magnitude over the
    sample; raises if above ``rtol``."""
    points = np.atleast_2d(points)
    grad = np.asarray(f.gradient(points), dtype=float)
    num = np.empty_like(grad)
    for j in range(points.shape[1]):
        hp = points.copy()
        hm = points.copy()
        hp[:, j] += step
        hm[:, j] -= step
        num[:, j] = (np.asarray(f.value(hp)) - np.asarray(f.value(hm))) / (2 * step)
    scale = max(float(np.max(np.abs(grad))), float(np.max(np.abs(num))), 1e-30)
    dev = float(np.max(np.abs(grad - num))) / scale
    if dev > rtol:
        raise AssertionError(
            f"gradient closure of {f.label!r} deviates from finite differences "
            f"by {dev:.3e} (tolerance {rtol:.1e})"
        )
    return dev


def check_divergence(
    y: VectorField, points: np.ndarray, step: float = 1e-5, rtol: float = 1e-6
) -> float:
    """Same cross-check for the divergence closure.  The deviation is
    normalized by the magnitude of the individual directional-derivative
    terms, because the divergence itself may cancel to zero exactly
    (solenoidal fields)."""
    points = np.atleast_2d(points)
    div = np.asarray(y.divergence(points), dtype=float)
    num = np.zeros(len(points))
    term_scale = np.zeros(len(points))
    for j in range(points.shape[1]):
        hp = points.copy()
        hm = points.copy()
        hp[:, j] += step
        hm[:, j] -= step
        term = (
            np.asarray(y.value(hp))[:, j] - np.asarray(y.value(hm))[:, j]
        ) / (2 * step)
        num += term
        term_scale += np.abs(term)
    scale = max(float(np.max(term_scale)), float(np.max(np.abs(div))), 1e-30)
    dev = float(np.max(np.abs(div - num))) / scale
    if dev > rtol:
        raise AssertionError(
            f"divergence closure of {y.label!r} deviates from finite differences "
            f"by {dev:.3e} (tolerance {rtol:.1e})"
        )
    return dev


def reconstruct(t: SphereTrace) -> ScalarField:
    """Band-limited function whose expansion is ``t`` (values only)."""

    def value(pts):
        basis = basis_matrix(t.dimension, t.degree, t.radius, pts)
        return t.coefficients @ basis

    return ScalarField(value=value, gradient=None, label="trace-reconstruction")


def surface_l2_norm(t: SphereTrace) -> float:
    """L^2 norm over the sphere of the band-limited function ``t``
    expands: the basis is orthonormal, so that of its coefficients."""
    return float(np.sqrt(np.sum(t.coefficients**2)))


def duality_pairing(t1: SphereTrace, t2: SphereTrace) -> float:
    _require_compatible(t1, t2)
    return float(np.sum(t1.coefficients * t2.coefficients))


def unit_sphere_area(n: int) -> float:
    # surface measure of S^{n-1}; the N = 1 "sphere" is a single point.  The
    # formula gives 2*pi and 4*pi to the last bit for N = 2 and 3.
    if n == 1:
        return 1.0
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def shell_volume(domain: ExteriorDomain) -> float:
    """Volume (length for N = 1) of the annulus omega_i."""
    n = domain.dimension
    return unit_sphere_area(n) * (domain.R**n - domain.a**n) / n
