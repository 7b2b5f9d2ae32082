"""Test oracles: finite-difference checks of the derivative closures, the
band-limited function of a trace, the pairing of two traces, the measure
of an annulus, the inverse log-weighted norm, and reference builders of
the analytic fields, each written out as its own closures, that the
program's one separable builder must match bit for bit.  The program
never calls them."""

import math

import numpy as np

from extbounds.fields import ScalarField, VectorField, require_finite
from extbounds.geometry import ExteriorDomain, QuadratureRule, exact_dot, node_radii
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
    # surface measure of S^{n-1}; the formula gives 2*pi and 4*pi to the
    # last bit for N = 2 and 3
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def shell_volume(domain: ExteriorDomain) -> float:
    """Volume of the annulus omega_i."""
    n = domain.dimension
    return unit_sphere_area(n) * (domain.R**n - domain.a**n) / n


def over_rlnr_norm(f: ScalarField, rule: QuadratureRule) -> float:
    """||f / (r ln r)|| over a 2D rule with all nodes at radius > 1: the
    weight of the 2D Poincare inequality, the dual of ``log_weighted_norm``."""
    assert rule.dimension == 2
    r = node_radii(rule.nodes)
    assert np.min(r) > 1.0
    vals = np.asarray(f.value(rule.nodes), dtype=float) ** 2 * (r * np.log(r)) ** -2
    require_finite(vals, rule.nodes, f.label, "over_rlnr")
    return math.sqrt(max(exact_dot(vals, rule.weights), 0.0))


# ---------------------------------------------------------------------------
# reference field builders: every profile, angular factor and gradient of
# x_i / r^m written out on its own, with the operations the program's
# ``fields.separable_field`` must keep in the same order


def radial_scalar(p, dp, label: str) -> ScalarField:
    """Scalar field p(r) with gradient dp(r) x/r."""

    def value(pts):
        return p(node_radii(pts))

    def gradient(pts):
        pts = np.atleast_2d(pts)
        r = node_radii(pts)
        return (dp(r) / r)[:, None] * pts

    return ScalarField(value=value, gradient=gradient, label=label)


def separable_closures(p, dp, ang_value, ang_gradient, label: str = "separable",
                       support=None) -> ScalarField:
    """p(r) * q(x) for the closures (q, grad q), q homogeneous of degree
    zero; q may be any such function, not only one of degree <= 1."""

    def value(pts):
        pts = np.atleast_2d(pts)
        return p(node_radii(pts)) * ang_value(pts)

    def gradient(pts):
        pts = np.atleast_2d(pts)
        r = node_radii(pts)
        radial_part = (dp(r) * ang_value(pts) / r)[:, None] * pts
        return radial_part + p(r)[:, None] * ang_gradient(pts)

    return ScalarField(value=value, gradient=gradient, label=label, support=support)


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def _smoothstep_deriv(t):
    inside = (t > 0.0) & (t < 1.0)
    return np.where(inside, -30.0 * t**2 * (1.0 - t) ** 2, 0.0)


def ramp_profile(r_one: float, r_zero: float):
    """C^2 radial ramp: 1 for r <= r_one, 0 for r >= r_zero; (p, dp)."""
    width = r_zero - r_one

    def p(r):
        return _smoothstep((np.asarray(r, dtype=float) - r_one) / width)

    def dp(r):
        return _smoothstep_deriv((np.asarray(r, dtype=float) - r_one) / width) / width

    return p, dp


def mollifier_profile(center: float, width: float):
    """exp(-1/(1-t^2)), t = (s - center)/width, and its derivative."""

    def p(s):
        t = (np.asarray(s, dtype=float) - center) / width
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0 - 1e-14
        ti = t[inside]
        out[inside] = np.exp(-1.0 / (1.0 - ti**2))
        return out

    def dp(s):
        t = (np.asarray(s, dtype=float) - center) / width
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0 - 1e-14
        ti = t[inside]
        out[inside] = (
            np.exp(-1.0 / (1.0 - ti**2)) * (-2.0 * ti / (1.0 - ti**2) ** 2) / width
        )
        return out

    return p, dp


def basis_bump(c: float, h: float):
    """(1 - t^2)^3, t = (r - c)/h, clipped to 0 outside |t| < 1, and its
    derivative: the minorant basis profile."""

    def p(r):
        t = (np.asarray(r, dtype=float) - c) / h
        t2 = np.clip(t**2, None, 1.0)
        return (1.0 - t2) ** 3

    def dp(r):
        t = (np.asarray(r, dtype=float) - c) / h
        inside = np.abs(t) < 1.0
        return np.where(inside, -6.0 * t * (1.0 - t**2) ** 2 / h, 0.0)

    return p, dp


def angular_monomial(dimension: int, index: int):
    """(value, gradient) of 1 (index 0) or of x_i / r (index i >= 1)."""
    if index == 0:
        return (
            lambda pts: np.ones(len(np.atleast_2d(pts))),
            lambda pts: np.zeros_like(np.atleast_2d(pts), dtype=float),
        )
    i = index - 1

    def value(pts):
        pts = np.atleast_2d(pts)
        return pts[:, i] / node_radii(pts)

    def gradient(pts):
        pts = np.atleast_2d(pts)
        r = node_radii(pts)
        out = -pts * (pts[:, i] / r**3)[:, None]
        out[:, i] += 1.0 / r
        return out

    return value, gradient


def random_angular(dim: int, coeffs):
    """(value, gradient) of c_0 + sum_i c_i x_i / r, term by term."""

    def value(pts):
        out = coeffs[0] * np.ones(len(np.atleast_2d(pts)))
        for i in range(1, dim + 1):
            v, _ = angular_monomial(dim, i)
            out = out + coeffs[i] * v(pts)
        return out

    def gradient(pts):
        out = np.zeros_like(np.atleast_2d(pts), dtype=float)
        for i in range(1, dim + 1):
            _, gr = angular_monomial(dim, i)
            out = out + coeffs[i] * gr(pts)
        return out

    return value, gradient


def harmonic_gradient(dimension: int, index: int):
    """The value closure of grad(1/r) (index 0) or of grad(x_i / r^N)."""
    if index == 0:
        def value(pts):
            pts = np.atleast_2d(pts)
            return -pts / node_radii(pts)[:, None] ** 3

        return value
    i, n = index - 1, dimension

    def value(pts):
        pts = np.atleast_2d(pts)
        r = node_radii(pts)
        out = -n * pts * (pts[:, i] / r ** (n + 2))[:, None]
        out[:, i] += 1.0 / r**n
        return out

    return value
