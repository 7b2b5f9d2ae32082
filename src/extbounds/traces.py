"""Spectral traces on spheres and the fractional norms built on them.

A trace is stored as coefficients with respect to an orthonormal basis of
the surface-measure L^2 space: real spherical harmonics for N = 3,
normalized Fourier modes on the circle for N = 2.  The H^{+1/2} and
H^{-1/2} norms use the Laplace-Beltrami multiplier
``(1 + l(l+N-2)/radius^2)^{+-1/2}``; every boundary/interface constant in
:mod:`extbounds.constants` is computed against this same norm, which keeps
the bound chain consistent.

A trace is expanded along one of two paths.  A field with terms
(``fields.Term``: p(r) (c . phi), phi = (1, x_1/r, ..., x_N/r)) has the
trace sum_k p_k(radius) (c_k . phi) on the sphere of ``radius``, of degree
at most 1, so its coefficients are c . Phi with the closed-form
projections Phi of phi onto the basis (``_from_terms``, from the moments
|S| and |S|/N of 1 and omega_i^2; Folland, Amer. Math. Monthly 108, 2001):
no closure is evaluated, no basis is built, and nothing lies above a band
of degree 1 or more.  The normal trace of a sum of harmonic gradients
grad h_k, h_k = p_k(r) (c_k . phi), is sum_k p_k'(radius) (c_k . phi) the
same way.  Every other function (a field without terms, a flux with a
potential A grad phi, whose normal trace has degree up to 3 when A is not
a multiple of I, a bump whose support holds the sphere, a term sum that is
not finite) is sampled on a rule of the sphere and projected
(``_project``), which also keeps what the band leaves out.

For N = 3 the basis is built by the recurrences of the fully normalized
associated Legendre functions.  A projection onto a rule takes the basis
from the rule (:meth:`~extbounds.geometry.QuadratureRule.derived`), so it
is built once per rule, degree and radius.  The basis is orthonormal on
the rule, so what a projection leaves out has the rule's L^2 energy of
the function less the sum of the squared coefficients; each trace keeps
it as ``above_band``, integrated from the values left out, which avoids
the cancellation of that difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import ScalarField, VectorField, _sphere_area, support_rows
from .geometry import QuadratureRule, exact_dot, exact_sum, node_radii, row_sum


class TraceError(ValueError):
    """Invalid trace metadata or an insufficient angular rule."""


class BandLimitError(TraceError):
    """A trace has energy above the band that no bound accounts for."""


def coefficient_count(dimension: int, degree: int) -> int:
    if dimension == 3:
        return (degree + 1) ** 2
    if dimension == 2:
        return 2 * degree + 1
    raise TraceError(f"traces require dimension 2 or 3, got {dimension}")


def degree_of_index(dimension: int, degree: int) -> np.ndarray:
    """Harmonic degree l for each coefficient slot."""
    if dimension == 3:
        return np.repeat(np.arange(degree + 1), 2 * np.arange(degree + 1) + 1)
    out = np.zeros(2 * degree + 1, dtype=int)
    out[1::2] = np.arange(1, degree + 1)
    out[2::2] = np.arange(1, degree + 1)
    return out


def _legendre_rows(degree: int, mu: np.ndarray) -> np.ndarray:
    """Associated Legendre functions with the Condon-Shortley phase of
    ``scipy.special.lpmv``, normalized to mean square 1 over the sphere:
    row l^2 + l + m (m >= 0) holds sqrt((2l+1) (l-m)!/(l+m)!) P_l^m(mu).

    Built by the standard recurrences for fully normalized functions
    (Holmes & Featherstone, J. Geodesy 76, 2002): along the diagonal from
    P_0^0, then up in l at fixed m, with no factorial ratios.  They run in
    numpy's longdouble, which on x86 carries 11 bits more than float64:
    near the zeros of a function, where the recurrence cancels, its float64
    rounding then stays within a few ulps of the value."""
    x = np.asarray(mu, dtype=np.longdouble)
    sin_theta = np.sqrt((1 - x) * (1 + x))
    rows = np.zeros(((degree + 1) ** 2, len(x)), dtype=np.longdouble)
    diag = np.ones(len(x), dtype=np.longdouble)
    for m in range(degree + 1):
        if m > 0:
            diag = -np.sqrt(np.longdouble(2 * m + 1) / (2 * m)) * sin_theta * diag
        rows[m * m + 2 * m] = prev = diag
        if m < degree:
            rows[(m + 1) ** 2 + 2 * m + 1] = cur = np.sqrt(np.longdouble(2 * m + 3)) * x * diag
        for l in range(m + 2, degree + 1):
            a = np.sqrt(np.longdouble(4 * l * l - 1) / (l * l - m * m))
            b = np.sqrt(np.longdouble((2 * l + 1) * ((l - 1) ** 2 - m * m))
                        / ((2 * l - 3) * (l * l - m * m)))
            prev, cur = cur, a * x * cur - b * prev
            rows[l * l + l + m] = cur
    return rows.astype(float)


def basis_matrix(
    dimension: int, degree: int, radius: float, points: np.ndarray
) -> np.ndarray:
    """Evaluate the orthonormal surface basis at points on the sphere.

    Returns an array of shape (n_basis, n_points).  Index layout: for
    N = 3 the slot of (l, m) is l^2 + l + m with real harmonics
    (m < 0 -> sin, m > 0 -> cos); for N = 2 the layout is
    [const, cos th, sin th, cos 2th, sin 2th, ...].
    """
    pts = np.atleast_2d(points)
    r = node_radii(pts)
    if dimension == 3:
        mu = pts[:, 2] / r
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        rows = _legendre_rows(degree, mu)
        for l in range(degree + 1):
            rows[l * l + l] *= 0.5 / math.sqrt(math.pi)
            for m in range(1, l + 1):
                p = rows[l * l + l + m] / math.sqrt(2.0 * math.pi)
                rows[l * l + l + m] = p * np.cos(m * phi)
                rows[l * l + l - m] = p * np.sin(m * phi)
        # orthonormal w.r.t. the surface measure: divide by radius^{(N-1)/2}
        return rows / radius
    if dimension == 2:
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        rows = np.empty((2 * degree + 1, len(pts)))
        rows[0] = 1.0 / math.sqrt(2.0 * math.pi * radius)
        for k in range(1, degree + 1):
            rows[2 * k - 1] = np.cos(k * theta) / math.sqrt(math.pi * radius)
            rows[2 * k] = np.sin(k * theta) / math.sqrt(math.pi * radius)
        return rows
    raise TraceError(f"traces require dimension 2 or 3, got {dimension}")


@dataclass(frozen=True)
class SphereTrace:
    """Function on a sphere, stored spectrally up to ``degree``, with the
    L^2 energy ``above_band`` of what the projection onto it left out."""

    radius: float
    dimension: int
    degree: int
    coefficients: np.ndarray
    above_band: float = field(default=0.0, compare=False)

    def __post_init__(self):
        coeffs = np.ascontiguousarray(self.coefficients, dtype=float)
        expected = coefficient_count(self.dimension, self.degree)
        if coeffs.shape != (expected,):
            raise TraceError(
                f"coefficient count {coeffs.shape} does not match degree "
                f"{self.degree} in dimension {self.dimension} (expected {expected})"
            )
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    def degrees(self) -> np.ndarray:
        return degree_of_index(self.dimension, self.degree)


def _require_compatible(t1: SphereTrace, t2: SphereTrace) -> None:
    if (
        t1.dimension != t2.dimension
        or t1.degree != t2.degree
        or not math.isclose(t1.radius, t2.radius, rel_tol=1e-14)
    ):
        raise TraceError(
            "trace metadata mismatch: "
            f"(N={t1.dimension}, L={t1.degree}, r={t1.radius}) vs "
            f"(N={t2.dimension}, L={t2.degree}, r={t2.radius})"
        )


def _check_rule(rule: QuadratureRule, radius: float, degree: int) -> None:
    if rule.angular_order < degree + 1:
        raise TraceError(
            f"angular order {rule.angular_order} insufficient for degree "
            f"{degree}: need angular_order >= L + 1 for exact products"
        )
    if rule.radial is None:
        on_sphere = rule.derived(("on sphere", radius), lambda: np.array(
            np.allclose(node_radii(rule.nodes), radius, rtol=1e-12, atol=0.0)))
    else:  # a tensor rule: unit directions times its radial nodes
        radii = rule.radial[0]
        on_sphere = len(radii) == 1 and abs(float(radii[0]) - radius) <= 1e-12 * abs(radius)
    if not on_sphere:
        raise TraceError("quadrature rule does not live on the requested sphere")


def _project(values, radius, degree, rule):
    """Trace whose coefficients are the exact sums of ``values``, sampled
    on ``rule``, times the weights against each basis function.  Its
    ``above_band`` integrates the square of what the projection leaves:
    the integral of values^2 less the sum of the squared coefficients."""
    _check_rule(rule, radius, degree)
    dimension = rule.dimension
    basis = rule.derived(("trace basis", degree, radius),
                         lambda: basis_matrix(dimension, degree, radius, rule.nodes))
    coeffs = exact_dot(basis, values * rule.weights)
    rest = values - coeffs @ basis
    with np.errstate(over="ignore"):  # an energy past the float range raises below
        above_band = exact_sum(rest * rest * rule.weights)
        if np.isinf(above_band + coeffs @ coeffs):  # a NaN stays for the callers' checks
            raise OverflowError(
                f"the trace on the sphere of radius {radius} has an L^2 energy "
                "beyond the float range")
    return SphereTrace(radius, dimension, degree, coeffs, above_band=above_band)


# for omega_i = x_i/r, i = 1, ..., N: the slot of the degree-1 basis function
# it is a multiple of, in the layout of ``basis_matrix``, and the sign of that
# multiple.  For N = 3, with the Condon-Shortley phase, x/r and y/r are
# negative multiples of the (1, 1) cosine and the (1, -1) sine harmonic, z/r
# a positive one of (1, 0).
_DEGREE_ONE = {3: (np.array([3, 1, 2]), np.array([-1.0, -1.0, 1.0])),
               2: (np.array([1, 2]), np.array([1.0, 1.0]))}


def _holds(support, radius: float) -> bool:
    """Whether ``support`` (None: every radius) has the sphere of ``radius``
    among the radii ``fields.support_rows`` finds for it."""
    return support is None or support_rows(np.array([radius]), support) == (0, 1)


def _from_terms(terms, profile, radius, degree, rule) -> SphereTrace | None:
    """The trace of sum_k P_k(radius) (c_k . phi) on the sphere of
    ``radius``, P_k = ``profile(t_k)`` (p or p') for the terms t_k of
    ``terms`` whose support holds it, or None where it is not finite.  With
    c the sum of the c_k, its coefficients are c . Phi for the projections
    Phi of phi onto the basis: |S|^{1/2} radius^{(N-1)/2} for 1 in the
    constant slot, and (|S|/N)^{1/2} radius^{(N-1)/2} for omega_i in the
    degree-1 slot ``_DEGREE_ONE`` names, with its sign.  Nothing lies above
    a band of degree 1 or more; for degree 0 ``above_band`` is the exact
    degree-1 energy.  The rule is checked as for a projection."""
    _check_rule(rule, radius, degree)
    n = rule.dimension
    at, c = np.array([radius]), np.zeros(n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in terms:
            if _holds(t.support, radius):
                c[:len(t.angular)] += float(profile(t)(at)[0]) * np.array(t.angular)
        area = _sphere_area(n) * radius ** (n - 1)
        coeffs = np.zeros(coefficient_count(n, degree))
        coeffs[0] = math.sqrt(area) * c[0]
        slots, signs = _DEGREE_ONE[n]
        ones = math.sqrt(area / n) * signs * c[1:]
        if degree:
            coeffs[slots] = ones
        above_band = 0.0 if degree else float(ones @ ones)
        if not math.isfinite(coeffs @ coeffs + above_band):
            return None
    return SphereTrace(radius, n, degree, coeffs, above_band=above_band)


def analyze(f: ScalarField, radius: float, degree: int, rule: QuadratureRule) -> SphereTrace:
    """Expand ``f`` restricted to the sphere of ``radius`` in the surface
    basis up to ``degree``: in closed form from its terms, else (or where
    their sum is not finite) by quadrature of the projection integrals."""
    trace = None if f.terms is None else _from_terms(f.terms, lambda t: t.p, radius, degree, rule)
    if trace is None:
        trace = _project(np.asarray(f.value(rule.nodes), dtype=float), radius, degree, rule)
    return trace


def normal_trace(
    y: VectorField, radius: float, degree: int, rule: QuadratureRule
) -> SphereTrace:
    """Expand the outward normal component x/|x| . y on the sphere: for a
    sum of harmonic gradients grad h_k and bumps off the sphere, h_k =
    p_k (c_k . phi), in closed form as sum_k p_k'(radius) (c_k . phi), else
    (or where that sum is not finite) by quadrature of the projection
    integrals."""
    trace = None
    if (y.gradients or y.bumps) and not y.potential and not any(
            _holds(t.support, radius) for t in y.bumps):
        trace = _from_terms(y.gradients, lambda t: t.dp, radius, degree, rule)
    if trace is None:
        pts = rule.nodes
        vals = np.asarray(y.value(pts), dtype=float)
        normal = pts / node_radii(pts)[:, None]
        trace = _project(row_sum(vals * normal), radius, degree, rule)
    return trace


def sobolev_weight(ell, dimension: int, radius: float):
    """1 + l(l+N-2)/radius^2 for degree ``ell`` (a number or an array): the
    H^1 weight of the degree-l harmonics on the sphere of ``radius``, whose
    +-1/2 power is the H^{+-1/2} multiplier."""
    return 1.0 + ell * (ell + dimension - 2) / radius**2


def sobolev_multipliers(t: SphereTrace, exponent: float) -> np.ndarray:
    return sobolev_weight(t.degrees().astype(float), t.dimension, t.radius) ** exponent


def sobolev_norm(t: SphereTrace, exponent: float) -> float:
    """Spectral H^{+1/2} / H^{-1/2} norm (exponent +0.5 or -0.5)."""
    if exponent not in (0.5, -0.5):
        raise ValueError("exponent must be +0.5 or -0.5")
    mult = sobolev_multipliers(t, exponent)
    return float(np.sqrt(np.sum(mult * t.coefficients**2)))


def difference(t1: SphereTrace, t2: SphereTrace) -> SphereTrace:
    """Coefficient-wise t1 - t2."""
    _require_compatible(t1, t2)
    return SphereTrace(
        t1.radius, t1.dimension, t1.degree, t1.coefficients - t2.coefficients
    )
