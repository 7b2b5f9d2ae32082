"""Spectral traces on spheres and the fractional norms built on them.

A trace is stored as coefficients with respect to an orthonormal basis of
the surface-measure L^2 space: real spherical harmonics for N = 3,
normalized Fourier modes on the circle for N = 2.  For N = 3 the slot of
(l, m) is l^2 + l + m, with the Condon-Shortley phase (m < 0: sin, m > 0:
cos); for N = 2 the slots are [const, cos th, sin th, cos 2th, ...].  The
H^{+1/2} and H^{-1/2} norms use the Laplace-Beltrami multiplier
``(1 + l(l+N-2)/radius^2)^{+-1/2}``; every boundary/interface constant in
:mod:`extbounds.constants` is computed against this same norm, which keeps
the bound chain consistent.

Every trace is summed from terms.  A field with terms (``fields.Term``:
p(r) (c . phi), phi = (1, x_1/r, ..., x_N/r)) has the trace
sum_k p_k(radius) (c_k . phi) on the sphere of ``radius``, of degree at
most 1, so its coefficients are c . Phi with the closed-form projections
Phi of phi onto the basis (``_from_terms``, from the moments |S| and |S|/N
of 1 and omega_i^2; Folland, Amer. Math. Monthly 108, 2001): no closure is
evaluated, and nothing lies above a band of degree 1 or more.  The normal
trace of a sum of harmonic gradients grad h_k, h_k = p_k(r) (c_k . phi),
and of bumps off the sphere is sum_k p_k'(radius) (c_k . phi) the same
way.  What the terms do not give is refused by name: a field without
terms, a flux with a potential A grad phi (whose normal trace has degree
up to 3 when A is not a multiple of I) and a bump whose support holds the
sphere raise ``ValueError``, and a term sum that is not finite raises
``OverflowError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import ScalarField, VectorField, _sphere_area, support_rows, terms_of
from .geometry import QuadratureRule


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


@dataclass(frozen=True)
class SphereTrace:
    """Function on a sphere, stored spectrally up to ``degree``, with the
    L^2 energy ``above_band`` of its part above that degree."""

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
    """Refuse a rule whose angular order is below ``degree`` + 1, or whose
    radial factor is not the one node ``radius``."""
    if rule.angular_order < degree + 1:
        raise TraceError(
            f"angular order {rule.angular_order} insufficient for degree "
            f"{degree}: need angular_order >= L + 1 for exact products"
        )
    if rule.radial is None:
        raise TraceError("a trace needs a tensor rule of the sphere, and this rule has no "
                         "radial factor")
    radii = rule.radial[0]  # a tensor rule: unit directions times its radial nodes
    if len(radii) != 1 or abs(float(radii[0]) - radius) > 1e-12 * abs(radius):
        raise TraceError("quadrature rule does not live on the requested sphere")


# for omega_i = x_i/r, i = 1, ..., N: the slot of the degree-1 basis function
# it is a multiple of, in the layout above, and the sign of that
# multiple.  For N = 3, with the Condon-Shortley phase, x/r and y/r are
# negative multiples of the (1, 1) cosine and the (1, -1) sine harmonic, z/r
# a positive one of (1, 0).
_DEGREE_ONE = {3: (np.array([3, 1, 2]), np.array([-1.0, -1.0, 1.0])),
               2: (np.array([1, 2]), np.array([1.0, 1.0]))}


def _holds(support, radius: float) -> bool:
    """Whether ``support`` (None: every radius) has the sphere of ``radius``
    among the radii ``fields.support_rows`` finds for it."""
    return support is None or support_rows(np.array([radius]), support) == (0, 1)


def _from_terms(terms, profile, radius, degree, rule) -> SphereTrace:
    """The trace of sum_k P_k(radius) (c_k . phi) on the sphere of
    ``radius``, P_k = ``profile(t_k)`` (p or p') for the terms t_k of
    ``terms`` whose support holds it.  With c the sum of the c_k, its
    coefficients are c . Phi for the projections Phi of phi onto the basis:
    |S|^{1/2} radius^{(N-1)/2} for 1 in the constant slot, and
    (|S|/N)^{1/2} radius^{(N-1)/2} for omega_i in the degree-1 slot
    ``_DEGREE_ONE`` names, with its sign.  Nothing lies above a band of
    degree 1 or more; for degree 0 ``above_band`` is the exact degree-1
    energy.  ``rule`` is checked (``_check_rule``), and an energy that is
    not finite raises ``OverflowError``."""
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
            raise OverflowError(f"the trace on the sphere of radius {radius} has an L^2 energy "
                                "beyond the float range")
    return SphereTrace(radius, n, degree, coeffs, above_band=above_band)


def analyze(f: ScalarField, radius: float, degree: int, rule: QuadratureRule,
            role: str = "the field") -> SphereTrace:
    """Expand ``f`` restricted to the sphere of ``radius`` in the surface
    basis up to ``degree``, in closed form from its terms; a field without
    terms is refused, named as ``role``."""
    return _from_terms(terms_of(f, role), lambda t: t.p, radius, degree, rule)


def normal_trace(
    y: VectorField, radius: float, degree: int, rule: QuadratureRule
) -> SphereTrace:
    """Expand the outward normal component x/|x| . y on the sphere, for y a
    sum of harmonic gradients grad h_k and bumps off the sphere, h_k =
    p_k (c_k . phi), in closed form as sum_k p_k'(radius) (c_k . phi).  A
    field without terms, one with a potential and a bump whose support
    holds the sphere are refused by name."""
    if terms_of(y, "the flux"):
        raise ValueError(f"the flux ({y.label!r}) has a potential, whose normal trace its "
                         "terms do not give")
    if any(_holds(t.support, radius) for t in y.bumps):
        raise ValueError(f"the flux ({y.label!r}) has a bump whose support holds the sphere "
                         f"of radius {radius}, whose normal trace its terms do not give")
    return _from_terms(y.gradients, lambda t: t.dp, radius, degree, rule)


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
