"""Reference values computed apart from the program under test.

Two kinds of reference live here:

* closed-form constants.  Every per-degree radial problem behind the
  program's finite-element constants is an Euler ODE (or, for the
  Friedrichs eigenproblem, a Bessel ODE), so the exact value is a
  root or a boundary flux of explicit functions;
* a reference energy error, integrated on the benchmark's own tensor
  Gauss-Legendre rule from the field closures, at two resolutions whose
  difference is reported as the reference's own accuracy.

Nothing here calls the program's quadrature, norms or constants.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq
from scipy.special import j0, j1, y0, y1

ROUNDING_SLACK = 1e-8  # relative, on top of the reference's own accuracy
CONSTANT_RTOL = 1e-5  # reported constants may exceed the closed form by this much
FORMULA_RTOL = 1e-12  # constants the program computes by formula


# ---------------------------------------------------------------------------
# closed-form constants


def _radial_solutions(dimension: int, ell: int):
    """The two solutions of the degree-``ell`` radial Laplace equation and
    their derivatives: r^l, r^{-l-1} (N = 3); r^l, r^{-l} (N = 2, l >= 1);
    1, ln r (N = 2, l = 0)."""
    if dimension == 3:
        return (
            lambda r: r**ell,
            lambda r: ell * r ** (ell - 1),
            lambda r: r ** (-ell - 1),
            lambda r: (-ell - 1) * r ** (-ell - 2),
        )
    if ell == 0:
        return (lambda r: 1.0, lambda r: 0.0, math.log, lambda r: 1.0 / r)
    return (
        lambda r: r**ell,
        lambda r: ell * r ** (ell - 1),
        lambda r: r ** (-ell),
        lambda r: -ell * r ** (-ell - 1),
    )


def _harmonic_slope(dimension, ell, one_at, zero_at, slope_at):
    """psi'(slope_at) for the radial harmonic psi with psi(one_at) = 1 and
    psi(zero_at) = 0."""
    f1, d1, f2, d2 = _radial_solutions(dimension, ell)
    det = f1(one_at) * f2(zero_at) - f2(one_at) * f1(zero_at)
    return (d1(slope_at) * f2(zero_at) - d2(slope_at) * f1(zero_at)) / det


def _h_half(dimension, ell, radius):
    return math.sqrt(1.0 + ell * (ell + dimension - 2) / radius**2)


def extension_energies(dimension, a, cutoff, modes):
    """Minimal Dirichlet energy per unit surface-L2 coefficient on the
    sphere of radius a, per degree 0..modes: -psi'(a) for the harmonic
    profile with psi(a) = 1, psi(cutoff) = 0 (the energy is a boundary
    flux because the profile is harmonic)."""
    return [-_harmonic_slope(dimension, l, a, cutoff, a) for l in range(modes + 1)]


def extension_constant(dimension, a, cutoff, modes, c_a_plus):
    return max(
        math.sqrt(e / _h_half(dimension, l, a)) * math.sqrt(c_a_plus)
        for l, e in enumerate(extension_energies(dimension, a, cutoff, modes))
    )


def trace_constant(dimension, a, R, modes, c_a):
    """Per degree, the minimal energy of a profile vanishing at a with unit
    surface-L2 coefficient at R is psi'(R) for the harmonic profile with
    psi(a) = 0, psi(R) = 1."""
    return max(
        math.sqrt(_h_half(dimension, l, R) / (c_a * _harmonic_slope(dimension, l, R, a, R)))
        for l in range(modes + 1)
    )


def friedrichs_constant(dimension, a, R):
    """1/k for the smallest k with tan(k(R - a)) = kR (N = 3) or
    J1(kR) Y0(ka) - Y1(kR) J0(ka) = 0 (N = 2); only degree 0 matters."""
    if dimension == 3:
        L = R - a

        def g(k):
            return math.sin(k * L) - k * R * math.cos(k * L)

        return 1.0 / brentq(g, 1e-9 / L, math.pi / (2.0 * L), xtol=1e-15, rtol=1e-15)

    def g(k):
        return float(j1(k * R) * y0(k * a) - y1(k * R) * j0(k * a))

    # g > 0 near k = 0; scan for the first sign change, then refine
    step = 1e-3 / (R - a)
    k = step
    while g(k + step) > 0.0:
        k += step
    return 1.0 / brentq(g, k, k + step, xtol=1e-15, rtol=1e-15)


def poincare_constant(dimension):
    return 2.0 / (dimension - 2) if dimension >= 3 else 2.0


def weight_formula(dimension, R, c_a):
    if dimension == 2:
        return 2.0 * R * math.log(R) / math.sqrt(c_a)
    return poincare_constant(dimension) * (1.0 + R) / math.sqrt(c_a)


def check_above(name, value, exact, rtol=CONSTANT_RTOL):
    """Problems found with a constant that must not lie below its closed
    form and may exceed it by at most ``rtol`` relative."""
    if not value >= exact:
        return [f"{name}: {value!r} lies below the closed form {exact!r}"]
    if value > exact * (1.0 + rtol):
        return [f"{name}: {value!r} exceeds the closed form {exact!r} by "
                f"{value / exact - 1.0:.2e} relative (> {rtol:.0e})"]
    return []


def check_equal(name, value, exact):
    if abs(value - exact) > FORMULA_RTOL * abs(exact):
        return [f"{name}: {value!r} differs from the formula value {exact!r}"]
    return []


def closed_form_constants(dimension, a, R, c_a, c_a_plus, modes, cutoff=None):
    """Closed-form counterparts of everything a constants bundle reports."""
    cutoff = R if cutoff is None else cutoff
    fried = friedrichs_constant(dimension, a, R)
    formula = weight_formula(dimension, R, c_a)
    eigen = fried / math.sqrt(c_a)
    return {
        "poincare": poincare_constant(dimension),
        "interior_weight_formula": formula,
        "interior_friedrichs": fried,
        "c_o_eigen": min(formula, eigen) if dimension == 2 else eigen,
        "boundary_extension": extension_constant(dimension, a, cutoff, modes, c_a_plus),
        "interface_trace": trace_constant(dimension, a, R, modes, c_a),
        "mode_energies": extension_energies(dimension, a, cutoff, modes),
    }


def check_bundle(label, bundle, domain, A):
    """Check every constant of a ``ConstantsBundle`` against its closed form."""
    exact = closed_form_constants(domain.dimension, domain.a, domain.R, A.c_A,
                                  A.c_A_plus, bundle.modes, bundle.cutoff)
    found = check_equal(f"{label} poincare", bundle.poincare, exact["poincare"])
    found += check_equal(f"{label} c_o_formula", bundle.c_o_formula,
                         exact["interior_weight_formula"])
    found += check_above(f"{label} c_o_eigen", bundle.c_o_eigen, exact["c_o_eigen"])
    for key, report in (("interior_friedrichs", bundle.friedrichs),
                        ("boundary_extension", bundle.extension),
                        ("interface_trace", bundle.trace)):
        found += check_above(f"{label} {key}", report.value, exact[key])
    for l, (got, want) in enumerate(zip(bundle.extension.params["mode_energies"],
                                        exact["mode_energies"])):
        found += check_above(f"{label} extension energy l={l}", got, want)
    return found


# ---------------------------------------------------------------------------
# reference energy error

# (annulus panels, tail panels, polar order) per resolution; 16 Gauss points
# per radial panel; polar order n is exact for spherical polynomials of
# degree <= 2n - 1 (the catalog errors have degree <= 4)
RESOLUTIONS = ((32, 4, 6), (64, 8, 8))
RADIAL_ORDER = 16
CHUNK = 32768


def _composite(lo, hi, panels, order):
    x, w = leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def _directions(dimension, polar_order):
    if dimension == 3:
        mu, wmu = leggauss(polar_order)
        nphi = 2 * polar_order
        phi = 2.0 * math.pi * np.arange(nphi) / nphi
        s = np.sqrt(1.0 - mu**2)[:, None]
        dirs = np.stack([s * np.cos(phi), s * np.sin(phi),
                         np.repeat(mu[:, None], nphi, axis=1)], axis=-1)
        wts = wmu[:, None] * np.full(nphi, 2.0 * math.pi / nphi)
        return dirs.reshape(-1, 3), wts.ravel()
    n = 4 * polar_order
    theta = 2.0 * math.pi * np.arange(n) / n
    return np.stack([np.cos(theta), np.sin(theta)], axis=1), np.full(n, 2.0 * math.pi / n)


def _radial_rule(a, R, annulus_panels, tail_panels):
    r_in, w_in = _composite(a, R, annulus_panels, RADIAL_ORDER)
    t, wt = _composite(0.0, 1.0, tail_panels, RADIAL_ORDER)
    return np.concatenate([r_in, R / t]), np.concatenate([w_in, wt * R / t**2])


def _energy(gradient, matrix, dimension, a, R, annulus_panels, tail_panels, polar_order):
    r, wr = _radial_rule(a, R, annulus_panels, tail_panels)
    dirs, wd = _directions(dimension, polar_order)
    parts = []
    step = max(1, CHUNK // len(dirs))
    for k in range(0, len(r), step):
        rk = r[k:k + step]
        pts = (rk[:, None, None] * dirs[None]).reshape(-1, dimension)
        wts = (wr[k:k + step, None] * rk[:, None] ** (dimension - 1) * wd[None]).ravel()
        g = np.asarray(gradient(pts), dtype=float)
        ag = np.einsum("mij,mj->mi", np.asarray(matrix(pts), dtype=float), g)
        parts.append(math.fsum(np.sum(ag * g, axis=1) * wts))
    return math.sqrt(max(math.fsum(parts), 0.0))


def reference_error(mp, v):
    """(reference energy error of ``v``, its accuracy).

    The error ||A^{1/2} grad(u - v)|| is integrated on a tensor rule of
    composite Gauss-Legendre panels in r (the tail through r = R/t),
    Gauss-Legendre in the polar cosine and the uniform rule in azimuth,
    both far finer than the program's rule.  The accuracy is the change
    between the two resolutions."""
    dom = mp.problem.domain
    grad = (mp.exact_u - v).gradient
    values = [_energy(grad, mp.problem.A.matrix, dom.dimension, dom.a, dom.R, *res)
              for res in RESOLUTIONS]
    return values[-1], abs(values[-1] - values[0])


def bracket_problems(label, ref, acc, lower=None, upper=None):
    """lower <= reference <= upper, within the reference's accuracy plus
    the relative rounding slack."""
    tol = acc + ROUNDING_SLACK * ref
    found = []
    if upper is not None and ref - tol > upper:
        found.append(f"{label}: upper bound {upper!r} is below the reference "
                     f"error {ref!r} (accuracy {acc:.1e})")
    if lower is not None and lower > ref + tol:
        found.append(f"{label}: lower bound {lower!r} exceeds the reference "
                     f"error {ref!r} (accuracy {acc:.1e})")
    return found
