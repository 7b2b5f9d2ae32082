"""Manufactured exterior-domain problems with exact solutions and fluxes.

A ``Problem`` holds the flux F of its load, with an analytic divergence
closure, and derives f := -div F from it, so the two can never drift
apart; the minorant reads F alone.  Every catalog entry takes the exact
flux F = A grad u, so the data cannot drift out of sync with the
solution either.  Perturbation generators produce the test inputs for
the upper/lower bound studies: interior bumps (traces intact), boundary
modes (trace mismatch), and interface jumps (broken normal traces).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import traces
from .constants import ConstantsBundle, compute_bundle
from .fields import (
    Coefficient,
    ScalarField,
    VectorField,
    energy_norm,
    gradient_on,
    mollifier,
    mollifier_deriv,
    profile,
    ramp,
    ramp_deriv,
    ratio_gradient,
    separable_field,
)
from .geometry import (
    ExteriorDomain,
    NodeMemo,
    QuadratureRule,
    build_quadrature,
    node_radii,
    row_sum,
    whole_and_parts,
)


@dataclass(frozen=True)
class QuadratureBundle:
    """All rules one problem needs, built once and shared.  ``omega_i``
    and ``omega_e`` are the first and last rows of ``whole``."""

    omega_i: QuadratureRule
    omega_e: QuadratureRule
    whole: QuadratureRule
    gamma: QuadratureRule
    Gamma: QuadratureRule
    omega_e_refined: QuadratureRule  # doubled radial order, for tail checks


# (domain, radial order, angular order, shells) -> weak reference to the
# bundle built for them, dropped when that bundle is freed
_BUNDLE_CACHE: dict = {}


def make_bundle(
    domain: ExteriorDomain,
    radial_order: int = 12,
    angular_order: int = 12,
    shells: int = 16,
) -> QuadratureBundle:
    """The rules over ``domain`` at this resolution, shared while held:
    while some caller still holds the bundle built for the same arguments,
    that bundle is returned, so problems on one domain share their rules
    and the values kept per rule (``QuadratureRule.derived``,
    ``geometry.NodeMemo``).  The store holds weak references only: a
    bundle no one holds is freed, and the next call builds it anew."""
    key = (domain, radial_order, angular_order, shells)
    ref = _BUNDLE_CACHE.get(key)
    quads = None if ref is None else ref()
    if quads is None:
        quads = _build_bundle(*key)

        def forget(dead, key=key):
            if _BUNDLE_CACHE.get(key) is dead:
                del _BUNDLE_CACHE[key]

        _BUNDLE_CACHE[key] = weakref.ref(quads, forget)
    return quads


def _build_bundle(domain, radial_order, angular_order, shells) -> QuadratureBundle:
    def build(region, ro=radial_order):
        return build_quadrature(domain, ro, angular_order, shells, region)

    whole, omega_i, omega_e = whole_and_parts(domain, radial_order, angular_order, shells)
    return QuadratureBundle(
        omega_i=omega_i,
        omega_e=omega_e,
        whole=whole,
        gamma=build("sphere_gamma"),
        Gamma=build("sphere_Gamma"),
        omega_e_refined=build("omega_e", ro=2 * radial_order),
    )


@dataclass(frozen=True)
class Problem:
    """Data of one exterior boundary value problem -div(A grad u) = f,
    f = -div F, with Dirichlet trace g on the inner sphere."""

    domain: ExteriorDomain
    A: Coefficient
    flux: VectorField
    g: traces.SphereTrace
    quads: QuadratureBundle
    trace_degree: int

    @cached_property
    def f(self) -> ScalarField:
        """The load -div F."""
        div = self.flux.divergence
        return ScalarField(value=lambda pts: -div(pts), label="-div flux")

    @cached_property
    def constants(self) -> ConstantsBundle:
        """The constants of every bound on this problem, computed on first
        use and kept: they depend on the domain, the coefficient's
        ellipticity bounds and the trace degree only, and
        ``dataclasses.replace`` builds a new problem without them."""
        return compute_bundle(self.domain, self.A, self.trace_degree)


@dataclass(frozen=True)
class ManufacturedProblem:
    problem: Problem
    exact_u: ScalarField
    exact_flux = property(lambda self: self.problem.flux)  # A grad u, the load's flux

    @property
    def domain(self) -> ExteriorDomain:
        return self.problem.domain


# ---------------------------------------------------------------------------
# catalog

CATALOG = ("N3_harmonic", "N3_decay", "N3_anisotropic", "N2_log")


def _inverse_r(label: str) -> ScalarField:
    """u = 1/r."""
    return separable_field(lambda r: 1.0 / r, lambda r: -1.0 / r**2, label=label)


def _grad_inverse_r(pts):
    """grad(1/r) = -x / r^3."""
    pts = np.atleast_2d(pts)
    return -pts / node_radii(pts)[:, None] ** 3


def _zero(pts):
    """The divergence of a solenoidal field."""
    return np.zeros(len(np.atleast_2d(pts)))


def builtin(
    name: str,
    radial_order: int = 12,
    angular_order: int = 12,
    shells: int = 16,
    trace_degree: int = 8,
) -> ManufacturedProblem:
    """Instantiate a catalog problem at the requested resolution."""
    if name not in CATALOG:
        raise KeyError(f"unknown problem {name!r}; catalog: {CATALOG}")

    if name == "N3_harmonic":
        domain = ExteriorDomain(3, 1.0, 2.0)
        A = Coefficient.identity(3)
        u = _inverse_r("1/r")
        flux = VectorField(value=_grad_inverse_r, divergence=_zero, label="grad(1/r)")
    elif name == "N3_decay":
        domain = ExteriorDomain(3, 1.0, 2.0)
        A = Coefficient(np.full(3, 2.0), label="2I")
        u = separable_field(
            lambda r: 1.0 / (1.0 + r**2),
            lambda r: -2.0 * r / (1.0 + r**2) ** 2,
            label="1/(1+r^2)",
        )

        def flux_value(pts):
            pts = np.atleast_2d(pts)
            r2 = row_sum(pts**2)
            return -4.0 * pts / (1.0 + r2)[:, None] ** 2

        def flux_div(pts):
            r2 = row_sum(np.atleast_2d(pts) ** 2)
            return (4.0 * r2 - 12.0) / (1.0 + r2) ** 3

        flux = VectorField(value=flux_value, divergence=flux_div, label="2*grad u")
    elif name == "N3_anisotropic":
        domain = ExteriorDomain(3, 1.0, 2.0)
        A = Coefficient(np.array([1.0, 2.0, 4.0]), label="diag(1,2,4)")
        diag = A.diagonal
        u = _inverse_r("1/r")

        def aniso_value(pts):
            pts = np.atleast_2d(pts)
            return -(diag * pts) / node_radii(pts)[:, None] ** 3

        def aniso_div(pts):
            pts = np.atleast_2d(pts)
            r = node_radii(pts)
            quad = row_sum(diag * pts**2)
            return 3.0 * quad / r**5 - np.sum(diag) / r**3

        flux = VectorField(value=aniso_value, divergence=aniso_div, label="A grad(1/r)")
    else:  # N2_log
        domain = ExteriorDomain(2, 1.0, 2.0)
        A = Coefficient.identity(2)
        u = _inverse_r("1/r (2D)")
        flux = VectorField(value=_grad_inverse_r, label="grad(1/r) (2D)",
                           divergence=lambda pts: 1.0 / node_radii(pts) ** 3)

    # the exact data are kept per node array: grad v = grad u + eps grad b
    # and the true error read the kept grad u, and f = -div F and div y,
    # y = F + eps p, the kept div F
    u = replace(u, gradient=NodeMemo(u.gradient))
    flux = replace(flux, divergence=NodeMemo(flux.divergence))
    quads = make_bundle(domain, radial_order, angular_order, shells)
    g = traces.analyze(u, domain.a, trace_degree, quads.gamma)
    problem = Problem(
        domain=domain,
        A=A,
        flux=flux,
        g=g,
        quads=quads,
        trace_degree=trace_degree,
    )
    return ManufacturedProblem(problem=problem, exact_u=u)


def with_interface_radius(
    mp: ManufacturedProblem, radius: float
) -> ManufacturedProblem:
    """The same problem with the artificial interface moved to ``radius``,
    with the rules over the moved domain at the resolution of ``mp``'s own,
    shared while held (``make_bundle``).  The exact
    solution, flux and load do not depend on where the interface sits, and
    neither does the Dirichlet trace ``g``: the inner-sphere rule depends
    on the inner radius only."""
    dom = mp.domain
    domain = ExteriorDomain(dom.dimension, dom.a, radius)
    rule = mp.problem.quads.omega_i
    quads = make_bundle(domain, rule.radial_order, rule.angular_order, rule.shell_count)
    return replace(mp, problem=replace(mp.problem, domain=domain, quads=quads))


def true_error(mp: ManufacturedProblem, v: ScalarField) -> float:
    """Exact energy-norm error ||A^{1/2} grad(u - v)|| over the whole domain.
    The gradient of v is the one the estimates evaluated on the same rule."""
    u, rule = mp.exact_u, mp.problem.quads.whole
    return energy_norm(mp.problem.A, u.gradient(rule.nodes), "A", rule,
                       label=f"grad(({u.label}-{v.label}))",
                       minus_gradient=gradient_on(v, rule))


# ---------------------------------------------------------------------------
# perturbation generators

PERTURB_MODES = ("interior_bump", "boundary_mode", "interface_jump")
# the modes each perturbation target supports
TARGET_MODES = {
    "v": ("interior_bump", "boundary_mode"),
    "y": ("interior_bump",),
    "y_broken": ("interface_jump",),
}


def _random_interior_bump(mp: ManufacturedProblem, rng) -> ScalarField:
    """Random smooth field with compact support strictly inside the
    annulus: radial mollifier times a random low-degree angular factor.
    The separable form keeps it fully resolved by the tensor quadrature
    (small off-center balls would slip between angular nodes), and the
    annulus (c - w, c + w) of the mollifier is its support."""
    dom = mp.domain
    gap = dom.R - dom.a
    center_r = dom.a + gap * rng.uniform(0.35, 0.65)
    width = gap * rng.uniform(0.15, 0.28)
    width = min(width, 0.95 * (center_r - dom.a), 0.95 * (dom.R - center_r))
    p, dp = profile(mollifier, mollifier_deriv, center_r, width)
    return separable_field(p, dp, _random_angular(mp, rng), label="interior-bump",
                           support=(center_r - width, center_r + width))


def _random_angular(mp: ManufacturedProblem, rng) -> np.ndarray:
    """Random coefficients (c_0, ..., c_N) of a degree <= 1 angular factor."""
    return rng.uniform(-1.0, 1.0, size=mp.domain.dimension + 1)


def _flux_bump(bump: ScalarField, direction: np.ndarray) -> VectorField:
    """b d for a unit vector d, with divergence grad b . d, on b's support."""
    value, grad = bump.formula()
    return VectorField(
        value=lambda pts: np.asarray(value(pts))[:, None] * direction,
        # a BLAS product rounds by layout: C order keeps one set of bits
        divergence=lambda pts: np.ascontiguousarray(grad(pts)) @ direction,
        label="flux-bump",
        support=bump.support,
    )


def solenoidal_harmonic_gradient(dimension: int, index: int) -> VectorField:
    """Gradient of a decaying exterior harmonic; divergence-free, so adding
    it to a flux never disturbs the equilibrium residual.

    index 0 (dimension 3 only): grad(1/r).  index i >= 1: grad(x_i/r^N).
    All of them lie in L^2 outside any positive radius.
    """
    if index == 0:
        if dimension != 3:
            # grad(ln r) fails to be square integrable at infinity in 2D
            raise ValueError("index 0 requires dimension 3")

        value = _grad_inverse_r
    else:
        if index > dimension:
            raise ValueError(f"index {index} out of range for dimension {dimension}")

        def value(pts):
            return ratio_gradient(np.atleast_2d(pts), index - 1, dimension)

    return VectorField(value=value, divergence=_zero, label=f"harmonic-gradient[{index}]")


def perturb(
    mp: ManufacturedProblem,
    target: str,
    eps: float,
    mode: str,
    seed: int,
):
    """Deterministic perturbation of the exact data.

    target "v": returns a ScalarField approximation; target "y": a
    VectorField flux; target "y_broken": an (interior, exterior) flux
    pair whose normal-trace jump scales linearly in eps.
    """
    if eps < 0.0:
        raise ValueError("eps must be >= 0")
    if mode not in PERTURB_MODES:
        raise ValueError(f"unknown perturbation mode {mode!r}")
    if target in TARGET_MODES and mode not in TARGET_MODES[target]:
        raise ValueError(f"target {target!r} supports "
                         f"{' and '.join(TARGET_MODES[target])} only")
    rng = np.random.default_rng(seed)
    dom = mp.domain

    if target == "v":
        if eps == 0.0:
            return mp.exact_u
        if mode == "interior_bump":
            return mp.exact_u + eps * _random_interior_bump(mp, rng)
        coeffs = _random_angular(mp, rng)
        r_zero = dom.a + 0.5 * (dom.R - dom.a)
        p, dp = profile(ramp, ramp_deriv, dom.a, r_zero - dom.a)
        ext = separable_field(p, dp, coeffs, label="boundary-mode", support=(0.0, r_zero))
        return mp.exact_u + eps * ext

    if target == "y":
        if eps == 0.0:
            return mp.exact_flux
        bump = _random_interior_bump(mp, rng)
        direction = rng.normal(size=dom.dimension)
        direction /= np.linalg.norm(direction)
        return mp.exact_flux + eps * _flux_bump(bump, direction)

    if target == "y_broken":
        if eps == 0.0:
            return mp.exact_flux, mp.exact_flux
        # break the exterior side with a random combination of solenoidal
        # harmonic gradients: the residual stays exactly equilibrated and
        # only the normal-trace jump (linear in eps) is exercised
        indices = (
            range(dom.dimension + 1) if dom.dimension == 3
            else range(1, dom.dimension + 1)
        )
        pieces = [solenoidal_harmonic_gradient(dom.dimension, i) for i in indices]
        coeffs = rng.uniform(-1.0, 1.0, size=len(pieces))
        jump_field = coeffs[0] * pieces[0]
        for c, piece in zip(coeffs[1:], pieces[1:]):
            jump_field = jump_field + c * piece
        return mp.exact_flux, mp.exact_flux + eps * jump_field

    raise ValueError(f"unknown perturbation target {target!r}")
