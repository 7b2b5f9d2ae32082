"""Manufactured exterior-domain problems with exact solutions and fluxes.

A ``Problem`` holds the flux F of its load f = -div F, with an analytic
divergence closure, and no f apart from it, so the two can never drift
apart; the bounds read F's terms alone.  Every catalog entry takes the exact
flux F = A grad u, so the data cannot drift out of sync with the
solution either, and the flux records u's terms as its ``potential``.
The perturbed fluxes keep their terms too: a flux bump records its bump
and a harmonic gradient its harmonic (``fields.VectorField``).
Perturbation generators produce the test inputs for the upper/lower bound
studies: interior bumps (traces intact), boundary modes (trace mismatch),
and interface jumps (broken normal traces).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from functools import cache, cached_property

import numpy as np

from . import traces
from .constants import ConstantsBundle
from .fields import (
    Coefficient,
    ScalarField,
    Term,
    VectorField,
    mollifier,
    mollifier_deriv,
    profile,
    ramp,
    ramp_deriv,
    ratio_gradient,
    separable_field,
    term_norm,
    term_products,
    terms_of,
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
    """All rules one problem needs over ``domain``, shared.  ``omega_i``
    and ``omega_e`` are the first and last rows of ``whole``; the tail
    rule at doubled radial order is built on its first read."""

    omega_i: QuadratureRule
    omega_e: QuadratureRule
    whole: QuadratureRule
    gamma: QuadratureRule
    Gamma: QuadratureRule
    domain: ExteriorDomain
    _table: object = field(default=None, init=False, repr=False, compare=False)

    def table(self, sets):
        """``fields.term_products`` of ``whole`` over the profiles of the term
        ``sets``, for ``fields.term_norm``: the one table the bundle keeps
        where it holds them all, else a new one, kept in its place while the
        bundle lives.  The minorant and ``bump_residual_norm`` build their own."""
        if self._table is None or not all((t.p, t.dp, t.support) in self._table.profiles[0]
                                          for terms in sets for t in terms):
            object.__setattr__(self, "_table",
                               term_products(self.whole, sets, [""] * len(sets), ""))
        return self._table

    @cached_property
    def omega_e_refined(self) -> QuadratureRule:
        """``omega_e`` at doubled radial order, for the tail checks of a
        residual that is not zero (``majorant._residual_norm_tail``)."""
        e = self.omega_e
        return build_quadrature(self.domain, 2 * e.radial_order, e.angular_order,
                                e.shell_count, "omega_e")


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
    whole, omega_i, omega_e = whole_and_parts(domain, radial_order, angular_order, shells)
    gamma, Gamma = (build_quadrature(domain, radial_order, angular_order, shells, region)
                    for region in ("sphere_gamma", "sphere_Gamma"))
    return QuadratureBundle(omega_i, omega_e, whole, gamma, Gamma, domain)


@dataclass(frozen=True)
class Problem:
    """Data of one exterior boundary value problem -div(A grad u) = f,
    f = -div F for the load flux F, with Dirichlet trace g on the sphere r = a."""

    domain: ExteriorDomain
    A: Coefficient
    flux: VectorField
    g: traces.SphereTrace
    quads: QuadratureBundle
    trace_degree: int

    @cached_property
    def constants(self) -> ConstantsBundle:
        """The constants of every bound on this problem, each derived on its
        first read and kept: they depend on the domain, the coefficient's
        ellipticity bounds and the trace degree only, and
        ``dataclasses.replace`` builds a new problem without them."""
        return ConstantsBundle(self.domain, self.A, self.trace_degree)


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
        # 1 / r^3 is 0.0 where r^3 overflows, which is no error
        inverse_cube = np.errstate(over="ignore")(lambda pts: 1.0 / node_radii(pts) ** 3)
        flux = VectorField(value=_grad_inverse_r, label="grad(1/r) (2D)",
                           divergence=inverse_cube)

    # the exact data are kept per node array: grad v = grad u + eps grad b
    # reads the kept grad u, and div y, y = F + eps p, the kept div F.
    # F = A grad u records u's terms
    u = replace(u, gradient=NodeMemo(u.gradient))
    flux = replace(flux, divergence=NodeMemo(flux.divergence), potential=u.terms)
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
    """The energy-norm error ||A^{1/2} grad(u - v)|| on the whole rule, from
    the merged terms of u - v (``fields.term_norm``)."""
    u, quads = mp.exact_u, mp.problem.quads
    return term_norm(mp.problem.A, quads.table, quads.whole, (terms_of(u, "u"), terms_of(v, "v")),
                     lambda: (f"grad(({u.label}-{v.label}))", "energy:A"))


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
    """b d for a unit vector d, with divergence grad b . d, on b's support;
    it records b's terms as its bumps, with the direction d."""
    value, grad = bump.formula()
    return VectorField(
        value=lambda pts: np.asarray(value(pts))[:, None] * direction,
        # a BLAS product rounds by layout: C order keeps one set of bits
        divergence=lambda pts: np.ascontiguousarray(grad(pts)) @ direction,
        label="flux-bump",
        support=bump.support,
        bumps=tuple(t._replace(direction=tuple(map(float, direction))) for t in bump.terms),
    )


@cache
def _decay(m: int):
    """(p, dp) of the profile p(r) = r^{-m}, one pair per m, so that the
    terms of harmonic gradients with it merge."""
    return (lambda r: 1.0 / r**m), (lambda r: -m / r ** (m + 1))


def solenoidal_harmonic_gradient(dimension: int, index: int) -> VectorField:
    """Gradient of a decaying exterior harmonic; divergence-free, so adding
    it to a flux never disturbs the equilibrium residual.

    index 0 (dimension 3 only): grad(1/r).  index i >= 1: grad(x_i/r^N).
    All of them lie in L^2 outside any positive radius.  The field records
    the harmonic h, r^{-1} or r^{1-N} (x_i/r), as its one gradient term.
    """
    if index == 0:
        if dimension != 3:
            # grad(ln r) fails to be square integrable at infinity in 2D
            raise ValueError("index 0 requires dimension 3")

        value = _grad_inverse_r
        h = Term(*_decay(1), (1.0,), None)
    else:
        if index > dimension:
            raise ValueError(f"index {index} out of range for dimension {dimension}")

        def value(pts):
            return ratio_gradient(np.atleast_2d(pts), index - 1, dimension)

        h = Term(*_decay(dimension - 1), tuple(float(i == index) for i in range(index + 1)),
                 None)
    return VectorField(value=value, divergence=_zero, label=f"harmonic-gradient[{index}]",
                       gradients=(h,))


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
    if target not in TARGET_MODES:
        raise ValueError(f"unknown perturbation target {target!r}")
    if mode not in TARGET_MODES[target]:
        raise ValueError(f"target {target!r} supports "
                         f"{' and '.join(TARGET_MODES[target])} only")
    if eps == 0.0:  # the exact data, drawing nothing
        return {"v": mp.exact_u, "y": mp.exact_flux}.get(target, (mp.exact_flux,) * 2)
    rng = np.random.default_rng(seed)
    dom = mp.domain

    if target == "v":
        if mode == "interior_bump":
            return mp.exact_u + eps * _random_interior_bump(mp, rng)
        coeffs = _random_angular(mp, rng)
        r_zero = dom.a + 0.5 * (dom.R - dom.a)
        p, dp = profile(ramp, ramp_deriv, dom.a, r_zero - dom.a)
        ext = separable_field(p, dp, coeffs, label="boundary-mode", support=(0.0, r_zero))
        return mp.exact_u + eps * ext

    if target == "y":
        bump = _random_interior_bump(mp, rng)
        direction = rng.normal(size=dom.dimension)
        direction /= np.linalg.norm(direction)
        return mp.exact_flux + eps * _flux_bump(bump, direction)

    # y_broken: break the exterior side with a random combination of
    # solenoidal harmonic gradients: the residual stays exactly equilibrated
    # and only the normal-trace jump (linear in eps) is exercised
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
