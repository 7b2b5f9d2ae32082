"""Guaranteed upper bounds for the energy-norm deviation from the exact
solution, with per-term breakdown.

Three estimates are provided.  Estimate I works for any flux with an
integrable weighted residual; estimate II requires the flux to be exactly
equilibrated on the unbounded tail and trades the weighted residual for a
cheaper interior one; estimate III admits fluxes that are broken across
the spherical interface and penalizes the normal-trace jump in the
H^{-1/2} interface norm.  Dimension 2 replaces the rho-weighted residual
norms with r ln r weighted ones.  All estimates add a boundary term for
approximations that miss the Dirichlet data: the energy of the concrete
mode-wise extension of the mismatch, evaluated directly.  It is never
larger than the extension constant times the mismatch's H^{1/2} norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import traces
from .constants import ConstantsBundle
from .fields import (
    ScalarField,
    VectorField,
    energy_norm,
    gradient_on,
    log_weighted_norm,
    residual_field,
    weighted_norm,
)
from .geometry import QuadratureRule
from .problems import Problem

EQUILIBRATION_RTOL = 1e-10
# a trace whose H^{1/2} norm is below this counts as zero
TRACE_ZERO_TOL = 1e-13
# the share of a trace's energy above its band that counts as rounding
BAND_LIMIT_RTOL = 1e-10
# divergence detector, not an accuracy gate: a non-integrable residual moves
# by an O(1) factor under order doubling, a merely rough one by far less
TAIL_CONVERGENCE_RTOL = 1e-3


class EquilibrationError(ValueError):
    """The flux is not divergence-equilibrated on the unbounded tail."""


class DivergentNormError(ArithmeticError):
    """A weighted tail norm failed its convergence check."""


@dataclass(frozen=True)
class MajorantReport:
    """Per-term breakdown of one guaranteed upper bound.  ``total`` is the
    exact floating-point sum of the four terms."""

    estimate_id: str
    residual: float
    flux: float
    interface: float
    boundary: float
    constants: dict
    total: float
    scale: float
    metadata: dict

    def as_dict(self) -> dict:
        return {
            "estimate": self.estimate_id,
            "terms": {
                "residual": self.residual,
                "flux": self.flux,
                "interface": self.interface,
                "boundary": self.boundary,
            },
            "constants": dict(self.constants),
            "total": self.total,
            "scale": self.scale,
            "metadata": dict(self.metadata),
        }


def constants_bundle(p: Problem) -> ConstantsBundle:
    """The constants of ``p``'s bounds: ``p.constants``."""
    return p.constants


# ---------------------------------------------------------------------------
# residual norms with tail-convergence checks


def _weighted_residual(p: Problem, res: ScalarField, rule: QuadratureRule) -> float:
    """||r ln r * res|| over ``rule`` in 2D, ||rho * res|| in 3D."""
    if p.domain.dimension == 2:
        return log_weighted_norm(res, rule)
    return weighted_norm(res, 1.0, rule)


def _residual_norm_tail(p: Problem, res: ScalarField) -> float:
    """Weighted residual norm over the tail, with a doubled-order
    convergence check so a non-integrable residual cannot silently pass."""
    n1 = _weighted_residual(p, res, p.quads.omega_e)
    n2 = _weighted_residual(p, res, p.quads.omega_e_refined)
    denom = max(n1, n2)
    if denom > 0.0 and abs(n1 - n2) > TAIL_CONVERGENCE_RTOL * denom:
        weight_name = "r ln r" if p.domain.dimension == 2 else "rho^{+1}"
        raise DivergentNormError(
            f"{weight_name}-weighted residual norm over the tail did not "
            f"converge (order doubling moved it from {n1:.6e} to {n2:.6e}); "
            "the residual is likely not integrable against this weight"
        )
    return n2


def _scale(p: Problem, v: ScalarField) -> float:
    """||A^{1/2} grad v|| over the whole domain."""
    rule = p.quads.whole
    return energy_norm(p.A, gradient_on(v, rule), "A", rule, label=f"grad({v.label})")


# ---------------------------------------------------------------------------
# boundary mismatch term


def dirichlet_mismatch(p: Problem, v: ScalarField) -> traces.SphereTrace | None:
    """The trace g - tr(v) on the inner sphere, or None when ``v`` meets
    the Dirichlet data: when that trace's H^{1/2} norm is below
    ``TRACE_ZERO_TOL``.  An L^2 energy above the band does not bound an
    H^{1/2} norm, so a trace of ``v`` with more than ``BAND_LIMIT_RTOL`` of
    its energy above the band raises ``BandLimitError``."""
    tv = traces.analyze(v, p.domain.a, p.trace_degree, p.quads.gamma)
    energy = tv.above_band + float(np.sum(tv.coefficients**2))
    if tv.above_band > BAND_LIMIT_RTOL * energy:
        raise traces.BandLimitError(
            f"the trace of {v.label!r} on the inner sphere has {tv.above_band / energy:.3e}"
            f" of its energy above trace.L = {p.trace_degree} (at most {BAND_LIMIT_RTOL:.0e})")
    mismatch = traces.difference(p.g, tv)
    if traces.sobolev_norm(mismatch, +0.5) < TRACE_ZERO_TOL:
        return None
    return mismatch


def boundary_term(p: Problem, v: ScalarField) -> float:
    """Penalty for a Dirichlet-data mismatch of the approximation:
    2 (c_A_plus ||grad E(g - tr v)||^2)^{1/2} for the concrete mode-wise
    extension E of :func:`extbounds.constants.boundary_extension_constant`,
    a bound on 2 ||A^{1/2} grad E(g - tr v)||, exact for A = cI.  Since
    sum_l c_l^2 E_l <= max_l(E_l/w_l) sum_l w_l c_l^2, it never exceeds
    2 c_gamma ||g - tr v||_{H^{1/2}} with the extension constant c_gamma.
    Returns 0 when :func:`dirichlet_mismatch` finds no mismatch."""
    mismatch = dirichlet_mismatch(p, v)
    if mismatch is None:
        return 0.0
    energies = np.asarray(p.constants.extension.params["mode_energies"])
    ell = mismatch.degrees()
    dirichlet = float(np.sum(mismatch.coefficients**2 * energies[ell]))
    return 2.0 * math.sqrt(p.A.c_A_plus * dirichlet)


# ---------------------------------------------------------------------------
# the three estimates


def _estimate_id(p: Problem, roman: str) -> str:
    return roman + ("-2D" if p.domain.dimension == 2 else "")


def _flux_gap_norm(
    p: Problem, v: ScalarField, y: VectorField, rule: QuadratureRule,
    grad_v: np.ndarray,
) -> float:
    """||y - A grad v||_{A^{-1}} over ``rule``, the flux mismatch entering
    every upper bound; ``grad_v`` holds grad v at the rule's nodes."""
    pts = rule.nodes
    gap = y.value(pts) - p.A.apply(pts, grad_v)
    return energy_norm(p.A, gap, "A_inverse", rule,
                       label=f"({y.label}-A*grad({v.label}))")


def _flux_term(p: Problem, v: ScalarField, y: VectorField) -> float:
    rule = p.quads.whole
    return _flux_gap_norm(p, v, y, rule, gradient_on(v, rule))


def _broken_flux_term(
    p: Problem, v: ScalarField, y_i: VectorField, y_e: VectorField
) -> float:
    # the omega_i and omega_e rules are the first and last rows of whole's
    grad_v = gradient_on(v, p.quads.whole)
    k = len(p.quads.omega_i)
    ni = _flux_gap_norm(p, v, y_i, p.quads.omega_i, grad_v[:k])
    ne = _flux_gap_norm(p, v, y_e, p.quads.omega_e, grad_v[k:])
    return math.sqrt(ni**2 + ne**2)


def _report(p, roman, residual, flux, interface, boundary, constant_map, scale, meta):
    total = residual + flux + interface + boundary
    return MajorantReport(
        estimate_id=_estimate_id(p, roman),
        residual=residual,
        flux=flux,
        interface=interface,
        boundary=boundary,
        constants=constant_map,
        total=total,
        scale=scale,
        metadata=meta,
    )


def estimate_I(p: Problem, v: ScalarField, y: VectorField) -> MajorantReport:
    """Upper bound for an arbitrary flux with integrable weighted residual:
    weighted residual term + dual-norm flux gap + boundary mismatch."""
    bundle = p.constants
    res = residual_field(p.f, y)
    factor = bundle.poincare / math.sqrt(p.A.c_A)
    n_int = _weighted_residual(p, res, p.quads.omega_i)
    n_tail = _residual_norm_tail(p, res)
    residual = factor * math.sqrt(n_int**2 + n_tail**2)
    flux = _flux_term(p, v, y)
    boundary = boundary_term(p, v)
    scale = _scale(p, v)
    return _report(
        p,
        "I",
        residual,
        flux,
        0.0,
        boundary,
        {
            "poincare": bundle.poincare,
            "boundary_extension": bundle.extension.value,
        },
        scale,
        {},
    )


def estimate_II(p: Problem, v: ScalarField, y: VectorField) -> MajorantReport:
    """Upper bound for tail-equilibrated fluxes (div y + f = 0 outside the
    interface).  The equilibration is enforced numerically: a tail
    residual above 1e-10 * scale is rejected, and anything below it is
    still added to the bound so validity never rests on the tolerance."""
    bundle = p.constants
    res = residual_field(p.f, y)
    scale = _scale(p, v)
    tail = _residual_norm_tail(p, res)
    if tail > EQUILIBRATION_RTOL * max(scale, 1e-300):
        raise EquilibrationError(
            f"flux is not equilibrated on the tail: ||f + div y|| (weighted) "
            f"= {tail:.6e} exceeds {EQUILIBRATION_RTOL:.0e} * scale "
            f"= {EQUILIBRATION_RTOL * scale:.6e}; estimate II requires "
            "div y + f = 0 outside the interface"
        )
    c_o = bundle.c_o
    factor = bundle.poincare / math.sqrt(p.A.c_A)
    residual = c_o * weighted_norm(res, 0.0, p.quads.omega_i) + factor * tail
    flux = _flux_term(p, v, y)
    boundary = boundary_term(p, v)
    return _report(
        p,
        "II",
        residual,
        flux,
        0.0,
        boundary,
        {
            "c_o": c_o,
            "boundary_extension": bundle.extension.value,
        },
        scale,
        {"tail_residual": tail},
    )


def estimate_III(
    p: Problem, v: ScalarField, y_i: VectorField, y_e: VectorField
) -> MajorantReport:
    """Upper bound for broken fluxes: interior residual + weighted tail
    residual + flux gap + interface jump penalty + boundary mismatch.  The
    penalty pairs the normal-trace jump j with the error's trace degree by
    degree: C ||P_L j||_{-1/2} for the degrees l <= L, and for the others
    C_above (w_{L+1}^{-1/2} (int j^2 - sum_{l<=L} c_l^2))^{1/2}, since the
    multipliers w_l^{-1/2} fall with l."""
    bundle = p.constants
    res_i = residual_field(p.f, y_i)
    res_e = residual_field(p.f, y_e)
    c_o = bundle.c_o
    factor = bundle.poincare / math.sqrt(p.A.c_A)
    residual = c_o * weighted_norm(res_i, 0.0, p.quads.omega_i)
    residual += factor * _residual_norm_tail(p, res_e)
    flux = _broken_flux_term(p, v, y_i, y_e)
    L, R = p.trace_degree, p.domain.R
    jump = traces.normal_trace(y_e - y_i, R, L, p.quads.Gamma)
    jump_norm = traces.sobolev_norm(jump, -0.5)
    above = jump.above_band / math.sqrt(traces.sobolev_weight(L + 1, p.domain.dimension, R))
    interface = (bundle.trace.value * jump_norm
                 + bundle.trace.params["above_band"] * math.sqrt(above))
    boundary = boundary_term(p, v)
    scale = _scale(p, v)
    return _report(
        p,
        "III",
        residual,
        flux,
        interface,
        boundary,
        {
            "c_o": c_o,
            "poincare": bundle.poincare,
            "interface_trace": bundle.trace.value,
            "boundary_extension": bundle.extension.value,
        },
        scale,
        {"jump_h_minus_half": jump_norm},
    )
