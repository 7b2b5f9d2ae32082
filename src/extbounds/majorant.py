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
    bump_residual_norm,
    difference,
    energy_norm,
    gradient_on,
    last_call,
    log_weighted_norm,
    residual_field,
    term_norm,
    weighted_norm,
)
from .geometry import QuadratureRule
from .problems import Problem

EQUILIBRATION_RTOL = 1e-10
# a trace whose H^{1/2} norm is below this counts as zero, and so does a
# basis function's trace coefficient or jump (``minorant.validate_zero_traces``)
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
    """The constants of ``p``'s bounds, ``p.constants``, every one derived."""
    return p.constants.derive_all()


# ---------------------------------------------------------------------------
# residual norms with tail-convergence checks


def _residual(p: Problem, y: VectorField):
    """The residual f + div y with the bumps it is the divergence of, or
    None when it is 0.  Both come from y's terms when y's potential merges
    with the load flux's to nothing: then y is F + sum grad h_k + sum s_j
    e_j, and f + div y = -div F + div F + sum grad s_j . e_j, since the h_k
    are harmonic; it is None without bumps.  Otherwise the bumps are ()."""
    if p.flux.potential and not difference(y.potential, p.flux.potential):
        return (residual_field(p.f, y), y.bumps) if y.bumps else None
    return residual_field(p.f, y), ()


def _log_weight(r):
    """(r ln r)^2 at the radii r > 1; NaN where r <= 1, which the tensor
    rule's weight refuses, so that the norm goes there."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(r > 1.0, (r * np.log(r)) ** 2, np.nan)


def _weighted_residual(p: Problem, res, rule: QuadratureRule, s: float = 1.0) -> float:
    """||r ln r * res|| over ``rule`` in 2D, ||rho^s * res|| in 3D (||res||
    in both at s = 0), for the residual ``res`` of ``_residual``; 0.0 for
    None.  A residual of bumps is summed from their terms where they give
    it (``fields.bump_residual_norm``), with the radial weight."""
    if res is None:
        return 0.0
    field, bumps = res
    if p.domain.dimension == 2 and s:
        return bump_residual_norm(rule, bumps, _log_weight,
                                  lambda: log_weighted_norm(field, rule))
    rho = None if s == 0.0 else (lambda r: (r * r + 1.0) ** s)  # rho^{2s}
    return bump_residual_norm(rule, bumps, rho, lambda: weighted_norm(field, s, rule))


def _residual_norm_tail(p: Problem, res) -> float:
    """Weighted residual norm over the tail, with a doubled-order
    convergence check so a non-integrable residual cannot silently pass;
    0.0 for a zero residual (None), with neither tail rule read."""
    if res is None:
        return 0.0
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


def scale_of(p: Problem, v: ScalarField) -> float:
    """||A^{1/2} grad v|| over the whole domain, from v's terms where they
    give it (``fields.term_norm``)."""
    rule = p.quads.whole
    return term_norm(p.A, p.quads.table, rule, (v.terms,), lambda: energy_norm(
        p.A, gradient_on(v, rule), "A", rule, label=f"grad({v.label})"))


# ---------------------------------------------------------------------------
# boundary mismatch term


_MISMATCH: list = []  # the memo of dirichlet_mismatch


@last_call(_MISMATCH)
def dirichlet_mismatch(p: Problem, v: ScalarField) -> traces.SphereTrace | None:
    """The trace g - tr(v) on the inner sphere, or None when ``v`` meets
    the Dirichlet data: when that trace's H^{1/2} norm is below
    ``TRACE_ZERO_TOL``.  An L^2 energy above the band does not bound an
    H^{1/2} norm, so a trace of ``v`` with more than ``BAND_LIMIT_RTOL`` of
    its energy above the band raises ``BandLimitError``.  The result for
    the last (p, v) is kept (``fields.last_call``): the minorant's caveat
    and the boundary term of one approximation share one projection."""
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


def _flux_gap_norm(
    p: Problem, v: ScalarField, y: VectorField, rule: QuadratureRule,
    grad_v: np.ndarray,
) -> float:
    """||y - A grad v||_{A^{-1}} over ``rule``, the flux mismatch entering
    every upper bound; ``grad_v`` holds grad v at the rule's nodes."""
    return energy_norm(p.A, y.value(rule.nodes), "A_inverse", rule,
                       label=f"({y.label}-A*grad({v.label}))", minus_gradient=grad_v)


def _flux_term(p: Problem, v: ScalarField, y: VectorField, part: str = "whole") -> float:
    """||y - A grad v||_{A^{-1}} over the rule ``part`` of p's bundle: for
    y = A grad phi + sum grad h_k + sum s_j e_j, the norm of A grad(phi -
    v) + sum grad h_k + sum s_j e_j from the terms of y and of v where they
    give it (``fields.term_norm``, on the bundle's table), else on the
    rule's nodes."""
    rule = getattr(p.quads, part)
    return term_norm(p.A, p.quads.table, rule, (y.potential, v.terms), lambda: _flux_gap_norm(
        p, v, y, rule, gradient_on(v, rule)), y.gradients, y.bumps)


def _report(p, v, roman, residual, flux, constants, metadata, interface=0.0, scale=None):
    """The report of estimate ``roman`` ("-2D" appended in 2D) from its own
    terms: the boundary term of ``v`` and then, unless given, the scale are
    computed here, and ``constants`` gains the extension constant."""
    boundary = boundary_term(p, v)
    if scale is None:
        scale = scale_of(p, v)
    return MajorantReport(
        estimate_id=roman + ("-2D" if p.domain.dimension == 2 else ""),
        residual=residual,
        flux=flux,
        interface=interface,
        boundary=boundary,
        constants={**constants, "boundary_extension": p.constants.extension.value},
        total=residual + flux + interface + boundary,
        scale=scale,
        metadata=metadata,
    )


def estimate_I(p: Problem, v: ScalarField, y: VectorField) -> MajorantReport:
    """Upper bound for an arbitrary flux with integrable weighted residual:
    weighted residual term + dual-norm flux gap + boundary mismatch."""
    bundle = p.constants
    res = _residual(p, y)
    factor = bundle.poincare / math.sqrt(p.A.c_A)
    n_int = _weighted_residual(p, res, p.quads.omega_i)
    n_tail = _residual_norm_tail(p, res)
    residual = factor * math.sqrt(n_int**2 + n_tail**2)
    return _report(p, v, "I", residual, _flux_term(p, v, y),
                   {"poincare": bundle.poincare}, {})


def estimate_II(p: Problem, v: ScalarField, y: VectorField) -> MajorantReport:
    """Upper bound for tail-equilibrated fluxes (div y + f = 0 outside the
    interface).  The equilibration is enforced numerically: a tail
    residual above 1e-10 * scale is rejected, and anything below it is
    still added to the bound so validity never rests on the tolerance."""
    bundle = p.constants
    res = _residual(p, y)
    scale = scale_of(p, v)
    tail = _residual_norm_tail(p, res)
    if tail > EQUILIBRATION_RTOL * max(scale, 1e-300):
        raise EquilibrationError(
            f"flux is not equilibrated on the tail: ||f + div y|| (weighted) "
            f"= {tail:.6e} exceeds {EQUILIBRATION_RTOL:.0e} * scale "
            f"= {EQUILIBRATION_RTOL * scale:.6e}; estimate II requires "
            "div y + f = 0 outside the interface"
        )
    factor = bundle.poincare / math.sqrt(p.A.c_A)
    residual = bundle.c_o * _weighted_residual(p, res, p.quads.omega_i, 0.0) + factor * tail
    return _report(p, v, "II", residual, _flux_term(p, v, y), {"c_o": bundle.c_o},
                   {"tail_residual": tail}, scale=scale)


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
    res_i = _residual(p, y_i)
    res_e = _residual(p, y_e)
    factor = bundle.poincare / math.sqrt(p.A.c_A)
    residual = bundle.c_o * _weighted_residual(p, res_i, p.quads.omega_i, 0.0)
    residual += factor * _residual_norm_tail(p, res_e)
    # the exterior gap first: the table it leaves on the bundle holds y_e's
    # harmonics, and the profiles of y_i = F and v too, for the interior gap
    gap_e = _flux_term(p, v, y_e, "omega_e")
    flux = math.sqrt(_flux_term(p, v, y_i, "omega_i") ** 2 + gap_e**2)
    L, R = p.trace_degree, p.domain.R
    jump = traces.normal_trace(y_e - y_i, R, L, p.quads.Gamma)
    jump_norm = traces.sobolev_norm(jump, -0.5)
    above = jump.above_band / math.sqrt(traces.sobolev_weight(L + 1, p.domain.dimension, R))
    interface = (bundle.trace.value * jump_norm
                 + bundle.trace.params["above_band"] * math.sqrt(above))
    return _report(p, v, "III", residual, flux,
                   {"c_o": bundle.c_o, "poincare": bundle.poincare,
                    "interface_trace": bundle.trace.value},
                   {"jump_h_minus_half": jump_norm}, interface=interface)
