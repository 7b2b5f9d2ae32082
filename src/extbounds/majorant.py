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
    last_call,
    term_norm,
    terms_of,
)
from .geometry import QuadratureError, QuadratureRule
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
    """(y, its bumps s_j e_j), whose divergences sum to the residual f + div
    y, or None when it is 0: y's potential merges with the load flux F's to
    nothing, so y = F + sum grad h_k + sum s_j e_j with harmonic h_k.  A
    flux without terms, or with another potential, whose residual needs
    second derivatives that terms do not carry, raises ``ValueError``."""
    if p.flux.potential is None or difference(terms_of(y, "the flux"), p.flux.potential):
        raise ValueError(f"the flux ({y.label!r}) has a potential other than the load flux's, "
                         "whose residual needs second derivatives that its terms do not carry")
    return (y, y.bumps) if y.bumps else None


def _weighted_residual(p: Problem, res, rule: QuadratureRule, s: float = 1.0) -> float:
    """||r ln r * res|| over ``rule`` in 2D, ||rho^s * res|| in 3D (||res||
    in both at s = 0), for the residual ``res`` of ``_residual``; 0.0 for
    None, from the bumps' terms (``fields.bump_residual_norm``).  The r ln r
    weight needs every radial node at r > 1, or ``QuadratureError`` is raised."""
    if res is None:
        return 0.0
    (y, bumps), log = res, p.domain.dimension == 2 and s
    if log and rule.radial[0].min() <= 1.0:  # ln r <= 0 there
        raise QuadratureError(f"the r ln r weight needs every radial node at radius > 1, "
                              f"and one is at {float(rule.radial[0].min())!r}")
    weight = ((lambda r: (r * np.log(r)) ** 2) if log  # (r ln r)^2, or rho^{2s}
              else None if s == 0.0 else (lambda r: (r * r + 1.0) ** s))
    return bump_residual_norm(rule, bumps, weight, lambda: (
        f"f+div {y.label}", "times_rlnr" if log else f"rho^{2 * s}"))


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
    """||A^{1/2} grad v|| over the whole domain, from v's terms
    (``fields.term_norm``)."""
    return term_norm(p.A, p.quads.table, p.quads.whole, (terms_of(v, "v"),),
                     lambda: (f"grad({v.label})", "energy:A"))


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


def _flux_term(p: Problem, v: ScalarField, y: VectorField, part: str = "whole") -> float:
    """||y - A grad v||_{A^{-1}} over the rule ``part`` of p's bundle, the
    flux mismatch entering every upper bound: for y = A grad phi + sum
    grad h_k + sum s_j e_j, the norm of A grad(phi - v) + sum grad h_k +
    sum s_j e_j from the terms of y and of v (``fields.term_norm``, on the
    bundle's table)."""
    return term_norm(p.A, p.quads.table, getattr(p.quads, part),
                     (terms_of(y, "the flux"), terms_of(v, "v")),
                     lambda: (f"({y.label}-A*grad({v.label}))", "energy:A_inverse"),
                     y.gradients, y.bumps)


def _report(p, v, roman, boundary, residual, flux, constants, metadata, interface=0.0, scale=None):
    """The report of estimate ``roman`` ("-2D" appended in 2D) from its own
    terms: unless given, the scale is computed here, and ``constants``
    gains the extension constant.  Each estimate takes its boundary term
    first, so that a trace of ``v`` above the band is named first."""
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
    boundary, bundle = boundary_term(p, v), p.constants
    res = _residual(p, y)
    factor = bundle.poincare / math.sqrt(p.A.c_A)
    n_int = _weighted_residual(p, res, p.quads.omega_i)
    n_tail = _residual_norm_tail(p, res)
    residual = factor * math.sqrt(n_int**2 + n_tail**2)
    return _report(p, v, "I", boundary, residual, _flux_term(p, v, y),
                   {"poincare": bundle.poincare}, {})


def estimate_II(p: Problem, v: ScalarField, y: VectorField) -> MajorantReport:
    """Upper bound for tail-equilibrated fluxes (div y + f = 0 outside the
    interface).  The equilibration is enforced numerically: a tail
    residual above 1e-10 * scale is rejected, and anything below it is
    still added to the bound so validity never rests on the tolerance."""
    boundary, bundle = boundary_term(p, v), p.constants
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
    return _report(p, v, "II", boundary, residual, _flux_term(p, v, y), {"c_o": bundle.c_o},
                   {"tail_residual": tail}, scale=scale)


def _interface_term(p: Problem, y_i: VectorField, y_e: VectorField) -> tuple:
    """(estimate III's penalty of the normal-trace jump j of y_e - y_i on
    the interface, ||P_L j||_{-1/2}); see ``estimate_III``."""
    bundle, L, R = p.constants, p.trace_degree, p.domain.R
    jump = traces.normal_trace(y_e - y_i, R, L, p.quads.Gamma)
    jump_norm = traces.sobolev_norm(jump, -0.5)
    above = jump.above_band / math.sqrt(traces.sobolev_weight(L + 1, p.domain.dimension, R))
    return (bundle.trace.value * jump_norm
            + bundle.trace.params["above_band"] * math.sqrt(above)), jump_norm


def estimate_III(
    p: Problem, v: ScalarField, y_i: VectorField, y_e: VectorField
) -> MajorantReport:
    """Upper bound for broken fluxes: interior residual + weighted tail
    residual + flux gap + interface jump penalty + boundary mismatch.  The
    penalty pairs the normal-trace jump j with the error's trace degree by
    degree: C ||P_L j||_{-1/2} for the degrees l <= L, and for the others
    C_above (w_{L+1}^{-1/2} (int j^2 - sum_{l<=L} c_l^2))^{1/2}, since the
    multipliers w_l^{-1/2} fall with l."""
    boundary, bundle = boundary_term(p, v), p.constants
    res_i = _residual(p, y_i)
    res_e = _residual(p, y_e)
    factor = bundle.poincare / math.sqrt(p.A.c_A)
    residual = bundle.c_o * _weighted_residual(p, res_i, p.quads.omega_i, 0.0)
    residual += factor * _residual_norm_tail(p, res_e)
    # the exterior gap first: the table it leaves on the bundle holds y_e's
    # harmonics, and the profiles of y_i = F and v too, for the interior gap
    gap_e = _flux_term(p, v, y_e, "omega_e")
    flux = math.sqrt(_flux_term(p, v, y_i, "omega_i") ** 2 + gap_e**2)
    interface, jump_norm = _interface_term(p, y_i, y_e)
    return _report(p, v, "III", boundary, residual, flux,
                   {"c_o": bundle.c_o, "poincare": bundle.poincare,
                    "interface_trace": bundle.trace.value},
                   {"jump_h_minus_half": jump_norm}, interface=interface)
