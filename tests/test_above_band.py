"""Traces with energy above the band ``trace.L``: estimate III bounds an
interface jump there, and a Dirichlet mismatch or a minorant basis function
there is rejected rather than measured as zero."""

import math

import numpy as np
import pytest

import extbounds as xb
from extbounds.fields import VectorField, profile, ramp, ramp_deriv
from extbounds.geometry import node_radii
from extbounds.majorant import _interface_term, boundary_term
from extbounds.minorant import TestBasis, minorant_report
from extbounds.traces import BandLimitError

from conftest import random_points_in_annulus
from oracles import check_gradient, separable_closures, tensor_flux_gap, tensor_true_error

EPS = 0.1
CASES = [(name, L, L + k) for name in ("N3_harmonic", "N2_log")
         for L in (2, 5, 8) for k in (1, 2, 4)]


def angular(dimension, ell):
    """(value, gradient) closures of a degree-``ell`` harmonic of the
    direction alone: P_l(x3/r) for N = 3, cos(l theta) for N = 2."""

    def both(pts):
        r = node_radii(pts)
        if dimension == 3:
            mu = pts[:, 2] / r
            p0, p1, dp = np.ones_like(mu), mu, np.ones_like(mu)
            for k in range(1, ell):
                p0, p1 = p1, ((2 * k + 1) * mu * p1 - k * p0) / (k + 1)
                dp = mu * dp + (k + 1) * p0  # P'_{k+1} = mu P'_k + (k + 1) P_k
            grad_mu = (np.eye(3)[2] - mu[:, None] * pts / r[:, None]) / r[:, None]
            return p1, dp[:, None] * grad_mu
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        grad_theta = np.stack([-pts[:, 1], pts[:, 0]], axis=1) / (r**2)[:, None]
        return np.cos(ell * theta), (-ell * np.sin(ell * theta))[:, None] * grad_theta

    return (lambda pts: both(pts)[0]), (lambda pts: both(pts)[1])


def harmonic_profile(dimension, ell, a, R, continued=True):
    """psi and psi' of the degree-``ell`` radial harmonic with psi(a) = 0 and
    psi(R) = 1, continued beyond R by the decaying one, (R/r)^(l+N-2), or
    with ``continued`` false by its own formula."""
    m, k = 2 * ell + dimension - 2, ell + dimension - 2
    scale = R**ell - a**m * R**-k

    def psi(r):
        inner = (r**ell - a**m * r**-k) / scale
        return np.where(r <= R, inner, (R / r) ** k) if continued else inner

    def dpsi(r):
        inner = (ell * r ** (ell - 1) + k * a**m * r ** (-k - 1)) / scale
        return np.where(r <= R, inner, -k / r * (R / r) ** k) if continued else inner

    return psi, dpsi


def problem(name, L, ell):
    # the angular rule integrates the squares of degree-ell traces exactly
    return xb.builtin(name, radial_order=8, angular_order=ell + 1, shells=4, trace_degree=L)


def ramp_mismatch(mp, ell):
    """A degree-``ell`` angular harmonic times a ramp from 1 at r = a to 0
    at the middle of the annulus."""
    dom = mp.domain
    r_zero = 0.5 * (dom.a + dom.R)
    return separable_closures(*profile(ramp, ramp_deriv, dom.a, r_zero - dom.a),
                              *angular(dom.dimension, ell),
                              label=f"ramp-degree-{ell}", support=(0.0, r_zero))


@pytest.mark.parametrize("name,L,ell", CASES)
def test_interface_jump_above_band_is_bounded(name, L, ell):
    # v = u + eps psi(r) Y_l is harmonic on both sides of the interface.
    # With y_i = grad v inside and the exact flux outside, both equilibrated,
    # the normal-trace jump is -eps psi'(R) Y_l, all of it above the band.
    # A degree-l field has no terms, which every bound refuses: estimate
    # III is summed here from its interface penalty and boundary term and
    # the tensor reference's flux gaps (both residuals are 0), and bounds
    # the tensor reference's true error
    mp = problem(name, L, ell)
    dom = mp.domain
    ang = angular(dom.dimension, ell)
    field = separable_closures(*harmonic_profile(dom.dimension, ell, dom.a, dom.R), *ang)
    inner = separable_closures(*harmonic_profile(dom.dimension, ell, dom.a, dom.R, False), *ang)
    pts = random_points_in_annulus(dom, 40, seed=ell)
    assert check_gradient(inner, pts, step=1e-6, rtol=1e-5) < 1e-5
    v = mp.exact_u + EPS * field
    y_i = mp.exact_flux + EPS * VectorField(value=inner.gradient,
                                            divergence=lambda p: np.zeros(len(p)))
    p, y_e = mp.problem, mp.exact_flux
    with pytest.raises(ValueError, match=r"^the flux \('.*'\) has no terms"):
        xb.estimate_III(p, v, y_i, y_e)
    with pytest.raises(ValueError, match=r"^v \('.*'\) has no terms"):
        xb.estimate_III(p, v, y_e, y_e)
    interface = _interface_term(p, y_i, y_e)[0]
    flux = math.sqrt(tensor_flux_gap(p, v, y_i, "omega_i") ** 2
                     + tensor_flux_gap(p, v, y_e, "omega_e") ** 2)
    assert interface > 0.0
    assert flux + interface + boundary_term(p, v) >= tensor_true_error(mp, v)


@pytest.mark.parametrize("name,L,ell", CASES)
def test_dirichlet_mismatch_above_band_raises(name, L, ell):
    mp = problem(name, L, ell)
    p, y = mp.problem, mp.exact_flux
    v = mp.exact_u + EPS * ramp_mismatch(mp, ell)
    match = f"above trace.L = {L}"
    for bound in (lambda: boundary_term(p, v), lambda: xb.estimate_I(p, v, y),
                  lambda: xb.estimate_II(p, v, y), lambda: xb.estimate_III(p, v, y, y)):
        with pytest.raises(BandLimitError, match=match):
            bound()


@pytest.mark.parametrize("name,L,ell", CASES)
def test_basis_trace_above_band_rejected(name, L, ell):
    # a degree-ell angular factor has no terms (theirs have degree at most
    # 1), and the minorant, which reads the terms, refuses such a function
    mp = problem(name, L, ell)
    basis = TestBasis(fields=(ramp_mismatch(mp, ell),))
    with pytest.raises(ValueError, match=r"basis function 0 \('ramp-degree-\d+'\) has no terms"):
        minorant_report(mp.problem, mp.exact_u, basis)
