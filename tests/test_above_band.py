"""Traces with energy above the band ``trace.L``: estimate III bounds an
interface jump there, and a Dirichlet mismatch or a minorant basis function
there is rejected rather than measured as zero.

A term has degree at most 1, so at L = 0 its degree-1 part lies above the
band, and the closed-form trace shows it.  A function of higher degree has
no terms, which every bound refuses by name; its trace is sampled and
projected by the tests' reference projection."""

import math

import numpy as np
import pytest

import extbounds as xb
from extbounds.fields import Profile, VectorField
from extbounds.geometry import node_radii
from extbounds.majorant import BAND_LIMIT_RTOL, _interface_term, boundary_term
from extbounds.minorant import TestBasis, minorant_report
from extbounds.problems import perturb
from extbounds.traces import BandLimitError, normal_trace

from conftest import random_points_in_annulus
from oracles import (
    check_gradient,
    sampled_normal_trace,
    sampled_trace,
    separable_closures,
    tensor_flux_gap,
    tensor_true_error,
)

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
    ramp = Profile("ramp", dom.a, r_zero - dom.a)
    return separable_closures(ramp.p, ramp.dp, *angular(dom.dimension, ell),
                              label=f"ramp-degree-{ell}", support=(0.0, r_zero))


@pytest.mark.parametrize("name,L,ell", CASES)
def test_interface_jump_above_band_is_bounded(name, L, ell):
    # v = u + eps psi(r) Y_l is harmonic on both sides of the interface.
    # With y_i = grad v inside and the exact flux outside, both equilibrated,
    # the normal-trace jump is -eps psi'(R) Y_l, all of it above the band.
    # A degree-l field has no terms, which every bound refuses: estimate
    # III is summed here from its interface penalty on the jump's sampled
    # trace and the tensor reference's flux gaps (both residuals are 0, and
    # so is the boundary term, since psi(a) = 0), and bounds the tensor
    # reference's true error
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
    with pytest.raises(ValueError, match=r"^v \('.*'\) has no terms"):
        xb.estimate_III(p, v, y_i, y_e)
    with pytest.raises(ValueError, match=r"^the flux \('.*'\) has no terms"):
        normal_trace(y_e - y_i, dom.R, L, p.quads.Gamma)
    jump = sampled_normal_trace(y_e - y_i, dom.R, L, p.quads.Gamma)
    interface = _interface_term(p, jump)[0]
    flux = math.sqrt(tensor_flux_gap(p, v, y_i, "omega_i") ** 2
                     + tensor_flux_gap(p, v, y_e, "omega_e") ** 2)
    assert interface > 0.0 and jump.above_band > 0.0
    assert flux + interface >= tensor_true_error(mp, v)


def bounds(p, v, y):
    """boundary_term and estimates I, II and III of ``v`` with the flux
    ``y``, each to be called."""
    return (lambda: boundary_term(p, v), lambda: xb.estimate_I(p, v, y),
            lambda: xb.estimate_II(p, v, y), lambda: xb.estimate_III(p, v, y, y))


@pytest.mark.parametrize("name,L,ell", CASES)
def test_dirichlet_mismatch_above_band_raises(name, L, ell):
    # the degree-ell mismatch has no terms, which every bound refuses by
    # name before it could measure a trace above the band
    mp = problem(name, L, ell)
    p, y = mp.problem, mp.exact_flux
    v = mp.exact_u + EPS * ramp_mismatch(mp, ell)
    for bound in bounds(p, v, y):
        with pytest.raises(ValueError, match=r"^v \('.*'\) has no terms"):
            bound()
    trace = sampled_trace(v, mp.domain.a, L, p.quads.gamma)
    assert trace.above_band > BAND_LIMIT_RTOL * float(trace.coefficients @ trace.coefficients)


def degree_zero(name):
    """The catalog problem ``name`` at trace.L = 0, where the degree-1 part
    of a term's trace lies above the band."""
    return xb.builtin(name, radial_order=12, angular_order=4, shells=4, trace_degree=0)


@pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
def test_interface_jump_of_terms_above_band_is_bounded(name):
    # the jump of the harmonic gradients, sum_k p_k'(R) (c_k . phi), has a
    # degree-1 part, all of it above the band L = 0 (N2_log's has no
    # constant part: its H^{-1/2} norm in the band is 0.0)
    mp = degree_zero(name)
    p = mp.problem
    v = perturb(mp, "v", EPS, "interior_bump", 4)
    y_i, y_e = perturb(mp, "y_broken", EPS, "interface_jump", 4)
    jump = normal_trace(y_e - y_i, mp.domain.R, 0, p.quads.Gamma)
    report = xb.estimate_III(p, v, y_i, y_e)
    assert jump.above_band > 0.0
    assert report.interface == _interface_term(p, jump)[0] > 0.0
    assert report.metadata["jump_h_minus_half"] == xb.sobolev_norm(jump, -0.5)
    if name == "N2_log":
        assert report.metadata["jump_h_minus_half"] == 0.0
        assert report.interface == pytest.approx(0.0910, abs=5e-5)
    assert report.total >= xb.true_error(mp, v)


@pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
def test_dirichlet_mismatch_of_terms_above_band_raises(name):
    # a boundary mode's mismatch has a degree-1 part, above the band L = 0
    mp = degree_zero(name)
    p, y = mp.problem, mp.exact_flux
    v = perturb(mp, "v", EPS, "boundary_mode", 4)
    for bound in bounds(p, v, y):
        with pytest.raises(BandLimitError, match="above trace.L = 0"):
            bound()


@pytest.mark.parametrize("name,L,ell", CASES)
def test_basis_trace_above_band_rejected(name, L, ell):
    # a degree-ell angular factor has no terms (theirs have degree at most
    # 1), and the minorant, which reads the terms, refuses such a function
    mp = problem(name, L, ell)
    basis = TestBasis(fields=(ramp_mismatch(mp, ell),))
    with pytest.raises(ValueError, match=r"basis function 0 \('ramp-degree-\d+'\) has no terms"):
        minorant_report(mp.problem, mp.exact_u, basis)
