"""Fields keep their terms (``fields.Term``), and the minorant and the norms
are summed from them: radial sums over the whole rule's radial nodes
times closed-form sphere moments.  The terms must describe the same
functions as the closures, and the sums must give the values of the
tensor reference (``oracles``), summed on the rule's nodes from the
closures, up to rounding where its directions integrate the moments
exactly.  Every bound refuses a field without terms."""

import dataclasses
import gc
import inspect
import math
import re
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest

import extbounds as xb
import extbounds.fields as fields_module
import extbounds.minorant as minorant_module
import extbounds.problems as problems_module
from extbounds.cli import guarantee_ok
from extbounds.fields import (
    QuadratureErrorAt,
    bump_moments,
    cubic_bump,
    mollifier,
    separable_field,
    sphere_moments,
)
from extbounds.geometry import build_quadrature
from extbounds.minorant import (
    NonzeroTraceError,
    SingularGramError,
    TestBasis,
    _term_system,
    default_basis,
    minorant_report,
    validate_zero_traces,
)
from extbounds.majorant import _flux_term, _residual, _weighted_residual, scale_of
from extbounds.problems import _flux_bump, _random_interior_bump, perturb

from conftest import termless
from oracles import (
    dense_minorant,
    reference_term_products,
    tensor_flux_gap,
    tensor_residual,
    tensor_scale,
    tensor_true_error,
    term_values,
)

RULES = ("whole", "gamma", "Gamma")
MODES = ("interior_bump", "boundary_mode")


@pytest.fixture(scope="module")
def coarse():
    return {name: xb.builtin(name, shells=8) for name in xb.CATALOG}


FEW_DIRECTIONS = ("N3_anisotropic", "N2_log", "N3_harmonic")


def few_and_many(name):
    """``name`` at angular order 2, whose rule is exact to degree 3 only,
    and at angular order 12."""
    return [xb.builtin(name, angular_order=order, shells=8, trace_degree=1)
            for order in (2, 12)]


class TestTermsMatchClosures:
    @pytest.mark.parametrize("name", xb.CATALOG)
    def test_flux_is_A_grad_of_its_potential(self, coarse, name):
        # the two formulas round differently: N3_decay's -4 x / (1 + r^2)^2
        # and 2 (-2 r / (1 + r^2)^2) (x / r) differ by up to 6 ulps of |F|
        mp = coarse[name]
        d = mp.problem.A.diagonal
        assert mp.exact_flux.potential == mp.exact_u.terms
        for rule in RULES:
            pts = getattr(mp.problem.quads, rule).nodes
            flux = mp.exact_flux.value(pts)
            gradient = term_values(mp.exact_flux.potential, pts)[1]
            ulp = np.spacing(np.linalg.norm(flux, axis=1))[:, None]
            assert np.all(np.abs(flux - d * gradient) <= 8 * ulp), rule

    @pytest.mark.parametrize("name", xb.CATALOG)
    def test_separable_fields_match_their_terms(self, coarse, name):
        # u - v is compared within ulps of its operands: its closures
        # subtract v's values from u's, its terms cancel u's term exactly
        mp = coarse[name]
        fields = [(w, w.terms) for n_radial, degree in ((4, 1), (3, 0))
                  for w in default_basis(mp.domain, n_radial, degree).fields]
        for mode in MODES:
            for seed in (0, 3, 4, 10):
                v = perturb(mp, "v", 0.1, mode, seed)
                fields += [(v, v.terms), (mp.exact_u - v, mp.exact_u.terms + v.terms)]
        for rule in RULES:
            pts = getattr(mp.problem.quads, rule).nodes
            for w, operands in fields:
                value, gradient = term_values(w.terms, pts)[:2]
                size, gradient_size = term_values(operands, pts)[2:]
                assert np.all(np.abs(w.value(pts) - value) <= 4 * np.spacing(size)), w.label
                assert np.all(np.abs(w.gradient(pts) - gradient)
                              <= 4 * np.spacing(gradient_size)), w.label

    @pytest.mark.parametrize("mode", MODES)
    def test_error_terms_are_exactly_minus_eps_s(self, coarse, mode):
        # like terms merge: u's term cancels to 0.0 and is dropped
        mp = coarse["N3_harmonic"]
        eps = 0.1
        v = perturb(mp, "v", eps, mode, 3)
        u_term, s = v.terms
        assert u_term == mp.exact_u.terms[0]
        (t,) = (mp.exact_u - v).terms
        assert t == s._replace(angular=tuple(-c for c in s.angular))
        if mode == "interior_bump":
            bump = _random_interior_bump(mp, np.random.default_rng(3))
            assert t.angular == (-eps * bump).terms[0].angular
            assert t.support == bump.support
        assert (mp.exact_u - mp.exact_u).terms == ()

    def test_terms_hold_to_a_replaced_support(self, coarse):
        mp = coarse["N3_harmonic"]
        w = default_basis(mp.domain, 4, 1).fields[5]
        lo, hi = w.support
        narrow = dataclasses.replace(w, support=(lo, 0.5 * (lo + hi)))
        assert narrow.terms[0].support == (lo, 0.5 * (lo + hi))
        assert dataclasses.replace(w, support=(hi + 1.0, hi + 2.0)).terms == ()
        assert dataclasses.replace(w, terms=()).terms == ()


def gram_scale(gram):
    diag = np.sqrt(np.diag(gram))
    return diag[:, None] * diag[None, :]


class TestTermAssembly:
    @pytest.mark.parametrize("name", xb.CATALOG)
    @pytest.mark.parametrize("n_radial,degree", [(4, 1), (6, 1), (3, 0)])
    def test_agrees_with_the_tensor_rule(self, coarse, name, n_radial, degree):
        mp = coarse[name]
        p = mp.problem
        for seed in (0, 3, 4, 10):
            v = perturb(mp, "v", 0.1, "interior_bump", seed)
            for with_error in (False, True):
                basis = default_basis(mp.domain, n_radial, degree)
                if with_error:
                    basis = basis.extended(mp.exact_u - v)
                gram, rhs, _ = _term_system(p, v, basis)
                dense = dense_minorant(p, v, basis)
                assert np.all(np.abs(gram - dense.gram) <= 4e-15 * gram_scale(dense.gram))
                # |rhs_j| <= ||w_j|| ||u - v||, the scale of its rounding: the
                # tensor sums leave roundoff where w_j and u - v do not meet
                scale = np.sqrt(np.diag(dense.gram)) * xb.true_error(mp, v)
                assert np.all(np.abs(rhs - dense.rhs) <= 1e-14 * scale), (seed, with_error)
                rep = minorant_report(p, v, basis)
                for a, b in ((rep.value, dense.value), (rep.direct_value, dense.direct_value)):
                    assert abs(a - b) <= 1e-14 * abs(b), (seed, with_error)

    @pytest.mark.parametrize("name", xb.CATALOG)
    def test_cross_block_entries_are_exact_zeros(self, coarse, name):
        # the tensor rule leaves roundoff there; the moments are diagonal
        mp = coarse[name]
        width = mp.domain.dimension + 1
        v = perturb(mp, "v", 0.1, "interior_bump", 3)
        basis = default_basis(mp.domain, 4, 1)
        gram = _term_system(mp.problem, v, basis)[0]
        block = np.arange(len(basis)) % width
        cross = block[:, None] != block[None, :]
        assert np.all(gram[cross] == 0.0)
        assert np.any(dense_minorant(mp.problem, v, basis).gram[cross] != 0.0)

    @pytest.mark.parametrize("dimension", [2, 3])
    @pytest.mark.parametrize("order", [2, 3, 12])
    def test_sphere_moments_match_the_angular_rule(self, dimension, order):
        # the moment matrices integrated on the tensor rule's directions,
        # exact for their degree 4 from angular order 3 on, against the
        # closed forms, for a diagonal D, a rank-one e e^T and a full
        # symmetric D; the order-2 rule, exact to degree 3, misses them
        omega, w, phi, grad_s = sphere_rule(dimension, order)
        rng = np.random.default_rng(dimension)
        e, full = rng.normal(size=dimension), rng.normal(size=(dimension, dimension))
        exact = []
        for D in (np.diag([1.0, 2.0, 4.0][:dimension]), np.outer(e, e), full + full.T):
            quad = np.einsum("mi,ij,mj->m", omega, D, omega)
            tangent = np.einsum("mi,ij,mbj->mb", omega, D, grad_s)  # omega . D grad_S phi_b
            m1 = np.einsum("m,ma,mb->ab", w * quad, phi, phi)
            m2 = np.einsum("m,ma,mb->ab", w, phi, tangent)
            m4 = np.einsum("m,mai,ij,mbj->ab", w, grad_s, D, grad_s)
            # the entries reach 60 (e e^T): roundoff of some 1e-14 on the rule
            exact.append(np.allclose(sphere_moments(D), [m1, m2, m2.T, m4],
                                     rtol=1e-13, atol=1e-13))
        assert all(exact) == (order >= 3)

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_diagonal_moments_keep_their_bits(self, dimension):
        # a diagonal D gives the diagonal closed forms, bit for bit, and
        # exact zeros off the diagonal, from its diagonal or its matrix
        d = np.array([1.0, 2.0, 4.0][:dimension])
        n, t, k = dimension, float(np.sum(d)), dimension * (dimension + 2)
        area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
        m1 = [area * t / n] + [area * (t + 2.0 * di) / k for di in d]
        m2 = [0.0] + [area * (n * di - t) / k for di in d]
        m4 = [0.0] + [area * ((n * n - 2) * di + t) / k for di in d]
        for D in (d, np.diag(d)):
            moments = sphere_moments(D)
            assert np.array_equal(np.diagonal(moments, axis1=1, axis2=2), [m1, m2, m2, m4])
            assert np.count_nonzero(moments) == np.count_nonzero([m1, m2, m2, m4])

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_bump_moments_match_the_angular_rule(self, dimension):
        # int phi_a phi_b omega, int phi_a grad_S phi_b and int phi_a phi_b
        # on the directions of angular order 12, against the closed forms
        omega, w, phi, grad_s = sphere_rule(dimension, 12)
        x1, x2, x3 = bump_moments(dimension)
        assert np.allclose(x1, np.einsum("m,ma,mb,mk->abk", w, phi, phi, omega),
                           rtol=1e-14, atol=1e-14)
        assert np.allclose(x2, np.einsum("m,ma,mbk->abk", w, phi, grad_s), rtol=1e-14,
                           atol=1e-14)
        assert np.allclose(x3, np.einsum("m,ma,mb->ab", w, phi, phi), rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("name", ["N3_anisotropic", "N2_log"])
    def test_closer_to_the_exact_rule_than_the_tensor_sums(self, coarse, name):
        # the same rule in 50 digits: its Gauss-Legendre nodes and weights,
        # the panels and the profiles, and the closed-form moments.  The
        # largest error of an entry, scaled by its Cauchy-Schwarz bound, is
        # smaller on the terms (N3_anisotropic: 7.2e-16 against 9.0e-16 in
        # the Gram, 6.0e-16 against 9.0e-16 in the rhs)
        mp = coarse[name]
        p, dom = mp.problem, mp.domain
        v = perturb(mp, "v", 0.1, "interior_bump", 3)
        basis = default_basis(dom, 4, 1).extended(mp.exact_u - v)
        new = _term_system(p, v, basis)
        old = dense_minorant(p, v, basis)
        ref = reference_system(p, [w.terms[0] for w in basis.fields],
                               (mp.exact_u - v).terms[0])
        scale = gram_scale(ref[0])
        err_new = np.abs(new[0] - ref[0]) / scale
        err_old = np.abs(old[0] - ref[0]) / scale
        assert err_new.max() <= err_old.max()
        rhs_scale = np.sqrt(np.diag(ref[0]) * float(ref[2]))
        assert np.max(np.abs(new[1] - ref[1]) / rhs_scale) <= np.max(
            np.abs(old[1] - ref[1]) / rhs_scale)

    @pytest.mark.parametrize("name", xb.CATALOG)
    def test_error_in_basis_stays_below_the_error(self, coarse, name):
        mp = coarse[name]
        for seed in (0, 3, 4, 10):
            for eps in (1e-3, 0.1, 1.0):
                v = perturb(mp, "v", eps, "interior_bump", seed)
                basis = default_basis(mp.domain).extended(mp.exact_u - v)
                lower = math.sqrt(minorant_report(mp.problem, v, basis).value)
                assert lower <= xb.true_error(mp, v) * (1 + 1e-14), (seed, eps)

    @pytest.mark.parametrize("name", FEW_DIRECTIONS)
    def test_few_directions_sum_the_exact_moments(self, name):
        # the terms need no directions: at angular order 2, whose rule is
        # exact to degree 3 only, the minorant is that of angular order 12
        # bit for bit, the exact angular integrals, and lower <= error
        few, many = few_and_many(name)
        for seed in (0, 3):
            reports = []
            for mp in (few, many):
                v = perturb(mp, "v", 1e-3, "interior_bump", seed)
                basis = default_basis(mp.domain, 4, 1).extended(mp.exact_u - v)
                reports.append(minorant_report(mp.problem, v, basis).as_dict())
            assert reports[0] == reports[1], seed
            err, scale, _ = norms(few, perturb(few, "v", 1e-3, "interior_bump", seed))
            lower = math.sqrt(reports[0]["value"])
            assert lower <= err * (1 + 1e-14)
            assert guarantee_ok(err, scale, lower)

    def test_large_basis_assembles_the_pairs_that_meet(self, coarse):
        # 1201 functions: only pairs of terms whose profiles share radial
        # nodes are multiplied out, so the assembly needs little more than
        # its (n + 1)^2 system (multiplying out all pairs peaks at 457 MB)
        mp = coarse["N3_harmonic"]
        v = perturb(mp, "v", 0.1, "interior_bump", 3)
        basis = default_basis(mp.domain, 300, 1).extended(mp.exact_u - v)
        tracemalloc.start()
        try:
            _term_system(mp.problem, v, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * (len(basis) + 1) ** 2

    def test_zero_trace_check_reads_the_terms(self, coarse):
        # a term cut where its profile is not 0.0, or is NaN, is rejected at
        # the first end of its support, whatever its closures give
        p = coarse["N3_harmonic"].problem
        for end_value in (1e-3, np.nan):
            w = separable_field(lambda s, e=end_value: np.full_like(s, e),
                                lambda s: np.zeros_like(s), (0.5, 0.0, 0.0, 0.0),
                                label="cut", support=(1.25, 1.5))
            w = dataclasses.replace(w, value=lambda pts: np.zeros(len(pts)),
                                    gradient=lambda pts: np.zeros(np.shape(pts)))
            with pytest.raises(NonzeroTraceError, match=r"basis function 0 .* r = 1.25 bounding"):
                validate_zero_traces(p, TestBasis(fields=(w,)))

    def test_minorant_refuses_fields_without_terms(self, coarse):
        # the first of v, a basis function and the flux's potential without
        # terms is named.  A function without terms (None) is not the zero
        # function (terms ()): the latter has zero energy, which the Gram
        # names, and the zero v is a valid approximation
        mp = coarse["N3_harmonic"]
        p = mp.problem
        v = perturb(mp, "v", 0.1, "interior_bump", 3)
        basis = default_basis(mp.domain, 2, 0)
        termless_flux = dataclasses.replace(p, flux=termless(p.flux))
        for problem, approx, b, message in (
                (termless_flux, termless(v), termless(basis), r"^v \('.*'\) has no terms"),
                (termless_flux, v, basis.extended(termless(basis.fields[0])),
                 r"^basis function 2 \('basis\[r0,a0\]'\) has no terms"),
                (p, v, basis.extended(termless(basis.fields[0])),
                 r"^basis function 2 \('basis\[r0,a0\]'\) has no terms"),
                (termless_flux, v, basis, r"^the flux \('.*'\) has no terms")):
            with pytest.raises(ValueError, match=message) as exc:
                minorant_report(problem, approx, b)
            assert not isinstance(exc.value, SingularGramError)
        zero = mp.exact_u - mp.exact_u
        assert zero.terms == ()
        with pytest.raises(SingularGramError, match=r"basis function 2 .* zero energy"):
            minorant_report(p, v, basis.extended(zero))
        assert minorant_report(p, zero, basis).value >= 0.0

    @pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
    def test_zero_trace_check_rejects_the_boundary_mode_error(self, coarse, name):
        # u - v of a boundary-mode v: its terms do not vanish at r = a
        mp = coarse[name]
        v = perturb(mp, "v", 0.1, "boundary_mode", 3)
        with pytest.raises(NonzeroTraceError, match=r"basis function 0 .* inner boundary"):
            validate_zero_traces(mp.problem, TestBasis(fields=(mp.exact_u - v,)))

    def test_jumps_that_cancel_at_a_shared_end_accepted(self, coarse):
        # q = ((r - 1.25) (1.75 - r))^2 on (1.25, 1.75) as two terms that
        # meet at r = 1.5, where either alone jumps by q(1.5) = 0.0039
        p = coarse["N3_harmonic"].problem

        def piece(support):
            return separable_field(lambda r: ((r - 1.25) * (1.75 - r)) ** 2,
                                   lambda r: 2.0 * (r - 1.25) * (1.75 - r) * (3.0 - 2.0 * r),
                                   (1.0, 0.0, 0.5, 0.0), label=f"q{support}", support=support)

        inner, outer = piece((1.25, 1.5)), piece((1.5, 1.75))
        validate_zero_traces(p, TestBasis(fields=(inner + outer,)))
        assert len((inner + outer).terms) == 2
        for w in (inner, outer):
            with pytest.raises(NonzeroTraceError, match=r"jumps by 3.906e-03 .* r = 1.5 "):
                validate_zero_traces(p, TestBasis(fields=(w,)))

    def test_non_finite_profile_named_at_its_radius(self, coarse):
        mp = coarse["N3_harmonic"]
        p = mp.problem
        r, _ = p.quads.whole.radial
        directions = len(p.quads.whole.angular[0])
        k = 40  # a radial node inside (a, R)
        bad = separable_field(lambda s: np.where(s == r[k], np.nan, 0.0),
                              lambda s: np.zeros_like(s), (0.0, 1.0, 0.0, 0.0), label="bad")
        basis = default_basis(mp.domain, 2, 0).extended(bad)
        with pytest.raises(QuadratureErrorAt, match=f"'bad'.* at node {k * directions}:"):
            minorant_report(p, perturb(mp, "v", 0.1, "interior_bump", 3), basis)


def rule_of(dimension, order):
    """The rule on the inner sphere of the domain 1 < r < 2, whose
    directions are those of every rule of that angular order."""
    return xb.build_quadrature(xb.ExteriorDomain(dimension, 1.0, 2.0), 1, order, 1,
                               "sphere_gamma")


def sphere_rule(dimension, order):
    """(omega, weights, phi, grad_S phi) on the directions of ``order``:
    phi = (1, omega_1, ..., omega_N) and grad_S phi_a, (M, N + 1, N)."""
    omega, w = rule_of(dimension, order).angular
    phi = np.column_stack([np.ones(len(omega)), omega])
    grad_s = np.zeros((len(omega), dimension + 1, dimension))
    grad_s[:, 1:, :] = np.eye(dimension)[None] - omega[:, :, None] * omega[:, None, :]
    return omega, w, phi, grad_s


def norms(mp, v, y=None):
    """(true error, scale, flux gap of ``y``, the exact flux by default)."""
    p = mp.problem
    return xb.true_error(mp, v), scale_of(p, v), _flux_term(p, v, y or mp.exact_flux)


def tensor_norms(mp, v):
    """``norms`` of the exact flux from the tensor reference."""
    p = mp.problem
    return tensor_true_error(mp, v), tensor_scale(p, v), tensor_flux_gap(p, v, mp.exact_flux)


class TestTermNorms:
    """The true error, the scale and the flux gap of a flux with a potential
    are summed from the terms (``fields.term_norm``), and agree with the
    tensor reference where the rule's directions integrate the sphere
    moments exactly."""

    @pytest.mark.parametrize("name", xb.CATALOG)
    def test_agree_with_the_tensor_rule(self, coarse, name):
        mp = coarse[name]
        for mode in MODES:
            for seed in (0, 3, 4, 10):
                for eps in (1e-3, 0.1, 1.0):
                    v = perturb(mp, "v", eps, mode, seed)
                    for term, tensor in zip(norms(mp, v), tensor_norms(mp, v)):
                        assert abs(term - tensor) <= 4e-15 * tensor, (mode, seed, eps)

    @pytest.mark.parametrize("name", xb.CATALOG)
    def test_exact_flux_at_eps_zero_is_exactly_zero(self, coarse, name):
        # the tensor rule leaves roundoff in the flux gap (F - A grad u); the
        # terms of u - u merge to nothing.  The residual of a flux whose
        # potential is the load flux's is 0.0 without evaluating it
        mp = coarse[name]
        p = mp.problem
        v = perturb(mp, "v", 0.0, "interior_bump", 3)
        y = dataclasses.replace(mp.exact_flux, divergence=None, value=None)
        assert _residual(p, y) is None
        assert norms(mp, v)[0::2] == (0.0, 0.0)
        for rep in (xb.estimate_I(p, v, mp.exact_flux), xb.estimate_II(p, v, mp.exact_flux),
                    xb.estimate_III(p, v, mp.exact_flux, mp.exact_flux)):
            assert (rep.residual, rep.flux, rep.total) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("name", xb.CATALOG)
    @pytest.mark.parametrize("mode", MODES)
    def test_true_error_is_linear_in_eps(self, coarse, name, mode):
        # u - v is -eps s term by term: no cancellation of grad u - grad v
        mp = coarse[name]
        for seed in (0, 3, 4, 10):
            small, large = (xb.true_error(mp, perturb(mp, "v", eps, mode, seed)) / eps
                            for eps in (1e-6, 0.1))
            assert abs(small - large) <= 4 * np.spacing(large), seed

    @pytest.mark.parametrize("name", FEW_DIRECTIONS)
    def test_few_directions_sum_the_exact_moments(self, name):
        # at angular order 2 the true error, the scale and the exact flux's
        # gap of an interior bump and a boundary mode are angular order 12's
        for seed in (0, 3):
            values = [[norms(mp, perturb(mp, "v", eps, mode, seed))
                       for eps, mode in ((1e-3, "interior_bump"), (0.1, "boundary_mode"))]
                      for mp in few_and_many(name)]
            assert values[0] == values[1], seed

    @pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
    def test_overflow_raises_overflow_error_naming_the_field(self, coarse, name):
        # the products overflow to inf: OverflowError names the field and
        # its weight, and no RuntimeWarning (an error under pytest) escapes
        # on the way; without terms, v is refused by name
        mp = coarse[name]
        p = mp.problem
        v = perturb(mp, "v", 1e300, "interior_bump", 3)
        for norm, field, weight in (
                (lambda w: xb.true_error(mp, w), f"grad(({mp.exact_u.label}-{v.label}))",
                 "energy:A"),
                (lambda w: scale_of(p, w), f"grad({v.label})", "energy:A"),
                (lambda w: _flux_term(p, w, mp.exact_flux),
                 f"({mp.exact_flux.label}-A*grad({v.label}))", "energy:A_inverse")):
            with pytest.raises(OverflowError) as exc:
                norm(v)
            assert str(exc.value) == f"non-finite term sum for field {field!r} (weight {weight})"
            with pytest.raises(ValueError, match=r"^v \('.*'\) has no terms"):
                norm(termless(v))

    def test_perturbed_fluxes_keep_their_terms(self, coarse):
        # y = F + eps b d records b's terms as its bumps, and y_broken's
        # exterior F + eps sum c_k grad h_k its harmonics, merged (the three
        # grad(x_i / r^3) share one profile); their residuals are the bump's
        # divergence and 0 by structure
        mp = coarse["N3_decay"]
        p = mp.problem
        y = perturb(mp, "y", 0.1, "interior_bump", 4)
        y_i, y_e = perturb(mp, "y_broken", 0.1, "interface_jump", 5)
        assert y.potential == y_e.potential == y_i.potential == mp.exact_flux.potential
        assert (len(y.bumps), len(y.gradients), len(y_e.bumps), len(y_e.gradients)) == (1, 0, 0, 2)
        a, b = y.bumps[0].support
        assert mp.domain.a < a < b < mp.domain.R
        assert np.linalg.norm(y.bumps[0].direction) == pytest.approx(1.0, rel=1e-15)
        assert _residual(p, y)[1] == y.bumps
        assert _residual(p, y_e) is None
        with pytest.raises(ValueError, match=r"^the flux \('.*'\) has no terms"):
            _residual(p, termless(y_e))


class TestRefusals:
    """Every bound refuses what its terms cannot sum, with a ``ValueError``
    that names the field, and takes u - u, whose terms are (), as the zero
    approximation."""

    @pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
    def test_each_refusal_names_its_field(self, coarse, name):
        mp = coarse[name]
        p = mp.problem
        v = perturb(mp, "v", 0.1, "interior_bump", 3)
        y = perturb(mp, "y", 0.1, "interior_bump", 4)
        e = np.eye(mp.domain.dimension)[0]
        two = y + 0.1 * _flux_bump(_random_interior_bump(mp, np.random.default_rng(7)), e)
        other = xb.VectorField(value=v.gradient, label="grad v", potential=v.terms)

        def estimates(w, flux):
            return [lambda: xb.estimate_I(p, w, flux), lambda: xb.estimate_II(p, w, flux),
                    lambda: xb.estimate_III(p, w, flux, flux)]

        bare = termless(v)
        cases = [(bound, rf"^v \('{re.escape(v.label)}'\) has no terms")
                 for bound in estimates(bare, y) + [lambda: scale_of(p, bare),
                                                    lambda: xb.true_error(mp, bare)]]
        cases += [(bound, rf"^the flux \('{re.escape(y.label)}'\) has no terms")
                  for bound in estimates(v, termless(y))]
        cases += [(bound, r"^the flux \('grad v'\) has a potential other than the load flux's")
                  for bound in estimates(v, other)]
        cases += [(bound, rf"^the residual 'f\+div {re.escape(two.label)}' \(weight [^)]*\) "
                          "has bumps of several directions") for bound in estimates(v, two)]
        assert len(cases) == 14
        for bound, message in cases:
            with pytest.raises(ValueError, match=message):
                bound()

    @pytest.mark.parametrize("name", xb.CATALOG)
    def test_u_minus_u_is_the_zero_approximation(self, coarse, name):
        # its scale is 0.0, its true error has the bits of the scale of u,
        # and the bounds and the minorant take it
        mp = coarse[name]
        p = mp.problem
        zero = mp.exact_u - mp.exact_u
        assert zero.terms == ()
        assert scale_of(p, zero) == 0.0
        error = xb.true_error(mp, zero)
        assert error.hex() == scale_of(p, mp.exact_u).hex() and error > 0.0
        assert xb.estimate_I(p, zero, mp.exact_flux).flux == error
        report = minorant_report(p, zero, default_basis(mp.domain))
        assert report.boundary_caveat and 0.0 <= math.sqrt(report.value) <= error


class TestFluxTerms:
    """The flux gap and the residual norms of the flux bump (target y) and of
    the harmonic gradients (y_broken's exterior) are summed from their
    terms: radial sums times sphere moments."""

    @pytest.mark.parametrize("name", xb.CATALOG)
    def test_agree_with_the_tensor_rule(self, coarse, name):
        # the tensor reference sums the same discrete integrals with the
        # cancellation of F - A grad u and -div F + div F: within 1e-13 of
        # the larger of the value and the flux gap on the whole rule
        mp = coarse[name]
        p = mp.problem
        for seed in (3, 4, 10):
            v = perturb(mp, "v", 0.1, "interior_bump", seed)
            for eps in (1e-3, 0.1, 1.0):
                y = perturb(mp, "y", eps, "interior_bump", seed)
                y_e = perturb(mp, "y_broken", eps, "interface_jump", seed)[1]
                for flux in (y, y_e):
                    term, tensor = flux_values(p, v, flux), tensor_flux_values(p, v, flux)
                    for a, b in zip(term, tensor):
                        assert abs(a - b) <= 1e-13 * max(b, tensor[0]), (seed, eps, flux.label)

    @pytest.mark.parametrize("name", xb.CATALOG)
    def test_no_closure_on_the_tensor_rule(self, coarse, name, monkeypatch):
        # an estimate with a perturbed flux calls none of the norms on a
        # rule's nodes (``TestGradientOnce`` in test_evaluation.py: nor any
        # closure of v)
        mp = coarse[name]
        p = mp.problem
        v = perturb(mp, "v", 0.1, "interior_bump", 3)
        y = perturb(mp, "y", 0.1, "interior_bump", 4)
        y_i, y_e = perturb(mp, "y_broken", 0.1, "interface_jump", 5)
        calls = []
        monkeypatch.setattr(fields_module, "_norm", lambda *a, **k: calls.append(a))
        for report in (xb.estimate_I(p, v, y), xb.estimate_II(p, v, y),
                       xb.estimate_III(p, v, y_i, y_e)):
            assert math.isfinite(report.total)
        assert calls == []

    @pytest.mark.parametrize("name", xb.CATALOG)
    def test_flux_gap_is_linear_in_eps(self, coarse, name):
        # y - A grad u is eps b d (or eps sum c_k grad h_k) term by term: no
        # cancellation of F - A grad u, which puts the tensor rule's
        # flux(1e-6)/1e-6 up to 1.7e-11 relative away from flux(0.1)/0.1
        # (here at most 2 ulps)
        mp = coarse[name]
        p = mp.problem
        for seed in (3, 4, 10):
            for target, part in (("y", "whole"), ("y_broken", "omega_e")):
                small, large = (_flux_term(p, mp.exact_u, flux_of(mp, target, eps, seed),
                                           part) / eps for eps in (1e-6, 0.1))
                assert abs(small - large) <= 4 * np.spacing(large), (seed, target)

    def test_exact_flux_and_true_error_sum_once(self, coarse, monkeypatch):
        # estimate I with the exact flux builds one term table, over the
        # profiles of u and v, for its flux gap; the scale and the true error
        # read the one the bundle keeps.  Estimate II builds it for the
        # scale, over v's profiles, which hold u's; its flux gap reads it
        mp = coarse["N3_harmonic"]
        p = mp.problem
        builds = counted_builds(monkeypatch, lambda rule, sets, *args: list(sets))
        for seed, estimate, sets in ((3, xb.estimate_I, lambda v: [p.flux.potential, v.terms,
                                                                   (), ()]),
                                     (7, xb.estimate_II, lambda v: [v.terms, (), ()])):
            v = perturb(mp, "v", 0.1, "interior_bump", seed)
            builds.clear()
            report = estimate(p, v, mp.exact_flux)
            assert xb.true_error(mp, v) == report.flux
            assert builds == [sets(v)]
        xb.true_error(mp, perturb(mp, "v", 0.1, "interior_bump", 4))
        assert len(builds) == 2
        # with a flux bump the one table holds the bump's profile too, whose
        # p and p' the flux gap's bump products read; the scale and the true
        # error read it, and with the slot emptied the true error builds its
        # own table and sums the same value
        v = perturb(mp, "v", 0.1, "interior_bump", 5)
        y = perturb(mp, "y", 0.1, "interior_bump", 6)
        assert y.bumps
        builds.clear()
        xb.estimate_I(p, v, y)
        error = xb.true_error(mp, v)
        # the residual, then the flux gap
        assert builds == [[list(y.bumps)], [y.potential, v.terms, (), y.bumps]]
        kept = p.quads._table
        assert scale_of(p, v) > 0.0 and p.quads._table is kept and len(builds) == 2
        object.__setattr__(p.quads, "_table", None)
        assert xb.true_error(mp, v) == error
        assert builds[2:] == [[mp.exact_u.terms, v.terms, (), ()]]

    def test_kept_table_is_read_for_its_rule_only(self, coarse, monkeypatch):
        # the flux gap on the whole rule keeps its table on the bundle, over
        # the profiles of u, v and the bump.  A bump residual with a radial
        # weight on the same rule builds its own and leaves the kept one;
        # the scale and the flux gap on omega_i read the kept one, the
        # latter on omega_i's radial rows of it
        mp = coarse["N3_decay"]
        p, quads = mp.problem, mp.problem.quads
        v = perturb(mp, "v", 0.1, "interior_bump", 3)
        y = perturb(mp, "y", 0.1, "interior_bump", 4)
        norms = [lambda: _flux_term(p, v, y),
                 lambda: fields_module.bump_residual_norm(quads.whole, y.bumps,
                                                          lambda r: r * r + 1.0, None),
                 lambda: scale_of(p, v), lambda: _flux_term(p, v, y, "omega_i")]
        alone = []  # each value with nothing kept
        for norm in norms:
            object.__setattr__(quads, "_table", None)
            alone.append(norm())
        builds = counted_builds(monkeypatch, lambda rule, sets, labels, weight, radial=None: (
            rule, radial is not None))
        object.__setattr__(quads, "_table", None)
        got = [norms[0]()]
        kept = quads._table
        got.append(norms[1]())
        assert builds == [(quads.whole, False), (quads.whole, True)]
        got += [norms[2](), norms[3]()]
        assert len(builds) == 2 and quads._table is kept
        assert got == alone and 0.0 not in got

    def test_non_finite_bump_raises_overflow_error_naming_the_field(self, coarse):
        # a bump profile that is NaN at one radius, and a bump at eps =
        # 1e300 whose products overflow: the residual, evaluated first,
        # raises OverflowError with its field and weight, rho^2 for the
        # interior residual of estimate I, unweighted for estimate II's;
        # without terms, the flux is refused by name
        mp = coarse["N3_anisotropic"]
        p = mp.problem
        r = p.quads.omega_i.radial[0]
        bad = separable_field(lambda s: np.where(s == r[40], np.nan, 0.0),
                              lambda s: np.where(s == r[40], np.nan, 0.0),
                              (0.0, 1.0, 0.0, 0.0), label="bad", support=(1.2, 1.8))
        v = perturb(mp, "v", 0.1, "interior_bump", 3)
        huge = perturb(mp, "y", 1e300, "interior_bump", 4)
        for y in (mp.exact_flux + 0.1 * _flux_bump(bad, np.array([0.6, 0.0, 0.8])), huge):
            assert y.bumps
            for estimate, weight in ((xb.estimate_I, "rho^2.0"), (xb.estimate_II, "rho^0.0")):
                with pytest.raises(OverflowError) as exc:
                    estimate(p, v, y)
                assert str(exc.value) == (f"non-finite term sum for field 'f+div {y.label}' "
                                          f"(weight {weight})")
                with pytest.raises(ValueError, match=r"^the flux \('.*'\) has no terms"):
                    estimate(p, v, termless(y))

    @pytest.mark.parametrize("name", xb.CATALOG)
    def test_bumps_of_two_directions(self, coarse, name):
        # the flux gap of two bumps sums their cross and mass products, as
        # the tensor reference does; the residual of bumps of two directions,
        # whose cross integrand is no a_D of a symmetric D, is refused
        mp = coarse[name]
        p, n = mp.problem, mp.domain.dimension
        rng = np.random.default_rng(7)
        v = perturb(mp, "v", 0.1, "interior_bump", 3)
        y = mp.exact_flux
        for e in np.eye(n)[:2]:
            y = y + 0.1 * _flux_bump(_random_interior_bump(mp, rng), e)
        assert len({t.direction for t in y.bumps}) == 2
        term = [_flux_term(p, v, y, part) for part in ("whole", "omega_i", "omega_e")]
        tensor = [tensor_flux_gap(p, v, y, part) for part in ("whole", "omega_i", "omega_e")]
        for a, b in zip(term, tensor):
            assert abs(a - b) <= 1e-13 * max(b, tensor[0])
        message = (rf"^the residual 'f\+div {re.escape(y.label)}' \(weight .*\) has bumps of "
                   "several directions")
        for bound in (lambda: xb.estimate_I(p, v, y), lambda: xb.estimate_II(p, v, y),
                      lambda: xb.estimate_III(p, v, y, y)):
            with pytest.raises(ValueError, match=message):
                bound()

    @pytest.mark.parametrize("name", FEW_DIRECTIONS)
    def test_few_directions_sum_the_exact_moments(self, name):
        # at angular order 2 the flux gaps and the residual norms of y and of
        # y_broken's exterior flux are angular order 12's
        for seed in (0, 3):
            values = []
            for mp in few_and_many(name):
                p = mp.problem
                v = perturb(mp, "v", 1e-3, "interior_bump", seed)
                values.append([flux_values(p, v, flux_of(mp, target, 0.1, seed))
                               for target in ("y", "y_broken")])
            assert values[0] == values[1], seed


class TestBundleTable:
    """The one term table a problem's bundle keeps
    (``problems.QuadratureBundle.table``): the norms of the problems on the
    bundle read it on ``whole`` and on the radial rows of ``omega_i`` and
    ``omega_e``, those of no other bundle do, and it goes with the bundle."""

    def test_freed_with_the_bundle(self):
        # a resolution no other test builds, so that this problem alone
        # holds its bundle
        mp = xb.builtin("N3_decay", radial_order=5, angular_order=9, shells=3)
        v = perturb(mp, "v", 0.1, "interior_bump", 3)
        xb.estimate_III(mp.problem, v, *perturb(mp, "y_broken", 0.1, "interface_jump", 5))
        table = weakref.ref(mp.problem.quads._table)
        assert table() is not None
        del mp, v
        gc.collect()
        assert table() is None

    def test_another_bundle_never_reads_the_slot(self, coarse):
        class Unreadable:
            @property
            def profiles(self):
                raise AssertionError("another bundle's table was read")

        n3, n2 = coarse["N3_harmonic"], coarse["N2_log"]
        assert n3.problem.quads is not n2.problem.quads
        held = n3.problem.quads._table
        object.__setattr__(n3.problem.quads, "_table", Unreadable())
        try:
            v = perturb(n2, "v", 0.1, "interior_bump", 3)
            y = perturb(n2, "y", 0.1, "interior_bump", 4)
            broken = perturb(n2, "y_broken", 0.1, "interface_jump", 5)
            for report in (xb.estimate_I(n2.problem, v, y), xb.estimate_II(n2.problem, v, y),
                           xb.estimate_III(n2.problem, v, *broken)):
                assert math.isfinite(report.total)
            assert xb.true_error(n2, v) > 0.0
            profiles = {(t.p, t.dp, t.support) for f in (v.terms, y.bumps, broken[1].gradients,
                                                         n2.exact_u.terms) for t in f}
            assert set(n2.problem.quads._table.profiles[0]) <= profiles
        finally:
            object.__setattr__(n3.problem.quads, "_table", held)

    @pytest.mark.parametrize("name", xb.CATALOG)
    def test_estimate_III_and_true_error_build_one_table(self, coarse, monkeypatch, name):
        # the exterior flux gap builds it on whole, over the profiles of u,
        # v and the harmonics; the interior gap, the scale and the true
        # error read it
        mp = coarse[name]
        p = mp.problem
        v = perturb(mp, "v", 0.1, "interior_bump", 3)
        y_i, y_e = perturb(mp, "y_broken", 0.1, "interface_jump", 5)
        builds = counted_builds(monkeypatch, lambda rule, sets, *args: (rule, list(sets)))
        xb.estimate_III(p, v, y_i, y_e)
        xb.true_error(mp, v)
        assert builds == [(p.quads.whole, [y_e.potential, v.terms, y_e.gradients, ()])]

    @pytest.mark.parametrize("name", xb.CATALOG)
    def test_flux_parts_bit_equal_to_the_reference_on_their_rules(self, coarse, name):
        # each flux gap on omega_i and omega_e, summed on its radial rows of
        # the table on whole, has the bits of the gap summed from the
        # reference's table on a rule over that part alone
        mp = coarse[name]
        p = mp.problem
        v = perturb(mp, "v", 0.1, "interior_bump", 3)
        y = perturb(mp, "y", 0.1, "interior_bump", 4)
        y_i, y_e = perturb(mp, "y_broken", 0.1, "interface_jump", 5)
        for part, flux in (("omega_i", y_i), ("omega_e", y_e), ("omega_i", y), ("omega_e", y)):
            own = getattr(p.quads, part)
            rule = build_quadrature(p.domain, own.radial_order, own.angular_order,
                                    own.shell_count, part)
            assert rule.rows is None and own.rows is not None

            def table(sets, rule=rule):
                return reference_term_products(rule, sets, [""] * len(sets), "")

            want = fields_module.term_norm(p.A, table, rule, (flux.potential, v.terms), None,
                                           flux.gradients, flux.bumps)
            assert _flux_term(p, v, flux, part).hex() == want.hex(), (part, flux.label)


def counted_builds(monkeypatch, record):
    """The list that gets ``record(*arguments)`` of each ``term_products``
    call, wherever the package calls it, while ``monkeypatch`` holds."""
    builds, build = [], fields_module.term_products

    def counted(*args, **kwargs):
        builds.append(record(*args, **kwargs))
        return build(*args, **kwargs)

    for module in (fields_module, problems_module, minorant_module):
        monkeypatch.setattr(module, "term_products", counted)
    return builds


def flux_of(mp, target, eps, seed):
    """The flux of ``target`` at ``eps``: y_broken's exterior one."""
    flux = perturb(mp, target, eps, "interior_bump" if target == "y" else "interface_jump", seed)
    return flux if target == "y" else flux[1]


def flux_values(p, v, y):
    """The flux gap of ``y`` on whole, omega_i and omega_e, and its residual
    norms: interior with rho (r ln r in 2D) and without it, and the two
    tail norms."""
    quads, res = p.quads, _residual(p, y)
    return ([_flux_term(p, v, y, part) for part in ("whole", "omega_i", "omega_e")]
            + [_weighted_residual(p, res, quads.omega_i, s) for s in (1.0, 0.0)]
            + [_weighted_residual(p, res, rule) for rule in (quads.omega_e,
                                                             quads.omega_e_refined)])


def tensor_flux_values(p, v, y):
    """``flux_values`` from the tensor reference."""
    quads = p.quads
    return ([tensor_flux_gap(p, v, y, part) for part in ("whole", "omega_i", "omega_e")]
            + [tensor_residual(p, y, quads.omega_i, s) for s in (1.0, 0.0)]
            + [tensor_residual(p, y, rule) for rule in (quads.omega_e, quads.omega_e_refined)])


def reference_system(p, terms, error, digits=50):
    """(G, rhs, a(u - v, u - v)) of the basis of one-term fields with
    ``terms`` and of u - v with the one term ``error``, on omega_i's radial
    rule in ``digits`` digits: bumps and mollifiers placed by ``profile``,
    whose centre and width are read from the closures, and the closed-form
    moments."""
    with mpmath.workdps(digits):
        dom = p.domain
        rule = p.quads.omega_i
        n, order, shells = dom.dimension, rule.radial_order, rule.shell_count
        nodes, weights = gauss_legendre(order)
        a, R = mpmath.mpf(dom.a), mpmath.mpf(dom.R)
        edges = [a + (R - a) * k / shells for k in range(shells + 1)]
        radii, radial = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = (lo + hi) / 2, (hi - lo) / 2
            radii += [mid + half * x for x in nodes]
            radial += [half * w * (mid + half * x) ** (n - 1) for x, w in zip(nodes, weights)]
        d = [mpmath.mpf(x) for x in p.A.diagonal]
        area, tr, k2 = 4 * mpmath.pi if n == 3 else 2 * mpmath.pi, sum(d), n * (n + 2)
        m1 = [area * tr / n] + [area * (tr + 2 * di) / k2 for di in d]
        m2 = [0] + [area * (n * di - tr) / k2 for di in d]
        m4 = [0] + [area * ((n * n - 2) * di + tr) / k2 for di in d]

        def profile(t):
            """(p, p') at the radii."""
            placed = inspect.getclosurevars(t.p).nonlocals
            centre, width = mpmath.mpf(placed["centre"]), mpmath.mpf(placed["width"])
            out = []
            for r in radii:
                s = (r - centre) / width
                if abs(s) >= 1:
                    out.append((0, 0))
                elif placed["shape"] is mollifier:
                    e = mpmath.exp(-1 / (1 - s * s))
                    out.append((e, e * (-2 * s / (1 - s * s) ** 2) / width))
                else:
                    assert placed["shape"] is cubic_bump
                    out.append(((1 - s * s) ** 3, -6 * s * (1 - s * s) ** 2 / width))
            return out

        profiles = {id(t): profile(t) for t in terms + [error]}

        def energy(s, t):
            ps, pt = profiles[id(s)], profiles[id(t)]
            total = 0
            for i, (ca, cb) in enumerate(zip(s.angular, t.angular)):
                part = 0
                for r, w, (p_s, d_s), (p_t, d_t) in zip(radii, radial, ps, pt):
                    part += w * (m1[i] * d_s * d_t + m2[i] * (d_s * p_t + p_s * d_t) / r
                                 + m4[i] * p_s * p_t / (r * r))
                total += mpmath.mpf(ca) * mpmath.mpf(cb) * part
            return total

        gram = np.zeros((len(terms), len(terms)))
        for j, s in enumerate(terms):
            for k, t in enumerate(terms[j:], j):
                gram[j, k] = gram[k, j] = float(energy(s, t))
        rhs = np.array([float(energy(error, t)) for t in terms])
        return gram, rhs, float(energy(error, error))


def gauss_legendre(order):
    """Nodes and weights of the Gauss-Legendre rule of ``order`` points at
    the working precision, by Newton's method from numpy's nodes."""
    def slope(x):  # P_n'(x) = n (x P_n(x) - P_{n-1}(x)) / (x^2 - 1)
        return order * (x * mpmath.legendre(order, x) - mpmath.legendre(order - 1, x)) / (x * x - 1)

    nodes, weights = [], []
    for x0 in np.polynomial.legendre.leggauss(order)[0]:
        x = mpmath.mpf(x0)
        for _ in range(6):
            x -= mpmath.legendre(order, x) / slope(x)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * slope(x) ** 2))
    return nodes, weights
