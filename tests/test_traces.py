import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import extbounds as xb
from extbounds.fields import Profile, ScalarField, VectorField, separable_field
from extbounds.geometry import (
    ExteriorDomain,
    QuadratureRule,
    build_quadrature,
    node_radii,
)
from extbounds.problems import _flux_bump, perturb, solenoidal_harmonic_gradient
from extbounds.traces import (
    SphereTrace,
    TraceError,
    analyze,
    coefficient_count,
    difference,
    normal_trace,
    sobolev_norm,
)

import oracles
from conftest import termless
from oracles import (
    ClosureProfile,
    basis_matrix,
    duality_pairing,
    project,
    reconstruct,
    sampled_normal_trace,
    sampled_trace,
    surface_l2_norm,
)

DOM3 = ExteriorDomain(3, 1.0, 2.0)
DOM2 = ExteriorDomain(2, 1.0, 2.0)
GAMMA3 = build_quadrature(DOM3, 6, 12, 3, "sphere_Gamma")
GAMMA2 = build_quadrature(DOM2, 6, 12, 3, "sphere_Gamma")
# a tensor rule over the spheres of radius 2 and 3
TWO_SPHERES = QuadratureRule(None, None, 6, 12, 3, radial=(np.array([2.0, 3.0]),
                                                           np.array([4.0, 9.0])),
                             angular=GAMMA3.angular)
# the constant 1 and the zero field, each with its terms
CONSTANT = ClosureProfile("1", np.ones_like, np.zeros_like)
ONE = separable_field(CONSTANT, label="1")
ZERO = ScalarField(value=lambda p: np.zeros(len(p)), label="0", terms=())


def coeffs(n=9):
    # keep magnitudes out of the subnormal range: squared coefficients
    # must not underflow for the norm identities to be testable
    elements = st.one_of(
        st.just(0.0), st.floats(1e-3, 5.0), st.floats(-5.0, -1e-3)
    )
    return arrays(np.float64, n, elements=elements)


def legendre_oracle(l, m, x):
    """P_l^m(x) with the Condon-Shortley phase, in mpmath: (-1)^m
    (1 - x^2)^(m/2) d^m/dx^m P_l(x) with the exact coefficients of
    P_l = 2^-l sum_k (-1)^k C(l, k) C(2l - 2k, l) x^(l - 2k)."""
    import mpmath

    total = mpmath.mpf(0)
    for k in range(l // 2 + 1):
        p = l - 2 * k
        if p >= m:
            c = (-1) ** k * math.comb(l, k) * math.comb(2 * l - 2 * k, l) * math.perm(p, m)
            total += mpmath.mpf(c) / 2**l * x ** (p - m)
    return (-1) ** m * mpmath.sqrt(1 - x * x) ** m * total


def oracle_basis(L, pts):
    """The N = 3 basis on the unit sphere at 40 digits, from the float
    polar cosine and azimuth that ``oracles.basis_matrix`` computes."""
    import mpmath

    mpmath.mp.dps = 40
    r = np.sqrt(np.sum(pts**2, axis=1))
    mu, phi = pts[:, 2] / r, np.arctan2(pts[:, 1], pts[:, 0])
    rows = np.empty(((L + 1) ** 2, len(pts)))
    for i in range(len(pts)):
        x, ph = mpmath.mpf(mu[i]), mpmath.mpf(phi[i])
        for l in range(L + 1):
            for m in range(l + 1):
                p = legendre_oracle(l, m, x) * mpmath.sqrt(
                    mpmath.mpf(2 * l + 1) / (4 * mpmath.pi)
                    * mpmath.factorial(l - m) / mpmath.factorial(l + m))
                if m == 0:
                    rows[l * l + l, i] = float(p)
                else:
                    rows[l * l + l + m, i] = float(mpmath.sqrt(2) * p * mpmath.cos(m * ph))
                    rows[l * l + l - m, i] = float(mpmath.sqrt(2) * p * mpmath.sin(m * ph))
    return rows


def lpmv_basis(L, pts):
    """The N = 3 basis on the unit sphere as it was built with
    ``scipy.special.lpmv`` and factorial normalizations."""
    from scipy.special import lpmv

    r = np.sqrt(np.sum(pts**2, axis=1))
    mu, phi = pts[:, 2] / r, np.arctan2(pts[:, 1], pts[:, 0])
    rows = np.empty(((L + 1) ** 2, len(pts)))
    for l in range(L + 1):
        for m in range(l + 1):
            p = lpmv(m, l, mu) * math.sqrt((2 * l + 1) / (4 * math.pi) * math.factorial(l - m)
                                           / math.factorial(l + m))
            if m == 0:
                rows[l * l + l] = p
            else:
                rows[l * l + l + m] = math.sqrt(2.0) * p * np.cos(m * phi)
                rows[l * l + l - m] = math.sqrt(2.0) * p * np.sin(m * phi)
    return rows


def ulps_from(values, oracle):
    big = np.abs(oracle) > 1e-8
    return np.abs(values - oracle)[big] / np.spacing(np.abs(oracle[big]))


class TestBasis:
    @pytest.mark.parametrize("dim,rule", [(3, GAMMA3), (2, GAMMA2)])
    def test_orthonormality(self, dim, rule):
        L = 8
        basis = basis_matrix(dim, L, 2.0, rule.nodes)
        gram = (basis * rule.weights) @ basis.T
        assert np.allclose(gram, np.eye(coefficient_count(dim, L)), atol=1e-12)

    @pytest.mark.parametrize("L", [8, 12])
    def test_recurrence_against_mpmath(self, L):
        # 40-digit oracle on the catalog gamma; the recurrence must be no
        # farther from it, in ulps of the entries above 1e-8, than lpmv
        # with the factorial normalization it replaced
        gamma = build_quadrature(ExteriorDomain(3, 1.0, 2.0), 12, 12, 8, "sphere_gamma")
        oracle = oracle_basis(L, gamma.nodes)
        new = ulps_from(basis_matrix(3, L, 1.0, gamma.nodes), oracle)
        old = ulps_from(lpmv_basis(L, gamma.nodes), oracle)
        assert new.mean() <= old.mean() and new.max() <= old.max()

    def test_oracle_is_mpmath_legenp(self):
        # the oracle's polynomial form, Condon-Shortley phase included
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for x in (mpmath.mpf(-0.83), mpmath.mpf(0.3)):
            for l, m in ((0, 0), (1, 1), (5, 2), (8, 3), (12, 0), (12, 7), (12, 12)):
                want = mpmath.legenp(l, m, x)
                assert abs(legendre_oracle(l, m, x) - want) <= 1e-30 * (1 + abs(want))

    def test_built_once_per_rule_and_degree(self, monkeypatch):
        # the reference projection keeps its basis on the rule
        calls = []
        real = oracles.basis_matrix
        monkeypatch.setattr(oracles, "basis_matrix", lambda *a: calls.append(a[:3]) or real(*a))
        rule = build_quadrature(DOM3, 6, 12, 3, "sphere_Gamma")
        ones = np.ones(len(rule))
        first = project(ones, 2.0, 8, rule)
        for _ in range(2):
            assert np.array_equal(project(ones, 2.0, 8, rule).coefficients, first.coefficients)
            project(ones, 2.0, 6, rule)
        assert calls == [(3, 8, 2.0), (3, 6, 2.0)]
        project(ones, 2.0, 8, build_quadrature(DOM3, 6, 12, 3, "sphere_Gamma"))
        assert len(calls) == 3  # a new rule builds its own

    def test_counts(self):
        assert coefficient_count(3, 8) == 81
        assert coefficient_count(2, 8) == 17
        with pytest.raises(TraceError):
            coefficient_count(1, 3)


class TestAnalyze:
    def test_constant_is_pure_constant_mode(self):
        t = analyze(ONE, 2.0, 8, GAMMA3)
        assert t.coefficients[0] == pytest.approx(4 * math.sqrt(math.pi), rel=1e-13)
        assert np.max(np.abs(t.coefficients[1:])) < 1e-13

    def test_zero(self):
        t = analyze(ZERO, 2.0, 6, GAMMA3)
        assert np.all(t.coefficients == 0.0)

    def test_single_degree_one_mode(self):
        rule = build_quadrature(ExteriorDomain(3, 0.5, 1.0), 6, 12, 3, "sphere_Gamma")
        f = separable_field(CONSTANT, (0.0, 0.0, 0.0, 1.0), label="x3/r")
        t = analyze(f, 1.0, 6, rule)
        ell = t.degrees()
        assert np.max(np.abs(t.coefficients[ell != 1])) < 1e-13
        # self-consistency against a doubled-order rule
        rule2 = build_quadrature(ExteriorDomain(3, 0.5, 1.0), 6, 24, 3, "sphere_Gamma")
        t2 = analyze(f, 1.0, 6, rule2)
        assert np.allclose(t.coefficients, t2.coefficients, atol=1e-13)

    def test_insufficient_angular_order(self):
        with pytest.raises(TraceError, match="angular order"):
            analyze(ONE, 2.0, 14, GAMMA3)

    @pytest.mark.parametrize("radius,rule", [
        (1e-9, build_quadrature(ExteriorDomain(3, 1e-9, 2e-9), 6, 12, 3, "sphere_Gamma")),
        (2.0 + 1e-9, GAMMA3),
        (2.0, TWO_SPHERES),
    ])
    def test_rule_off_the_sphere_rejected(self, radius, rule):
        # the first two spheres lie within numpy's default absolute tolerance
        # 1e-8; the third rule's first radial node is the requested radius
        with pytest.raises(TraceError, match="requested sphere"):
            analyze(ONE, radius, 4, rule)

    def test_parseval(self):
        # the closed-form coefficients against the quadrature of the square
        # of the function they expand
        f = separable_field(CONSTANT, (1.0, 1.0, 0.0, 0.3), label="mix")
        t = analyze(f, 2.0, 8, GAMMA3)
        from extbounds.geometry import integrate

        recon = reconstruct(t)
        surf = integrate(GAMMA3, lambda p: np.asarray(recon.value(p)) ** 2)
        assert surf == pytest.approx(float(np.sum(t.coefficients**2)), rel=1e-12)

    def test_idempotent(self):
        # the reference projection of a degree-2 function, projected again
        f = ScalarField(
            value=lambda p: p[:, 0] * p[:, 1] / node_radii(p) ** 2 + 2.0,
            label="mix",
        )
        t1 = sampled_trace(f, 2.0, 8, GAMMA3)
        t2 = sampled_trace(reconstruct(t1), 2.0, 8, GAMMA3)
        assert np.allclose(t1.coefficients, t2.coefficients, atol=1e-13)

    def test_energy_above_band(self):
        # (x3/r)^7 against a band of 6: the reference projection drops its
        # degree-7 part, whose energy the trace keeps; a band of 7 drops
        # nothing, and a closed form of degree at most 1 nothing either
        f = ScalarField(value=lambda p: (p[:, 2] / node_radii(p)) ** 7, label="hi")
        t6, t7 = sampled_trace(f, 2.0, 6, GAMMA3), sampled_trace(f, 2.0, 7, GAMMA3)
        total = float(np.sum(t7.coefficients**2))
        top = float(np.sum(t7.coefficients[t7.degrees() == 7] ** 2))
        assert top > 1e-3 * total
        assert t6.above_band == pytest.approx(top, rel=1e-10)
        assert t7.above_band <= 1e-14 * total
        assert analyze(ZERO, 2.0, 6, GAMMA3).above_band == 0.0


class TestNormalTrace:
    def test_radial_gradient(self):
        y = solenoidal_harmonic_gradient(3, 0)  # grad(1/r)
        t = normal_trace(y, 2.0, 6, GAMMA3)
        ell = t.degrees()
        assert np.max(np.abs(t.coefficients[ell != 0])) < 1e-14
        recon = reconstruct(t)
        val = np.asarray(recon.value(np.array([[0.0, 0.0, 2.0]])))[0]
        assert val == pytest.approx(-1.0 / 4.0, rel=1e-13)

    def test_tangential_field(self):
        # it has no terms, which the trace refuses; its sampled normal
        # component projects to zero
        y = VectorField(
            value=lambda p: np.stack([-p[:, 1], p[:, 0], np.zeros(len(p))], axis=1),
            label="tangential",
        )
        with pytest.raises(ValueError, match=r"^the flux \('tangential'\) has no terms"):
            normal_trace(y, 2.0, 6, GAMMA3)
        t = sampled_normal_trace(y, 2.0, 6, GAMMA3)
        assert np.max(np.abs(t.coefficients)) < 1e-13

    def test_two_sided_continuity(self, n3_anisotropic):
        # the jump of the exact flux across the interface is the zero field,
        # whose trace is 0; the flux alone has a potential, which is refused
        mp = n3_anisotropic
        rule = mp.problem.quads.Gamma
        jump = mp.exact_flux - mp.exact_flux
        assert jump.potential == jump.gradients == jump.bumps == ()
        t = normal_trace(jump, 2.0, 8, rule)
        assert np.all(t.coefficients == 0.0) and t.above_band == 0.0
        assert sobolev_norm(t, -0.5) == 0.0
        with pytest.raises(ValueError, match="has a potential"):
            normal_trace(mp.exact_flux, 2.0, 8, rule)


class TestTermPath:
    """A field with terms, and a jump of harmonic gradients and bumps off
    the sphere, take the closed-form trace, which the reference projection
    of their samples checks; what the terms cannot give is refused."""

    @pytest.mark.parametrize("name", xb.CATALOG)
    def test_agrees_with_the_projection(self, catalog, name):
        # within 1e-14 of the largest sampled coefficient: for the jump
        # y_e - y_i, whose samples are the difference of two fluxes, of the
        # larger of it and the exterior flux's
        mp = catalog[name]
        p = mp.problem
        a, R, L, gamma, Gamma = (p.domain.a, p.domain.R, p.trace_degree, p.quads.gamma,
                                 p.quads.Gamma)
        for seed in (0, 3, 4, 10):
            for eps in (1e-3, 0.1, 1.0):
                for mode in ("interior_bump", "boundary_mode"):
                    v = perturb(mp, "v", eps, mode, seed)
                    term, sampled = analyze(v, a, L, gamma), sampled_trace(v, a, L, gamma)
                    assert term.above_band == 0.0
                    scale = np.max(np.abs(sampled.coefficients))
                    assert np.max(np.abs(term.coefficients - sampled.coefficients)) <= (
                        1e-14 * scale), (mode, seed, eps)
                y_i, y_e = perturb(mp, "y_broken", eps, "interface_jump", seed)
                jump = y_e - y_i
                assert jump.gradients and not jump.potential and not jump.bumps
                term = normal_trace(jump, R, L, Gamma)
                sampled = sampled_normal_trace(jump, R, L, Gamma)
                assert term.above_band == 0.0
                scale = max(np.max(np.abs(sampled.coefficients)),
                            np.max(np.abs(sampled_normal_trace(y_e, R, L, Gamma).coefficients)))
                assert np.max(np.abs(term.coefficients - sampled.coefficients)) <= (
                    1e-14 * scale), ("jump", seed, eps)

    def test_builds_no_basis(self, n3_decay):
        # a closed-form trace reads its rule's factors, not its nodes
        p = n3_decay.problem
        v = perturb(n3_decay, "v", 0.1, "boundary_mode", 3)
        y_i, y_e = perturb(n3_decay, "y_broken", 0.1, "interface_jump", 3)
        rules = [build_quadrature(p.domain, 6, 12, 3, region)  # new rules
                 for region in ("sphere_gamma", "sphere_Gamma")]
        analyze(v, p.domain.a, 8, rules[0])
        normal_trace(y_e - y_i, p.domain.R, 8, rules[1])
        assert [rule._derived for rule in rules] == [{}, {}]

    def test_termless_copies_keep_the_projection(self, catalog):
        # the closed form refuses a field without terms and a flux with a
        # potential (whose normal trace has degree up to 3); the reference
        # projection of their samples still expands them, a termless copy bit
        # for bit as its field
        for mp in catalog.values():
            p = mp.problem
            a, R, L = p.domain.a, p.domain.R, p.trace_degree
            v = perturb(mp, "v", 0.1, "boundary_mode", 4)
            y_i, y_e = perturb(mp, "y_broken", 0.1, "interface_jump", 4)
            with pytest.raises(ValueError, match=r"^v \('.*'\) has no terms"):
                analyze(termless(v), a, L, p.quads.gamma, "v")
            with pytest.raises(ValueError, match=r"^the flux \('.*'\) has no terms"):
                normal_trace(termless(y_e - y_i), R, L, p.quads.Gamma)
            with pytest.raises(ValueError, match=r"^the flux \('.*'\) has a potential"):
                normal_trace(y_e, R, L, p.quads.Gamma)
            for got, want in (
                    (sampled_trace(termless(v), a, L, p.quads.gamma),
                     sampled_trace(v, a, L, p.quads.gamma)),
                    (sampled_normal_trace(termless(y_e - y_i), R, L, p.quads.Gamma),
                     sampled_normal_trace(y_e - y_i, R, L, p.quads.Gamma))):
                assert got.coefficients.tobytes() == want.coefficients.tobytes()
                assert got.above_band == want.above_band

    def test_bump_on_the_sphere_is_projected(self):
        # the closed form refuses a bump whose support holds the sphere; the
        # reference projection of its samples has energy above the band, as
        # its normal trace (e . omega)(c . phi) has degree 2
        bump = separable_field(ClosureProfile("cos(r - 2)", lambda r: np.cos(r - 2.0),
                                              lambda r: -np.sin(r - 2.0)),
                               (0.3, -0.2, 0.5, 0.1), label="on-sphere", support=(1.5, 2.5))
        y = _flux_bump(bump, np.array([0.0, 0.6, 0.8]))
        assert y.bumps
        with pytest.raises(ValueError, match="bump whose support holds the sphere of radius 2.0"):
            normal_trace(y, 2.0, 6, GAMMA3)
        assert sampled_normal_trace(y, 2.0, 6, GAMMA3).above_band > 0.0
        # off the sphere the bump adds nothing
        outside = build_quadrature(ExteriorDomain(3, 1.0, 3.0), 6, 12, 3, "sphere_Gamma")
        assert not normal_trace(y, 3.0, 6, outside).coefficients.any()

    @pytest.mark.parametrize("dim,rule", [(3, GAMMA3), (2, GAMMA2)])
    def test_degree_zero_keeps_the_degree_one_energy(self, dim, rule):
        coeffs = (0.5, -1.0, 2.0, 0.25)[:dim + 1]
        f = separable_field(Profile("r^-m", 1), coeffs)
        full, zero = analyze(f, 2.0, 1, rule), analyze(f, 2.0, 0, rule)
        assert zero.coefficients[0] == full.coefficients[0]
        ones = full.coefficients[1:]
        assert zero.above_band == pytest.approx(float(ones @ ones), rel=1e-15)
        assert zero.above_band == pytest.approx(sampled_trace(f, 2.0, 0, rule).above_band,
                                                rel=1e-12)

    def test_rule_refusals_stay(self):
        f = separable_field(Profile("r^-m", 1), (1.0, 0.0, 0.0, 1.0))
        with pytest.raises(TraceError, match="angular order"):
            analyze(f, 2.0, 14, GAMMA3)
        with pytest.raises(TraceError, match="requested sphere"):
            analyze(f, 2.0 + 1e-9, 4, GAMMA3)
        # a rule made from nodes and weights has no radial factor to check
        made = QuadratureRule(GAMMA3.nodes, GAMMA3.weights, 6, 12, 3)
        with pytest.raises(TraceError, match="has no radial factor"):
            analyze(f, 2.0, 4, made)

    def test_overflow_keeps_its_message(self, n3_harmonic):
        # a term sum past the float range raises the text that the projection
        # of its samples raises
        p = n3_harmonic.problem
        v = perturb(n3_harmonic, "v", 1e300, "boundary_mode", 0)
        messages = []
        for expand in (analyze, sampled_trace):
            with pytest.raises(OverflowError) as exc:
                expand(v, p.domain.a, p.trace_degree, p.quads.gamma)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] and "beyond the float range" in messages[0]


class TestSobolevNorm:
    def test_constant_trace_all_norms_equal(self):
        t = SphereTrace(2.0, 3, 4, np.eye(25)[0] * 3.3)
        l2 = surface_l2_norm(t)
        assert sobolev_norm(t, +0.5) == pytest.approx(l2, rel=1e-15)
        assert sobolev_norm(t, -0.5) == pytest.approx(l2, rel=1e-15)

    def test_pure_degree_one_on_unit_sphere(self):
        c = np.zeros(4)
        c[1] = 1.0
        t = SphereTrace(1.0, 3, 1, c)
        assert sobolev_norm(t, +0.5) == pytest.approx(3 ** 0.25, rel=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(c=coeffs())
    def test_norm_ordering(self, c):
        t = SphereTrace(2.0, 3, 2, c)
        lo = sobolev_norm(t, -0.5)
        mid = surface_l2_norm(t)
        hi = sobolev_norm(t, +0.5)
        assert lo <= mid * (1 + 1e-12) and mid <= hi * (1 + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(c=coeffs(), d=coeffs())
    def test_duality_bound(self, c, d):
        t1 = SphereTrace(2.0, 3, 2, c)
        t2 = SphereTrace(2.0, 3, 2, d)
        pair = abs(duality_pairing(t1, t2))
        assert pair <= sobolev_norm(t1, +0.5) * sobolev_norm(t2, -0.5) * (1 + 1e-12)

    def test_bad_exponent(self):
        t = SphereTrace(2.0, 3, 1, np.zeros(4))
        with pytest.raises(ValueError):
            sobolev_norm(t, 0.25)


class TestJump:
    def test_identical_traces(self):
        c = np.arange(9.0)
        t = SphereTrace(2.0, 3, 2, c)
        j = difference(t, t)
        assert np.all(j.coefficients == 0.0)

    def test_broken_pair_oracle(self):
        # y_i = 0 against y_e = grad(1/r): the jump is the pure constant
        # mode with value -1/R^2
        ge = solenoidal_harmonic_gradient(3, 0)
        zero = 0.0 * ge
        ti = normal_trace(zero, 2.0, 6, GAMMA3)
        te = normal_trace(ge, 2.0, 6, GAMMA3)
        j = difference(te, ti)
        assert sobolev_norm(j, -0.5) == pytest.approx(
            abs(te.coefficients[0]), rel=1e-13
        )

    @settings(max_examples=30, deadline=None)
    @given(c=coeffs(), d=coeffs(), s=st.floats(-3, 3, allow_nan=False))
    def test_linearity(self, c, d, s):
        t0 = SphereTrace(2.0, 3, 2, np.zeros(9))
        tc = SphereTrace(2.0, 3, 2, c)
        td = SphereTrace(2.0, 3, 2, d)
        tsum = SphereTrace(2.0, 3, 2, c + s * d)
        j = difference(tsum, tc)  # (c + s d) - c = s d
        assert np.allclose(j.coefficients, s * td.coefficients, atol=1e-12)
        assert np.array_equal(difference(tc, t0).coefficients, tc.coefficients)

    def test_metadata_mismatch(self):
        t1 = SphereTrace(2.0, 3, 2, np.zeros(9))
        t2 = SphereTrace(1.0, 3, 2, np.zeros(9))
        with pytest.raises(TraceError, match="mismatch"):
            difference(t2, t1)
        t3 = SphereTrace(2.0, 3, 3, np.zeros(16))
        with pytest.raises(TraceError, match="mismatch"):
            difference(t1, t3)

    def test_coefficient_count_validation(self):
        with pytest.raises(TraceError, match="coefficient count"):
            SphereTrace(2.0, 3, 2, np.zeros(5))
