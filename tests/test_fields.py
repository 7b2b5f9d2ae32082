import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extbounds.fields import (
    Coefficient,
    ScalarField,
    VectorField,
    energy_norm,
    log_weighted_norm,
    mollifier,
    mollifier_and_deriv,
    mollifier_deriv,
    profile,
    ratio_gradient,
    separable_field,
    weighted_norm,
)
from extbounds.geometry import (
    ExteriorDomain, build_quadrature, node_radii, whole_and_parts,
)
from extbounds.problems import CATALOG

from conftest import random_points_in_annulus
from oracles import check_divergence, check_gradient, load, over_rlnr_norm, residual_field

DOM3 = ExteriorDomain(3, 1.0, 2.0)
WHOLE3 = whole_and_parts(DOM3, 12, 8, 8)[0]
SMALL3 = build_quadrature(DOM3, 4, 4, 3, "omega_i")


def inv_r_field():
    return separable_field(lambda r: 1.0 / r, lambda r: -1.0 / r**2, label="1/r")


def shell_bump():
    """exp(-1/(1-t^2)) in t = (r - 1.5)/0.3, times x_3/r."""
    return separable_field(*profile(mollifier, mollifier_deriv, 1.5, 0.3), (0.0, 0.0, 0.0, 1.0))


def inv_r2_field():
    return separable_field(lambda r: r**-2.0, lambda r: -2.0 * r**-3.0, label="1/r^2")


class TestClosures:
    def test_gradient_validation(self):
        pts = random_points_in_annulus(DOM3, 20, seed=1)
        assert check_gradient(inv_r_field(), pts) < 1e-6
        assert check_gradient(shell_bump(), pts, step=1e-6) < 1e-6

    def test_divergence_validation(self):
        pts = random_points_in_annulus(DOM3, 20, seed=2)
        y = VectorField(
            value=lambda p: -p / node_radii(p)[:, None] ** 3,
            divergence=lambda p: np.zeros(len(p)),
            label="grad 1/r",
        )
        assert check_divergence(y, pts) < 1e-6

    def test_separable_field_gradient(self):
        p, dp = profile(mollifier, mollifier_deriv, 1.5, 0.3)
        for idx in range(4):
            f = separable_field(p, dp, np.eye(4)[idx])
            pts = random_points_in_annulus(DOM3, 20, seed=3 + idx)
            assert check_gradient(f, pts, step=1e-6) < 1e-6
        mixed = separable_field(p, dp, (0.5, -1.0, 0.0, 2.0))
        assert check_gradient(mixed, random_points_in_annulus(DOM3, 20, seed=7), step=1e-6) < 1e-6

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_ratio_gradient(self, m):
        pts = random_points_in_annulus(DOM3, 20, seed=8)
        for i in range(3):
            f = ScalarField(value=lambda p, i=i: p[:, i] / node_radii(p) ** m,
                            gradient=lambda p, i=i: ratio_gradient(p, i, m), label="x_i/r^m")
            assert check_gradient(f, pts) < 1e-6

    def test_bad_gradient_caught(self):
        f = ScalarField(
            value=lambda p: node_radii(p),
            gradient=lambda p: np.zeros_like(np.atleast_2d(p)),
            label="broken",
        )
        with pytest.raises(AssertionError, match="deviates"):
            check_gradient(f, random_points_in_annulus(DOM3, 5, seed=4))


def written_out_mollifier(t):
    """exp(-1/(1 - t^2)) and its derivative on |t| < 1 - 1e-14, 0.0 off it,
    each formula written out in full."""
    value, deriv = np.zeros_like(t), np.zeros_like(t)
    inside = np.abs(t) < 1.0 - 1e-14
    ti = t[inside]
    value[inside] = np.exp(-1.0 / (1.0 - ti**2))
    deriv[inside] = np.exp(-1.0 / (1.0 - ti**2)) * (-2.0 * ti / (1.0 - ti**2) ** 2)
    return value, deriv


class TestMollifier:
    EDGE = 1.0 - 1e-14

    @pytest.mark.parametrize("t", [
        np.array([0.0, 0.5, -0.5, EDGE, -EDGE, 1.0, -1.0, 2.0, -2.0, -0.0]),
        np.array([np.nextafter(EDGE, 0.0), -np.nextafter(EDGE, 0.0), np.nextafter(EDGE, 1.0)]),
        np.random.default_rng(3).uniform(-1.5, 1.5, 5000),
        np.random.default_rng(4).uniform(-1.0, 1.0, (576, 24)),
    ], ids=["points", "edge", "random", "grid"])
    def test_value_and_derivative_from_one_exp(self, t):
        # the Poincare samples take both from one exp, bit for bit the
        # profiles' mollifier and mollifier_deriv
        alone = mollifier(t), mollifier_deriv(t)
        for got, ref, one in zip(mollifier_and_deriv(t), written_out_mollifier(t), alone):
            assert got.shape == t.shape
            assert got.tobytes() == ref.tobytes() == one.tobytes()


class TestCoefficient:
    @pytest.mark.parametrize("diag", [[1.0, 0.0], [1.0, -2.0], [np.inf, 1.0],
                                      [1.0, np.nan], [], [[1.0, 2.0]]],
                             ids=["zero", "negative", "inf", "nan", "empty", "2-D"])
    def test_bounds_validation(self, diag):
        with pytest.raises(ValueError, match="1-D, finite and > 0"):
            Coefficient(np.array(diag))

    def test_constant_checks(self):
        A = Coefficient(np.array([2.0, 1.0, 4.0]))
        assert A.c_A == 1.0 and A.c_A_plus == 4.0
        B = Coefficient(np.full(2, 3.0))
        assert B.c_A == B.c_A_plus == 3.0

    def test_constant_leaves_callers_array_writeable(self):
        d = np.array([1.0, 2.0, 4.0])
        A = Coefficient(d)
        d[0] = 5.0
        assert not A.diagonal.flags.writeable
        pts = random_points_in_annulus(DOM3, 4, seed=7)
        assert np.all(A.matrix(pts)[:, 0, 0] == 1.0)
        assert A.c_A == 1.0 and A.diagonal[0] == 1.0

    @pytest.mark.parametrize("name", CATALOG)
    def test_bounds_are_the_eigenvalue_range(self, name, catalog):
        # the min and max of the diagonal are the ends of the spectrum,
        # as eigvalsh of the coefficient's matrix gives them, bit for bit
        p = catalog[name].problem
        eigs = np.linalg.eigvalsh(p.A.matrix(p.quads.whole.nodes)[0])
        assert (p.A.c_A, p.A.c_A_plus) == (float(eigs[0]), float(eigs[-1]))


class TestWeightedNorms:
    def test_zero_field(self):
        z = ScalarField(value=lambda p: np.zeros(len(p)), label="0")
        assert weighted_norm(z, -1.0, WHOLE3) == 0.0
        assert weighted_norm(z, 3.0, SMALL3) == 0.0

    def test_rho_weighted_oracle(self):
        # frozen: ||rho^{-1} r^{-2}||^2 over r > 1 equals 4 pi (1 - pi/4)
        f = inv_r2_field()
        expected = math.sqrt(4 * math.pi * (1 - math.pi / 4))
        assert weighted_norm(f, -1.0, WHOLE3) == pytest.approx(expected, rel=1e-12)

    def test_unweighted_oracle(self):
        f = inv_r2_field()
        assert weighted_norm(f, 0.0, WHOLE3) == pytest.approx(
            math.sqrt(4 * math.pi), rel=1e-12
        )

    def test_log_weighted_oracle(self):
        # frozen: 2 pi int_1^inf ln^2 r r^-3 dr = 2 pi / 4 (by parts twice;
        # the value 1/4 is cross-checked in test_geometry)
        dom2 = ExteriorDomain(2, 1.0, 2.0)
        rule = whole_and_parts(dom2, 16, 6, 16)[0]
        f = ScalarField(value=lambda p: node_radii(p) ** -3.0, label="r^-3")
        assert log_weighted_norm(f, rule) == pytest.approx(
            math.sqrt(math.pi / 2), rel=1e-9
        )

    def test_log_weighted_zero(self):
        dom2 = ExteriorDomain(2, 1.0, 2.0)
        rule = build_quadrature(dom2, 8, 6, 6, "omega_i")
        z = ScalarField(value=lambda p: np.zeros(len(p)), label="0")
        assert log_weighted_norm(z, rule) == 0.0
        assert over_rlnr_norm(z, rule) == 0.0

    def test_log_weighted_self_convergence(self):
        # constant over an annulus strictly away from r = 1: the inverse
        # log weight is integrable there and the rule must have converged.
        # (On an annulus touching r = 1 the integral diverges, which is why
        # the region is kept away from the unit circle.)
        dom = ExteriorDomain(2, 1.5, 1.5 + math.e)
        one = ScalarField(value=lambda p: np.ones(len(p)), label="1")
        v1 = over_rlnr_norm(one, build_quadrature(dom, 12, 6, 8, "omega_i"))
        v2 = over_rlnr_norm(one, build_quadrature(dom, 24, 12, 16, "omega_i"))
        assert v1 == pytest.approx(v2, rel=1e-10)

    def test_log_weight_requires_2d(self):
        f = inv_r2_field()
        with pytest.raises(ValueError, match="dimension 2"):
            log_weighted_norm(f, WHOLE3)


class TestEnergyNorm:
    def test_identity_matches_unweighted(self):
        A = Coefficient.identity(3)
        q = VectorField(value=inv_r_field().gradient)
        assert energy_norm(A, q.value(WHOLE3.nodes), "A", WHOLE3) == pytest.approx(
            weighted_norm(q, 0.0, WHOLE3), rel=1e-14
        )

    def test_scaled_identity_oracle(self):
        # ||grad(1/r)||^2 = 4 pi, so A = 4I gives 4 sqrt(pi) and the dual
        # norm sqrt(pi)
        A = Coefficient(np.full(3, 4.0))
        q = VectorField(value=inv_r_field().gradient)
        assert energy_norm(A, q.value(WHOLE3.nodes), "A", WHOLE3) == pytest.approx(
            4 * math.sqrt(math.pi), rel=1e-12
        )
        dual = energy_norm(A, q.value(WHOLE3.nodes), "A_inverse", WHOLE3)
        assert dual == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_zero(self):
        A = Coefficient.identity(3)
        z = VectorField(value=lambda p: np.zeros_like(np.atleast_2d(p)), label="0")
        assert energy_norm(A, z.value(WHOLE3.nodes), "A", WHOLE3) == 0.0

    def test_two_sided_ellipticity(self):
        A = Coefficient(np.array([1.0, 2.0, 4.0]))
        rng = np.random.default_rng(6)
        for _ in range(5):
            c = rng.normal(size=3)
            q = VectorField(
                value=lambda p, c=c: np.broadcast_to(c, (len(p), 3))
                * node_radii(p)[:, None] ** -2,
                label="q",
            )
            nq = weighted_norm(q, 0.0, WHOLE3)
            na = energy_norm(A, q.value(WHOLE3.nodes), "A", WHOLE3)
            assert A.c_A * nq**2 <= na**2 * (1 + 1e-12)
            assert na**2 <= A.c_A_plus * nq**2 * (1 + 1e-12)

    def test_dual_pairing_bound(self):
        # |int q . p| <= ||q||_{A^{-1}} ||p||_A
        from extbounds.geometry import integrate

        A = Coefficient(np.array([1.0, 2.0, 4.0]))
        rng = np.random.default_rng(7)
        for _ in range(5):
            cq, cp = rng.normal(size=3), rng.normal(size=3)
            q = VectorField(value=lambda p, c=cq: np.broadcast_to(c, (len(p), 3))
                            * node_radii(p)[:, None] ** -2, label="q")
            pf = VectorField(value=lambda p, c=cp: np.broadcast_to(c, (len(p), 3))
                             * node_radii(p)[:, None] ** -2, label="p")
            pairing = integrate(
                WHOLE3,
                lambda x: np.sum(np.asarray(q.value(x)) * np.asarray(pf.value(x)),
                                 axis=1),
            )
            bound = (energy_norm(A, q.value(WHOLE3.nodes), "A_inverse", WHOLE3)
                     * energy_norm(A, pf.value(WHOLE3.nodes), "A", WHOLE3))
            assert abs(pairing) <= bound * (1 + 1e-12)


class TestCombine:
    def test_flux_gap_exact_zero(self, n3_anisotropic):
        mp = n3_anisotropic
        A, grad = mp.problem.A, mp.exact_u.gradient
        gap = mp.exact_flux - VectorField(value=lambda pts: grad(pts) * A.diagonal)
        assert weighted_norm(gap, 0.0, mp.problem.quads.whole) <= 1e-14

    def test_residual_exact_zero(self, n3_decay):
        mp = n3_decay
        res = residual_field(load(mp.problem), mp.exact_flux)
        assert weighted_norm(res, 1.0, mp.problem.quads.whole) == 0.0

    def test_linearity_in_epsilon(self):
        u = inv_r_field()
        bump = shell_bump()
        base = weighted_norm(VectorField(value=bump.gradient), 0.0, WHOLE3)
        for eps in (1e-1, 1e-2, 1e-3):
            v = u + eps * bump
            diff = v - u
            norm = weighted_norm(VectorField(value=diff.gradient), 0.0, WHOLE3)
            assert norm == pytest.approx(eps * base, rel=1e-12)


scalar_or_zero = st.one_of(
    st.just(0.0), st.floats(0.1, 2.0), st.floats(-2.0, -0.1)
)


@settings(max_examples=25, deadline=None)
@given(
    c1=scalar_or_zero,
    c2=scalar_or_zero,
    p1=st.integers(-3, 0),
    p2=st.integers(-3, 0),
    s=st.sampled_from([-1.0, 0.0, 1.0]),
)
def test_norm_triangle_and_homogeneity(c1, c2, p1, p2, s):
    f = separable_field(lambda r, c=c1, p=p1: c * r**p,
                        lambda r, c=c1, p=p1: c * p * r ** (p - 1), label="f")
    g = separable_field(lambda r, c=c2, p=p2: c * r**p,
                        lambda r, c=c2, p=p2: c * p * r ** (p - 1), label="g")
    nf, ng = weighted_norm(f, s, SMALL3), weighted_norm(g, s, SMALL3)
    nsum = weighted_norm(f + g, s, SMALL3)
    assert nsum <= nf + ng + 1e-12 * max(nf + ng, 1.0)
    scaled = weighted_norm(-2.5 * f, s, SMALL3)
    assert scaled == pytest.approx(2.5 * nf, rel=1e-12, abs=1e-300)


@settings(max_examples=15, deadline=None)
@given(c1=scalar_or_zero, c2=scalar_or_zero)
def test_energy_norm_triangle_and_homogeneity(c1, c2):
    A = Coefficient(np.array([1.0, 2.0, 4.0]))

    def make(c):
        return VectorField(
            value=lambda p, c=c: c * np.atleast_2d(p) / node_radii(p)[:, None] ** 3,
            label="q",
        )

    q1, q2 = make(c1), make(c2)
    n1 = energy_norm(A, q1.value(SMALL3.nodes), "A", SMALL3)
    n2 = energy_norm(A, q2.value(SMALL3.nodes), "A", SMALL3)
    nsum = energy_norm(A, (q1 + q2).value(SMALL3.nodes), "A", SMALL3)
    assert nsum <= n1 + n2 + 1e-12 * max(n1 + n2, 1.0)
    scaled = energy_norm(A, (-3.0 * q1).value(SMALL3.nodes), "A_inverse", SMALL3)
    assert scaled == pytest.approx(
        3.0 * energy_norm(A, q1.value(SMALL3.nodes), "A_inverse", SMALL3),
        rel=1e-12, abs=1e-300,
    )
