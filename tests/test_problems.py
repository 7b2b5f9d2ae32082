import math

import numpy as np
import pytest

import extbounds as xb
from extbounds.fields import VectorField, log_weighted_norm, weighted_norm
from extbounds import problems
from extbounds.problems import CATALOG, _build_bundle, perturb, solenoidal_harmonic_gradient
from extbounds.traces import analyze, difference, normal_trace, sobolev_norm

from conftest import random_points_in_annulus
from oracles import check_divergence, check_gradient, load, over_rlnr_norm


class TestCatalog:
    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown problem"):
            xb.builtin("N5_exotic")

    @pytest.mark.parametrize("name", CATALOG)
    def test_closure_consistency(self, name, catalog):
        """-div(A grad u) = f holds pointwise: the flux closure's divergence
        against finite differences, and f + div(flux) identically zero."""
        mp = catalog[name]
        pts = random_points_in_annulus(mp.domain, 100, seed=11)
        assert check_gradient(mp.exact_u, pts, step=1e-6, rtol=1e-6) < 1e-6
        assert check_divergence(mp.exact_flux, pts, step=1e-6, rtol=1e-6) < 1e-6
        res = np.asarray(load(mp.problem).value(pts)) + np.asarray(
            mp.exact_flux.divergence(pts)
        )
        assert np.max(np.abs(res)) == 0.0

    @pytest.mark.parametrize("name", CATALOG)
    def test_flux_is_A_grad_u(self, name, catalog):
        mp = catalog[name]
        pts = random_points_in_annulus(mp.domain, 50, seed=12)
        flux = np.asarray(mp.exact_flux.value(pts))
        agu = np.einsum(
            "mij,mj->mi", np.asarray(mp.problem.A.matrix(pts)),
            np.asarray(mp.exact_u.gradient(pts)),
        )
        assert np.allclose(flux, agu, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("name", CATALOG)
    def test_solution_space_membership(self, name, catalog):
        """Decay membership: the rho^{-1}-weighted norm is finite for
        N = 3; in 2D the log-weighted decay norm is checked over the tail
        (the weight is not integrable against a nonzero boundary trace
        near the inner circle, so only decay at infinity is meaningful)."""
        mp = catalog[name]
        if mp.domain.dimension >= 3:
            val = weighted_norm(mp.exact_u, -1.0, mp.problem.quads.whole)
        else:
            val = over_rlnr_norm(mp.exact_u, mp.problem.quads.omega_e)
        assert math.isfinite(val) and val > 0.0

    @pytest.mark.parametrize("name", CATALOG)
    def test_load_membership(self, name, catalog):
        mp = catalog[name]
        if mp.domain.dimension >= 3:
            val = weighted_norm(load(mp.problem), 1.0, mp.problem.quads.whole)
        else:
            val = log_weighted_norm(load(mp.problem), mp.problem.quads.whole)
        assert math.isfinite(val)

    @pytest.mark.parametrize("name", CATALOG)
    def test_boundary_data_reproduced(self, name, catalog):
        mp = catalog[name]
        t = analyze(
            mp.exact_u, mp.domain.a, mp.problem.trace_degree, mp.problem.quads.gamma
        )
        assert np.allclose(t.coefficients, mp.problem.g.coefficients, atol=1e-12)

    def test_harmonic_energy_oracle(self, n3_harmonic):
        # closed form: integral over r > 1 of |grad(1/r)|^2 = 4 pi
        grad = VectorField(value=n3_harmonic.exact_u.gradient)
        nrm = weighted_norm(grad, 0.0, n3_harmonic.problem.quads.whole)
        assert nrm**2 == pytest.approx(4 * math.pi, rel=1e-12)

    def test_harmonic_has_zero_load(self, n3_harmonic):
        pts = random_points_in_annulus(n3_harmonic.domain, 50, seed=13)
        assert np.all(np.asarray(load(n3_harmonic.problem).value(pts)) == 0.0)
        assert np.all(np.asarray(n3_harmonic.exact_flux.divergence(pts)) == 0.0)


class TestQuadratureBundle:
    @pytest.mark.parametrize("shells", [8, 16])
    def test_rules_bit_equal_to_build_quadrature(self, shells):
        regions = {"omega_i": "omega_i", "omega_e": "omega_e",
                   "gamma": "sphere_gamma", "Gamma": "sphere_Gamma"}
        for name in CATALOG:
            domain = xb.builtin(name, shells=1).domain
            quads = xb.make_bundle(domain, shells=shells)
            for attr, region in regions.items():
                rule = getattr(quads, attr)
                want = xb.build_quadrature(domain, 12, 12, shells, region)
                assert rule.nodes.tobytes() == want.nodes.tobytes()
                assert rule.weights.tobytes() == want.weights.tobytes()
            # the whole rule lists the omega_i nodes, then the omega_e nodes
            parts = [xb.build_quadrature(domain, 12, 12, shells, region)
                     for region in ("omega_i", "omega_e")]
            assert quads.whole.nodes.tobytes() == np.vstack([q.nodes for q in parts]).tobytes()
            assert quads.whole.weights.tobytes() == np.concatenate(
                [q.weights for q in parts]).tobytes()
            # one copy of the nodes: both parts are row views of the whole rule
            for part in (quads.omega_i, quads.omega_e):
                assert np.shares_memory(part.nodes, quads.whole.nodes)
                assert np.shares_memory(part.weights, quads.whole.weights)
                assert not part.nodes.flags.writeable


class TestSharedRules:
    def test_one_bundle_per_domain_and_resolution(self):
        kw = dict(radial_order=5, angular_order=6, shells=3, trace_degree=4)
        mps = {name: xb.builtin(name, **kw) for name in CATALOG}
        n3 = {id(mps[name].problem.quads) for name in CATALOG if name.startswith("N3")}
        assert len(n3) == 1
        quads = mps["N3_harmonic"].problem.quads
        others = [mps["N2_log"].problem.quads,
                  xb.builtin("N3_harmonic", **{**kw, "shells": 4}).problem.quads,
                  xb.with_interface_radius(mps["N3_harmonic"], 1.5).problem.quads]
        assert all(q is not quads for q in others)
        assert len({id(q) for q in others}) == 3

    def test_store_holds_no_bundle_no_one_holds(self):
        import gc

        domain = xb.ExteriorDomain(3, 1.0, 2.0)
        key = (domain, 3, 4, 2)
        mp = xb.builtin("N3_decay", radial_order=3, angular_order=4, shells=2,
                        trace_degree=3)
        moved = xb.with_interface_radius(mp, 2.5)
        assert problems._BUNDLE_CACHE[key]() is mp.problem.quads
        del mp, moved
        gc.collect()
        assert key not in problems._BUNDLE_CACHE
        assert all(ref() is not None for ref in problems._BUNDLE_CACHE.values())

    def test_radius_sweep_holds_at_most_one_bundle(self):
        """Memory guard: a sweep that drops each moved problem ends holding
        at most one bundle's rules and kept values, not one per radius.
        The estimates read only the rules' factors, so ``run`` reads the
        3-D arrays too: each bundle then holds them while it lives."""
        import gc
        import tracemalloc

        mp = xb.builtin("N3_decay", radial_order=6, angular_order=6, shells=4,
                        trace_degree=4)
        v = perturb(mp, "v", 0.1, "interior_bump", seed=3)

        def run(radius):
            moved = xb.with_interface_radius(mp, radius)
            xb.estimate_I(moved.problem, v, mp.exact_flux)
            xb.true_error(moved, v)
            rule = moved.problem.quads.whole
            rule.nodes, rule.weights  # built on this first read, and kept
            return moved

        run(1.3)  # imports and the problem's own caches
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            held = run(1.4)
            gc.collect()
            one = tracemalloc.get_traced_memory()[0] - start
            del held
            for radius in np.linspace(1.5, 2.9, 8):
                run(float(radius))
            gc.collect()
            after = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        quads = mp.problem.quads
        rules = sum(getattr(quads, r).nodes.nbytes + getattr(quads, r).weights.nbytes
                    for r in ("whole", "gamma", "Gamma"))
        assert one > rules  # the held problem's rules and kept values
        assert after <= one + 0.1 * rules


class TestInterfaceRadius:
    def test_moves_interface_at_same_resolution(self):
        mp = xb.builtin("N3_decay", radial_order=6, angular_order=7, shells=3,
                        trace_degree=5)
        moved = xb.with_interface_radius(mp, 3.0)
        assert moved.domain == xb.ExteriorDomain(3, 1.0, 3.0)
        assert xb.make_bundle(moved.domain, 6, 7, 3) is moved.problem.quads
        ref = _build_bundle(moved.domain, 6, 7, 3)
        for region in ("omega_i", "omega_e", "whole", "gamma", "Gamma"):
            rule, want = getattr(moved.problem.quads, region), getattr(ref, region)
            np.testing.assert_array_equal(rule.nodes, want.nodes)
            np.testing.assert_array_equal(rule.weights, want.weights)
        # the Dirichlet trace lives on the inner sphere, which R does not move
        g = analyze(mp.exact_u, 1.0, 5, ref.gamma)
        np.testing.assert_array_equal(moved.problem.g.coefficients, g.coefficients)
        assert moved.problem.trace_degree == 5
        assert moved.problem.A is mp.problem.A and moved.exact_u is mp.exact_u

    def test_rejects_radius_inside_ball(self, n3_harmonic):
        with pytest.raises(ValueError, match="radii"):
            xb.with_interface_radius(n3_harmonic, 0.5)


class TestTrueError:
    def test_zero_for_exact(self, n3_harmonic):
        assert xb.true_error(n3_harmonic, n3_harmonic.exact_u) == 0.0

    def test_linearity(self, n3_harmonic):
        mp = n3_harmonic
        base_v = perturb(mp, "v", 1.0, "interior_bump", seed=21)
        base = xb.true_error(mp, base_v)
        for eps in (1e-1, 1e-2, 1e-3):
            v = perturb(mp, "v", eps, "interior_bump", seed=21)
            assert xb.true_error(mp, v) == pytest.approx(eps * base, rel=1e-12)

    def test_zero_approximation(self, n3_harmonic):
        # the zero field's terms are the empty sum
        zero = xb.ScalarField(
            value=lambda p: np.zeros(len(p)),
            gradient=lambda p: np.zeros_like(np.atleast_2d(p), dtype=float),
            label="0", terms=(),
        )
        assert xb.true_error(n3_harmonic, zero) == pytest.approx(
            math.sqrt(4 * math.pi), rel=1e-12
        )


class TestPerturb:
    def test_eps_zero_identity(self, n3_harmonic):
        mp = n3_harmonic
        assert perturb(mp, "v", 0.0, "interior_bump", seed=1) is mp.exact_u
        assert perturb(mp, "y", 0.0, "interior_bump", seed=1) is mp.exact_flux
        y_i, y_e = perturb(mp, "y_broken", 0.0, "interface_jump", seed=1)
        assert y_i is mp.exact_flux and y_e is mp.exact_flux

    def test_negative_eps_rejected(self, n3_harmonic):
        with pytest.raises(ValueError):
            perturb(n3_harmonic, "v", -0.1, "interior_bump", seed=1)

    def test_unknown_mode_and_target(self, n3_harmonic):
        with pytest.raises(ValueError, match="mode"):
            perturb(n3_harmonic, "v", 0.1, "nonsense", seed=1)
        with pytest.raises(ValueError):
            perturb(n3_harmonic, "q", 0.1, "interior_bump", seed=1)
        with pytest.raises(ValueError):
            perturb(n3_harmonic, "y", 0.1, "boundary_mode", seed=1)

    def test_eps_zero_draws_nothing(self, n3_harmonic, monkeypatch):
        # the exact data come back without a generator; an unknown target
        # or a mode its target does not support is refused at eps = 0 too
        def no_generator(seed):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(problems.np.random, "default_rng", no_generator)
        assert perturb(n3_harmonic, "v", 0.0, "boundary_mode", seed=1) is n3_harmonic.exact_u
        assert perturb(n3_harmonic, "y", 0.0, "interior_bump", seed=1) is n3_harmonic.exact_flux
        with pytest.raises(ValueError, match="unknown perturbation target 'q'"):
            perturb(n3_harmonic, "q", 0.0, "interior_bump", seed=1)
        with pytest.raises(ValueError, match="supports interface_jump only"):
            perturb(n3_harmonic, "y_broken", 0.0, "interior_bump", seed=1)

    def test_deterministic(self, n3_harmonic):
        mp = n3_harmonic
        pts = random_points_in_annulus(mp.domain, 30, seed=2)
        v1 = perturb(mp, "v", 0.1, "interior_bump", seed=9)
        v2 = perturb(mp, "v", 0.1, "interior_bump", seed=9)
        assert np.array_equal(np.asarray(v1.value(pts)), np.asarray(v2.value(pts)))

    def test_interior_bump_keeps_trace(self, n3_harmonic):
        mp = n3_harmonic
        p = mp.problem
        v = perturb(mp, "v", 0.3, "interior_bump", seed=3)
        tv = analyze(v, mp.domain.a, p.trace_degree, p.quads.gamma)
        assert np.allclose(tv.coefficients, p.g.coefficients, atol=1e-13)

    def test_boundary_mode_moves_trace(self, n3_harmonic):
        mp = n3_harmonic
        p = mp.problem
        v = perturb(mp, "v", 0.3, "boundary_mode", seed=3)
        tv = analyze(v, mp.domain.a, p.trace_degree, p.quads.gamma)
        assert not np.allclose(tv.coefficients, p.g.coefficients, atol=1e-6)

    @pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
    def test_jump_linear_in_eps(self, name, catalog):
        mp = catalog[name]
        p = mp.problem
        norms = []
        for eps in (0.1, 0.01, 0.001):
            y_i, y_e = perturb(mp, "y_broken", eps, "interface_jump", seed=5)
            # each flux alone has the potential of F: the trace is the jump's
            jump = normal_trace(y_e - y_i, mp.domain.R, p.trace_degree, p.quads.Gamma)
            norms.append(sobolev_norm(jump, -0.5))
        assert norms[0] == pytest.approx(10 * norms[1], rel=1e-10)
        assert norms[1] == pytest.approx(10 * norms[2], rel=1e-10)

    def test_jump_field_is_solenoidal(self, n3_harmonic):
        mp = n3_harmonic
        _, y_e = perturb(mp, "y_broken", 0.5, "interface_jump", seed=6)
        pts = random_points_in_annulus(mp.domain, 20, seed=7) * 1.7  # outside R
        res = np.asarray(load(mp.problem).value(pts)) + np.asarray(y_e.divergence(pts))
        assert np.max(np.abs(res)) == 0.0

    def test_harmonic_gradient_requires_valid_index(self):
        with pytest.raises(ValueError):
            solenoidal_harmonic_gradient(2, 0)
        with pytest.raises(ValueError):
            solenoidal_harmonic_gradient(3, 5)

    def test_harmonic_gradient_closures(self):
        dom = xb.ExteriorDomain(3, 1.0, 2.0)
        pts = random_points_in_annulus(dom, 20, seed=8)
        for idx in range(4):
            y = solenoidal_harmonic_gradient(3, idx)
            assert check_divergence(y, pts, step=1e-6, rtol=1e-6) < 1e-6
