import dataclasses
import math

import numpy as np
import pytest

import extbounds as xb
from extbounds import traces
from extbounds.fields import Coefficient, VectorField, energy_norm
from extbounds.geometry import node_radii
from extbounds.majorant import (
    DivergentNormError,
    EquilibrationError,
    boundary_term,
    estimate_I,
    estimate_II,
    estimate_III,
)
from extbounds.problems import perturb
from extbounds.traces import BandLimitError


def exact_inputs(mp):
    return mp.problem, mp.exact_u, mp.exact_flux


class TestSharpness:
    @pytest.mark.parametrize("name", ["N3_harmonic", "N3_anisotropic", "N2_log"])
    def test_all_estimates_vanish_on_exact_data(self, name, catalog):
        mp = catalog[name]
        p, u, flux = exact_inputs(mp)
        scale = energy_norm(p.A, u.gradient(p.quads.whole.nodes), "A", p.quads.whole)
        for rep in (
            estimate_I(p, u, flux),
            estimate_II(p, u, flux),
            estimate_III(p, u, flux, flux),
        ):
            assert rep.total <= 1e-8 * scale
            assert rep.residual == 0.0 and rep.interface == 0.0

    def test_estimate_ids(self, catalog):
        rep3 = estimate_I(*exact_inputs(catalog["N3_harmonic"]))
        rep2 = estimate_I(*exact_inputs(catalog["N2_log"]))
        assert rep3.estimate_id == "I"
        assert rep2.estimate_id == "I-2D"


class TestReports:
    @pytest.mark.parametrize("name", ["N3_decay", "N2_log"])
    @pytest.mark.parametrize("roman", ["I", "II", "III"])
    def test_total_is_sum_and_terms_nonnegative(self, roman, name, catalog):
        # every estimate ends in the same report tail: the boundary term,
        # the extension constant, the id and the total
        mp = catalog[name]
        p, y = mp.problem, mp.exact_flux
        v = perturb(mp, "v", 0.05, "boundary_mode", seed=3)
        estimate = {"I": estimate_I, "II": estimate_II,
                    "III": lambda p, v, y: estimate_III(p, v, y, y)}[roman]
        rep = estimate(p, v, y)
        assert rep.total == rep.residual + rep.flux + rep.interface + rep.boundary
        for term in (rep.residual, rep.flux, rep.interface, rep.boundary):
            assert term >= 0.0
        assert rep.boundary > 0.0
        assert rep.constants["boundary_extension"] == p.constants.extension.value
        assert rep.estimate_id == roman + ("-2D" if name == "N2_log" else "")

    def test_as_dict_shape(self, catalog):
        mp = catalog["N3_harmonic"]
        rep = estimate_I(mp.problem, mp.exact_u, mp.exact_flux)
        d = rep.as_dict()
        assert set(d["terms"]) == {"residual", "flux", "interface", "boundary"}
        assert d["total"] == rep.total


class TestBoundaryTerm:
    def test_exact_trace_gives_zero(self, catalog):
        mp = catalog["N3_harmonic"]
        assert boundary_term(mp.problem, mp.exact_u) == 0.0

    def test_extension_below_constant_form(self):
        # the constant form 2 c_gamma ||g - tr v||_{H^{1/2}}, computed here,
        # bounds the extension energy: sum c_l^2 E_l <= max(E_l/w_l) sum w_l c_l^2
        for name in xb.CATALOG:
            mp = xb.builtin(name, shells=3)
            p = mp.problem
            bundle = xb.constants_bundle(p)
            for eps in (0.1, 1.0):
                for seed in range(6):
                    v = perturb(mp, "v", eps, "boundary_mode", seed=seed)
                    tv = traces.analyze(v, p.domain.a, p.trace_degree, p.quads.gamma)
                    h_half = traces.sobolev_norm(traces.difference(p.g, tv), +0.5)
                    ext = boundary_term(p, v)
                    assert 0.0 < ext <= 2.0 * bundle.extension.value * h_half * (1 + 1e-12)

    def test_linear_in_mismatch(self, catalog):
        mp = catalog["N3_harmonic"]
        vals = []
        for eps in (1e-1, 1e-2, 1e-3):
            v = perturb(mp, "v", eps, "boundary_mode", seed=11)
            vals.append(boundary_term(mp.problem, v))
        assert vals[0] == pytest.approx(10 * vals[1], rel=1e-9)
        assert vals[1] == pytest.approx(10 * vals[2], rel=1e-9)

    def test_extension_energy_weighted_by_upper_bound(self):
        # diag(1, 1.000001, 1) is within allclose of the identity, but not a
        # multiple of it: its energies take c_A_plus, never 1
        mp = xb.builtin("N3_harmonic", shells=3)
        A = Coefficient(np.array([1.0, 1.000001, 1.0]))
        p = dataclasses.replace(mp.problem, A=A)
        v = perturb(mp, "v", 0.1, "boundary_mode", seed=2)
        bundle = xb.constants_bundle(p)
        mismatch = traces.difference(
            p.g, traces.analyze(v, p.domain.a, p.trace_degree, p.quads.gamma))
        energies = np.asarray(bundle.extension.params["mode_energies"])
        dirichlet = float(np.sum(mismatch.coefficients**2 * energies[mismatch.degrees()]))
        assert A.c_A_plus > 1.0
        assert boundary_term(p, v) == (
            2.0 * math.sqrt(A.c_A_plus * dirichlet))

    def test_bundle_modes_cover_trace_degree(self, catalog):
        # the constants cover exactly the band every trace is projected onto
        mp = catalog["N3_harmonic"]
        p = mp.problem
        for L in (1, 6, 8, 12):
            bundle = xb.constants_bundle(dataclasses.replace(p, trace_degree=L))
            assert bundle.modes == L
            assert len(bundle.extension.params["mode_energies"]) == L + 1
            assert len(bundle.trace.mode_values) == L + 1
        with pytest.raises(TypeError):
            xb.constants_bundle(p, modes=p.trace_degree)
        # a moved interface is a new problem, with constants of its own
        moved = xb.with_interface_radius(mp, 3.0).problem.constants
        assert moved.friedrichs.params["domain"] == [3, 1.0, 3.0]
        assert moved.cutoff == 3.0

    def test_stale_mode_argument_rejected(self, catalog, bundles):
        # the retired mode and c_o variant arguments cannot bind to the
        # bundle, and no bound takes a bundle: the problem carries its own
        mp, bundle = catalog["N3_harmonic"], bundles["N3_harmonic"]
        p, u, y = exact_inputs(mp)
        with pytest.raises(TypeError):
            boundary_term(p, u, "extension_based")
        with pytest.raises(TypeError):
            boundary_term(p, u, "constant_based", bundle)
        with pytest.raises(TypeError):
            estimate_I(p, u, y, "extension_based")
        with pytest.raises(TypeError):
            estimate_II(p, u, y, "eigen")
        with pytest.raises(TypeError):
            estimate_III(p, u, y, y, "formula")
        basis = xb.default_basis(mp.domain)
        for call in (lambda: boundary_term(p, u, bundle=bundle),
                     lambda: estimate_I(p, u, y, bundle=bundle),
                     lambda: estimate_II(p, u, y, bundle=bundle),
                     lambda: estimate_III(p, u, y, y, bundle=bundle),
                     lambda: xb.minorant_report(p, u, basis, bundle=bundle)):
            with pytest.raises(TypeError):
                call()

    def test_one_friedrichs_solve_per_problem(self, monkeypatch):
        # every bound on one problem reads the constants it computed once
        calls = []
        solve = xb.constants.interior_friedrichs_constant
        monkeypatch.setattr(xb.constants, "interior_friedrichs_constant",
                            lambda domain: calls.append(domain) or solve(domain))
        mp = xb.builtin("N3_harmonic", shells=2)
        p, u, y = exact_inputs(mp)
        v = perturb(mp, "v", 0.1, "boundary_mode", seed=1)
        estimate_I(p, v, y)
        estimate_II(p, v, y)
        estimate_III(p, v, y, y)
        boundary_term(p, v)
        xb.minorant_report(p, v, xb.default_basis(mp.domain))
        assert calls == [p.domain]

    def test_band_limit_gate(self, n3_harmonic):
        # (x3/r)^k has degree k: at the band L = 8 a mismatch of degree 7 is
        # measured, one of degree 9 is not and raises, naming the band
        def v(k):
            return n3_harmonic.exact_u + 1.0 * xb.ScalarField(
                value=lambda p: (p[:, 2] / node_radii(p)) ** k,
                gradient=lambda p: np.zeros_like(np.atleast_2d(p), dtype=float),
                label=f"degree {k}",
            )

        assert boundary_term(n3_harmonic.problem, v(7)) > 0.0
        with pytest.raises(BandLimitError, match="above trace.L = 8"):
            boundary_term(n3_harmonic.problem, v(9))


class TestFluxTermPaths:
    def test_flux_term_zero_for_matching_flux(self, catalog):
        # y := A grad v for a perturbed v (with the matching analytic
        # divergence) makes the flux term vanish and leaves residual+boundary
        mp = catalog["N3_harmonic"]
        p = mp.problem
        eps = 0.05
        from extbounds.fields import mollifier, mollifier_deriv, profile, separable_field

        prof, dprof = profile(mollifier, mollifier_deriv, 1.5, 0.25)
        s = separable_field(prof, dprof, (0.0, 0.0, 0.0, 1.0))  # x3/r is a degree-1 harmonic
        v = mp.exact_u + eps * s

        def lap_s(pts):
            r = node_radii(pts)
            t = (r - 1.5) / 0.25
            inside = np.abs(t) < 1.0 - 1e-14
            val = np.zeros(len(r))
            ti = t[inside]
            e = np.exp(-1.0 / (1.0 - ti**2))
            d1 = e * (-2.0 * ti / (1.0 - ti**2) ** 2) / 0.25
            d2 = e * (
                (4.0 * ti**2 / (1.0 - ti**2) ** 4)
                - (2.0 + 6.0 * ti**2) / (1.0 - ti**2) ** 3
            ) / 0.25**2
            # radial part of the Laplacian acting on prof(r) Y_1:
            # prof'' + 2 prof'/r - 2 prof/r^2
            val[inside] = d2 + 2.0 * d1 / r[inside] - 2.0 * e / r[inside] ** 2
            return val * (pts[:, 2] / r)

        grad_s = s.gradient
        y = mp.exact_flux + eps * VectorField(
            value=lambda pts: np.asarray(grad_s(pts)), divergence=lap_s, label="grad s"
        )
        rep = estimate_I(p, v, y)
        assert rep.flux <= 1e-13 * rep.scale
        assert rep.total == pytest.approx(rep.residual + rep.boundary, abs=1e-13)
        assert rep.residual > 0.0

    def test_divergent_tail_residual_detected(self, catalog):
        mp = catalog["N3_harmonic"]
        bad = VectorField(
            value=lambda p: np.zeros_like(np.atleast_2d(p), dtype=float),
            divergence=lambda p: node_radii(p) ** -2.0,
            label="slow-decay",
        )
        with pytest.raises(DivergentNormError, match="tail"):
            estimate_I(mp.problem, mp.exact_u, mp.exact_flux + bad)


class TestEquilibrationGate:
    def test_accepts_catalog_flux(self, catalog):
        for name in ("N3_harmonic", "N3_decay", "N3_anisotropic", "N2_log"):
            mp = catalog[name]
            rep = estimate_II(mp.problem, mp.exact_u, mp.exact_flux)
            assert rep.total <= 1e-10 * max(rep.scale, 1.0)

    def test_rejects_unbalanced_tail(self, catalog):
        mp = catalog["N3_harmonic"]
        bad = VectorField(
            value=lambda p: np.zeros_like(np.atleast_2d(p), dtype=float),
            divergence=lambda p: node_radii(p) ** -5.0,
            label="r^-5 source",
        )
        with pytest.raises(EquilibrationError, match="div y \\+ f = 0"):
            estimate_II(mp.problem, mp.exact_u, mp.exact_flux + bad)

    def test_interior_imbalance_allowed(self, catalog):
        mp = catalog["N3_harmonic"]
        y = perturb(mp, "y", 0.1, "interior_bump", seed=2)
        rep = estimate_II(mp.problem, mp.exact_u, y)
        assert rep.residual > 0.0


class TestInteriorWeight:
    def test_c_o_is_the_smaller_constant(self, catalog, bundles):
        # at the catalog radius the Friedrichs-based value is the smaller,
        # at R = 30 the closed formula: estimates II and III take it there
        bundle = bundles["N3_harmonic"]
        assert bundle.c_o == bundle.c_o_eigen < bundle.c_o_formula
        mp = xb.with_interface_radius(catalog["N3_harmonic"], 30.0)
        bundle = xb.constants_bundle(mp.problem)
        p = mp.problem
        v = perturb(mp, "v", 0.05, "interior_bump", seed=4)
        y = perturb(mp, "y", 0.05, "interior_bump", seed=5)
        y_i, y_e = perturb(mp, "y_broken", 0.05, "interface_jump", seed=6)
        err = xb.true_error(mp, v)
        for rep in (estimate_II(p, v, y),
                    estimate_III(p, v, y_i, y_e)):
            assert rep.constants["c_o"] == bundle.c_o_formula < bundle.c_o_eigen
            assert rep.total >= err

    def test_2d_eigen_never_above_formula(self):
        # so the 2D bundle needs no minimum of its own to keep c_o_eigen
        base = xb.builtin("N2_log", shells=1).problem
        for a in (1.0, 1.5, 10.0):
            for ratio in (1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 10.0, 100.0, 1e4):
                dom = xb.ExteriorDomain(2, a, a * ratio)
                bundle = xb.constants_bundle(dataclasses.replace(base, domain=dom))
                assert bundle.c_o == bundle.c_o_eigen <= bundle.c_o_formula


class TestInterfaceConsistency:
    @pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
    def test_unbroken_flux_as_broken_pair(self, name, catalog):
        mp = catalog[name]
        p = mp.problem
        v = perturb(mp, "v", 0.05, "interior_bump", seed=6)
        y = perturb(mp, "y", 0.05, "interior_bump", seed=7)
        rep3 = estimate_III(p, v, y, y)
        assert rep3.interface < 1e-12
        rep1 = estimate_I(p, v, y)
        # recombine: replace estimate I's weighted whole-domain residual by
        # estimate III's split (interior c_o + weighted tail) and compare
        recombined = rep1.total - rep1.residual + rep3.residual
        assert rep3.total == pytest.approx(recombined, abs=1e-10 * max(rep1.scale, 1))

    def test_jump_term_positive_and_bounded(self, catalog):
        mp = catalog["N3_harmonic"]
        p = mp.problem
        y_i, y_e = perturb(mp, "y_broken", 0.1, "interface_jump", seed=8)
        v = perturb(mp, "v", 0.1, "interior_bump", seed=9)
        err = xb.true_error(mp, v)
        rep = estimate_III(p, v, y_i, y_e)
        assert rep.interface > 0.0
        assert rep.total + 1e-8 * max(rep.scale, err) >= err


class TestSweep:
    def test_monotone_totals_under_epsilon_halving(self, catalog):
        mp = catalog["N3_harmonic"]
        totals = []
        for eps in [0.1, 0.05, 0.025]:
            v = perturb(mp, "v", eps, "interior_bump", seed=10)
            err = xb.true_error(mp, v)
            rep = estimate_I(mp.problem, v, mp.exact_flux)
            assert rep.total / err >= 1 - 1e-8
            totals.append(rep.total)
        assert totals[0] > totals[1] > totals[2]


class TestDeterminism:
    def test_identical_reports_across_runs(self, catalog):
        mp = catalog["N3_harmonic"]
        v = perturb(mp, "v", 0.07, "boundary_mode", seed=12)
        rep1 = estimate_I(mp.problem, v, mp.exact_flux)
        rep2 = estimate_I(mp.problem, v, mp.exact_flux)
        assert rep1.total == rep2.total
        assert rep1.as_dict() == rep2.as_dict()
