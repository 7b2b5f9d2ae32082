import dataclasses
import math

import numpy as np
import pytest

import extbounds as xb
from extbounds import traces
from extbounds.fields import Coefficient, Term, VectorField, energy_norm
from extbounds.geometry import exact_dot, node_radii
from extbounds.majorant import (
    DivergentNormError,
    EquilibrationError,
    _flux_term,
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


class TestResidualTerm:
    def test_estimate_I_divides_by_the_lower_ellipticity_bound(self, catalog):
        # on N3_anisotropic c_A = 1 and c_A_plus = 4: the residual term is
        # C_P / sqrt(c_A) times ||rho (f + div y)||, which a factor of
        # 1 / sqrt(c_A_plus) would halve.  For y = F + eps b d the residual
        # is eps grad b . d, summed here on omega_i; the bump lies inside
        # the annulus, so the tail adds nothing
        mp = catalog["N3_anisotropic"]
        p = mp.problem
        assert (p.A.c_A, p.A.c_A_plus) == (1.0, 4.0)
        eps, seed = 0.1, 5
        y = perturb(mp, "y", eps, "interior_bump", seed)
        rng = np.random.default_rng(seed)
        bump = xb.problems._random_interior_bump(mp, rng)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        rule = p.quads.omega_i
        res = eps * (bump.gradient(rule.nodes) @ direction)
        weighted = math.sqrt(exact_dot((1.0 + node_radii(rule.nodes) ** 2) * res**2,
                                       rule.weights))
        rep = estimate_I(p, mp.exact_u, y)
        assert weighted > 0.0
        assert rep.residual == pytest.approx(
            p.constants.poincare / math.sqrt(p.A.c_A) * weighted, rel=1e-9)


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
        # y := A grad v for a perturbed v makes the flux term vanish: y's
        # potential, v's terms, merges with them to nothing.  Its residual
        # f + div(A grad v) needs the second derivatives of v, which the
        # terms do not carry, so estimate I refuses y by name
        mp = catalog["N3_harmonic"]
        p = mp.problem
        from extbounds.fields import mollifier, mollifier_deriv, profile, separable_field

        prof, dprof = profile(mollifier, mollifier_deriv, 1.5, 0.25)
        s = separable_field(prof, dprof, (0.0, 0.0, 0.0, 1.0), support=(1.25, 1.75))
        v = mp.exact_u + 0.05 * s
        y = VectorField(value=v.gradient, label="grad v", potential=v.terms)
        assert _flux_term(p, v, y) == 0.0 < _flux_term(p, mp.exact_u, y)
        with pytest.raises(ValueError, match=r"^the flux \('grad v'\) has a potential other"):
            estimate_I(p, v, y)

    def test_divergent_tail_residual_detected(self, catalog):
        # the bump (1/r) e_3, whose divergence -x_3/r^3 is not square
        # integrable against rho^2 on the tail
        mp = catalog["N3_harmonic"]
        bad = tail_bump(lambda r: 1.0 / r, lambda r: -1.0 / r**2, "slow-decay")
        with pytest.raises(DivergentNormError, match="tail"):
            estimate_I(mp.problem, mp.exact_u, mp.exact_flux + bad)


def tail_bump(p, dp, label):
    """The flux bump p(r) e_3 on every radius, with the closure of its
    value."""
    e = np.array([0.0, 0.0, 1.0])
    return VectorField(value=lambda pts: p(node_radii(pts))[:, None] * e, label=label,
                       bumps=(Term(p, dp, (1.0,), None, tuple(e)),))


class TestEquilibrationGate:
    def test_accepts_catalog_flux(self, catalog):
        for name in ("N3_harmonic", "N3_decay", "N3_anisotropic", "N2_log"):
            mp = catalog[name]
            rep = estimate_II(mp.problem, mp.exact_u, mp.exact_flux)
            assert rep.total <= 1e-10 * max(rep.scale, 1.0)

    def test_rejects_unbalanced_tail(self, catalog):
        # the bump r^-4 e_3, whose divergence -4 x_3 / r^6 is a tail source
        mp = catalog["N3_harmonic"]
        bad = tail_bump(lambda r: r**-4.0, lambda r: -4.0 * r**-5.0, "r^-4 bump")
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
