import math

import pytest

import extbounds as xb
from extbounds.minorant import (
    SingularGramError,
    TestBasis,
    default_basis,
    minorant,
    minorant_report,
    sandwich,
    validate_zero_traces,
)
from extbounds.problems import perturb


class TestDefaultBasis:
    def test_zero_traces(self, n3_harmonic):
        basis = default_basis(n3_harmonic.domain)
        validate_zero_traces(n3_harmonic.problem, basis)

    def test_size(self, n3_harmonic):
        assert len(default_basis(n3_harmonic.domain, n_radial=3, degree=1)) == 12
        assert len(default_basis(n3_harmonic.domain, n_radial=2, degree=0)) == 2

    @pytest.mark.parametrize("degree", [-3, 2, 5])
    def test_degree_outside_zero_one_rejected(self, n3_harmonic, degree):
        with pytest.raises(ValueError, match="degree must be 0 or 1"):
            default_basis(n3_harmonic.domain, degree=degree)

    def test_gradients_valid(self, n3_harmonic):
        from extbounds.fields import check_gradient
        from conftest import random_points_in_annulus

        pts = random_points_in_annulus(n3_harmonic.domain, 20, seed=31)
        for w in default_basis(n3_harmonic.domain, n_radial=2).fields:
            assert check_gradient(w, pts, step=1e-6, rtol=1e-5) < 1e-5

    def test_nonzero_trace_rejected(self, n3_harmonic):
        bad = TestBasis(fields=(n3_harmonic.exact_u,))
        with pytest.raises(ValueError, match="trace norm"):
            validate_zero_traces(n3_harmonic.problem, bad)


class TestMinorant:
    def test_exact_solution_gives_zero(self, n3_harmonic):
        basis = default_basis(n3_harmonic.domain)
        val = minorant(n3_harmonic.problem, n3_harmonic.exact_u, basis)
        assert 0.0 <= val <= 1e-16

    def test_lower_bound_property(self, n3_harmonic):
        basis = default_basis(n3_harmonic.domain)
        for seed in range(10):
            v = perturb(n3_harmonic, "v", 0.05, "interior_bump", seed=seed)
            err = xb.true_error(n3_harmonic, v)
            val = minorant(n3_harmonic.problem, v, basis)
            assert val <= err**2 * (1 + 1e-8)

    def test_sharp_when_error_in_basis(self):
        # needs finer quadrature than the defaults: the maximizer episode
        # mixes mollifier cross terms whose integrals must be resolved well
        # beyond the 1e-6 comparison target
        mp = xb.builtin("N3_harmonic", radial_order=24, shells=24)
        v = perturb(mp, "v", 0.01, "interior_bump", seed=7)
        err = xb.true_error(mp, v)
        basis = default_basis(mp.domain).extended(mp.exact_u - v)
        val = minorant(mp.problem, v, basis)
        assert math.sqrt(val) == pytest.approx(err, rel=1e-6)

    def test_direct_evaluation_consistency(self, n3_harmonic):
        basis = default_basis(n3_harmonic.domain)
        v = perturb(n3_harmonic, "v", 0.1, "interior_bump", seed=3)
        rep = minorant_report(n3_harmonic.problem, v, basis)
        assert rep.direct_value == pytest.approx(rep.value, rel=1e-10)

    def test_nested_span_monotone(self, n3_harmonic):
        v = perturb(n3_harmonic, "v", 0.1, "interior_bump", seed=4)
        full = default_basis(n3_harmonic.domain, n_radial=3, degree=1)
        prev = -1.0
        for k in (3, 6, 9, 12):
            sub = TestBasis(fields=full.fields[:k])
            val = minorant(n3_harmonic.problem, v, sub)
            assert val >= prev - 1e-12
            prev = val

    def test_boundary_caveat_flag(self, n3_harmonic):
        basis = default_basis(n3_harmonic.domain)
        v_in = perturb(n3_harmonic, "v", 0.1, "interior_bump", seed=5)
        v_bd = perturb(n3_harmonic, "v", 0.1, "boundary_mode", seed=5)
        assert not minorant_report(n3_harmonic.problem, v_in, basis).boundary_caveat
        assert minorant_report(n3_harmonic.problem, v_bd, basis).boundary_caveat

    def test_empty_basis_rejected(self, n3_harmonic):
        with pytest.raises(ValueError, match="nonempty"):
            minorant(n3_harmonic.problem, n3_harmonic.exact_u, TestBasis(fields=()))

    def test_singular_gram_rejected(self, n3_harmonic):
        w = default_basis(n3_harmonic.domain, n_radial=2).fields[0]
        dup = TestBasis(fields=(w, w))
        with pytest.raises(SingularGramError):
            minorant(n3_harmonic.problem, n3_harmonic.exact_u, dup)


class TestSandwich:
    def test_exact_data(self, n3_harmonic, bundles):
        basis = default_basis(n3_harmonic.domain)
        lower, upper = sandwich(
            n3_harmonic.problem, n3_harmonic.exact_u, n3_harmonic.exact_flux,
            basis, bundle=bundles["N3_harmonic"],
        )
        assert lower <= 1e-8  # roundoff-level residual load, clamped at zero
        assert upper <= 1e-8 * math.sqrt(4 * math.pi)

    def test_brackets_true_error(self, n3_harmonic, bundles):
        basis = default_basis(n3_harmonic.domain)
        for seed in range(5):
            v = perturb(n3_harmonic, "v", 0.05, "interior_bump", seed=seed)
            err = xb.true_error(n3_harmonic, v)
            lower, upper = sandwich(
                n3_harmonic.problem, v, n3_harmonic.exact_flux, basis,
                bundle=bundles["N3_harmonic"],
            )
            assert lower <= err * (1 + 1e-8)
            assert err <= upper * (1 + 1e-8)

    def test_sharp_basis_brackets_tightly(self):
        mp = xb.builtin("N3_harmonic", radial_order=24, shells=24)
        v = perturb(mp, "v", 0.02, "interior_bump", seed=11)
        err = xb.true_error(mp, v)
        basis = default_basis(mp.domain).extended(mp.exact_u - v)
        lower, upper = sandwich(mp.problem, v, mp.exact_flux, basis)
        assert lower == pytest.approx(err, rel=1e-6)
        assert upper == pytest.approx(err, rel=1e-6)
