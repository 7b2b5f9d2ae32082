import dataclasses
import math
import sys

import numpy as np
import pytest

import extbounds as xb
from extbounds.fields import QuadratureErrorAt, ScalarField, VectorField, support_rows
from extbounds.geometry import ExteriorDomain, exact_dot, node_radii, whole_and_parts
from extbounds.minorant import (
    NonzeroTraceError,
    SingularGramError,
    TestBasis,
    default_basis,
    minorant_report,
    validate_zero_traces,
)
from extbounds.problems import perturb

from conftest import termless, unrestricted


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
        from conftest import random_points_in_annulus
        from oracles import check_gradient

        pts = random_points_in_annulus(n3_harmonic.domain, 20, seed=31)
        for w in default_basis(n3_harmonic.domain, n_radial=2).fields:
            assert check_gradient(w, pts, step=1e-6, rtol=1e-5) < 1e-5

    def test_supports_on_fields(self, n3_harmonic):
        dom = n3_harmonic.domain
        basis = default_basis(dom, 4, 1)
        supports = [w.support for w in basis.fields]
        assert len(supports) == 16 and None not in supports
        assert supports[0][0] == dom.a and supports[-1][1] == dom.R
        assert basis.extended(n3_harmonic.exact_u).fields[-1].support is None
        # the support lives on the field: the basis has no parallel tuple
        with pytest.raises(TypeError, match="supports"):
            TestBasis(fields=basis.fields, supports=tuple(supports))

    def test_nonzero_trace_rejected(self, n3_harmonic):
        bad = TestBasis(fields=(n3_harmonic.exact_u,))
        with pytest.raises(ValueError, match="trace norm"):
            validate_zero_traces(n3_harmonic.problem, bad)


class TestMinorant:
    def test_exact_solution_gives_zero(self, n3_harmonic):
        basis = default_basis(n3_harmonic.domain)
        val = minorant_report(n3_harmonic.problem, n3_harmonic.exact_u, basis).value
        assert 0.0 <= val <= 1e-16

    def test_lower_bound_property(self, n3_harmonic):
        basis = default_basis(n3_harmonic.domain)
        for seed in range(10):
            v = perturb(n3_harmonic, "v", 0.05, "interior_bump", seed=seed)
            err = xb.true_error(n3_harmonic, v)
            val = minorant_report(n3_harmonic.problem, v, basis).value
            assert val <= err**2 * (1 + 1e-8)

    def test_sharp_when_error_in_basis(self):
        # needs finer quadrature than the defaults: the maximizer episode
        # mixes mollifier cross terms whose integrals must be resolved well
        # beyond the 1e-6 comparison target
        mp = xb.builtin("N3_harmonic", radial_order=24, shells=24)
        v = perturb(mp, "v", 0.01, "interior_bump", seed=7)
        err = xb.true_error(mp, v)
        basis = default_basis(mp.domain).extended(mp.exact_u - v)
        val = minorant_report(mp.problem, v, basis).value
        assert math.sqrt(val) == pytest.approx(err, rel=1e-6)

    @pytest.mark.parametrize("name", xb.CATALOG)
    def test_error_in_basis_stays_below_the_error(self, coarse, name):
        # the load form 2 (f, w) - (A grad(2v + w), grad w) lifted the bound
        # by a relative O(delta/eps) under quadrature, on N3_harmonic by
        # +4.4e-2, +4.4e-3 and +4.4e-4 at these epsilons
        mp = coarse[name]
        for eps in (1e-3, 1e-2, 0.1):
            v = perturb(mp, "v", eps, "interior_bump", seed=0)
            basis = default_basis(mp.domain).extended(mp.exact_u - v)
            lower = math.sqrt(minorant_report(mp.problem, v, basis).value)
            assert lower <= xb.true_error(mp, v) * (1 + 1e-12), eps

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
            val = minorant_report(n3_harmonic.problem, v, sub).value
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
            minorant_report(n3_harmonic.problem, n3_harmonic.exact_u, TestBasis(fields=()))

    def test_singular_gram_rejected(self, n3_harmonic):
        w = default_basis(n3_harmonic.domain, n_radial=2).fields[0]
        dup = TestBasis(fields=(w, w))
        with pytest.raises(SingularGramError):
            minorant_report(n3_harmonic.problem, n3_harmonic.exact_u, dup)

    def test_zero_function_named(self, n3_harmonic):
        # u - v at eps = 0 is the zero field: the unit-diagonal scaling has
        # no row for it, so it is named instead
        u = n3_harmonic.exact_u
        basis = default_basis(n3_harmonic.domain, n_radial=2).extended(u - u)
        with pytest.raises(SingularGramError, match=r"basis function 8 .* zero energy"):
            minorant_report(n3_harmonic.problem, u, basis)

    def test_small_function_is_not_singular(self, n3_harmonic):
        # the gate reads the unit-diagonal scaling of the Gram: a function
        # 1e-7 times another's size, as u - v is at eps = 1e-7, keeps its
        # place, where its raw eigenvalue ratio of about 1e-17 was rejected
        fields = default_basis(n3_harmonic.domain, n_radial=2).fields
        small = TestBasis(fields=(fields[0], 1e-7 * fields[1]) + fields[2:])
        v = perturb(n3_harmonic, "v", 0.1, "interior_bump", seed=3)
        rep = minorant_report(n3_harmonic.problem, v, small)
        full = minorant_report(n3_harmonic.problem, v, TestBasis(fields=fields))
        assert rep.gram_min_eig < 1e-12 * full.gram_min_eig
        assert rep.value == pytest.approx(full.value, rel=1e-10)


class TestZeroTraceCheck:
    @pytest.mark.parametrize("name,index", [("N2_log", 12), ("N3_harmonic", 16)])
    def test_error_of_boundary_mode_v_rejected(self, coarse, name, index):
        # u - v of a boundary-mode v does not vanish on the inner sphere.
        # Unchecked, it lifted the lower bound to 5.23 (N2_log) and 3.24
        # (N3_harmonic) times the squared error, flagged only by the caveat
        mp = coarse[name]
        v = perturb(mp, "v", 0.1, "boundary_mode", seed=0)
        basis = default_basis(mp.domain, 4, 1).extended(mp.exact_u - v)
        with pytest.raises(NonzeroTraceError, match=f"basis function {index} "):
            minorant_report(mp.problem, v, basis)
        assert issubclass(NonzeroTraceError, ValueError)

    @pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
    @pytest.mark.parametrize("n_radial", [4, 6])
    def test_default_basis_and_interior_error_are_exact_zeros(self, coarse, name, n_radial):
        # no trace is projected for them: each costs one evaluation on gamma
        mp = coarse[name]
        v = perturb(mp, "v", 0.1, "interior_bump", seed=3)
        basis = default_basis(mp.domain, n_radial, 1).extended(mp.exact_u - v)
        for w in basis.fields:
            assert not np.any(w.value(mp.problem.quads.gamma.nodes)), w.label

    def test_norm_below_tolerance_accepted_and_nan_rejected(self, coarse):
        p = coarse["N3_harmonic"].problem

        def constant(c):
            return ScalarField(value=lambda pts: np.full(len(pts), c), label=f"{c}")

        validate_zero_traces(p, TestBasis(fields=(constant(1e-20),)))
        for c in (1e-6, np.nan):
            with pytest.raises(NonzeroTraceError, match="basis function 0"):
                validate_zero_traces(p, TestBasis(fields=(constant(c),)))


class TestSandwich:
    """The bracket ``sandwich`` reports: the root of the minorant below,
    estimate I above."""

    @staticmethod
    def bracket(p, v, y, basis):
        return math.sqrt(minorant_report(p, v, basis).value), xb.estimate_I(p, v, y).total

    def test_exact_data(self, n3_harmonic):
        basis = default_basis(n3_harmonic.domain)
        lower, upper = self.bracket(
            n3_harmonic.problem, n3_harmonic.exact_u, n3_harmonic.exact_flux, basis)
        assert lower <= 1e-8  # roundoff-level residual load, clamped at zero
        assert upper <= 1e-8 * math.sqrt(4 * math.pi)

    def test_brackets_true_error(self, n3_harmonic):
        basis = default_basis(n3_harmonic.domain)
        for seed in range(5):
            v = perturb(n3_harmonic, "v", 0.05, "interior_bump", seed=seed)
            err = xb.true_error(n3_harmonic, v)
            lower, upper = self.bracket(n3_harmonic.problem, v, n3_harmonic.exact_flux, basis)
            assert lower <= err * (1 + 1e-8)
            assert err <= upper * (1 + 1e-8)

    def test_sharp_basis_brackets_tightly(self):
        mp = xb.builtin("N3_harmonic", radial_order=24, shells=24)
        v = perturb(mp, "v", 0.02, "interior_bump", seed=11)
        err = xb.true_error(mp, v)
        basis = default_basis(mp.domain).extended(mp.exact_u - v)
        lower, upper = self.bracket(mp.problem, v, mp.exact_flux, basis)
        assert lower == pytest.approx(err, rel=1e-6)
        assert upper == pytest.approx(err, rel=1e-6)


def dense_minorant(p, v, basis):
    """Reference: every integral summed over the whole rule, as the
    assembly did before it skipped the nodes where the basis vanishes.
    Returns (value, direct_value, gram_min_eig, coefficients)."""
    rule = p.quads.whole
    pts, wts = rule.nodes, rule.weights
    mats = np.asarray(p.A.matrix(pts), dtype=float)
    gv = np.asarray(v.gradient(pts), dtype=float)
    res = np.asarray(p.flux.value(pts), dtype=float) - np.einsum("mij,mj->mi", mats, gv)
    n = len(basis)
    grads = [np.asarray(w.gradient(pts), dtype=float) for w in basis.fields]
    a_grads = [np.einsum("mij,mj->mi", mats, g) for g in grads]
    gram = np.empty((n, n))
    rhs = np.empty(n)
    for j in range(n):
        for k in range(j, n):
            gram[j, k] = gram[k, j] = exact_dot(np.sum(a_grads[j] * grads[k], axis=1), wts)
        rhs[j] = exact_dot(np.sum(res * grads[j], axis=1), wts)
    eigs = np.linalg.eigvalsh(gram)
    coeff = np.linalg.solve(gram, rhs)
    w_grads = np.zeros_like(gv)
    for c, grad in zip(coeff, grads):
        w_grads += c * grad
    mixed = 2.0 * res - np.einsum("mij,mj->mi", mats, w_grads)
    direct = exact_dot(np.sum(mixed * w_grads, axis=1), wts)
    return max(min(float(rhs @ coeff), direct), 0.0), float(direct), float(eigs[0]), coeff


@pytest.fixture(scope="module")
def coarse():
    return {name: xb.builtin(name, shells=8) for name in xb.CATALOG}


class TestSpanAssembly:
    """The tensor assembly, which a basis without terms takes: bit-equal to
    summing every integral over the whole rule."""

    @pytest.mark.parametrize("name,n_radial,degree,with_error", [
        ("N3_harmonic", 4, 1, False),
        ("N3_harmonic", 6, 1, False),
        ("N3_harmonic", 3, 0, False),
        ("N3_harmonic", 4, 1, True),
        ("N3_anisotropic", 4, 1, False),
        ("N3_anisotropic", 4, 1, True),
        ("N2_log", 4, 1, False),
        ("N2_log", 3, 0, False),
        ("N2_log", 4, 1, True),
    ])
    def test_bit_equal_to_dense_assembly(self, coarse, name, n_radial, degree,
                                         with_error):
        mp = coarse[name]
        v = perturb(mp, "v", 0.1, "interior_bump", seed=3)
        basis = default_basis(mp.domain, n_radial, degree)
        if with_error:
            basis = basis.extended(mp.exact_u - v)  # nonzero on every node
        self.assert_matches_dense(mp.problem, v, basis)

    def test_bit_equal_when_spans_straddle_panels(self, n3_harmonic):
        # 16 shells over 3 sub-annuli: the bump edges fall inside panels
        v = perturb(n3_harmonic, "v", 0.1, "boundary_mode", seed=5)
        self.assert_matches_dense(
            n3_harmonic.problem, v, default_basis(n3_harmonic.domain, 3, 1))

    @pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
    @pytest.mark.parametrize("n_radial", [5, 7])
    def test_bit_equal_when_bump_edges_fall_inside_panels(self, name, n_radial):
        mp = xb.builtin(name, shells=3)
        v = perturb(mp, "v", 0.1, "interior_bump", seed=3)
        self.assert_matches_dense(mp.problem, v, default_basis(mp.domain, n_radial, 1))

    @staticmethod
    def assert_matches_dense(p, v, basis):
        basis = termless(basis)
        rep = minorant_report(p, v, basis)
        value, direct, min_eig, coeff = dense_minorant(p, v, basis)
        assert (rep.value, rep.direct_value, rep.gram_min_eig) == (value, direct, min_eig)
        assert rep.coefficients.tobytes() == coeff.tobytes()

    @pytest.mark.parametrize("name,rows", [("N3_harmonic", 57), ("N2_log", 37)])
    def test_exact_dot_calls(self, coarse, monkeypatch, name, rows):
        # 4 radial groups of 1 + N fields with disjoint support rows: the Gram
        # pairs within a group and one sum per right-hand side, one call per
        # group with a row per sum, then one call with the direct sum
        module = sys.modules["extbounds.minorant"]
        seen = []

        def counted(values, weights):
            seen.append(np.shape(values))
            return exact_dot(values, weights)

        monkeypatch.setattr(module, "exact_dot", counted)
        mp = coarse[name]
        whole = mp.problem.quads.whole
        v = perturb(mp, "v", 0.1, "interior_bump", seed=3)
        basis = termless(default_basis(mp.domain, 4, 1))
        minorant_report(mp.problem, v, basis)
        radii = node_radii(whole.nodes)
        groups = sorted({support_rows(radii, w.support) for w in basis.fields})
        assert len(groups) == 4
        assert [length for _, length in seen[:-1]] == [hi - lo for lo, hi in groups]
        assert seen[-1] == (groups[-1][1] - groups[0][0],)
        assert sum(count for count, _ in seen[:-1]) + 1 == rows
        assert max(shape[-1] for shape in seen) < len(whole)


def _span(val, grad, start=0):
    """[lo, hi): from the first to the last node where a basis function or
    its gradient is nonzero (empty when it vanishes on all of them).  The
    arrays hold the rule's nodes from number ``start`` on."""
    nz = np.flatnonzero((val != 0.0) | np.any(grad != 0.0, axis=1))
    return (start + int(nz[0]), start + int(nz[-1]) + 1) if len(nz) else (0, 0)


class TestSupports:
    @pytest.mark.parametrize("N,R", [(N, R) for N in (2, 3) for R in (1.05, 1.5, 2.0, 8.0)])
    def test_rows_contain_every_nonzero_node(self, N, R):
        # the span found on the support's rows is the span over the whole rule
        dom = ExteriorDomain(N, 1.0, R)
        for shells in (1, 3, 8, 16):
            whole = whole_and_parts(dom, 12, 4, shells)[0]
            pts = whole.nodes
            for n_radial in range(1, 9):
                for degree in (0, 1):
                    basis = default_basis(dom, n_radial, degree)
                    for w in basis.fields:
                        start, stop = support_rows(node_radii(pts), w.support)
                        sub = pts[start:stop]
                        with unrestricted():
                            dense = _span(w.value(pts), w.gradient(pts))
                            found = _span(w.value(sub), w.gradient(sub), start)
                        assert found == dense, (shells, n_radial, degree, w.label)
                        assert dense == (0, 0) or start <= dense[0] < dense[1] <= stop

    def test_closures_see_one_quarter_of_omega_i(self):
        mp = xb.builtin("N3_harmonic", shells=8)
        quarter = len(mp.problem.quads.omega_i) // 4
        basis = default_basis(mp.domain, 4, 1)
        seen = []

        def counted(field):
            def value(pts):
                seen.append(len(pts))
                return field.value(pts)

            def gradient(pts):
                seen.append(len(pts))
                return field.gradient(pts)

            return dataclasses.replace(field, value=value, gradient=gradient)

        wrapped = dataclasses.replace(basis, fields=tuple(map(counted, basis.fields)))
        assert [w.support for w in wrapped.fields] == [w.support for w in basis.fields]
        v = perturb(mp, "v", 0.1, "interior_bump", seed=3)
        # the zero-trace check evaluates both on the spheres bounding each
        # support inside the domain, and the value on gamma, which only the
        # supports reaching r = a let through
        gamma = mp.problem.quads.gamma
        checks = []
        for w in basis.fields:
            checks += [sum(r > mp.domain.a for r in w.support) * len(gamma)] * 2
            if support_rows(node_radii(gamma.nodes), w.support) != (0, 0):
                checks.append(len(gamma))
        assert len(checks) == 3 * len(basis) - 12  # 4 of the 16 reach gamma
        # with their terms, the assembly reads the profiles alone
        minorant_report(mp.problem, v, wrapped)
        assert seen == checks
        # without them, it first evaluates the gradient alone on a quarter
        # of omega_i
        seen.clear()
        minorant_report(mp.problem, v, termless(wrapped))
        assert seen == [quarter] * len(basis) + checks


class TestNonFinite:
    @staticmethod
    def poisoned(field, node, bad=np.inf, part="value"):
        """``field`` with one non-finite value or gradient row at ``node``,
        and without terms (a flux: without potential), which no longer
        describe it."""
        def poison(fn):
            def out(pts):
                vals = np.array(fn(pts), dtype=float)
                vals[node] = bad
                return vals
            return out
        terms = "potential" if isinstance(field, VectorField) else "terms"
        return dataclasses.replace(field, **{part: poison(getattr(field, part)), terms: ()})

    @pytest.mark.parametrize("where", ["f", "grad v", "basis gradient"])
    def test_rejected_naming_node_and_field(self, coarse, where):
        mp = coarse["N3_harmonic"]
        p = mp.problem
        v = perturb(mp, "v", 0.1, "interior_bump", seed=3)
        basis = default_basis(mp.domain, 2, 0)
        node = len(p.quads.whole) - 1  # in the tail, where no basis function lives
        if where == "f":
            # the flux of the load is read on the basis rows only, which
            # start at node 0 of the whole rule
            node = len(p.quads.omega_i) // 2
            p = dataclasses.replace(p, flux=self.poisoned(p.flux, node, np.nan))
            label = p.flux.label
        elif where == "grad v":
            v = self.poisoned(v, node, part="gradient")
            label = v.label
        else:
            # without its support, the minorant evaluates it on the whole rule
            whole = dataclasses.replace(basis.fields[1], support=None)
            w = self.poisoned(whole, node, -np.inf, "gradient")
            basis = TestBasis(fields=(basis.fields[0], w))
            label = w.label
        with pytest.raises(QuadratureErrorAt, match=f"node {node}") as info:
            minorant_report(p, v, basis)
        assert repr(label) in str(info.value)
        assert info.value.index == node

    @pytest.mark.parametrize("part", ["gradient"])
    def test_inside_a_support_named_by_whole_rule_node(self, coarse, part):
        mp = coarse["N3_harmonic"]
        p = mp.problem
        v = perturb(mp, "v", 0.1, "interior_bump", seed=3)
        basis = default_basis(mp.domain, 2, 0)
        node = 3 * len(p.quads.omega_i) // 4  # inside the outer function's support
        target = p.quads.whole.nodes[node]

        def poison(fn):
            # the closure sees only the support's rows: find the node by position
            def out(pts):
                vals = np.array(fn(pts), dtype=float)
                vals[np.all(pts == target, axis=1)] = np.nan
                return vals
            return out

        w = dataclasses.replace(basis.fields[1], terms=(),
                                **{part: poison(getattr(basis.fields[1], part))})
        basis = dataclasses.replace(basis, fields=(basis.fields[0], w))
        assert w.support is not None
        with pytest.raises(QuadratureErrorAt, match=f"node {node}:") as info:
            minorant_report(p, v, basis)
        assert repr(w.label) in str(info.value)
        assert info.value.index == node
        assert np.array_equal(info.value.point, target)
