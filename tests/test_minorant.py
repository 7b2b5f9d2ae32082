import dataclasses
import math

import numpy as np
import pytest

import extbounds as xb
from extbounds.fields import QuadratureErrorAt, separable_field, support_rows
from extbounds.geometry import ExteriorDomain, node_radii, whole_and_parts
from extbounds.minorant import (
    NonzeroTraceError,
    SingularGramError,
    TestBasis,
    _term_system,
    default_basis,
    minorant_report,
    validate_zero_traces,
)
from extbounds.problems import perturb

from conftest import unrestricted
from oracles import dense_minorant


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
        # u - v at eps = 0 is the zero field, whose terms merge to none: the
        # unit-diagonal scaling would have no row for it, so it is named
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
        # their closures agree with the terms' zero trace: exact zeros on gamma
        mp = coarse[name]
        v = perturb(mp, "v", 0.1, "interior_bump", seed=3)
        basis = default_basis(mp.domain, n_radial, 1).extended(mp.exact_u - v)
        for w in basis.fields:
            assert not np.any(w.value(mp.problem.quads.gamma.nodes)), w.label

    def test_norm_below_tolerance_accepted_and_nan_rejected(self, coarse):
        p = coarse["N3_harmonic"].problem

        def constant(c):
            return separable_field(lambda r: np.full_like(r, c), np.zeros_like, label=f"{c}")

        validate_zero_traces(p, TestBasis(fields=(constant(1e-20),)))
        for c in (1e-6, np.nan):
            with pytest.raises(NonzeroTraceError, match="basis function 0"):
                validate_zero_traces(p, TestBasis(fields=(constant(c),)))


    def test_one_call_per_profile_closure(self, coarse):
        # each p and p' is evaluated once, on every radius it is checked at
        # (a and the support ends), with the bits of one call per radius
        mp = coarse["N3_harmonic"]
        v = perturb(mp, "v", 0.1, "interior_bump", seed=3)
        basis = default_basis(mp.domain, 4, 1).extended(mp.exact_u - v)
        calls, wrapped = {}, {}

        def counted(fn):
            if fn not in wrapped:
                wrapped[fn] = lambda r: calls.setdefault(fn, []).append(np.copy(r)) or fn(r)
            return wrapped[fn]

        fields = tuple(dataclasses.replace(w, terms=tuple(
            t._replace(p=counted(t.p), dp=counted(t.dp)) for t in w.terms))
            for w in basis.fields)
        validate_zero_traces(mp.problem, TestBasis(fields=fields))
        assert len(calls) > 8 and all(len(c) == 1 for c in calls.values())
        a = mp.domain.a
        for fn, [radii] in calls.items():
            assert all(r == a or r > a for r in radii)
            one_by_one = [fn(np.array([r]))[0] for r in radii]
            assert fn(radii).tobytes() == np.array(one_by_one).tobytes()


class TestZeroRows:
    @pytest.mark.parametrize("name", xb.CATALOG)
    def test_dropped_rows_keep_every_bit(self, coarse, monkeypatch, name):
        # the rows of +-0.0 never reach the exact sums, and the system is
        # bit-equal to the one summed from every row
        from extbounds import minorant
        from extbounds.fields import difference, term_products

        mp = coarse[name]
        p = mp.problem
        v = perturb(mp, "v", 0.1, "interior_bump", seed=4)
        basis = default_basis(mp.domain).extended(mp.exact_u - v)
        grouped, seen = minorant._grouped_sums, []
        monkeypatch.setattr(minorant, "_grouped_sums",
                            lambda first, second, rows: seen.append(rows) or grouped(
                                first, second, rows))
        gram, rhs, _ = _term_system(p, v, basis)
        assert len(seen) == 1 and seen[0].any(axis=1).all()

        sets = [w.terms for w in basis.fields] + [difference(p.flux.potential, v.terms)]
        products = term_products(p.quads.whole, sets, [""] * len(sets), "test")
        first, second, rows = products(sets, p.A.diagonal)
        assert not rows.any(axis=1).all()  # some rows are dropped
        first, second, sums = grouped(first, second, rows)
        n = len(basis)
        system = np.zeros((n + 1, n + 1))
        system[first, second] = system[second, first] = sums
        assert gram.tobytes() == system[:n, :n].tobytes()
        assert rhs.tobytes() == system[:n, n].tobytes()


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


@pytest.fixture(scope="module")
def coarse():
    return {name: xb.builtin(name, shells=8) for name in xb.CATALOG}


class TestSpanAssembly:
    """The assembly from terms against every integral summed over every
    node of the whole rule (``oracles.dense_minorant``), to rounding.  The
    names date from the tensor assembly, whose bits were the dense ones."""

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
        # the values within 1e-14 relative and the Gram entries within 4e-15
        # of (G_jj G_kk)^{1/2}, so its smallest eigenvalue within n times
        # that of the largest diagonal entry (Weyl)
        rep = minorant_report(p, v, basis)
        dense = dense_minorant(p, v, basis)
        for a, b in ((rep.value, dense.value), (rep.direct_value, dense.direct_value)):
            assert abs(a - b) <= 1e-14 * abs(b)
        scale = np.sqrt(np.diag(dense.gram))
        gram = _term_system(p, v, basis)[0]
        assert np.all(np.abs(gram - dense.gram) <= 4e-15 * np.outer(scale, scale))
        assert abs(rep.gram_min_eig - dense.gram_min_eig) <= 4e-15 * len(basis) * max(scale)**2
        coeff = dense.coefficients
        assert np.max(np.abs(rep.coefficients - coeff)) <= 1e-14 * np.max(np.abs(coeff))


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
        # the assembly and the zero-trace check read the terms alone: no
        # closure of a basis function is called (the tensor assembly ran
        # each gradient on a quarter of omega_i)
        mp = xb.builtin("N3_harmonic", shells=8)
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
        wrapped.fields[0].gradient(mp.problem.quads.whole.nodes)
        assert seen  # the wrapper counts
        seen.clear()
        v = perturb(mp, "v", 0.1, "interior_bump", seed=3)
        rep = minorant_report(mp.problem, v, wrapped)
        assert seen == []
        assert rep.as_dict() == minorant_report(mp.problem, v, basis).as_dict()


class TestNonFinite:
    @staticmethod
    def poisoned(terms, r, bad=np.inf, part="p"):
        """``terms`` with the profile ``part`` (p or dp) of the first one
        replaced by one that is ``bad`` at the radius ``r``."""
        fn = getattr(terms[0], part)

        def out(s):
            vals = np.array(fn(s), dtype=float)
            vals[s == r] = bad
            return vals

        return (terms[0]._replace(**{part: out}),) + terms[1:]

    @pytest.mark.parametrize("where", ["f", "grad v", "basis gradient"])
    def test_rejected_naming_node_and_field(self, coarse, where):
        # a profile is evaluated at the radial nodes, and a non-finite value
        # is named at the first node of its radius in the whole rule, with
        # the first field whose terms hold it: u - v for the flux's
        # potential and for v
        mp = coarse["N3_harmonic"]
        p = mp.problem
        v = perturb(mp, "v", 0.1, "interior_bump", seed=3)
        basis = default_basis(mp.domain, 2, 0)
        r, _ = p.quads.whole.radial
        directions = len(p.quads.whole.angular[0])
        k = len(r) - 1  # in the tail, where no basis function lives
        if where == "f":
            k = len(r) // 4
            flux = dataclasses.replace(p.flux, potential=self.poisoned(p.flux.potential, r[k],
                                                                       np.nan))
            p = dataclasses.replace(p, flux=flux)
            label = p.flux.label
        elif where == "grad v":
            v = dataclasses.replace(v, terms=self.poisoned(v.terms, r[k], part="dp"))
            label = v.label
        else:
            w = basis.fields[1]
            k = support_rows(r, w.support)[0] + 1
            w = dataclasses.replace(w, terms=self.poisoned(w.terms, r[k], -np.inf, "dp"))
            basis = TestBasis(fields=(basis.fields[0], w))
            label = repr(w.label)
        node = k * directions
        with pytest.raises(QuadratureErrorAt, match=f"node {node}:") as info:
            minorant_report(p, v, basis)
        assert label in str(info.value)
        assert info.value.index == node

    @pytest.mark.parametrize("part", ["gradient"])
    def test_inside_a_support_named_by_whole_rule_node(self, coarse, part):
        mp = coarse["N3_harmonic"]
        p = mp.problem
        v = perturb(mp, "v", 0.1, "interior_bump", seed=3)
        basis = default_basis(mp.domain, 2, 0)
        r, _ = p.quads.whole.radial
        directions = len(p.quads.whole.angular[0])
        # inside the outer function's support: the first node of its radius
        node = 3 * len(p.quads.omega_i) // 4 // directions * directions
        target = p.quads.whole.nodes[node]
        w = basis.fields[1]
        w = dataclasses.replace(w, terms=self.poisoned(w.terms, r[node // directions], np.nan,
                                                       {"gradient": "dp"}[part]))
        basis = dataclasses.replace(basis, fields=(basis.fields[0], w))
        assert w.support is not None
        with pytest.raises(QuadratureErrorAt, match=f"node {node}:") as info:
            minorant_report(p, v, basis)
        assert repr(w.label) in str(info.value)
        assert info.value.index == node
        assert np.array_equal(info.value.point, target)
