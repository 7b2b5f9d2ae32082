"""A field's radial support holds its terms, which the term sums read on
the rows of the support alone; its closures are the formulas, each row
from its own node, which the shapes make exact zeros off the support."""

import dataclasses

import numpy as np
import pytest

import extbounds as xb
import extbounds.fields as fields_module
from extbounds.fields import ScalarField, Term, VectorField, support_rows
from extbounds.geometry import node_radii
from extbounds.majorant import scale_of
from extbounds.minorant import NonzeroTraceError, default_basis, minorant_report
from extbounds.problems import perturb

RULES = ("whole", "omega_i", "omega_e", "omega_e_refined", "gamma", "Gamma")
SEEDS = range(5)
MODES = ("interior_bump", "boundary_mode")


@pytest.fixture(scope="module")
def coarse():
    return {name: xb.builtin(name, shells=8) for name in ("N3_harmonic", "N2_log")}


def point_sets(mp):
    """(name, nodes) for every rule of the bundle and for random points.
    Their radii are uniform over [a, R], dense enough that some lie within
    1e-3 of any radius, and sorted, as in a rule, so that a support's rows
    leave the others out."""
    quads = mp.problem.quads
    for name in RULES:
        yield name, getattr(quads, name).nodes
    rng = np.random.default_rng(17)
    dirs = rng.normal(size=(6000, mp.domain.dimension))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.sort(rng.uniform(mp.domain.a, mp.domain.R, size=6000))
    yield "random", radii[:, None] * dirs


def bare(mp):
    """``mp`` with exact solution and flux 0, so that a perturbation is
    eps times the perturbing field alone, with nothing to absorb it."""
    def zeros(pts):
        return np.zeros(len(pts))

    return dataclasses.replace(
        mp,
        exact_u=ScalarField(value=zeros, gradient=lambda pts: np.zeros(np.shape(pts)), label="0"),
        problem=dataclasses.replace(mp.problem, flux=VectorField(
            value=lambda pts: np.zeros(np.shape(pts)), divergence=zeros, label="0")),
    )


def assert_matches_formula(value, derivative, pts, where):
    """The closures give every row the bits of the formula at its node
    alone: those of a call on the half of the rows that holds it, and of a
    call on a row-major copy."""
    half = len(pts) // 2
    for fn in (value, derivative):
        whole = np.asarray(fn(pts))
        for got in (np.concatenate([fn(pts[:half]), fn(pts[half:])]),
                    fn(np.ascontiguousarray(pts))):
            assert np.asarray(got).tobytes() == whole.tobytes(), where


class TestMatchesFormula:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
    def test_perturbed_approximation(self, coarse, name, mode):
        mp = coarse[name]
        for seed in SEEDS:
            for data in (mp, bare(mp)):
                v = perturb(data, "v", 0.1, mode, seed)
                for where, pts in point_sets(mp):
                    assert_matches_formula(v.value, v.gradient, pts, f"{seed} {where}")

    @pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
    def test_perturbed_flux(self, coarse, name):
        mp = coarse[name]
        for seed in SEEDS:
            for data in (mp, bare(mp)):
                y = perturb(data, "y", 0.1, "interior_bump", seed)
                for where, pts in point_sets(mp):
                    assert_matches_formula(y.value, y.divergence, pts, f"{seed} {where}")

    @pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
    def test_default_basis(self, coarse, name):
        mp = coarse[name]
        for n_radial, degree in ((3, 0), (4, 1)):
            for w in default_basis(mp.domain, n_radial, degree).fields:
                for where, pts in point_sets(mp):
                    assert_matches_formula(w.value, w.gradient, pts, f"{w.label} {where}")


class TestZerosOutside:
    @pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
    def test_default_basis_is_zero_outside(self, coarse, name):
        mp = coarse[name]
        for w in default_basis(mp.domain, 4, 1).fields:
            for where, pts in point_sets(mp):
                # the cubic bump and its derivative are 0.0 off the support,
                # up to the sign the angular factor gives a zero
                val, grad = w.value(pts), w.gradient(pts)
                r = node_radii(pts)
                off = (r < w.support[0]) | (r > w.support[1])
                assert np.all(val[off] == 0.0) and np.all(grad[off] == 0.0), where

    @pytest.mark.parametrize("mode", MODES)
    def test_approximation_is_exact_outside(self, coarse, mode):
        # v = u + eps * bump: u itself, bit for bit, where the bump vanishes
        mp = coarse["N3_harmonic"]
        a, R = mp.domain.a, mp.domain.R
        u = mp.exact_u
        for seed in SEEDS:
            v = perturb(mp, "v", 0.1, mode, seed)
            for where, pts in point_sets(mp):
                r = node_radii(pts)
                if mode == "interior_bump":  # support strictly inside (a, R)
                    off = (r <= a) | (r >= R)
                else:  # the ramp is 0 from the middle of the annulus on
                    off = r > (a + 0.5 * (R - a)) * (1 + 1e-9)
                assert v.value(pts)[off].tobytes() == u.value(pts)[off].tobytes(), where
                assert v.gradient(pts)[off].tobytes() == u.gradient(pts)[off].tobytes(), where


class TestArithmetic:
    def test_scaling_keeps_support_and_sums_drop_it(self, coarse):
        mp = coarse["N3_harmonic"]
        w = default_basis(mp.domain, 4, 1).fields[5]
        assert w.support is not None
        assert (2.0 * w).support == w.support
        assert (w + w).support is None and (w - w).support is None
        assert (mp.exact_u + 0.1 * w).support is None


class TestOnlyTheRows:
    """A supported term costs the radial rows of its support: the term
    kernel cuts each distinct support once."""

    @staticmethod
    def recorded(monkeypatch):
        """The (row count, support) of every ``support_rows`` call."""
        calls = []

        def recording(radii, support):
            calls.append((len(radii), support))
            return support_rows(radii, support)

        monkeypatch.setattr(fields_module, "support_rows", recording)
        return calls

    @pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
    def test_minorant_cuts_each_distinct_support_once(self, coarse, monkeypatch, name):
        mp = coarse[name]
        quads = mp.problem.quads
        basis = default_basis(mp.domain, 4, 1)
        supports = list(dict.fromkeys(w.support for w in basis.fields))
        assert len(supports) == 4 < len(basis)
        calls = self.recorded(monkeypatch)
        # the assembly cuts no node of a rule, only the whole rule's radial
        # nodes once per profile (fields.term_products), and the zero-trace
        # check reads the terms at the ends of their supports
        minorant_report(mp.problem, mp.exact_u, basis)
        assert calls == [(len(quads.whole.radial[0]), s) for s in supports]


class TestEnforced:
    """A declared support holds the terms, however the field was made, and
    a field cut off where it is not zero cannot lower-bound the error."""

    def test_any_field_holds_to_its_support(self, coarse):
        # each term is cut to the support, or dropped where the two do not
        # meet; the closures are left as given
        mp = coarse["N3_harmonic"]
        w = default_basis(mp.domain, 4, 1).fields[5]
        lo, hi = w.support
        narrow = (lo, 0.5 * (lo + hi))
        t = w.terms[0]
        made = ScalarField(value=lambda pts: np.ones(len(pts)), support=narrow,
                           terms=(Term(t.p, t.dp, (1.0,), None),))
        for field in (dataclasses.replace(w, support=narrow), made):
            assert [u.support for u in field.terms] == [narrow]
        assert dataclasses.replace(w, support=narrow).value is w.value
        assert dataclasses.replace(w, support=(lo - 1.0, hi + 1.0)).terms == w.terms
        assert dataclasses.replace(w, support=(hi + 1.0, hi + 2.0)).terms == ()
        assert 0.0 < scale_of(mp.problem, dataclasses.replace(w, support=narrow)) < scale_of(
            mp.problem, w)

    def test_minorant_rejects_a_support_cut_where_the_field_is_not_zero(self, coarse):
        # declaring each bump's support half as wide lifted the lower bound
        # from 0.0645 to 2.438 over an error squared of 0.325
        mp = coarse["N3_harmonic"]
        v = perturb(mp, "v", 0.1, "interior_bump", 3)
        basis = default_basis(mp.domain, 4, 1)
        error2 = xb.true_error(mp, v) ** 2
        assert xb.minorant_report(mp.problem, v, basis).value <= error2
        cut = dataclasses.replace(basis, fields=tuple(
            dataclasses.replace(w, support=(w.support[0], 0.5 * sum(w.support)))
            for w in basis.fields))
        with pytest.raises(NonzeroTraceError, match="basis function 0 .* bounding its support"):
            xb.minorant_report(mp.problem, v, cut)
