"""Fields with a radial support are evaluated only on the rows it covers:
the same values as their formula there, and exact zeros elsewhere."""

import dataclasses
import importlib

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import extbounds as xb
import extbounds.fields as fields_module
from extbounds.fields import ScalarField, VectorField, support_rows
from extbounds.geometry import node_radii
from extbounds.minorant import NonzeroTraceError, default_basis, minorant_report
from extbounds.problems import perturb

from conftest import unrestricted

minorant_module = importlib.import_module("extbounds.minorant")

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
    """The closures as restricted give the values of the formula on every row."""
    restricted = value(pts), derivative(pts)
    with unrestricted():
        formula = value(pts), derivative(pts)
    for got, want in zip(restricted, formula):
        assert_array_equal(got, want, err_msg=where)


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
                start, stop = support_rows(node_radii(pts), w.support)
                skipped = np.ones(len(pts), dtype=bool)
                skipped[start:stop] = False
                val, grad = w.value(pts), w.gradient(pts)
                r = node_radii(pts)
                off = (r < w.support[0]) | (r > w.support[1])
                assert np.all(val[off] == 0.0) and np.all(grad[off] == 0.0), where
                # the rows never evaluated hold +0.0
                assert not np.signbit(val[skipped]).any(), where
                assert not np.signbit(grad[skipped]).any(), where

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


class TestRowsSeen:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
    def test_angular_closures_skip_the_exterior(self, coarse, monkeypatch, name, mode):
        mp = coarse[name]
        quads = mp.problem.quads
        seen = []
        original = fields_module.ratio_gradient

        def counted(pts, i, m):
            seen.append(len(pts))
            return original(pts, i, m)

        monkeypatch.setattr(fields_module, "ratio_gradient", counted)
        for seed in SEEDS:
            v = perturb(mp, "v", 0.1, mode, seed)
            for rule in ("omega_e", "omega_e_refined"):
                seen.clear()
                v.gradient(getattr(quads, rule).nodes)
                assert sum(seen) == 0, rule
            seen.clear()
            v.gradient(quads.omega_i.nodes)
            rows = set(seen)
            assert len(rows) == 1, rows  # one view for every angular closure
            share = rows.pop() / len(quads.omega_i)
            if mode == "boundary_mode":
                assert share == 0.5
            else:
                assert 0.25 < share < 0.6


class TestArithmetic:
    def test_scaling_keeps_support_and_sums_drop_it(self, coarse):
        mp = coarse["N3_harmonic"]
        w = default_basis(mp.domain, 4, 1).fields[5]
        assert w.support is not None
        assert (2.0 * w).support == w.support
        assert (w + w).support is None and (w - w).support is None
        assert (mp.exact_u + 0.1 * w).support is None


class TestOnlyTheRows:
    """A supported operand costs its rows: a sum returns the other
    operand's own values off them, and each support is cut once."""

    @pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
    def test_sums_return_the_kept_values_off_the_support(self, coarse, name):
        mp = coarse[name]
        tail = mp.problem.quads.omega_e.nodes
        for seed in SEEDS:
            y = perturb(mp, "y", 0.1, "interior_bump", seed)
            assert np.shares_memory(y.divergence(tail), mp.exact_flux.divergence(tail))
            for mode in MODES:
                v = perturb(mp, "v", 0.1, mode, seed)
                assert np.shares_memory(v.gradient(tail), mp.exact_u.gradient(tail)), mode

    @staticmethod
    def recorded(monkeypatch):
        """The (row count, support) of every ``support_rows`` call."""
        calls = []

        def recording(radii, support):
            calls.append((len(radii), support))
            return support_rows(radii, support)

        monkeypatch.setattr(fields_module, "support_rows", recording)
        return calls

    def test_scaling_cuts_once_per_call(self, coarse, monkeypatch):
        mp = coarse["N3_harmonic"]
        w = 0.5 * default_basis(mp.domain, 4, 1).fields[5]
        calls = self.recorded(monkeypatch)
        for pts in (mp.problem.quads.whole.nodes, mp.problem.quads.omega_i.nodes):
            for closure in (w.value, w.gradient):
                calls.clear()
                closure(pts)
                assert calls == [(len(pts), w.support)]

    @pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
    def test_minorant_cuts_each_distinct_support_once(self, coarse, monkeypatch, name):
        mp = coarse[name]
        quads = mp.problem.quads
        basis = default_basis(mp.domain, 4, 1)
        supports = list(dict.fromkeys(w.support for w in basis.fields))
        assert len(supports) == 4 < len(basis)
        calls = self.recorded(monkeypatch)
        stacked = []
        stack_rows = minorant_module.stack_rows
        monkeypatch.setattr(minorant_module, "stack_rows",
                            lambda arrays: stacked.append(len(arrays)) or stack_rows(arrays))
        minorant_report(mp.problem, mp.exact_u, basis)
        # once on the whole rule for the assembly, once on gamma for the
        # zero-trace check, and no closure cuts its rows again
        assert calls == [(len(rule), s) for rule in (quads.whole, quads.gamma) for s in supports]
        # one edge array per support: the inner one reaches r = a
        assert stacked == [1, 2, 2, 2]


class TestEnforced:
    """A declared support is held to, however the field was made, and a
    field cut off where it is not zero cannot lower-bound the error."""

    def test_any_field_holds_to_its_support(self, coarse):
        mp = coarse["N3_harmonic"]
        w = default_basis(mp.domain, 4, 1).fields[5]
        lo, hi = w.support
        narrow = (lo, 0.5 * (lo + hi))
        made = ScalarField(value=lambda pts: np.ones(len(pts)),
                           gradient=lambda pts: np.ones(np.shape(pts)), support=narrow)
        for field in (dataclasses.replace(w, support=narrow), made):
            for where, pts in point_sets(mp):
                r = node_radii(pts)
                off = (r < narrow[0] * (1 - 1e-9)) | (r > narrow[1] * (1 + 1e-9))
                assert not field.value(pts)[off].any(), where
                assert not field.gradient(pts)[off].any(), where
        inside = mp.problem.quads.whole.nodes
        assert_array_equal(dataclasses.replace(w, support=(lo - 1.0, hi + 1.0)).value(inside),
                           w.value(inside))

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
