"""Closures give the same bits on row-major and column-major nodes.

Rules hold their nodes column-major, and callers may pass row-major
points.  Every closure of the catalog is elementwise per node, and the
one kernel whose rounding depends on the layout, the BLAS product in the
perturbed flux's divergence (``problems.perturb``), takes a C-contiguous
operand, so the layout never reaches an output byte.  That product runs
on the rows of the bump's support only, with the bits it has over the
whole rule."""

import numpy as np
import pytest

import extbounds as xb
from extbounds.fields import support_rows
from extbounds.geometry import node_radii
from extbounds.minorant import default_basis
from extbounds.problems import CATALOG, TARGET_MODES, _flux_bump, _random_interior_bump, perturb

from oracles import load

SEEDS = range(3)


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.fixture(scope="module")
def coarse():
    return {name: xb.builtin(name, radial_order=6, angular_order=9, shells=4)
            for name in CATALOG}


def layouts(pts):
    """(row-major, column-major) copies of ``pts``, and of a column-strided
    row view like ``omega_i``'s, all read-only as a rule's nodes are."""
    cols = np.asfortranarray(pts)
    cols.flags.writeable = False
    for col in (cols, cols[len(cols) // 3:]):
        row = np.ascontiguousarray(col)
        row.flags.writeable = False
        assert row.strides[1] == row.itemsize and col.strides[0] == col.itemsize
        yield row, col


def assert_layout_independent(closure, pts, where):
    for row, col in layouts(pts):
        got_row, got_col = (np.asarray(closure(x), dtype=float) for x in (row, col))
        assert np.array_equal(bits(got_row), bits(got_col)), where


def nodes(mp):
    quads = mp.problem.quads
    return np.concatenate([quads.whole.nodes, quads.gamma.nodes, quads.Gamma.nodes])


class TestKernels:
    @pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
    def test_perturbed_flux_divergence(self, coarse, name):
        # grad @ direction: BLAS gives other bits for column-major input
        mp = coarse[name]
        for seed in SEEDS:
            y = perturb(mp, "y", 0.1, "interior_bump", seed)
            assert_layout_independent(y.divergence, mp.problem.quads.whole.nodes, seed)


@pytest.mark.parametrize("name", CATALOG)
def test_flux_bump_divergence_on_its_rows(name):
    # the BLAS product runs on the support rows only, and gives there the
    # bits of the product over the whole rule with zeros off the support
    mp = xb.builtin(name, shells=8)
    for rule in ("whole", "omega_i", "omega_e_refined"):
        pts = getattr(mp.problem.quads, rule).nodes
        for seed in range(40):
            rng = np.random.default_rng(seed)
            bump = _random_interior_bump(mp, rng)
            direction = rng.normal(size=mp.domain.dimension)
            direction /= np.linalg.norm(direction)
            start, stop = support_rows(node_radii(pts), bump.support)
            got = _flux_bump(bump, direction).divergence(pts)
            want = np.ascontiguousarray(bump.gradient(pts)) @ direction  # 0.0 off the rows
            assert np.array_equal(bits(got[start:stop]), bits(want[start:stop])), (rule, seed)


@pytest.mark.parametrize("name", CATALOG)
class TestCatalog:
    def test_exact_data(self, coarse, name):
        mp = coarse[name]
        pts = nodes(mp)
        for closure, where in ((mp.exact_u.value, "u"), (mp.exact_u.gradient, "grad u"),
                               (mp.exact_flux.value, "flux"),
                               (mp.exact_flux.divergence, "div flux"),
                               (load(mp.problem).value, "f")):
            assert_layout_independent(closure, pts, where)

    def test_perturbations(self, coarse, name):
        mp = coarse[name]
        pts = nodes(mp)
        for target, modes in TARGET_MODES.items():
            for mode in modes:
                for seed in SEEDS:
                    out = perturb(mp, target, 0.1, mode, seed)
                    where = f"{target} {mode} {seed}"
                    if target == "v":
                        closures = (out.value, out.gradient)
                    else:
                        ys = out if target == "y_broken" else (out,)
                        closures = [c for y in ys for c in (y.value, y.divergence)]
                    for closure in closures:
                        assert_layout_independent(closure, pts, where)

    def test_default_basis(self, coarse, name):
        mp = coarse[name]
        pts = nodes(mp)
        for n_radial, degree in ((3, 0), (4, 1)):
            for w in default_basis(mp.domain, n_radial, degree).fields:
                assert_layout_independent(w.value, pts, w.label)
                assert_layout_independent(w.gradient, pts, w.label)
