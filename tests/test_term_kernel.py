"""The term kernel (``fields.term_products``) against its reference in
``tests/oracles.py``, which finds the pairs of profiles and of terms one by
one and sums each radial sum with ``math.fsum``: every products table the
bounds ask for, and every value summed from them, must be the same bits."""

import numpy as np
import pytest

import extbounds as xb
import extbounds.fields as fields_module
import extbounds.minorant as minorant_module
import extbounds.problems as problems_module
from extbounds.majorant import scale_of
from extbounds.minorant import _term_system, default_basis
from extbounds.problems import perturb

from oracles import reference_term_products

MODES = ("interior_bump", "boundary_mode")
KERNEL_USERS = (fields_module, minorant_module, problems_module)


@pytest.fixture(scope="module")
def coarse():
    return {name: xb.builtin(name, shells=8) for name in xb.CATALOG}


def by_key(first, second, prods):
    """The rows of ``prods`` as bytes, a sorted list per (first, second)."""
    out = {}
    for key, row in zip(zip(first.tolist(), second.tolist()), prods):
        out.setdefault(key, []).append(row.tobytes())
    return {key: sorted(rows) for key, rows in out.items()}


@pytest.fixture
def compared(monkeypatch):
    """The program's kernel, each products table of which is checked
    against the reference's on the same arguments, as a multiset of rows
    per (first, second) key, and for keys sorted, and whose profiles are
    the reference's bits, also for the products on some radial rows
    (which the reference sums on the rule over those rows); yields the
    number of tables checked, in a list."""
    build, checked = fields_module.term_products, [0]

    def kernel(rule, sets, labels, weight, radial=None):
        products = build(rule, sets, labels, weight, radial)
        reference = reference_term_products(rule, sets, labels, weight, radial)
        (rows, values), (want_rows, want_values) = products.profiles, reference.profiles
        assert rows == want_rows and values.tobytes() == want_values.tobytes()

        def both(term_sets, D, rows=slice(None)):
            got, want = products(term_sets, D, rows), reference(term_sets, D, rows)
            keys = list(zip(got[0].tolist(), got[1].tolist()))
            assert keys == sorted(keys)  # the minorant sums runs of equal keys
            assert got[2].shape == want[2].shape
            assert by_key(*got) == by_key(*want)
            checked[0] += 1
            return got

        both.profiles = products.profiles
        return both

    for module in KERNEL_USERS:
        monkeypatch.setattr(module, "term_products", kernel)
    yield checked


def forget_kept(p):
    """Empty the slot of the table that ``p``'s bundle keeps."""
    object.__setattr__(p.quads, "_table", None)


def with_kernel(monkeypatch, p, kernel, compute):
    """``compute()`` with ``kernel`` as the term kernel and no table kept on
    ``p``'s bundle: every table it reads is ``kernel``'s."""
    with monkeypatch.context() as patch:
        for module in KERNEL_USERS:
            patch.setattr(module, "term_products", kernel)
        forget_kept(p)
        try:
            return compute()
        finally:
            forget_kept(p)


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def norms(mp, v, seed):
    """Every value the estimates and the true error sum from terms, for v:
    the reports of estimate I with the exact flux and with a flux bump, of
    estimate II and of estimate III with the broken flux, the true error
    and the scale."""
    p = mp.problem
    y = perturb(mp, "y", 0.1, "interior_bump", seed)
    broken = perturb(mp, "y_broken", 0.1, "interface_jump", seed)
    reports = [xb.estimate_I(p, v, mp.exact_flux), xb.estimate_I(p, v, y),
               xb.estimate_II(p, v, mp.exact_flux), xb.estimate_III(p, v, *broken)]
    values = [x for rep in reports
              for x in (rep.residual, rep.flux, rep.interface, rep.boundary, rep.total)]
    return values + [xb.true_error(mp, v), scale_of(p, v)]


class TestSameProducts:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", xb.CATALOG)
    def test_norms_and_reports(self, coarse, compared, monkeypatch, name, mode):
        # the flux gaps, the scale, the true error and the residual norms of
        # the flux bumps (bump_residual_norm), all from the program's
        # products, each table of which equals the reference's
        mp = coarse[name]
        v = perturb(mp, "v", 0.1, mode, 3)
        forget_kept(mp.problem)
        got = norms(mp, v, 4)
        assert compared[0] >= 8
        want = with_kernel(monkeypatch, mp.problem, reference_term_products,
                           lambda: norms(mp, v, 4))
        assert bits(got) == bits(want)

    def test_reference_fills_the_kept_table(self, coarse, monkeypatch):
        # with the reference as the kernel, the bundle keeps the reference's
        # table and the flux gap's bump products read its profiles: a flux
        # bump estimate, the scale and the true error give the program's
        # bits from one reference table on the whole rule
        mp = coarse["N3_anisotropic"]
        p = mp.problem
        v = perturb(mp, "v", 0.1, "interior_bump", 3)
        y = perturb(mp, "y", 0.1, "interior_bump", 4)
        tables = []

        def reference(rule, *args):
            tables.append((rule, reference_term_products(rule, *args)))
            return tables[-1][1]

        def values():
            report = xb.estimate_I(p, v, y)
            return ([report.residual, report.flux, report.total, scale_of(p, v),
                     xb.true_error(mp, v)], p.quads._table)

        forget_kept(p)
        got, _ = values()
        forget_kept(p)
        want, kept = with_kernel(monkeypatch, p, reference, values)
        assert bits(got) == bits(want)
        assert [table for rule, table in tables if rule is p.quads.whole] == [kept]

    @pytest.mark.parametrize("error", [False, True])
    @pytest.mark.parametrize("size", [(4, 1), (6, 1)])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", xb.CATALOG)
    def test_minorant_system(self, coarse, compared, monkeypatch, name, mode, size, error):
        # the Gram matrix, the right-hand side and M(w_c) of the basis, with
        # and without u - v in it
        mp = coarse[name]
        v = perturb(mp, "v", 0.1, mode, 5)
        basis = default_basis(mp.domain, *size)
        if error:
            basis = basis.extended(mp.exact_u - v)
        coeff = np.linspace(-1.0, 1.0, len(basis))

        def system():
            gram, rhs, direct_value = _term_system(mp.problem, v, basis)
            return gram, rhs, direct_value(coeff)

        got = system()
        assert compared[0] == 2
        want = with_kernel(monkeypatch, mp.problem, reference_term_products, system)
        assert [bits(x) for x in got] == [bits(x) for x in want]

    @pytest.mark.parametrize("join", [fields_module._JOIN, 7])
    def test_sets_of_several_terms(self, coarse, compared, monkeypatch, join):
        # sets of several terms, with profiles shared between them, some
        # supports disjoint, a diagonal and a full D; the pairs of terms
        # joined in one chunk and in chunks of one or a few terms s
        monkeypatch.setattr(fields_module, "_JOIN", join)
        mp = coarse["N3_anisotropic"]
        v = perturb(mp, "v", 0.1, "interior_bump", 3)
        basis = [w.terms for w in default_basis(mp.domain, 4, 1).fields]
        sets = [mp.exact_u.terms + v.terms, sum(basis[:6], ()), v.terms, sum(basis[6:], ())]
        products = fields_module.term_products(mp.problem.quads.whole, sets, list("abcd"), "")
        e = np.array([0.6, 0.0, 0.8])
        for term_sets in (sets, sets[::-1], sets[1:3]):
            for D in (mp.problem.A.diagonal, np.outer(e, e)):
                products(term_sets, D)
        assert compared[0] == 6

    def test_empty_sets(self, coarse, compared):
        # no terms, or terms whose supports meet no radial node
        rule = coarse["N3_harmonic"].problem.quads.whole
        products = fields_module.term_products(rule, [(), ()], ["", ""], "")
        first, second, prods = products([(), ()], np.ones(3))
        assert first.shape == second.shape == (0,) and prods.shape == (0, 16)
        v = perturb(coarse["N3_harmonic"], "v", 0.1, "interior_bump", 3)
        far = [t._replace(support=(50.0, 50.0)) for t in v.terms]
        products = fields_module.term_products(rule, [far, v.terms], ["", ""], "")
        first, second, prods = products([far, v.terms], np.ones(3))
        assert set(first.tolist()) | set(second.tolist()) <= {1}
        assert compared[0] == 2
