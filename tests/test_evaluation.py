"""The norms on a rule's nodes: the coefficient's column-wise densities
(equal to the einsum and the batched solve over its matrices, which
leaves every energy bit-equal), bit-equal to the formulas they replace,
with no (M, N) temporary.  The tensor reference built on them
(``oracles``) keeps the old formulas' bits, and the bounds, summed from
terms, call no closure of the approximation."""

import dataclasses
import gc
import math
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest

import extbounds as xb
from extbounds.fields import (
    Coefficient,
    QuadratureErrorAt,
    ScalarField,
    VectorField,
    density,
    energy_norm,
    log_weighted_norm,
    require_finite,
    weighted_norm,
)
from extbounds.geometry import build_quadrature, exact_dot, node_radii, row_sum
from extbounds.majorant import scale_of
from extbounds.problems import perturb, with_interface_radius

from conftest import termless
from oracles import tensor_flux_gap, tensor_scale, tensor_true_error

DIAGONALS = [np.ones(3), np.ones(2), 2.0 * np.ones(3), 2.0 * np.ones(2),
             np.array([1.0, 2.0, 4.0]), np.array([1.0, 2.0]),
             np.array([3.0, 5.0, 7.0]), np.array([3.0, 5.0])]
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1.0, -1.0, 3.0])


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def node_values(n, m=4000, seed=0, top=300):
    """Random node values over magnitudes up to 10^top, a third of them
    replaced by signed zeros, subnormals, +-10^top and small integers."""
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-top, top, size=(m, n))
    mask = rng.random((m, n)) < 0.35
    special = np.append(SPECIAL, [10.0**top, -(10.0**top)])
    vals[mask] = rng.choice(special, size=(m, n))[mask]
    return vals


def batched(A, pts):
    return np.asarray(A.matrix(pts), dtype=float)


def assert_diagonal_path_matches(A, vals):
    """The column-wise densities against the einsum and the batched solve
    over the matrices of A: (A q) . q and (A^{-1} q) . q bit for bit at every
    node, overflow included, and (A q) . p by value (-0 equals +0, the one
    difference allowed, which no exact sum can tell)."""
    mats = batched(A, vals)
    other = vals[::-1].copy()
    m = len(vals)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in a pair
        a_q = np.einsum("mij,mj->mi", mats, vals)
        a_inv_q = np.linalg.solve(mats, vals[:, :, None])[:, :, 0]
        energy = density(np.empty(m), zip(vals.T, vals.T), A.diagonal)
        dual = density(np.empty(m), zip(vals.T, vals.T), A.diagonal, divide=True)
        pair = density(np.empty(m), zip(vals.T, other.T), A.diagonal)
        np.testing.assert_array_equal(bits(energy), bits(row_sum(a_q * vals)))
        np.testing.assert_array_equal(bits(dual), bits(row_sum(a_inv_q * vals)))
        np.testing.assert_array_equal(pair, row_sum(a_q * other))


class TestApplySolve:
    """A q and A^{-1} q, which the densities form column by column from the
    diagonal, against the matrices of A."""

    @pytest.mark.parametrize("diag", DIAGONALS, ids=lambda d: str(d.tolist()))
    def test_diagonal_bit_equal_to_einsum_and_batched_solve(self, diag):
        assert_diagonal_path_matches(Coefficient(diag), node_values(len(diag)))

    @pytest.mark.parametrize("mat", [np.eye(3), np.diag([3.0, 5.0, 7.0]),
                                     np.diag([0.5, 2.0, 4.0]), np.diag([1.0, 2.0])])
    @pytest.mark.parametrize("mode", ["A", "A_inverse"])
    def test_energy_norm_bit_equal_to_batched(self, mat, mode):
        # the signs of zero that the elementwise products do not reproduce never
        # reach an energy, whose row sums start from +0; up to 1e140 the
        # density stays finite (larger values raise before any sum)
        A = Coefficient(np.diag(mat))
        rule = build_quadrature(xb.ExteriorDomain(len(mat), 1.0, 2.0), 4, 4, 2, "omega_i")
        mats = batched(A, rule.nodes)
        for seed in range(3):
            vals = node_values(len(mat), m=len(rule), seed=seed, top=140)
            if mode == "A":
                prod = np.einsum("mij,mj->mi", mats, vals)
            else:
                prod = np.linalg.solve(mats, vals[:, :, None])[:, :, 0]
            old_energy = math.sqrt(max(exact_dot(row_sum(prod * vals), rule.weights), 0.0))
            np.testing.assert_array_equal(
                bits(energy_norm(A, vals, mode, rule)), bits(old_energy))

    def test_solve_leaves_input_alone(self):
        A = Coefficient(np.array([3.0, 5.0, 7.0]))
        rule = build_quadrature(xb.ExteriorDomain(3, 1.0, 2.0), 4, 4, 2, "omega_i")
        q, g = (node_values(3, m=len(rule), seed=seed, top=100) for seed in (1, 2))
        before = q.copy(), g.copy()
        for mode in ("A", "A_inverse"):
            energy_norm(A, q, mode, rule, minus_gradient=g)
        np.testing.assert_array_equal(bits(q), bits(before[0]))
        np.testing.assert_array_equal(bits(g), bits(before[1]))

    # the last diagonal lies partly below 1, where the inverse scales up
    @pytest.mark.parametrize("mat", [np.eye(3), np.diag([3.0, 5.0, 7.0]),
                                     np.diag([0.5, 2.0, 4.0])])
    @pytest.mark.parametrize("mode", ["A", "A_inverse"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_reported_at_its_node(self, mat, mode, bad):
        A = Coefficient(np.diag(mat))
        rule = build_quadrature(xb.ExteriorDomain(3, 1.0, 2.0), 4, 4, 2, "omega_i")
        node = 17

        def value(pts):
            out = np.ones_like(pts)
            out[node, 1] = bad
            return out

        with np.errstate(all="ignore"), pytest.raises(
                QuadratureErrorAt, match=f"node {node}") as info:
            energy_norm(A, value(rule.nodes), mode, rule, label="q")
        assert info.value.index == node


def counting(v, rule):
    """v with value and gradient closures that count their calls on
    ``rule``'s nodes and on any nodes."""
    calls = {"rule": 0, "all": 0}

    def counted(fn):
        def closure(pts):
            calls["all"] += 1
            calls["rule"] += pts is rule.nodes
            return fn(pts)

        return closure

    return dataclasses.replace(v, value=counted(v.value), gradient=counted(v.gradient)), calls


class TestGradientOnce:
    """No bound calls a closure of v: every norm comes from the terms, and
    nothing keeps v once its caller drops it."""

    @staticmethod
    def evaluations(mp, v, operation):
        """The calls of the closures of v during ``operation(v)``, on the
        whole rule and on any nodes."""
        v, calls = counting(v, mp.problem.quads.whole)
        operation(v)
        return calls

    def test_estimate_then_true_error(self, n3_harmonic):
        mp = n3_harmonic
        y = perturb(mp, "y", 0.05, "interior_bump", seed=5)

        def operation(v):
            xb.estimate_I(mp.problem, v, y)
            xb.true_error(mp, v)

        assert self.evaluations(mp, perturb(mp, "v", 0.05, "interior_bump", seed=4),
                                operation) == {"rule": 0, "all": 0}

    @pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
    def test_broken_estimate_then_true_error(self, name, catalog):
        mp = catalog[name]
        y_i, y_e = perturb(mp, "y_broken", 0.05, "interface_jump", seed=5)

        def operation(v):
            xb.estimate_III(mp.problem, v, y_i, y_e)
            xb.true_error(mp, v)

        assert self.evaluations(mp, perturb(mp, "v", 0.05, "interior_bump", seed=4),
                                operation) == {"rule": 0, "all": 0}

    def test_minorant_estimate_then_true_error(self, n2_log):
        mp = n2_log
        y = perturb(mp, "y", 0.05, "interior_bump", seed=5)

        def operation(v):
            xb.minorant_report(mp.problem, v, xb.default_basis(mp.domain))
            xb.estimate_I(mp.problem, v, y)
            xb.true_error(mp, v)

        assert self.evaluations(mp, perturb(mp, "v", 0.05, "interior_bump", seed=4),
                                operation) == {"rule": 0, "all": 0}

    def test_reevaluates_for_another_field_or_rule(self, n2_log):
        # another field, or the same on another rule, is summed again from
        # its terms, with the same bits for a copy of the field: no closure
        # of either field is called
        mp = n2_log
        quads = mp.problem.quads
        v, calls = counting(perturb(mp, "v", 0.05, "interior_bump", seed=4), quads.whole)
        other, other_calls = counting(perturb(mp, "v", 0.05, "interior_bump", seed=5),
                                      quads.whole)
        first = xb.true_error(mp, v)
        assert xb.true_error(mp, dataclasses.replace(v)).hex() == first.hex()
        assert xb.true_error(mp, other) != first
        moved = with_interface_radius(mp, 1.5)
        assert moved.problem.quads is not quads
        assert xb.true_error(moved, v) > 0.0 and scale_of(moved.problem, v) > 0.0
        assert calls == other_calls == {"rule": 0, "all": 0}

    def test_entry_goes_with_the_field_or_the_rule(self, n2_log):
        # no store holds v: it goes when its caller drops it, while the
        # rule and the term table kept on its bundle live
        mp = n2_log
        v = perturb(mp, "v", 0.05, "interior_bump", seed=4)
        xb.estimate_I(mp.problem, v, perturb(mp, "y", 0.05, "interior_bump", seed=5))
        assert xb.true_error(mp, v) > 0.0
        held = weakref.ref(v)
        del v
        gc.collect()
        assert held() is None and mp.problem.quads._table is not None

    def test_bounds_call_no_closure_of_v(self, n2_log):
        # v's closures may be missing: every bound reads its terms, with the
        # bits of the same v with closures
        mp = n2_log
        p = mp.problem
        v = perturb(mp, "v", 0.05, "interior_bump", seed=4)
        y = perturb(mp, "y", 0.05, "interior_bump", seed=5)
        y_i, y_e = perturb(mp, "y_broken", 0.05, "interface_jump", seed=6)

        def missing(pts):
            raise AssertionError("a closure of v was called")

        bare = dataclasses.replace(v, value=missing, gradient=missing)
        basis = xb.default_basis(mp.domain)

        def results(w):
            return [xb.estimate_I(p, w, y).as_dict(),
                    xb.estimate_II(p, w, mp.exact_flux).as_dict(),
                    xb.estimate_III(p, w, y_i, y_e).as_dict(), scale_of(p, w),
                    xb.true_error(mp, w), xb.minorant_report(p, w, basis).value]

        assert results(bare) == results(v)


# ---------------------------------------------------------------------------
# the estimates and the true error against the formulas they replace


def old_energy(A, vals, mode, rule):
    """The energy norm as it was: the matrices at every node, an einsum
    for A and a batched solve for its inverse."""
    mats = np.asarray(A.matrix(rule.nodes), dtype=float)
    if mode == "A":
        prod = np.einsum("mij,mj->mi", mats, vals)
    else:
        prod = np.linalg.solve(mats, vals[:, :, None])[:, :, 0]
    return old_sum(row_sum(prod * vals), rule)


def old_sum(dens, rule):
    require_finite(dens, rule.nodes, "", "")
    return math.sqrt(max(exact_dot(dens, rule.weights), 0.0))


def old_gap(A, y, v, rule):
    pts = rule.nodes
    mats = np.asarray(A.matrix(pts), dtype=float)
    return old_energy(A, y.value(pts) - np.einsum("mij,mj->mi", mats, v.gradient(pts)),
                      "A_inverse", rule)


@pytest.mark.parametrize("name", xb.CATALOG)
def test_estimates_and_true_error_bit_equal_to_old_formulas(name, catalog):
    # the tensor reference of a v without terms is bit-equal to the old
    # formulas; the bounds, which refuse that v, take the flux gaps, the
    # scale and the true error from v's terms (fields.term_norm), within
    # 1e-15 of the formulas
    mp = catalog[name]
    p, quads, A = mp.problem, mp.problem.quads, mp.problem.A
    y = perturb(mp, "y", 0.07, "interior_bump", seed=4)
    y_i, y_e = perturb(mp, "y_broken", 0.07, "interface_jump", seed=5)
    v_bump = perturb(mp, "v", 0.07, "interior_bump", seed=2)
    v_mode = perturb(mp, "v", 0.07, "boundary_mode", seed=3)
    pts = quads.whole.nodes
    for v, estimate, fluxes in ((v_bump, xb.estimate_I, (y,)),
                                (v_mode, xb.estimate_II, (mp.exact_flux,)),
                                (v_bump, xb.estimate_III, (y_i, y_e))):
        parts = ("whole",) if len(fluxes) == 1 else ("omega_i", "omega_e")
        gaps = [old_gap(A, f, v, getattr(quads, part)) for f, part in zip(fluxes, parts)]
        flux = math.sqrt(sum(g**2 for g in gaps)) if len(gaps) > 1 else gaps[0]
        scale = old_energy(A, v.gradient(pts), "A", quads.whole)
        error = old_energy(A, (mp.exact_u - v).gradient(pts), "A", quads.whole)
        bare = termless(v)
        assert [tensor_flux_gap(p, bare, f, part) for f, part in zip(fluxes, parts)] == gaps
        assert (tensor_scale(p, bare), tensor_true_error(mp, bare)) == (scale, error)
        with pytest.raises(ValueError, match=r"^v \('.*'\) has no terms"):
            estimate(p, bare, *fluxes)
        report = estimate(p, v, *fluxes)
        for got, want in ((report.flux, flux), (report.scale, scale),
                          (xb.true_error(mp, v), error)):
            assert abs(got - want) <= 1e-15 * abs(want), report.estimate_id


# ---------------------------------------------------------------------------
# every norm against the formula it replaces, at the edges of the floats

EDGE = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e150, -1e150, 1.0, -3.0])
BAD_NODE = 37
EDGE_RULES = {n: build_quadrature(xb.ExteriorDomain(n, 1.0, 2.0), 4, 4, 2, "omega_i")
              for n in (2, 3)}
EDGE_DIAGONALS = {2: np.array([0.5, 3.0]), 3: np.array([0.5, 2.0, 4.0])}


def edge_values(m, n, seed, kind, order):
    """(m, n) values, or (m,) for n = 0, in the memory ``order``: normals
    with a fifth of them replaced by signed zeros, subnormals, +-1e150 and
    small integers, and at node ``BAD_NODE`` a NaN (``kind`` "nan") or a
    1e155, whose square overflows ("overflow")."""
    rng = np.random.default_rng(seed)
    shape = (m, n) if n else (m,)
    vals = rng.normal(size=shape)
    mask = rng.random(shape) < 0.2
    vals[mask] = rng.choice(EDGE, size=shape)[mask]
    if kind != "finite":
        vals[BAD_NODE] = np.nan if kind == "nan" else 1e155
    return np.asfortranarray(vals) if order == "F" else np.ascontiguousarray(vals)


def outcome(norm, *args, **kwargs):
    """The bits of a norm, or the node where it found a non-finite density."""
    try:
        return "value", int(bits(norm(*args, **kwargs))[0])
    except QuadratureErrorAt as exc:
        return "node", exc.index


def old_outcome(norm, *args):
    with np.errstate(all="ignore"):
        return outcome(norm, *args)


def new_outcome(norm, *args, **kwargs):
    # an overflow or an inf - inf lands in the density, quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return outcome(norm, *args, **kwargs)


def old_weighted(f, s, rule):
    pts = rule.nodes
    rho2 = 1.0 + row_sum(pts**2)
    vals = np.asarray(f.value(pts), dtype=float)
    sq = vals**2 if vals.ndim == 1 else row_sum(vals**2)
    return old_sum(sq * rho2**s, rule)


def old_log_weighted(f, rule):
    r = node_radii(rule.nodes)
    vals = np.asarray(f.value(rule.nodes), dtype=float)
    sq = vals**2 if vals.ndim == 1 else row_sum(vals**2)
    return old_sum(sq * (r * np.log(r)) ** 2, rule)


EDGE_CASES = pytest.mark.parametrize("n,order,kind", [
    (n, order, kind) for n in (2, 3) for order in ("C", "F")
    for kind in ("finite", "nan", "overflow")])


@EDGE_CASES
def test_weighted_norms_bit_equal_to_old_formulas(n, order, kind):
    rule = EDGE_RULES[n]
    for width, make in ((0, ScalarField), (n, VectorField)):
        vals = edge_values(len(rule), width, 1, kind, order)
        f = make(value=lambda pts, vals=vals: vals, label="f")
        results = [(new_outcome(weighted_norm, f, s, rule), old_outcome(old_weighted, f, s, rule))
                   for s in (0.0, 1.0, 0.5)]
        if n == 2:
            results.append((new_outcome(log_weighted_norm, f, rule),
                            old_outcome(old_log_weighted, f, rule)))
        for new, old in results:
            assert new == old
            assert new[0] == "value" if kind == "finite" else new == ("node", BAD_NODE)


@EDGE_CASES
def test_energy_gap_and_true_error_bit_equal_to_old_formulas(n, order, kind):
    rule = EDGE_RULES[n]
    A = Coefficient(EDGE_DIAGONALS[n])
    q = edge_values(len(rule), n, 1, kind, order)
    g = edge_values(len(rule), n, 2, "finite", order)
    a_g = np.einsum("mij,mj->mi", batched(A, g), g)
    results = [(new_outcome(energy_norm, A, q, mode, rule), old_outcome(old_energy, A, q, mode, rule))
               for mode in ("A", "A_inverse")]

    # the tensor reference's flux gap and true error, the formulas the
    # bounds used for a field without terms
    v = ScalarField(value=lambda pts: np.zeros(len(pts)), gradient=lambda pts: g.copy())
    y = VectorField(value=lambda pts: q)
    p = types.SimpleNamespace(A=A, quads=types.SimpleNamespace(whole=rule))
    results.append((new_outcome(tensor_flux_gap, p, v, y),
                    old_outcome(old_energy, A, q - a_g, "A_inverse", rule)))

    u = ScalarField(value=v.value, gradient=lambda pts: q)
    mp = types.SimpleNamespace(exact_u=u, problem=p)
    results.append((new_outcome(tensor_true_error, mp, v),
                    old_outcome(old_energy, A, q - g, "A", rule)))
    for new, old in results:
        assert new == old
        assert new[0] == "value" if kind == "finite" else new == ("node", BAD_NODE)


# ---------------------------------------------------------------------------
# what the norms allocate, in float64 values, measured by tracemalloc


def peak_values(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 8
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def harmonic8():
    mp = xb.builtin("N3_harmonic", shells=8)
    v = perturb(mp, "v", 0.1, "interior_bump", seed=3)
    whole = mp.problem.quads.whole
    mp.exact_u.gradient(whole.nodes)  # kept per node array (NodeMemo) before any measurement
    whole.weights  # built on its first read, likewise before any
    return mp, v, whole


class TestAllocations:
    """Each density is one M-vector, built with at most two more scratch
    columns; an (M, N) temporary would show as N more."""

    def test_energy_norm_peak(self, harmonic8):
        mp, v, whole = harmonic8
        q = mp.exact_u.gradient(whole.nodes)
        assert peak_values(lambda: energy_norm(mp.problem.A, q, "A", whole)) <= 3 * len(whole)

    def test_true_error_beyond_closures(self, harmonic8):
        mp, v, whole = harmonic8
        grad_u = mp.exact_u.gradient(whole.nodes)  # what the closure returns, made beforehand
        fixed = dataclasses.replace(mp, exact_u=dataclasses.replace(
            mp.exact_u, gradient=lambda pts: grad_u))
        assert xb.true_error(fixed, v) == xb.true_error(mp, v)
        assert peak_values(lambda: xb.true_error(fixed, v)) <= 3.1 * len(whole)

    def test_flux_term_beyond_closures(self, harmonic8):
        # the tensor reference's flux gap, with both closures' values made
        # beforehand
        mp, v, whole = harmonic8
        y_vals = perturb(mp, "y", 0.1, "interior_bump", seed=4).value(whole.nodes)
        y = VectorField(value=lambda pts: y_vals)
        grad_v = v.gradient(whole.nodes)
        fixed = dataclasses.replace(v, gradient=lambda pts: grad_v)
        assert peak_values(lambda: tensor_flux_gap(mp.problem, fixed, y)) <= 3.1 * len(whole)
