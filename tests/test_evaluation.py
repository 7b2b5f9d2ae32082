"""Each field is evaluated once per operation: the coefficient's diagonal
fast path (equal in value to the formulas it replaces, which leaves every
energy bit-equal), the shared gradient of the approximation, and the
estimates and true error that use it, bit-equal to the formulas they
replace."""

import dataclasses
import math

import numpy as np
import pytest

import extbounds as xb
from extbounds.fields import (
    Coefficient,
    CompositionError,
    QuadratureErrorAt,
    ScalarField,
    VectorField,
    energy_norm,
    gradient_on,
)
from extbounds.geometry import build_quadrature, exact_dot, row_sum
from extbounds.problems import perturb, with_interface_radius

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
    """The diagonal ``apply``/``solve`` against the einsum and the batched
    solve, by value: the values are finite and not NaN, so == is bit
    equality except that -0 equals +0, the one difference allowed."""
    assert A.diagonal is not None
    pts = np.ones_like(vals)
    mats = batched(A, pts)
    np.testing.assert_array_equal(A.apply(pts, vals), np.einsum("mij,mj->mi", mats, vals))
    np.testing.assert_array_equal(
        A.solve(pts, vals), np.linalg.solve(mats, vals[:, :, None])[:, :, 0])


class TestApplySolve:
    @pytest.mark.parametrize("diag", DIAGONALS, ids=lambda d: str(d.tolist()))
    def test_diagonal_bit_equal_to_einsum_and_batched_solve(self, diag):
        assert_diagonal_path_matches(Coefficient.constant(np.diag(diag)),
                                     node_values(len(diag)))

    def test_negative_zero_off_the_diagonal_is_diagonal(self):
        A = Coefficient.constant(np.array([[1.0, -0.0], [-0.0, 2.0]]))
        np.testing.assert_array_equal(bits(A.diagonal), bits([1.0, 2.0]))
        assert_diagonal_path_matches(A, node_values(2))

    @pytest.mark.parametrize("mat", [np.eye(3), np.diag([3.0, 5.0, 7.0]),
                                     np.diag([0.5, 2.0, 4.0]), np.diag([1.0, 2.0])])
    @pytest.mark.parametrize("mode", ["A", "A_inverse"])
    def test_energy_norm_bit_equal_to_batched(self, mat, mode):
        # the signs of zero that the diagonal path does not reproduce never
        # reach an energy, whose row sums start from +0; up to 1e140 the
        # density stays finite (larger values raise before any sum)
        A = Coefficient.constant(mat)
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
        A = Coefficient.constant(np.diag([3.0, 5.0, 7.0]))
        vals = node_values(3)
        before = vals.copy()
        A.solve(vals, vals)
        np.testing.assert_array_equal(bits(vals), bits(before))

    @pytest.mark.parametrize("mat", [
        np.array([[2.0, 0.5, 0.0], [0.5, 3.0, 0.1], [0.0, 0.1, 1.0]]),
        np.array([[1.0, 5e-324], [5e-324, 2.0]]),  # off the diagonal by one subnormal
    ])
    def test_non_diagonal_constant_takes_batched_path(self, mat):
        A = Coefficient.constant(mat)
        assert A.diagonal is None
        vals = node_values(len(mat))
        pts = np.ones_like(vals)
        mats = batched(A, pts)
        np.testing.assert_array_equal(
            bits(A.apply(pts, vals)), bits(np.einsum("mij,mj->mi", mats, vals)))
        np.testing.assert_array_equal(
            bits(A.solve(pts, vals)),
            bits(np.linalg.solve(mats, vals[:, :, None])[:, :, 0]))

    def test_variable_coefficient_takes_batched_path(self):
        def matrix(pts):
            r2 = row_sum(pts**2)
            out = np.zeros((len(pts), 3, 3))
            out[:, 0, 0] = 1.0 + 1.0 / (1.0 + r2)
            out[:, 1, 1] = out[:, 2, 2] = 1.5
            return out

        A = Coefficient(matrix=matrix, c_A=1.0, c_A_plus=2.0, label="variable")
        assert A.diagonal is None
        pts = build_quadrature(xb.ExteriorDomain(3, 1.0, 2.0), 4, 4, 2, "omega_i").nodes
        vals = node_values(3, m=len(pts))
        mats = matrix(pts)
        np.testing.assert_array_equal(
            bits(A.apply(pts, vals)), bits(np.einsum("mij,mj->mi", mats, vals)))
        np.testing.assert_array_equal(
            bits(A.solve(pts, vals)),
            bits(np.linalg.solve(mats, vals[:, :, None])[:, :, 0]))

    def test_singular_variable_coefficient_raises(self):
        def matrix(pts):
            out = np.broadcast_to(np.eye(3), (len(pts), 3, 3)).copy()
            out[3] = 0.0
            return out

        A = Coefficient(matrix=matrix, c_A=1.0, c_A_plus=1.0, label="singular")
        rule = build_quadrature(xb.ExteriorDomain(3, 1.0, 2.0), 4, 4, 2, "omega_i")
        q = VectorField(value=lambda p: np.ones_like(p), label="ones")
        with pytest.raises(ValueError, match="singular at a quadrature node"):
            energy_norm(A, q.value(rule.nodes), "A_inverse", rule)
        with pytest.raises(ValueError, match="singular at a quadrature node"):
            A.solve(rule.nodes, np.ones_like(rule.nodes))

    @pytest.mark.parametrize("mat", [np.eye(3), np.diag([3.0, 5.0, 7.0]),
                                     np.array([[2.0, 0.5, 0.0], [0.5, 3.0, 0.1],
                                               [0.0, 0.1, 1.0]])])
    @pytest.mark.parametrize("mode", ["A", "A_inverse"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_reported_at_its_node(self, mat, mode, bad):
        A = Coefficient.constant(mat)
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
    """v with a gradient closure that counts its calls on ``rule``'s nodes
    and on any nodes."""
    calls = {"rule": 0, "all": 0}
    grad = v.gradient

    def gradient(pts):
        calls["all"] += 1
        calls["rule"] += pts is rule.nodes
        return grad(pts)

    return dataclasses.replace(v, gradient=gradient), calls


class TestGradientOnce:
    def test_estimate_then_true_error(self, n3_harmonic):
        mp = n3_harmonic
        whole = mp.problem.quads.whole
        v, calls = counting(perturb(mp, "v", 0.05, "interior_bump", seed=4), whole)
        y = perturb(mp, "y", 0.05, "interior_bump", seed=5)
        xb.estimate_I(mp.problem, v, y)
        xb.true_error(mp, v)
        assert calls == {"rule": 1, "all": 1}

    @pytest.mark.parametrize("name", ["N3_harmonic", "N2_log"])
    def test_broken_estimate_then_true_error(self, name, catalog):
        # estimate III's two part rules are row blocks of the whole rule,
        # whose one evaluation it slices
        mp = catalog[name]
        whole = mp.problem.quads.whole
        v, calls = counting(perturb(mp, "v", 0.05, "interior_bump", seed=4), whole)
        y_i, y_e = perturb(mp, "y_broken", 0.05, "interface_jump", seed=5)
        xb.estimate_III(mp.problem, v, y_i, y_e)
        xb.true_error(mp, v)
        assert calls == {"rule": 1, "all": 1}

    def test_minorant_estimate_then_true_error(self, n2_log):
        mp = n2_log
        whole = mp.problem.quads.whole
        v, calls = counting(perturb(mp, "v", 0.05, "interior_bump", seed=4), whole)
        y = perturb(mp, "y", 0.05, "interior_bump", seed=5)
        xb.minorant_report(mp.problem, v, xb.default_basis(mp.domain))
        xb.estimate_I(mp.problem, v, y)
        xb.true_error(mp, v)
        assert calls == {"rule": 1, "all": 1}

    def test_reevaluates_for_another_field_or_rule(self, n2_log):
        mp = n2_log
        quads = mp.problem.quads
        v, calls = counting(perturb(mp, "v", 0.05, "interior_bump", seed=4), quads.whole)
        first = gradient_on(v, quads.whole)
        assert not first.flags.writeable
        assert gradient_on(v, quads.whole) is first
        assert calls["all"] == 1

        same = dataclasses.replace(v)  # equal, but a distinct object
        assert same == v and same is not v
        np.testing.assert_array_equal(gradient_on(same, quads.whole), first)
        assert calls["all"] == 2

        other, other_calls = counting(perturb(mp, "v", 0.05, "interior_bump", seed=5),
                                      quads.whole)
        gradient_on(other, quads.whole)
        assert other_calls["all"] == 1
        gradient_on(v, quads.whole)
        assert calls["all"] == 3

        gradient_on(v, quads.omega_i)
        assert calls["all"] == 4
        moved = with_interface_radius(mp, 1.5).problem.quads.whole
        assert gradient_on(v, moved).shape == moved.nodes.shape
        assert calls["all"] == 5
        assert calls["rule"] == 3

    def test_needs_gradient_closure(self, n2_log):
        no_grad = ScalarField(value=lambda p: np.ones(len(p)), label="flat")
        with pytest.raises(CompositionError):
            gradient_on(no_grad, n2_log.problem.quads.whole)


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
    return math.sqrt(max(exact_dot(row_sum(prod * vals), rule.weights), 0.0))


def old_gap(A, y, v, rule):
    pts = rule.nodes
    mats = np.asarray(A.matrix(pts), dtype=float)
    return old_energy(A, y.value(pts) - np.einsum("mij,mj->mi", mats, v.gradient(pts)),
                      "A_inverse", rule)


@pytest.mark.parametrize("name", xb.CATALOG)
def test_estimates_and_true_error_bit_equal_to_old_formulas(name, catalog):
    mp = catalog[name]
    p, quads, A = mp.problem, mp.problem.quads, mp.problem.A
    v_bump = perturb(mp, "v", 0.07, "interior_bump", seed=2)
    v_mode = perturb(mp, "v", 0.07, "boundary_mode", seed=3)
    y = perturb(mp, "y", 0.07, "interior_bump", seed=4)
    y_i, y_e = perturb(mp, "y_broken", 0.07, "interface_jump", seed=5)

    cases = [
        (xb.estimate_I(p, v_bump, y), v_bump,
         old_gap(A, y, v_bump, quads.whole)),
        (xb.estimate_II(p, v_mode, mp.exact_flux), v_mode,
         old_gap(A, mp.exact_flux, v_mode, quads.whole)),
        (xb.estimate_III(p, v_bump, y_i, y_e), v_bump,
         math.sqrt(old_gap(A, y_i, v_bump, quads.omega_i) ** 2
                   + old_gap(A, y_e, v_bump, quads.omega_e) ** 2)),
    ]
    for report, v, flux in cases:
        assert report.flux == flux
        pts = quads.whole.nodes
        assert report.scale == old_energy(A, v.gradient(pts), "A", quads.whole)
        assert xb.true_error(mp, v) == old_energy(
            A, (mp.exact_u - v).gradient(pts), "A", quads.whole)
