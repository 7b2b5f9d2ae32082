"""Guaranteed lower bounds for the squared energy-norm error.

The bound maximizes the flux form of Repin's functional-type minorant,

    M(w) = 2 (F - A grad v, grad w) - (A grad w, grad w),

over a finite-dimensional space of test functions with zero trace on the
inner boundary, which ``minorant_report`` checks.  For a load in
divergence form, f = -div F, it is the load form 2 (f, w) -
(A grad(2v + w), grad w) integrated by parts, built from the basis
gradients alone.  M never exceeds the squared error, and it attains it
when u - v lies in the span, so enlarging the basis can only help.
The load form holds the pair 2 [(f, w) - (A grad u, grad w)], zero in
exact arithmetic but O(eps delta) under quadrature of relative accuracy
delta, which lifts the bound by a relative O(delta/eps) for w = u - v of
size eps.  The flux form has no such pair: with F = A grad u it is
||e||^2 - ||e - w||^2 in the rule's norm, at most ||e||^2, the squared
error there.  When the approximation violates the Dirichlet data, u - v has a
nonzero trace and cannot join the basis; the report flags that caveat.

The input picks one of two assemblies.  When every basis function and v
have terms and the flux has a potential (``fields.Term``), as for every
catalog problem, ``perturb``'s v and ``default_basis``, and the whole
rule's angular factor integrates the degree-4 sphere moments exactly
(angular_order >= 3), each integral is a sum over pairs of terms of
radial sums times closed-form sphere moments (``_term_system``): the
same discrete integral, so only rounding differs.  Any other input is
summed on the tensor rule (``_tensor_system``).  Either way every basis
function goes through the one zero-trace check on its closures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import traces
from .fields import (
    QuadratureErrorAt,
    ScalarField,
    _columns,
    cubic_bump,
    cubic_bump_deriv,
    cut,
    density,
    gradient_on,
    merged,
    profile,
    require_finite,
    scaled_terms,
    separable_field,
    support_rows,
)
from .geometry import exact_dot, exact_sum, stack_rows
from .problems import Problem
from .majorant import TRACE_ZERO_TOL, dirichlet_mismatch

GRAM_EIG_RTOL = 1e-12


class SingularGramError(np.linalg.LinAlgError):
    """The test functions are (numerically) linearly dependent."""


class NonzeroTraceError(ValueError):
    """A test function does not vanish on the inner boundary, or on a
    sphere bounding its support."""


@dataclass(frozen=True)
class TestBasis:
    """Test functions with zero trace on the inner boundary.

    ``minorant_report`` assembles a basis whose fields all have terms from
    the terms where the rule allows it (see the module docstring).
    Otherwise it evaluates a field with a ``support`` only on the nodes
    whose radius lies in it, and a field without one on the whole rule."""

    __test__ = False  # not a pytest collection target

    fields: tuple[ScalarField, ...]

    def __len__(self) -> int:
        return len(self.fields)

    def extended(self, extra: ScalarField) -> "TestBasis":
        return TestBasis(fields=self.fields + (extra,))


def _cuts(nodes: np.ndarray, basis: TestBasis) -> list:
    """``fields.cut`` of ``nodes`` per basis function, made once per
    distinct support and shared."""
    cuts = {s: cut(nodes, s) for s in dict.fromkeys(w.support for w in basis.fields)}
    return [cuts[w.support] for w in basis.fields]


def validate_zero_traces(p: Problem, basis: TestBasis) -> None:
    """Check that every basis function vanishes on the inner sphere: it is
    exactly 0.0 at every node of ``gamma``, or its trace there has an
    H^{1/2} norm below ``TRACE_ZERO_TOL`` and an energy above the band of
    at most ``TRACE_ZERO_TOL`` squared.  A function with a ``support``, which
    is 0.0 outside it, must also vanish on the spheres bounding it inside
    the domain (r > a): its value and gradient there, at the directions of
    ``gamma``'s nodes, are at most ``TRACE_ZERO_TOL``, or it would be cut
    off where it is not zero and not lie in H^1.  Raises
    ``NonzeroTraceError`` for the first function that fails (a NaN fails
    too)."""
    gamma = p.quads.gamma
    a = p.domain.a
    spheres = {}  # support -> its bounding spheres inside the domain, stacked
    for k, (w, (_, _, on_gamma)) in enumerate(zip(basis.fields, _cuts(gamma.nodes, basis))):
        value, gradient = w.formula()
        radii = [r for r in w.support or () if r > a]
        if radii:
            if w.support not in spheres:
                spheres[w.support] = stack_rows([gamma.nodes * (r / a) for r in radii])
                spheres[w.support].flags.writeable = False  # the closures share its radii
            edges = spheres[w.support]
            edge = max(np.max(np.abs(value(edges))), np.max(np.abs(gradient(edges))))
            if not edge <= TRACE_ZERO_TOL:
                raise NonzeroTraceError(
                    f"basis function {k} ({w.label!r}) reaches {edge:.3e} in value or "
                    f"gradient on the spheres r = {radii} bounding its support (must be "
                    f"<= {TRACE_ZERO_TOL})")
        if not (len(on_gamma) and np.any(value(on_gamma))):
            continue
        t = traces.analyze(w, p.domain.a, p.trace_degree, gamma)
        norm = traces.sobolev_norm(t, +0.5)
        if not (norm < TRACE_ZERO_TOL and t.above_band <= TRACE_ZERO_TOL**2):
            raise NonzeroTraceError(
                f"basis function {k} ({w.label!r}) has trace norm {norm:.3e} and energy "
                f"{t.above_band:.3e} above trace.L on the inner boundary (must be < "
                f"{TRACE_ZERO_TOL} and <= {TRACE_ZERO_TOL**2:.0e})")


def default_basis(domain, n_radial: int = 4, degree: int = 1) -> TestBasis:
    """Radial C^2 bump profiles (1 - t^2)^3 on sub-annuli of (a, R),
    tensored with the angular factors 1 and x_j / r of degree <= ``degree``.

    The bump centred at c with half-width h, and each of its products,
    has value and gradient exactly 0 for radii outside [c - h, c + h]:
    that interval is the field's ``support``."""
    if n_radial < 1:
        raise ValueError("n_radial must be >= 1")
    if degree not in (0, 1):
        raise ValueError(f"degree must be 0 or 1, got {degree}")
    edges = np.linspace(domain.a, domain.R, n_radial + 1)
    fields = []
    n_ang = 1 + (domain.dimension if degree >= 1 else 0)
    for k in range(n_radial):
        center = 0.5 * (edges[k] + edges[k + 1])
        half = 0.5 * (edges[k + 1] - edges[k])
        p, dp = profile(cubic_bump, cubic_bump_deriv, center, half)
        for j in range(n_ang):
            fields.append(separable_field(
                p, dp, np.eye(domain.dimension + 1)[j], label=f"basis[r{k},a{j}]",
                support=(float(center - half), float(center + half)),
            ))
    return TestBasis(fields=tuple(fields))


@dataclass(frozen=True)
class MinorantReport:
    value: float  # lower bound for the squared error, clamped at 0
    coefficients: np.ndarray
    direct_value: float  # M(w*) evaluated by quadrature at the maximizer
    gram_min_eig: float
    basis_size: int
    boundary_caveat: bool  # true when the approximation misses the data

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "direct_value": self.direct_value,
            "gram_min_eig": self.gram_min_eig,
            "basis_size": self.basis_size,
            "boundary_caveat": self.boundary_caveat,
            "coefficients": [float(c) for c in self.coefficients],
        }


@np.errstate(over="raise")
def minorant_report(p: Problem, v: ScalarField, basis: TestBasis) -> MinorantReport:
    """Maximize M over the span of the basis and report the details.

    Every basis function must vanish on the inner sphere, which
    :func:`validate_zero_traces` checks: M bounds the error only over
    such functions.  The Gram matrix G, the right-hand side and M(w_c)
    come from the terms when every basis function and v have terms, the
    flux has a potential and the whole rule's angular factor integrates
    the sphere moments exactly (``_term_system``), and from the tensor
    rule otherwise (``_tensor_system``).  The value is the smaller of
    rhs . c and M(w_c) summed directly.  A product of finite values that
    overflows raises ``FloatingPointError``."""
    if len(basis) == 0:
        raise ValueError("basis must be nonempty")
    with_terms = (v.terms and p.flux.potential and all(w.terms for w in basis.fields)
                  and _moments_exact(p.quads.whole))
    gram, rhs, direct_value = (_term_system if with_terms else _tensor_system)(p, v, basis)
    n = len(basis)

    # the gate reads the Gram scaled to a unit diagonal, D^{-1/2} G D^{-1/2}
    # with D = diag G, so that a small basis function, such as u - v at a
    # small eps, is not taken for a dependent one
    diag = np.diag(gram)
    if not np.all(diag > 0.0):  # u - v at eps = 0, say
        k = int(np.argmin(diag))
        raise SingularGramError(
            f"basis function {k} ({basis.fields[k].label!r}) has zero energy on the rule")
    inv = 1.0 / np.sqrt(diag)
    scaled = np.linalg.eigvalsh(gram * inv[:, None] * inv[None, :])
    if not scaled[0] > GRAM_EIG_RTOL * scaled[-1]:
        raise SingularGramError(
            f"Gram matrix of the basis energies is numerically singular "
            f"(eigenvalues of its unit-diagonal scaling in [{scaled[0]:.3e}, "
            f"{scaled[-1]:.3e}])"
        )
    eigs = np.linalg.eigvalsh(gram)
    coeff = np.linalg.solve(gram, rhs)
    direct = direct_value(coeff)

    # after the assembly, which names the node of a non-finite value first
    validate_zero_traces(p, basis)
    return MinorantReport(
        value=max(min(float(rhs @ coeff), direct), 0.0),
        coefficients=coeff,
        direct_value=direct,
        gram_min_eig=float(eigs[0]),
        basis_size=n,
        boundary_caveat=dirichlet_mismatch(p, v) is not None,
    )


def sphere_moments(d: np.ndarray) -> np.ndarray:
    """(4, N + 1): the diagonals of M_1, M_2, M_2^T and M_4, the moments
    over the unit sphere S of phi phi^T (omega . D omega), phi (omega . D
    grad_S phi)^T and grad_S phi . D grad_S phi, for D = diag(d), phi =
    (1, omega_1, ..., omega_N) and grad_S omega_i = e_i - omega_i omega.
    With t = tr D and k = N (N + 2) they are

        m_1 = |S| (t / N, (t + 2 d_i) / k),  m_2 = |S| (0, (N d_i - t) / k),
        m_4 = |S| (0, ((N^2 - 2) d_i + t) / k),

    from the moments |S|/N of omega_i^2, |S|/k of omega_i^2 omega_j^2
    (i != j) and 3 |S|/k of omega_i^4 (Folland, "How to integrate a
    polynomial over a sphere", Amer. Math. Monthly 108, 2001); every entry
    off the diagonals is 0."""
    n = len(d)
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    t, k = float(np.sum(d)), n * (n + 2)
    m1 = [area * t / n] + [area * (t + 2.0 * di) / k for di in d]
    m2 = [0.0] + [area * (n * di - t) / k for di in d]
    m4 = [0.0] + [area * ((n * n - 2) * di + t) / k for di in d]
    return np.array([m1, m2, m2, m4])


def _moments_exact(rule) -> bool:
    """Whether ``rule`` is a tensor rule whose angular factor integrates
    the integrands of ``sphere_moments``, of degree 4 in omega, exactly.
    It is exact to degree 2 angular_order - 1 (``geometry``'s unit sphere
    rule), so for angular_order >= 3; with fewer directions the moments
    are not the rule's integrals, and the terms would not give the rule's
    G, rhs and M, which the true error and the majorants are summed on."""
    return (rule.radial is not None and rule.angular is not None
            and 2 * rule.angular_order - 1 >= 4)


def _term_system(p: Problem, v: ScalarField, basis: TestBasis):
    """(G, rhs, M) from the terms: G_jk = a(w_j, w_k), rhs_j = a(u - v, w_j)
    with u - v the flux's potential minus v's terms, merged, and M(c) =
    2 a(u - v, w_c) - a(w_c, w_c) from the merged terms of w_c = sum_j c_j
    w_j.  For terms s = p (alpha . phi) and t = q (beta . phi),

        a(s, t) = sum_k W_k [p' q' alpha^T M_1 beta + (p' q / r) alpha^T M_2 beta
                             + (p q' / r) alpha^T M_2^T beta + (p q / r^2) alpha^T M_4 beta]

    over the radial nodes r_k of the whole rule, weights W_k, that
    ``fields.support_rows`` finds in both supports (``sphere_moments``
    gives the M).  Only the pairs of profiles that share nodes, and the
    pairs of terms with such profiles, are multiplied out: the radial
    sums of the profile pairs are one 2-D ``exact_dot``, and each entry of
    G and rhs, and M(c), is the exact sum of its own products of a radial
    sum, a moment and two coefficients.  A non-finite profile value raises
    ``QuadratureErrorAt`` at the first node of its radius."""
    r, weights = p.quads.whole.radial
    directions = len(p.quads.whole.angular[0])
    error = merged(p.flux.potential + scaled_terms(-1.0, v.terms))
    sets = [w.terms for w in basis.fields] + [error]
    labels = [w.label for w in basis.fields] + [f"({p.flux.label}-A grad {v.label})"]
    profiles = {}  # (p, dp, support) -> its row in values
    for terms, label in zip(sets, labels):
        for t in terms:
            profiles.setdefault((t.p, t.dp, t.support), (len(profiles), label))
    values = np.zeros((2, len(profiles), len(r)))  # p and p' at the radial nodes
    rows = []
    for (fn, dfn, support), (i, label) in profiles.items():
        lo, hi = (0, len(r)) if support is None else support_rows(r, support)
        for out, f in zip(values, (fn, dfn)):
            out[i, lo:hi] = f(r[lo:hi])
            bad = np.flatnonzero(~np.isfinite(out[i, lo:hi]))
            if len(bad):
                node = (lo + int(bad[0])) * directions
                raise QuadratureErrorAt(node, p.quads.whole.nodes[node], label,
                                        "minorant:terms")
        rows.append((lo, hi))
    lo, hi = np.array(rows, dtype=np.intp).reshape(-1, 2).T
    i, j = np.triu_indices(len(rows))
    shared = np.maximum(lo[i], lo[j]) < np.minimum(hi[i], hi[j])
    pairs = np.column_stack([i[shared], j[shared]])  # the profiles sharing rows
    (p_i, p_j), (d_i, d_j) = values[0][pairs.T], values[1][pairs.T]
    dens = np.stack([d_i * d_j, d_i * p_j / r, p_i * d_j / r, p_i * p_j / (r * r)], axis=1)
    # the product of each radial sum with its moment, per pair of profiles
    # and angular index; a(s, t) is symmetric (M_2 is diagonal), so a pair
    # serves both orders
    moments = exact_dot(dens.reshape(-1, len(r)), weights).reshape(-1, 4, 1) * sphere_moments(
        p.A.diagonal)
    index = {}  # (row, row) -> the pair's row in moments, in both orders
    for k, (a, b) in enumerate(pairs.tolist()):
        index[a, b] = index[b, a] = k

    def products(term_sets):
        """(first, second, products): for each term s of set A and t of set
        B, A <= B, whose profiles share rows, A, B and the products of
        a(s, t), a row each, sorted by (A, B)."""
        flat = [(k, profiles[t.p, t.dp, t.support][0], t.angular)
                for k, terms in enumerate(term_sets) for t in terms]
        members = {}  # profile row -> its terms in flat
        for x, (_, row, _) in enumerate(flat):
            members.setdefault(row, []).append(x)
        found = sorted((flat[s][0], flat[t][0], k, s, t) for (a, b), k in index.items()
                       for s in members.get(a, ()) for t in members.get(b, ())
                       if flat[s][0] <= flat[t][0])
        first, second, pair, s, t = np.array(found, dtype=np.intp).reshape(-1, 5).T
        coef = np.zeros((len(flat), moments.shape[-1]))
        for x, (_, _, angular) in enumerate(flat):
            coef[x, :len(angular)] = angular
        prods = moments[pair] * (coef[s] * coef[t])[:, None, :]
        return first, second, prods.reshape(len(pair), 4 * moments.shape[-1])

    n = len(basis)
    first, second, sums = _grouped_sums(*products(sets))
    system = np.zeros((n + 1, n + 1))
    system[first, second] = system[second, first] = sums

    def direct_value(coeff):
        w_c = merged(t._replace(angular=tuple(c * x for x in t.angular))
                     for c, terms in zip(coeff.tolist(), sets[:n]) for t in terms)
        first, second, prods = products([error, w_c])
        mixed = prods[(first == 0) & (second == 1)].ravel()
        return float(exact_sum(np.concatenate([2.0 * mixed, -prods[first == 1].ravel()])))

    return system[:n, :n], system[:n, n], direct_value


def _grouped_sums(first, second, rows) -> tuple:
    """(first, second, sums) per run of equal keys (first, second), which
    come sorted: the run's keys and the exact sum of its ``rows``."""
    if not len(first):
        return first, second, np.zeros(0)
    starts = np.flatnonzero(np.r_[True, (first[1:] != first[:-1]) | (second[1:] != second[:-1])])
    counts = np.diff(np.r_[starts, len(first)])
    sums = np.empty(len(starts))
    for c in np.unique(counts):  # the runs of one length in one 2-D sum
        at = starts[counts == c]
        sums[counts == c] = exact_sum(rows[at[:, None] + np.arange(c)].reshape(len(at), -1))
    return first[starts], second[starts], sums


def _tensor_system(p: Problem, v: ScalarField, basis: TestBasis):
    """(G, rhs, M) summed over the tensor rule.  Only basis gradients are
    evaluated: one with a ``support`` on the rows of the whole rule that
    ``fields.support_rows`` gives for it, found once per distinct support,
    one without on the whole rule, and F on the rows the basis covers.
    Every integral is an ``exact_dot`` over the rows its basis functions
    share: the products skipped elsewhere are exact zeros, so each sum is
    the correctly rounded value over the whole rule, and a pair sharing no
    rows has the Gram entry 0.0.  The integrals over one row range are
    summed in one 2-D ``exact_dot``, a row each, from densities built
    column by column (``fields.density``)."""
    d = p.A.diagonal
    rule = p.quads.whole
    pts, wts = rule.nodes, rule.weights
    gv = gradient_on(v, rule)
    require_finite(gv, pts, v.label, "minorant:A grad")  # A grad v is finite where grad v is

    n = len(basis)
    rows, grads = [], []
    for w, (start, stop, sub) in zip(basis.fields, _cuts(pts, basis)):
        grad = np.asarray(w.formula()[1](sub), dtype=float)
        require_finite(grad, sub, w.label, "minorant:gradient", start=start)
        rows.append((start, stop))
        grads.append(grad)
    lo, hi = min(lo_j for lo_j, _ in rows), max(hi_j for _, hi_j in rows)
    flux = np.asarray(p.flux.value(pts[lo:hi]), dtype=float)
    require_finite(flux, pts[lo:hi], p.flux.label, "minorant:flux", start=lo)

    # the densities of the Gram entries and of the right-hand sides, by the
    # rows [lo_s, hi_s) they are summed over: (A grad w_j) . grad w_k and
    # (F - A grad v) . grad w_j
    shared = {}
    for j, (lo_j, hi_j) in enumerate(rows):
        for k in range(j, n):
            lo_k, hi_k = rows[k]
            lo_s, hi_s = max(lo_j, lo_k), min(hi_j, hi_k)
            if lo_s < hi_s:
                shared.setdefault((lo_s, hi_s), []).append(((j, k), d, zip(
                    grads[j][lo_s - lo_j:hi_s - lo_j].T, grads[k][lo_s - lo_k:hi_s - lo_k].T)))
        shared.setdefault((lo_j, hi_j), []).append((("rhs", j), None, zip(
            _columns(flux[lo_j - lo:hi_j - lo], gv[lo_j:hi_j], d), grads[j].T)))
    sums = {}
    for (lo_s, hi_s), group in shared.items():
        dens = np.empty((len(group), hi_s - lo_s))
        for row, (_, diag, pairs) in zip(dens, group):
            density(row, pairs, diag)
        sums.update(zip([key for key, _, _ in group], exact_dot(dens, wts[lo_s:hi_s]).tolist()))
    gram = np.array([[sums.get((min(j, k), max(j, k)), 0.0) for k in range(n)]
                     for j in range(n)])
    rhs = np.array([sums["rhs", j] for j in range(n)])

    def direct_value(coeff):
        # M(w_c) directly by quadrature, over the rows the basis covers
        dens = density(np.empty(hi - lo),
                       _mixed_columns(flux, gv[lo:hi], d, coeff, rows, grads, lo))
        return float(exact_dot(dens, wts[lo:hi]))

    return gram, rhs, direct_value


def _mixed_columns(flux, gv, d, coeff, rows, grads, lo):
    """The column pairs (2 (F - A grad v) - A grad w, grad w) of
    w = sum_j c_j w_j over the rows from ``lo`` on that ``flux`` and ``gv``
    hold, one coordinate at a time; grad w adds the terms c_j grad w_j in
    the order of j."""
    for k, res_k in enumerate(_columns(flux, gv, d)):
        w_k = np.zeros(len(res_k))
        for c, (lo_j, hi_j), grad in zip(coeff, rows, grads):
            w_k[lo_j - lo:hi_j - lo] += c * grad[:, k]
        yield 2.0 * res_k - d[k] * w_k, w_k
