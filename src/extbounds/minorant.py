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
radial sums times closed-form sphere moments (``_term_system``, on the
kernel ``fields.term_products`` that also sums the true error, the scale
and the flux gaps the bounds are checked against): the same discrete
integral, so only rounding differs.  Any other input is summed on the
tensor rule (``_tensor_system``).  Either way every basis function goes
through the one zero-trace check on its closures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import traces
from .fields import (
    ScalarField,
    _columns,
    _moments_exact,
    cubic_bump,
    cubic_bump_deriv,
    cut,
    density,
    difference,
    gradient_on,
    merged,
    profile,
    require_finite,
    separable_field,
    term_products,
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


def _term_system(p: Problem, v: ScalarField, basis: TestBasis):
    """(G, rhs, M) from the terms (``fields.term_products`` on the whole
    rule): G_jk = a(w_j, w_k), rhs_j = a(u - v, w_j) with u - v the flux's
    potential minus v's terms, merged, and M(c) = 2 a(u - v, w_c) -
    a(w_c, w_c) from the merged terms of w_c = sum_j c_j w_j.  Each entry
    of G and rhs, and M(c), is the exact sum of its own products."""
    error = difference(p.flux.potential, v.terms)
    sets = [w.terms for w in basis.fields] + [error]
    labels = [w.label for w in basis.fields] + [f"({p.flux.label}-A grad {v.label})"]
    d = p.A.diagonal
    products = term_products(p.quads.whole, sets, labels, "minorant:terms")
    n = len(basis)
    first, second, sums = _grouped_sums(*products(sets, d))
    system = np.zeros((n + 1, n + 1))
    system[first, second] = system[second, first] = sums

    def direct_value(coeff):
        w_c = merged(t._replace(angular=tuple(c * x for x in t.angular))
                     for c, terms in zip(coeff.tolist(), sets[:n]) for t in terms)
        first, second, prods = products([error, w_c], d)
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
