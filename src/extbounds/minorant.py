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

Every basis function, v and the flux (its ``potential``) must have terms
(``fields.Term``), as for every catalog problem, ``perturb``'s v and
``default_basis``: each integral is a sum over pairs of terms of radial
sums on the whole rule's radial nodes times closed-form sphere moments
(``_term_system``, on the kernel ``fields.term_products`` that also sums
the true error, the scale and the flux gaps).  The moments are the exact
angular integrals, at any angular_order.  The zero-trace check reads the
same terms, so no closure of a basis function is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    Profile,
    ScalarField,
    difference,
    merged,
    separable_field,
    term_products,
    terms_of,
)
from .geometry import exact_sum
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
    """Test functions with zero trace on the inner boundary, each with
    terms: ``minorant_report`` reads the terms, not the closures."""

    __test__ = False  # not a pytest collection target

    fields: tuple[ScalarField, ...]

    def __len__(self) -> int:
        return len(self.fields)

    def extended(self, extra: ScalarField) -> "TestBasis":
        return TestBasis(fields=self.fields + (extra,))


def validate_zero_traces(p: Problem, basis: TestBasis) -> None:
    """Check, from the terms, that every basis function vanishes on the
    inner sphere r = a and is continuous with its gradient across each
    sphere r > a where a term's support ends.  On r = a the trace is
    (sum_k p_k(a) c_k) . phi over the terms whose support holds a, and
    each of its coefficients must be at most ``TRACE_ZERO_TOL``.  At an end
    rho > a the jumps are the sums of p_k(rho) c_k and of p_k'(rho) c_k
    over the terms whose support ends there, those ending at rho taken
    with +1 and those starting there with -1, so that jumps of terms that
    meet at rho may cancel; each coefficient must be at most
    ``TRACE_ZERO_TOL``, or the function would be cut off where it is not
    zero and not lie in H^1.  Raises ``NonzeroTraceError`` for the first
    function that fails (a NaN fails too).  Every function must have
    terms, which ``minorant_report`` checks first."""
    a, n = p.domain.a, p.domain.dimension
    radii = {}  # (profile, 0 for p or 1 for p') -> the radii it is checked at: a and the ends
    for t in (t for w in basis.fields for t in w.terms):
        if t.support is None or t.support[0] <= a <= t.support[1]:
            radii.setdefault((t.profile, 0), set()).add(a)
        for r in (r for r in t.support or () if r > a):
            radii.setdefault((t.profile, 0), set()).add(r)
            radii.setdefault((t.profile, 1), set()).add(r)
    values = {}  # (profile, 0 or 1, r) -> p or p' there, from one call of each per profile
    for (profile, j), rs in radii.items():
        rs = sorted(rs)
        fn = profile.dp if j else profile.p
        values.update(((profile, j, r), float(x)) for r, x in zip(rs, fn(np.array(rs))))

    def largest(signed, r, parts):
        """The largest |coefficient| of the sums of s q(r) c over the pairs
        (s, term) of ``signed``, q each of the first ``parts`` of a term's
        p and p' and c its coefficients, or None where none exceeds
        ``TRACE_ZERO_TOL``."""
        out = [0.0] * (parts * (n + 1))
        for sign, t in signed:
            for j in range(parts):
                for i, c in enumerate(t.angular, j * (n + 1)):
                    out[i] += sign * values[t.profile, j, r] * c
        if all(abs(x) <= TRACE_ZERO_TOL for x in out):  # a NaN fails
            return None
        return float(np.max(np.abs(out)))

    for k, w in enumerate(basis.fields):
        trace = largest([(1.0, t) for t in w.terms
                         if t.support is None or t.support[0] <= a <= t.support[1]], a, 1)
        if trace is not None:
            raise NonzeroTraceError(
                f"basis function {k} ({w.label!r}) has trace norm {trace:.3e} on the inner "
                f"boundary (its largest angular coefficient; must be <= {TRACE_ZERO_TOL})")
        for rho in sorted({r for t in w.terms for r in t.support or () if r > a}):
            jump = largest([(1.0 if t.support[1] == rho else -1.0, t)
                            for t in w.terms if t.support and rho in t.support], rho, 2)
            if jump is not None:
                raise NonzeroTraceError(
                    f"basis function {k} ({w.label!r}) jumps by {jump:.3e} in value or "
                    f"radial derivative on the sphere r = {rho} bounding its support (must "
                    f"be <= {TRACE_ZERO_TOL})")


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
        profile = Profile("cubic_bump", center, half)
        for j in range(n_ang):
            fields.append(separable_field(
                profile, np.eye(domain.dimension + 1)[j], label=f"basis[r{k},a{j}]",
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
    are summed from the terms (``_term_system``), so v, every basis
    function and the flux must have terms; the first of them without
    raises ``ValueError`` (``fields.terms_of``).  A zero field, such as
    v = u - u, has terms: ``()``.  A basis function of zero energy, such
    as u - v at eps = 0, raises ``SingularGramError``.  The value is the
    smaller of rhs . c and M(w_c) summed directly.  A product of finite
    values that overflows raises ``FloatingPointError``."""
    if len(basis) == 0:
        raise ValueError("basis must be nonempty")
    terms_of(v, "v")
    for k, w in enumerate(basis.fields):
        terms_of(w, f"basis function {k}")
    terms_of(p.flux, "the flux")
    gram, rhs, direct_value = _term_system(p, v, basis)
    n = len(basis)

    # the gate reads the Gram scaled to a unit diagonal, D^{-1/2} G D^{-1/2}
    # with D = diag G, so that a small basis function, such as u - v at a
    # small eps, is not taken for a dependent one
    diag = np.diag(gram)
    if not np.all(diag > 0.0):  # terms whose profiles vanish at every radial node
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
    first, second, rows = products(sets, d)
    # a row of +-0.0 adds nothing, and an entry left without rows keeps the
    # +0.0 of np.zeros, which is exact_sum's sum of +-0.0 too
    kept = rows.any(axis=1)
    first, second, sums = _grouped_sums(first[kept], second[kept], rows[kept])
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
