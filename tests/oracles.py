"""Test oracles: finite-difference checks of the derivative closures, the
band-limited function of a trace, the pairing of two traces, the measure
of an annulus, the inverse log-weighted norm, and reference builders of
the analytic fields, each written out as its own closures, that the
program's one separable builder must match bit for bit, and the minorant
summed over every node of the whole rule, the cos, sin and Bessel
series summed with :class:`~extbounds.special.Enclosure`'s operators,
which the program's integer loops must match bit for bit, and the term
kernel as a loop over the pairs of profiles and of terms, whose products
the program's must match bit for bit, every constant of a bundle
computed at once, which the constants derived on first read must match
bit for bit, and the tensor reference: the true error, the scale, the
flux gap and the weighted residual summed on a rule's nodes from the
closures, by the norms of ``fields`` that no bound calls, against which
the term sums are checked.  The program never calls them."""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from extbounds import constants as cs
from extbounds.fields import (
    QuadratureErrorAt,
    ScalarField,
    VectorField,
    energy_norm,
    log_weighted_norm,
    require_finite,
    sphere_moments,
    support_rows,
    weighted_norm,
)
from extbounds.geometry import ExteriorDomain, QuadratureRule, exact_dot, node_radii
from extbounds.special import GUARD, Enclosure, _negligible, _one, _result, _zero
from extbounds.traces import SphereTrace, _require_compatible, basis_matrix


def check_gradient(
    f: ScalarField, points: np.ndarray, step: float = 1e-5, rtol: float = 1e-6
) -> float:
    """Max deviation between the gradient closure and central differences
    of the value closure, relative to the gradient magnitude over the
    sample; raises if above ``rtol``."""
    points = np.atleast_2d(points)
    grad = np.asarray(f.gradient(points), dtype=float)
    num = np.empty_like(grad)
    for j in range(points.shape[1]):
        hp = points.copy()
        hm = points.copy()
        hp[:, j] += step
        hm[:, j] -= step
        num[:, j] = (np.asarray(f.value(hp)) - np.asarray(f.value(hm))) / (2 * step)
    scale = max(float(np.max(np.abs(grad))), float(np.max(np.abs(num))), 1e-30)
    dev = float(np.max(np.abs(grad - num))) / scale
    if dev > rtol:
        raise AssertionError(
            f"gradient closure of {f.label!r} deviates from finite differences "
            f"by {dev:.3e} (tolerance {rtol:.1e})"
        )
    return dev


def check_divergence(
    y: VectorField, points: np.ndarray, step: float = 1e-5, rtol: float = 1e-6
) -> float:
    """Same cross-check for the divergence closure.  The deviation is
    normalized by the magnitude of the individual directional-derivative
    terms, because the divergence itself may cancel to zero exactly
    (solenoidal fields)."""
    points = np.atleast_2d(points)
    div = np.asarray(y.divergence(points), dtype=float)
    num = np.zeros(len(points))
    term_scale = np.zeros(len(points))
    for j in range(points.shape[1]):
        hp = points.copy()
        hm = points.copy()
        hp[:, j] += step
        hm[:, j] -= step
        term = (
            np.asarray(y.value(hp))[:, j] - np.asarray(y.value(hm))[:, j]
        ) / (2 * step)
        num += term
        term_scale += np.abs(term)
    scale = max(float(np.max(term_scale)), float(np.max(np.abs(div))), 1e-30)
    dev = float(np.max(np.abs(div - num))) / scale
    if dev > rtol:
        raise AssertionError(
            f"divergence closure of {y.label!r} deviates from finite differences "
            f"by {dev:.3e} (tolerance {rtol:.1e})"
        )
    return dev


def reconstruct(t: SphereTrace) -> ScalarField:
    """Band-limited function whose expansion is ``t`` (values only)."""

    def value(pts):
        basis = basis_matrix(t.dimension, t.degree, t.radius, pts)
        return t.coefficients @ basis

    return ScalarField(value=value, gradient=None, label="trace-reconstruction")


def surface_l2_norm(t: SphereTrace) -> float:
    """L^2 norm over the sphere of the band-limited function ``t``
    expands: the basis is orthonormal, so that of its coefficients."""
    return float(np.sqrt(np.sum(t.coefficients**2)))


def duality_pairing(t1: SphereTrace, t2: SphereTrace) -> float:
    _require_compatible(t1, t2)
    return float(np.sum(t1.coefficients * t2.coefficients))


def unit_sphere_area(n: int) -> float:
    # surface measure of S^{n-1}; the formula gives 2*pi and 4*pi to the
    # last bit for N = 2 and 3
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def shell_volume(domain: ExteriorDomain) -> float:
    """Volume of the annulus omega_i."""
    n = domain.dimension
    return unit_sphere_area(n) * (domain.R**n - domain.a**n) / n


def over_rlnr_norm(f: ScalarField, rule: QuadratureRule) -> float:
    """||f / (r ln r)|| over a 2D rule with all nodes at radius > 1: the
    weight of the 2D Poincare inequality, the dual of ``log_weighted_norm``."""
    assert rule.dimension == 2
    r = node_radii(rule.nodes)
    assert np.min(r) > 1.0
    vals = np.asarray(f.value(rule.nodes), dtype=float) ** 2 * (r * np.log(r)) ** -2
    require_finite(vals, rule.nodes, f.label, "over_rlnr")
    return math.sqrt(max(exact_dot(vals, rule.weights), 0.0))


# ---------------------------------------------------------------------------
# reference field builders: every profile, angular factor and gradient of
# x_i / r^m written out on its own, with the operations the program's
# ``fields.separable_field`` must keep in the same order


def radial_scalar(p, dp, label: str) -> ScalarField:
    """Scalar field p(r) with gradient dp(r) x/r."""

    def value(pts):
        return p(node_radii(pts))

    def gradient(pts):
        pts = np.atleast_2d(pts)
        r = node_radii(pts)
        return (dp(r) / r)[:, None] * pts

    return ScalarField(value=value, gradient=gradient, label=label)


def separable_closures(p, dp, ang_value, ang_gradient, label: str = "separable",
                       support=None) -> ScalarField:
    """p(r) * q(x) for the closures (q, grad q), q homogeneous of degree
    zero; q may be any such function, not only one of degree <= 1."""

    def value(pts):
        pts = np.atleast_2d(pts)
        return p(node_radii(pts)) * ang_value(pts)

    def gradient(pts):
        pts = np.atleast_2d(pts)
        r = node_radii(pts)
        radial_part = (dp(r) * ang_value(pts) / r)[:, None] * pts
        return radial_part + p(r)[:, None] * ang_gradient(pts)

    return ScalarField(value=value, gradient=gradient, label=label, support=support)


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def _smoothstep_deriv(t):
    inside = (t > 0.0) & (t < 1.0)
    return np.where(inside, -30.0 * t**2 * (1.0 - t) ** 2, 0.0)


def ramp_profile(r_one: float, r_zero: float):
    """C^2 radial ramp: 1 for r <= r_one, 0 for r >= r_zero; (p, dp)."""
    width = r_zero - r_one

    def p(r):
        return _smoothstep((np.asarray(r, dtype=float) - r_one) / width)

    def dp(r):
        return _smoothstep_deriv((np.asarray(r, dtype=float) - r_one) / width) / width

    return p, dp


def mollifier_profile(center: float, width: float):
    """exp(-1/(1-t^2)), t = (s - center)/width, and its derivative."""

    def p(s):
        t = (np.asarray(s, dtype=float) - center) / width
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0 - 1e-14
        ti = t[inside]
        out[inside] = np.exp(-1.0 / (1.0 - ti**2))
        return out

    def dp(s):
        t = (np.asarray(s, dtype=float) - center) / width
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0 - 1e-14
        ti = t[inside]
        out[inside] = (
            np.exp(-1.0 / (1.0 - ti**2)) * (-2.0 * ti / (1.0 - ti**2) ** 2) / width
        )
        return out

    return p, dp


def basis_bump(c: float, h: float):
    """(1 - t^2)^3, t = (r - c)/h, clipped to 0 outside |t| < 1, and its
    derivative: the minorant basis profile."""

    def p(r):
        t = (np.asarray(r, dtype=float) - c) / h
        t2 = np.clip(t**2, None, 1.0)
        return (1.0 - t2) ** 3

    def dp(r):
        t = (np.asarray(r, dtype=float) - c) / h
        inside = np.abs(t) < 1.0
        return np.where(inside, -6.0 * t * (1.0 - t**2) ** 2 / h, 0.0)

    return p, dp


def angular_monomial(dimension: int, index: int):
    """(value, gradient) of 1 (index 0) or of x_i / r (index i >= 1)."""
    if index == 0:
        return (
            lambda pts: np.ones(len(np.atleast_2d(pts))),
            lambda pts: np.zeros_like(np.atleast_2d(pts), dtype=float),
        )
    i = index - 1

    def value(pts):
        pts = np.atleast_2d(pts)
        return pts[:, i] / node_radii(pts)

    def gradient(pts):
        pts = np.atleast_2d(pts)
        r = node_radii(pts)
        out = -pts * (pts[:, i] / r**3)[:, None]
        out[:, i] += 1.0 / r
        return out

    return value, gradient


def random_angular(dim: int, coeffs):
    """(value, gradient) of c_0 + sum_i c_i x_i / r, term by term."""

    def value(pts):
        out = coeffs[0] * np.ones(len(np.atleast_2d(pts)))
        for i in range(1, dim + 1):
            v, _ = angular_monomial(dim, i)
            out = out + coeffs[i] * v(pts)
        return out

    def gradient(pts):
        out = np.zeros_like(np.atleast_2d(pts), dtype=float)
        for i in range(1, dim + 1):
            _, gr = angular_monomial(dim, i)
            out = out + coeffs[i] * gr(pts)
        return out

    return value, gradient


def harmonic_gradient(dimension: int, index: int):
    """The value closure of grad(1/r) (index 0) or of grad(x_i / r^N)."""
    if index == 0:
        def value(pts):
            pts = np.atleast_2d(pts)
            return -pts / node_radii(pts)[:, None] ** 3

        return value
    i, n = index - 1, dimension

    def value(pts):
        pts = np.atleast_2d(pts)
        r = node_radii(pts)
        out = -n * pts * (pts[:, i] / r ** (n + 2))[:, None]
        out[:, i] += 1.0 / r**n
        return out

    return value


def term_values(terms, pts):
    """(value, gradient, size, gradient size) of the sum of ``terms``
    (``fields.Term``) at the (M, N) nodes ``pts``.  The sizes bound the
    parts each term adds up, summed over the terms: |p| |c|_1 for the value
    and (|p'| |c|_1 + 2 |p| |c|_1 / r) for each gradient component."""
    pts = np.atleast_2d(pts)
    r = node_radii(pts)
    omega = pts / r[:, None]
    value, size = np.zeros(len(pts)), np.zeros(len(pts))
    gradient, gradient_size = np.zeros(pts.shape), np.zeros(len(pts))
    for t in terms:
        c = np.zeros(pts.shape[1] + 1)
        c[:len(t.angular)] = t.angular
        q = c[0] + omega @ c[1:]
        grad_q = (c[1:] - (omega @ c[1:])[:, None] * omega) / r[:, None]
        p, dp = t.p(r), t.dp(r)
        value += p * q
        gradient += (dp * q)[:, None] * omega + p[:, None] * grad_q
        total = np.sum(np.abs(c))
        size += np.abs(p) * total
        gradient_size += (np.abs(dp) + 2.0 * np.abs(p) / r) * total
    return value, gradient, size, gradient_size[:, None]


class DenseMinorant(NamedTuple):
    gram: np.ndarray
    rhs: np.ndarray
    value: float
    direct_value: float
    gram_min_eig: float
    coefficients: np.ndarray


def dense_minorant(p, v, basis) -> DenseMinorant:
    """The minorant of ``minorant_report`` from the closures: every
    integral summed over every node of the whole rule, the densities built
    from the (M, N, N) matrices of A, the Gram G, the right-hand side,
    M(w_c) summed directly, the value, the smallest eigenvalue of G and
    the coefficients."""
    rule = p.quads.whole
    pts, wts = rule.nodes, rule.weights
    mats = np.asarray(p.A.matrix(pts), dtype=float)
    gv = np.asarray(v.gradient(pts), dtype=float)
    res = np.asarray(p.flux.value(pts), dtype=float) - np.einsum("mij,mj->mi", mats, gv)
    n = len(basis)
    grads = [np.asarray(w.gradient(pts), dtype=float) for w in basis.fields]
    a_grads = [np.einsum("mij,mj->mi", mats, g) for g in grads]
    gram = np.empty((n, n))
    rhs = np.empty(n)
    for j in range(n):
        for k in range(j, n):
            gram[j, k] = gram[k, j] = exact_dot(np.sum(a_grads[j] * grads[k], axis=1), wts)
        rhs[j] = exact_dot(np.sum(res * grads[j], axis=1), wts)
    eigs = np.linalg.eigvalsh(gram)
    coeff = np.linalg.solve(gram, rhs)
    w_grads = np.zeros_like(gv)
    for c, grad in zip(coeff, grads):
        w_grads += c * grad
    mixed = 2.0 * res - np.einsum("mij,mj->mi", mats, w_grads)
    direct = float(exact_dot(np.sum(mixed * w_grads, axis=1), wts))
    return DenseMinorant(gram, rhs, max(min(float(rhs @ coeff), direct), 0.0), direct,
                         float(eigs[0]), coeff)


def enclosure_cos_sin(theta: Fraction, bits: int) -> tuple[Enclosure, Enclosure]:
    """``special.cos_sin`` on the operators of ``Enclosure``: the same
    terms, rounded alike, summed by ``+`` and ``times``."""
    n, d, w = theta.numerator, theta.denominator, bits + GUARD
    sums = [_zero(w), _zero(w)]
    term, j, j_min = _one(w), 0, -(-2 * abs(n) // d)
    while j < j_min or not _negligible(term):
        sums[j % 2] += term if j % 4 < 2 else -term
        j += 1
        term = term.times(n, d * j)
    return _result(sums[0], 2), _result(sums[1], 2)


def enclosure_bessel_series(nu: int, x: Fraction, bits: int) -> tuple[Enclosure, Enclosure]:
    """``special.bessel_series`` on the operators of ``Enclosure``."""
    guard = GUARD + int(1.45 * float(x))
    w = bits + guard
    n, d = x.numerator, x.denominator
    n2, d2 = n * n, d * d
    u = Enclosure.of(n, 2 * d, w) if nu else _one(w)
    hn, hd = 0, 1
    j_sum, s_sum, k = _zero(w), _zero(w), 0
    while True:
        hn_nu, hd_nu = (hn * (k + 1) + hd, hd * (k + 1)) if nu else (hn, hd)
        s_term = u.times(hn * hd_nu + hn_nu * hd, 2 * hd * hd_nu)
        if (k > 0 and n2 <= (k + 1) * (k + 1 + nu) * d2
                and _negligible(u, guard) and _negligible(s_term, guard)):
            return _result(j_sum, 2, guard), _result(s_sum, 2, guard)
        j_sum += u
        s_sum += s_term
        k += 1
        hn, hd = hn * k + hd, hd * k
        u = u.times(-n2, 4 * d2 * k * (k + nu))


def _reference_profiles(rule, sets, labels, weight):
    """(rows, values, bounds) of the profiles of the terms of ``sets``, as
    ``fields._profiles`` gives them, each p and p' tested on its own."""
    r = rule.radial[0]
    directions = len(rule.angular[0])
    profiles = {}  # (p, dp, support) -> (its row, its first set's label)
    for terms, label in zip(sets, labels):
        for t in terms:
            profiles.setdefault((t.p, t.dp, t.support), (len(profiles), label))
    values = np.zeros((2, len(profiles), len(r)))
    bounds = np.zeros((len(profiles), 2), dtype=np.intp)
    for (fn, dfn, support), (i, label) in profiles.items():
        lo, hi = (0, len(r)) if support is None else support_rows(r, support)
        for out, f in zip(values, (fn, dfn)):
            out[i, lo:hi] = f(r[lo:hi])
            bad = np.flatnonzero(~np.isfinite(out[i, lo:hi]))
            if len(bad):
                node = (lo + int(bad[0])) * directions
                raise QuadratureErrorAt(node, rule.nodes[node], label, weight)
        bounds[i] = lo, hi
    return {key: i for key, (i, _) in profiles.items()}, values, bounds


def on_rows(rule, rows):
    """The tensor rule over the radial nodes ``rows`` of ``rule``'s, as
    ``omega_i`` and ``omega_e`` are over rows of ``whole``'s."""
    return QuadratureRule(None, None, rule.radial_order, rule.angular_order, rule.shell_count,
                          radial=tuple(a[rows] for a in rule.radial), angular=rule.angular)


def reference_term_products(rule, sets, labels, weight, radial=None):
    """``fields.term_products`` with its pairs found one by one: the pairs
    of profiles from ``np.triu_indices``, the four densities stacked, each
    radial sum by ``math.fsum``, and the pairs of terms found and sorted in
    Python, each product computed as the program computes it.  Its
    ``profiles`` are the (rows, values) of ``_reference_profiles``.  The
    products on the radial rows ``part`` are those of the reference on the
    rule over those rows (``on_rows``)."""
    r, weights = rule.radial
    if radial is not None:
        weights = weights * radial(r)
    rows, values, bounds = _reference_profiles(rule, sets, labels, weight)
    lo, hi = bounds.T
    i, j = np.triu_indices(len(bounds))
    shared = np.maximum(lo[i], lo[j]) < np.minimum(hi[i], hi[j])
    pairs = np.column_stack([i[shared], j[shared]])  # the profiles sharing rows
    (p_i, p_j), (d_i, d_j) = values[0][pairs.T], values[1][pairs.T]
    dens = np.stack([d_i * d_j, d_i * p_j / r, p_i * d_j / r, p_i * p_j / (r * r)], axis=1)
    sums = np.array([math.fsum(row) for row in dens.reshape(-1, len(r)) * weights])
    sums = sums.reshape(-1, 4, 1)
    index = {}  # (row, row) -> the pair's row in sums, in both orders
    for k, (a, b) in enumerate(pairs.tolist()):
        index[a, b] = index[b, a] = k

    def products(term_sets, D, part=slice(None)):
        if part.indices(len(r))[:2] != (0, len(r)):
            return reference_term_products(on_rows(rule, part), sets, labels, weight,
                                           radial)(term_sets, D)
        moments = sphere_moments(D)
        x, y = np.nonzero(np.any(moments != 0.0, axis=0))
        flat = [(k, rows[t.p, t.dp, t.support], t) for k, terms in enumerate(term_sets)
                for t in terms]
        members = {}  # profile row -> its terms in flat
        for m, (_, row, _) in enumerate(flat):
            members.setdefault(row, []).append(m)
        found = sorted((flat[s][0], flat[t][0], k, s, t) for (a, b), k in index.items()
                       for s in members.get(a, ()) for t in members.get(b, ())
                       if flat[s][0] <= flat[t][0])
        first, second, pair, s, t = np.array(found, dtype=np.intp).reshape(-1, 5).T
        coef = np.zeros((len(flat), moments.shape[-1]))
        for row, (_, _, term) in zip(coef, flat):
            row[:len(term.angular)] = term.angular
        prods = (sums[pair] * moments[:, x, y]) * (coef[s][:, x] * coef[t][:, y])[:, None, :]
        return first, second, prods.reshape(len(pair), 4 * len(x))

    products.profiles = rows, values
    return products


# ---------------------------------------------------------------------------
# the tensor reference: each norm of the bounds summed on a rule's nodes from
# the closures, as the bounds summed a field without terms before they came
# to read terms only


def load(p) -> ScalarField:
    """The load f = -div F of the problem ``p``, from its flux's divergence
    closure."""
    div = p.flux.divergence
    return ScalarField(value=lambda pts: -div(pts), label="-div flux")


def residual_field(f: ScalarField, y: VectorField) -> ScalarField:
    """f + div y, the equilibrium residual, from y's divergence closure."""
    div = y.divergence
    return ScalarField(value=lambda pts: f.value(pts) + div(pts),
                       label=f"({f.label}+div {y.label})")


def tensor_true_error(mp, v) -> float:
    """||A^{1/2} grad(u - v)|| on the nodes of the whole rule."""
    u, A, rule = mp.exact_u, mp.problem.A, mp.problem.quads.whole
    return energy_norm(A, u.gradient(rule.nodes), "A", rule, label=f"grad(({u.label}-{v.label}))",
                       minus_gradient=np.asarray(v.gradient(rule.nodes), dtype=float))


def tensor_scale(p, v) -> float:
    """||A^{1/2} grad v|| on the nodes of the whole rule."""
    rule = p.quads.whole
    return energy_norm(p.A, np.asarray(v.gradient(rule.nodes), dtype=float), "A", rule,
                       label=f"grad({v.label})")


def tensor_flux_gap(p, v, y, part: str = "whole") -> float:
    """||y - A grad v||_{A^{-1}} on the nodes of the rule ``part``."""
    rule = getattr(p.quads, part)
    return energy_norm(p.A, y.value(rule.nodes), "A_inverse", rule,
                       label=f"({y.label}-A*grad({v.label}))",
                       minus_gradient=np.asarray(v.gradient(rule.nodes), dtype=float))


def tensor_residual(p, y, rule, s: float = 1.0) -> float:
    """||r ln r (f + div y)|| on the nodes of ``rule`` in 2D, ||rho^s (f +
    div y)|| in 3D (both unweighted at s = 0)."""
    res = residual_field(load(p), y)
    if p.domain.dimension == 2 and s:
        return log_weighted_norm(res, rule)
    return weighted_norm(res, s, rule)


def eager_constants(domain: ExteriorDomain, A, modes: int) -> dict:
    """Every constant a ``ConstantsBundle`` on ``domain`` with coefficient
    ``A`` and ``modes`` reads, by name, computed at once in the order the
    eager bundle computed them, Friedrichs root first."""
    fried = cs.interior_friedrichs_constant(domain)
    out = {
        "poincare": cs.exterior_poincare_constant(domain.dimension),
        "c_o_formula": cs.interior_weight_constant(domain, A),
        "c_o_eigen": fried.value / math.sqrt(A.c_A),
        "friedrichs": fried,
        "extension": cs.boundary_extension_constant(domain, A, modes),
        "trace": cs.interface_trace_constant(domain, A, modes),
        "modes": modes,
        "cutoff": domain.R,
    }
    out["c_o"] = min(out["c_o_formula"], out["c_o_eigen"])
    return out
