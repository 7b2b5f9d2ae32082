"""Numerical verification of the weighted Poincare/Hardy inequalities the
error bounds rest on, over randomized compactly supported test functions.

Each inequality is checked by high-order quadrature of both sides on
smooth bumps.  The partial-integration identities behind the proofs are
checked directly as well (they are exact for the continuum integrals, so
any discrepancy beyond quadrature error flags a broken derivation).

One deliberate correction: the chain that connects the rho-weighted norm
to the (1+r)-weighted norm needs the factor sqrt(2), because
rho = (1+r^2)^{1/2} <= 1+r <= sqrt(2) rho with the right inequality sharp
at r = 1.  The unit-factor comparison fails for every nonzero function
(the weights are ordered the other way), so the chain link here carries
the provable sqrt(2).  All headline constants are unaffected: they flow
through the weight r, and rho >= r holds pointwise.

Each check takes a batch of bumps of one dimension and returns their
records in order.  The radial factors of up to BATCH bumps (distance
nodes and weights, u and du/ds) are computed as one (bumps, nodes) array
each.  The half line's records are summed with them, a row each.  So are
the N = 3 records: every N = 3 density is u(s)^2, u u'(s) or u'(s)^2
times a function of r = |x|, and the shell theorem (Archimedes' hat-box
theorem) gives its integral over the sphere of radius s about the center
c in closed form (``_shell``), so a record is a 1-D sum over its
distances.  The log weight has no such closed form, so an off-center
N = 2 bump's (distance, angle) grid is built in arrays kept per grid
shape (``_grid``), 288 distances by a ring of 32 points: the angular
integrand is analytic away from r = 0 and ln r = 0, and ``random_bumps``
keeps radius / |center| <= 0.36, so the records lie within 1e-15 of a
finer reference rule (``tests/poincare_convergence.py``).  Every record
sums all its densities in one ``exact_sum``; exact sums do not depend on
order, so a record has the same bits in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fields import mollifier, mollifier_and_deriv
from .geometry import ExteriorDomain, _composite_interval, _unit_sphere_rule, exact_sum

# sup (1+r)/sqrt(1+r^2) over r >= 0, attained at r = 1
WEIGHT_EQUIV = math.sqrt(2.0)
PASS_RTOL = 1e-10
IDENTITY_RTOL = 1e-9
# sampling resolution: Gauss-Legendre panels and order along the half line's
# intervals (an off-center bump's distance interval [0, radius], half its
# diameter, takes half as many panels of the same width), and the N = 2
# ring's angular nodes, half its points
PANELS = 48
ORDER = 12
ANGULAR = 16
# bumps sampled at once: a half-line (16, 576) array is 74 KB and an
# off-center (16, 288) one 37 KB, below glibc's 128 KB mmap threshold, so a
# batch's radial arrays come from the heap
BATCH = 16
# the N = 3 shell integrals at eps = s / |c| below SERIES_CUT are series in
# eps^2, summed to the terms the tier of eps needs (every draw of
# random_bumps has eps <= 0.36); above the cut, closed forms in
# ln((|c| + s) / (|c| - s)), whose rounding grows with the power of r
SERIES_TIERS = (0.4, 0.9)
SERIES_CUT = SERIES_TIERS[-1]


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class BumpFunction:
    """C-infinity bump supported on the ball |x - center| < radius; in one
    dimension it lives on the half line [0, inf), cut off at 0."""

    center: tuple
    radius: float

    @property
    def dimension(self) -> int:
        return len(self.center)

    @cached_property
    def center_radius(self) -> float:
        return float(np.linalg.norm(self.center))

    def min_support_radius(self) -> float:
        return self.center_radius - self.radius

    def check_inside(self, domain: ExteriorDomain) -> None:
        if self.dimension != domain.dimension:
            raise ValueError("bump dimension does not match domain")
        if self.min_support_radius() <= domain.a:
            raise ValueError(
                f"bump support reaches inside radius {domain.a}: "
                f"|center| - radius = {self.min_support_radius():.4f}"
            )


@lru_cache(maxsize=None)
def _grid(shape: tuple) -> np.ndarray:
    """Seven arrays of an N = 2 grid shape, kept across records (one record
    at a time): the samples' r, weights and du/dr, then four for densities.
    The seven take 516 KB, above glibc's 128 KB mmap threshold: a new set
    per record would be mapped and faulted in anew."""
    return np.empty((7,) + shape)


def samples(bumps):
    """Quadrature samples over the supports of a batch of test functions of
    one dimension, BATCH bumps at a time: dicts of arrays with one row per
    record, and the values u0 at the origin of the half line (0 off it).

    The half line and N = 3 yield one dict per BATCH bumps, a row each.  A
    one-dimensional bump is sampled on its support's part of [0, inf) with
    the plain measure dr: r, u, du/dr, the gradient magnitude and the
    weights, with seven free arrays of their shape in ``kept``.  An N = 3
    bump is sampled on the distances s in [0, radius] from its center: s,
    the center radius |c| (a column), u and u'(s) (``du``), and the shell
    weights w = 2 pi s w_s / |c|, the measure s^2 ds times the shell
    theorem's 2 pi / (|c| s) (``_shell``).

    An off-center N = 2 bump reduces to a 2D (distance, angle) integral by
    axial symmetry around the center direction, and yields a dict of its
    own, with one row: r, du/dr and the weights are (1, distance, angle)
    arrays, u and the gradient magnitude, which depend on the distance
    only, (1, distance, 1) columns.  Its ``kept`` holds the seven arrays
    kept per shape (``_grid``), r, the weights and du/dr the first three,
    the last four free for densities: the next N = 2 dict overwrites them.
    """
    if not bumps:
        return
    n = bumps[0].dimension
    if n == 2:
        dirs, wang = _unit_sphere_rule(2, ANGULAR)
        cos = dirs[:, 0]
    elif n not in (1, 3):
        raise ValueError("off-center bumps support dimensions 1-3")
    for start in range(0, len(bumps), BATCH):
        batch = bumps[start:start + BATCH]
        rad = np.array([u.radius for u in batch])
        c = np.array([u.center[0] if n == 1 else 0.0 for u in batch])
        s, ws = _composite_interval(np.maximum(c - rad, 0.0), np.maximum(c + rad, 0.0),
                                    ORDER, PANELS if n == 1 else PANELS // 2)
        val, der = mollifier_and_deriv((s - c[:, None]) / rad[:, None])
        der /= rad[:, None]
        if n == 3:
            cr = np.array([[u.center_radius] for u in batch])
            yield {"s": s, "c": cr, "u": val, "du": der, "w": 2.0 * math.pi * s * ws / cr,
                   "u0": np.zeros(len(batch))}
            continue
        grad = np.abs(der)
        if n == 1:
            yield {"r": s, "u": val, "du_r": der, "grad": grad, "w": ws,
                   "u0": mollifier(-c / rad), "kept": np.empty((7,) + s.shape)}
            continue
        kept = _grid((1, s.shape[1], len(cos)))
        r, weight, du_r = kept[:3]
        s2, sw = s**2, s ** (n - 1) * ws
        s, val, der, grad = s[:, :, None], val[:, :, None], der[:, :, None], grad[:, :, None]
        for i, u in enumerate(batch):
            cr, si = u.center_radius, s[i]
            # r = sqrt(c^2 + s^2 + 2 c s cos), and the radial derivative of u at
            # x = center + s*omega, (x/r) . grad u = u'(s) * (s + c cos) / r
            np.sqrt(np.add(cr**2 + s2[i][:, None], np.multiply(2.0 * cr * si, cos, out=r), out=r),
                    out=r)
            np.divide(np.multiply(der[i], np.add(si, cr * cos, out=du_r), out=du_r), r, out=du_r)
            np.multiply(sw[i][:, None], wang, out=weight)
            yield {"r": kept[0], "u": val[i:i + 1], "du_r": kept[2], "grad": grad[i:i + 1],
                   "w": kept[1], "u0": np.zeros(1), "kept": kept}


@lru_cache(maxsize=None)
def _series(k: float, d: int, cut: float) -> tuple:
    """The coefficients of ``_shell``'s series in eps^2 at order d (over
    s c^(k-1), s^2 c^(k-1) and s c^(k+1)), with g = k - 1, from the
    binomials C(g, 2j): 2 C(g, 2j) / (2j + 1), 2 (k + 1) C(g, 2j) / ((2j +
    1)(2j + 3)), and 2/3 then (k + 1)((2j + 1)(k + 2) - 2) C(g, 2j - 2) /
    (j (2j - 1)(2j + 1)(2j + 3)).  They are summed up to the first term
    below 2^-60 of the largest at eps = cut, past which they only fall."""
    g, x = k - 1.0, cut * cut
    out, low, binom, top = [], 0.0, 1.0, 0.0  # low = C(g, 2j - 2), binom = C(g, 2j)
    for j in range(10**4):
        if d == 0:
            a = 2.0 * binom / (2 * j + 1)
        elif d == 1:
            a = 2.0 * (k + 1.0) * binom / ((2 * j + 1) * (2 * j + 3))
        else:
            a = 2.0 / 3.0 if j == 0 else ((k + 1.0) * ((2 * j + 1) * (k + 2.0) - 2.0) * low
                                          / (j * (2 * j - 1) * (2 * j + 1) * (2 * j + 3)))
        out.append(a)
        term = abs(a) * x**j
        top = max(top, term)
        if j and term <= 2.0**-60 * top:
            break
        low, binom = binom, binom * (g - 2 * j) * (g - 2 * j - 1) / ((2 * j + 1) * (2 * j + 2))
    return tuple(out)


def _shell(sm: dict, k: float, d: int) -> np.ndarray:
    """The N = 3 density of r^(k-2) ((r^2 - D) / (2s))^d, D = |c|^2 - s^2,
    over a samples dict's records, before u^2 (d = 0), u u'(s) (d = 1) or
    u'(s)^2 (d = 2): the shell weights times I_d = int_{|c|-s}^{|c|+s}
    r^(k-1) (r^2 - D)^d dr / (2s)^d.

    By the shell theorem the integral of G(r) over the sphere of radius s
    about c is 2 pi / (|c| s) int_{|c|-s}^{|c|+s} G(r) r dr, and at x = c +
    s omega the radial derivative is du/dr = u'(s) (r^2 - D) / (2 s r): so
    d = 0 is r^(k-2) u^2, d = 1 r^(k-1) u du/dr and d = 2 r^k (du/dr)^2.
    Expanded in powers of r, I_1 and I_2 cancel like (|c| / s)^2 as s / |c|
    falls, so below SERIES_CUT they are series (``_series_values``), and
    above it closed forms (``_closed_values``).  Every value depends on its
    own s and |c| alone, whatever tier the others of the batch are in."""
    s, c = sm["s"], sm["c"]
    eps = s / c
    if eps.max() < SERIES_TIERS[0]:
        return _series_values(s, c, eps, k, d, SERIES_TIERS[0]) * sm["w"]
    c = np.broadcast_to(c, s.shape)
    out = np.empty_like(s)
    lo = 0.0
    for cut in SERIES_TIERS:
        tier = (lo <= eps) & (eps < cut)
        lo = cut
        if tier.any():
            out[tier] = _series_values(s[tier], c[tier], eps[tier], k, d, cut)
    top = eps >= SERIES_CUT
    if top.any():
        out[top] = _closed_values(s[top], c[top], k, d)
    return out * sm["w"]


def _series_values(s, c, eps, k: float, d: int, cut: float) -> np.ndarray:
    """``_shell``'s I_d below ``cut``: s c^(k-1), s^2 c^(k-1) or s c^(k+1)
    times its series in eps^2 (``_series``), summed by Horner's rule."""
    x = eps**2
    coefficients = _series(k, d, cut)
    p = np.full_like(x, coefficients[-1])
    for a in coefficients[-2::-1]:
        p *= x
        p += a
    # c^(k -+ 1) as c^k times or over c: a rounded exponent k -+ 1 would put
    # its rounding times k ln c into the value
    p *= s * s if d == 1 else s
    p *= c**k * c if d == 2 else c**k / c
    return p


def _closed_values(s, c, k: float, d: int) -> np.ndarray:
    """``_shell``'s I_d in closed form: with a, b = |c| -+ s and L = ln(b /
    a), (b^m - a^m) / m = 2 (ab)^(m/2) sinh(m L / 2) / m (L at m = 0), and
    I_d its first differences in m, which cancel at most by a few at
    s / |c| >= SERIES_CUT."""
    a, b = c - s, c + s
    half, ab = 0.5 * np.log(b / a), a * b
    root = 2.0 * ab ** (0.5 * k)

    def power(j):
        # (b^(k+j) - a^(k+j)) / (k + j), with k + j in no exponent
        m = k + j
        return root * ab ** (j // 2) * (np.sinh(k * half + j * half) / m if m else half)

    value = (power(0) if d == 0 else power(2) - ab * power(0) if d == 1 else
             power(4) - 2.0 * ab * power(2) + ab * ab * power(0))
    return value / (2.0 * s) ** d


def _chain_weights(sm: dict) -> tuple:
    """The N = 3 densities of 1 / (1 + r^2) and 1 / (1 + r)^2 before u^2,
    as ``_shell``'s: the shell weights times 1/2 ln((1 + b^2) / (1 + a^2))
    = 1/2 ln(1 + 4 |c| s / (1 + a^2)) and ln((1 + b) / (1 + a)) - 2s / ((1
    + a)(1 + b)) = 2 atanh(s / (1 + |c|)) - 2s / ((1 + a)(1 + b)), a, b =
    |c| -+ s.  The first does not cancel; the second keeps the mean of r /
    (1 + r) over [a, b] of its first term, at least a / (1 + a)."""
    s, c, w = sm["s"], sm["c"], sm["w"]
    a = c - s
    rho = 0.5 * np.log1p(4.0 * c * s / (1.0 + a * a))
    one = 1.0 + c
    opr = 2.0 * np.arctanh(s / one) - 2.0 * s / ((one - s) * (one + s))
    return rho * w, opr * w


def _integrals(sm: dict, first: int, count: int) -> np.ndarray:
    """The integrals of the ``count`` densities ``kept[first:first + count]``
    of a samples dict over each of its records, the densities multiplied
    by the weights in place and summed in one ``exact_sum``: a (count,
    records) array."""
    dens = sm["kept"][first:first + count]
    dens *= sm["w"]
    return exact_sum(dens.reshape(count * len(dens[0]), -1)).reshape(count, -1)


def _sums(*densities) -> np.ndarray:
    """The integrals of (records, nodes) densities over each record, summed
    in one ``exact_sum``: a (count, records) array."""
    return exact_sum(np.concatenate(densities)).reshape(len(densities), -1)


def _logs(sm: dict, what: str) -> np.ndarray:
    """ln r at the samples, for ``what``, which needs them all at r > 1."""
    if np.min(sm["r"]) <= 1.0:
        raise ValueError(f"{what} needs support at radius > 1")
    return np.log(sm["r"], out=sm["kept"][6])


def _sides(sm: dict, const: float, w: np.ndarray, beta: float, logs=None):
    """The two sides of a weighted inequality for each record: const
    ||w^{b-1} u|| (u divided by ``logs`` when given) and 2 ||w^b du/dr||,
    as two arrays.  A power w^0 is not taken: it is 1 (pow(x, +-0) = 1,
    C99 F.9.4.4), and 1 x = x, so the sides keep their bits.  An N = 3
    dict's sides are its shell integrals (``_shell``; w is not read)."""
    if "c" in sm:
        lhs, rhs = np.sqrt(np.maximum(_sums(sm["u"] ** 2 * _shell(sm, 2.0 * beta, 0),
                                            sm["du"] ** 2 * _shell(sm, 2.0 * beta, 2)), 0.0))
        return const * lhs, 2.0 * rhs
    kept = sm["kept"]
    lhs, rhs, tmp = kept[3:6]
    factor = np.power(w, 2 * beta - 2, out=lhs) if 2 * beta - 2 else 1.0
    if logs is not None:
        factor = np.divide(factor, np.square(logs, out=tmp), out=lhs)
    np.multiply(factor, sm["u"] ** 2, out=lhs)
    np.square(sm["du_r"], out=rhs)
    if beta:
        rhs *= np.power(w, 2 * beta, out=tmp)
    lhs, rhs = np.sqrt(np.maximum(_integrals(sm, 3, 2), 0.0))
    return const * lhs, 2.0 * rhs


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class VerificationRecord:
    inequality_id: str
    dimension: int
    beta: float
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin >= -PASS_RTOL * self.rhs


def records_to_csv(records, path) -> None:
    lines = ["id,N,beta,lhs,rhs,margin,pass"]
    for r in records:
        lines.append(
            f"{r.inequality_id},{r.dimension},{r.beta:.17g},{r.lhs:.17g},"
            f"{r.rhs:.17g},{r.margin:.17g},{'true' if r.passed else 'false'}"
        )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _records(inequality_id: str, n: int, beta: float, lhs, rhs) -> list:
    return [VerificationRecord(inequality_id, n, beta, left, right)
            for left, right in zip(lhs.tolist(), rhs.tolist())]


# ---------------------------------------------------------------------------
# the inequalities (each on a batch of bumps, validated whole before any is
# sampled)


def verify_power_weight(domain: ExteriorDomain, bumps, beta: float) -> list:
    """(2b + N - 2) ||r^{b-1} u|| <= 2 ||r^b du/dr|| for b > 1 - N/2."""
    n = domain.dimension
    if beta <= 1.0 - n / 2.0:
        raise ValueError(f"beta must exceed 1 - N/2 = {1 - n / 2}, got {beta}")
    for u in bumps:
        u.check_inside(domain)
    return [rec for sm in samples(bumps) for rec in _records(
        "power_weight", n, beta, *_sides(sm, 2.0 * beta + n - 2.0, sm.get("r"), beta))]


def verify_log_weight(domain: ExteriorDomain, bumps, beta: float) -> list:
    """|2b + N - 3| ||r^{b-1} u / ln r|| <= 2 ||r^b du/dr|| for supports at
    radius > 1 and b outside the band (1 - N/2, (3 - N)/2)."""
    n = domain.dimension
    lo, hi = 1.0 - n / 2.0, (3.0 - n) / 2.0
    if lo < beta < hi:
        raise ValueError(
            f"beta = {beta} lies in the forbidden band ({lo}, {hi}) for N = {n}"
        )
    if domain.a < 1.0:
        raise ValueError("log-weight inequality needs inner radius >= 1")
    if n != 2:
        # r^(2b-1) / ln^2 r has no elementary antiderivative, so an N = 3
        # record has no shell integral in closed form
        raise ValueError(f"log-weight inequality is checked in N = 2, got N = {n}")
    for u in bumps:
        u.check_inside(domain)
    return [rec for sm in samples(bumps) for rec in _records(
        "log_weight", n, beta, *_sides(sm, abs(2.0 * beta + n - 3.0), sm["r"], beta,
                                       _logs(sm, "log-weight inequality")))]


def verify_halfline(bumps, beta: float) -> list:
    """|2b - 1| ||(1+r)^{b-1} u|| <= 2 ||(1+r)^b u'|| + |2 min(0, 2b-1)|^{1/2} |u(0)|
    on the half line, u extended by zero."""
    if any(u.dimension != 1 for u in bumps):
        raise ValueError("half-line inequality is one-dimensional")
    gamma_hat = 2.0 * beta - 1.0
    records = []
    for sm in samples(bumps):
        lhs, rhs = _sides(sm, abs(gamma_hat), 1.0 + sm["r"], beta)
        rhs += math.sqrt(abs(2.0 * min(0.0, gamma_hat))) * np.abs(sm["u0"])
        records += _records("halfline", 1, beta, lhs, rhs)
    return records


def verify_corollary_chain(domain: ExteriorDomain, bumps) -> list:
    """Check every link of the norm chains implied by the inequalities at
    beta = 0, one record per link and bump; the domain's dimension picks
    the chain.

    case "i" (N = 3): rho-weighted <= sqrt(2) (1+r)-weighted <= sqrt(2)
    r-weighted <= sqrt(2) c_N radial derivative <= ... full gradient; the
    four links are recorded with the sqrt(2) on the first.
    case "ii" (N = 2): log-weighted <= 2 radial <= 2 full.
    """
    for u in bumps:
        u.check_inside(domain)
    n = domain.dimension
    case = "i" if n == 3 else "ii"

    def link(name, lhs, rhs):
        return VerificationRecord(f"chain_{case}_{name}", n, 0.0, lhs, rhs)

    records = []
    for sm in samples(bumps):
        if n == 3:
            # (du/dr)^2, |grad u|^2 = u'(s)^2 (4 pi s^2 w_s = 2 |c| s times the
            # shell weight), then u^2 over 1 + r^2, (1 + r)^2 and r^2
            u2, du2 = sm["u"] ** 2, sm["du"] ** 2
            rho, opr = _chain_weights(sm)
            norms = _sums(du2 * _shell(sm, 0.0, 2), du2 * (2.0 * sm["c"] * sm["s"] * sm["w"]),
                          u2 * rho, u2 * opr, u2 * _shell(sm, 0.0, 0))
        else:
            # the weighted densities in kept[2:]: (du/dr)^2 over du/dr, |grad u|^2,
            # then u^2 over (r ln r)^2
            r, kept = sm["r"], sm["kept"]
            np.square(sm["du_r"], out=kept[2])
            kept[3] = sm["grad"] ** 2
            d = np.multiply(r, _logs(sm, "chain case 'ii'"), out=kept[4])
            np.divide(sm["u"] ** 2, np.square(d, out=d), out=d)
            norms = _integrals(sm, 2, 3)
        for n_dr, n_gr, *weighted in np.sqrt(np.maximum(norms, 0.0)).T.tolist():
            if n == 2:
                records += [link("log_vs_radial", weighted[0], 2.0 * n_dr),
                            link("radial_vs_gradient", 2.0 * n_dr, 2.0 * n_gr)]
                continue
            n_rho, n_opr, n_r = weighted
            c_n = 2.0 / (n - 2.0)
            records += [link("rho_vs_1plusr", n_rho, WEIGHT_EQUIV * n_opr),
                        link("1plusr_vs_r", n_opr, n_r),
                        link("r_vs_radial", n_r, c_n * n_dr),
                        link("radial_vs_gradient", c_n * n_dr, c_n * n_gr)]
    return records


# ---------------------------------------------------------------------------
# proof identities (partial integration, before the triangle inequality)


@dataclass(frozen=True)
class IdentityRecord:
    variant: str
    dimension: int
    beta: float
    gamma_hat: float
    lhs: float
    rhs: float

    @property
    def rel_deviation(self) -> float:
        return abs(self.lhs - self.rhs) / max(abs(self.lhs), abs(self.rhs), 1e-300)

    @property
    def passed(self) -> bool:
        return self.rel_deviation <= IDENTITY_RTOL


def partial_integration_identity(bumps, beta: float, gamma_hat: float | None = None) -> list:
    """Quadrature check of the exact expansion of
    ||w^b du/dr + gamma_hat w^{b-1} u||^2 used to prove each inequality,
    one record per bump of a batch of one dimension, in order; the
    dimension picks the weight w: r (N = 3), r with a log (N = 2) or 1 + r
    (the half line).  Each record's densities are summed in one
    ``exact_sum``; a power w^0 is not taken, as in ``_sides``.  An N = 3
    record sums the square expanded, a^2 + 2ab + b^2, its cross term
    integrated on its own (``_shell``), so the identity still checks the
    partial integration against the u^2 term; its shell integrals need the
    bump off the origin, |center| > radius."""
    if not bumps:
        return []
    n = bumps[0].dimension
    for u in bumps:
        if u.dimension != n:
            raise ValueError(f"bump dimension {u.dimension} does not match {n} in the batch")
        if n == 3 and u.center_radius <= u.radius:
            raise ValueError(f"{u} reaches the origin: an N = 3 identity needs "
                             f"|center| > radius")
    variant = {3: "power", 2: "log", 1: "halfline"}[n]
    gh = 2.0 * beta + n - (3.0 if n == 2 else 2.0) if gamma_hat is None else gamma_hat
    records = []
    for sm in samples(bumps):
        lhs, rhs = (_shell_identity if n == 3 else _identity)(sm, n, beta, gh)
        records += [IdentityRecord(variant, n, beta, gh, left, right)
                    for left, right in zip(lhs.tolist(), rhs.tolist())]
    return records


def _shell_identity(sm: dict, n: int, beta: float, gh: float) -> tuple:
    """The two sides of the N = 3 identity for each record of a samples
    dict: the integral of a^2 + 2ab + b^2, a = r^beta du/dr and b = gh
    r^(beta-1) u, and the gradient term plus gh (gh - 2 beta - 1) times
    the u^2 term.  The three densities of a record are one row of one
    exact sum, the gradient and u^2 terms rows of their own, padded with
    zeros."""
    k = 2.0 * beta
    u, du = sm["u"], sm["du"]
    rows = np.zeros((3, len(u), 3, u.shape[1]))
    u_term = u**2 * _shell(sm, k, 0)
    rows[0, :, 0] = rows[1, :, 0] = du**2 * _shell(sm, k, 2)
    rows[0, :, 1] = 2.0 * gh * (u * du) * _shell(sm, k, 1)
    rows[0, :, 2] = gh**2 * u_term
    rows[2, :, 0] = u_term
    lhs, grad_term, u_sum = exact_sum(rows.reshape(3 * len(u), -1)).reshape(3, -1)
    return lhs, grad_term + gh * (gh - 2.0 * beta - n + 2.0) * u_sum


def _identity(sm: dict, n: int, beta: float, gh: float) -> tuple:
    """The two sides of the identity for each record of a half-line or N =
    2 samples dict, its densities in ``kept``."""
    r, uu, dur, kept = sm["r"], sm["u"], sm["du_r"], sm["kept"]
    # the densities, in kept[3:]: the combination's square, the gradient
    # term's and the u terms' w^{2b-2} u^2 over (ln r)^2 and ln r (N = 2)
    # or alone; the log (N = 2) is taken into kept[6]
    combo, grad, u_a, u_b = kept[3:7]
    logs = _logs(sm, "log identity") if n == 2 else None
    weight = r if n != 1 else 1.0 + r
    # combo = w^b du/dr + gh w^{b-1} u, with gh w^{b-1} divided by ln r for N = 2
    b = np.multiply(gh, np.power(weight, beta - 1, out=grad), out=grad) if beta != 1 else gh
    if logs is not None:
        b = np.divide(b, logs, out=grad)
    a = np.multiply(np.power(weight, beta, out=combo), dur, out=combo) if beta else dur
    np.square(np.add(a, np.multiply(b, uu, out=grad), out=combo), out=combo)
    np.square(dur, out=grad)
    if beta:
        grad *= np.power(weight, 2 * beta, out=u_a)
    power = np.power(weight, 2 * beta - 2, out=kept[2]) if 2 * beta - 2 else 1.0
    if logs is not None:
        np.divide(power, np.square(logs, out=u_a), out=u_a)
        np.divide(power, logs, out=u_b)
        kept[5:7] *= uu**2
    else:
        np.multiply(power, uu**2, out=u_a)
    lhs, grad_term, *u_terms = _integrals(sm, 3, 4 if n == 2 else 3)
    if n == 2:
        return lhs, (grad_term + gh * (gh + 1.0) * u_terms[0]
                     - gh * (n + 2.0 * beta - 2.0) * u_terms[1])
    # the boundary coefficient is -gh |u(0)|^2 per half line; the two-sided
    # whole-line form doubles it, but our test functions live on [0, inf)
    # extended by zero
    return lhs, grad_term + gh * (gh - 2.0 * beta - n + 2.0) * u_terms[0] - gh * sm["u0"] ** 2


# ---------------------------------------------------------------------------
# random suites


def random_bumps(domain: ExteriorDomain, count: int,
                 seed: int) -> list[BumpFunction]:
    """Deterministic random bumps strictly inside the domain, with centers
    up to 2.5 times the interface radius."""
    rng = np.random.default_rng(seed)
    out = []
    r_hi = 2.5 * domain.R
    for _ in range(count):
        cr = rng.uniform(1.05 * domain.a + 0.05, r_hi)
        rad = rng.uniform(0.05, 0.45) * (cr - domain.a)
        direction = rng.normal(size=domain.dimension)
        direction /= np.linalg.norm(direction)
        out.append(BumpFunction(tuple(cr * direction), rad))
    return out
