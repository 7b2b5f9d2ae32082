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
each; the half line's records are summed with them, a row each, and an
off-center bump's (distance, angle) grid is built in arrays kept per grid
shape (``_grid``), 288 distances by 16 polar cosines (N = 3) or 32 ring
points (N = 2): the angular integrand is analytic away from r = 0 (and
ln r = 0), and ``random_bumps`` keeps radius / |center| <= 0.36, so the
records lie within 1e-15 of a finer reference rule
(``tests/poincare_convergence.py``).  Every record sums all its densities
in one ``exact_sum``; exact sums do not depend on order, so a record has
the same bits in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fields import mollifier, mollifier_and_deriv
from .geometry import (
    ExteriorDomain,
    _composite_interval,
    _gauss_legendre,
    _unit_sphere_rule,
    exact_sum,
)

# sup (1+r)/sqrt(1+r^2) over r >= 0, attained at r = 1
WEIGHT_EQUIV = math.sqrt(2.0)
PASS_RTOL = 1e-10
IDENTITY_RTOL = 1e-9
# sampling resolution: Gauss-Legendre panels and order along the half line's
# intervals (an off-center bump's distance interval [0, radius], half its
# diameter, takes half as many panels of the same width), and angular nodes
# (polar cosines for N = 3, a ring of twice as many points for N = 2)
PANELS = 48
ORDER = 12
ANGULAR = 16
# bumps sampled at once: a half-line (16, 576) array is 74 KB and an
# off-center (16, 288) one 37 KB, below glibc's 128 KB mmap threshold, so a
# batch's radial arrays come from the heap
BATCH = 16


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
    """Seven arrays of a grid shape, kept across records (one record at a
    time): the samples' r, weights and du/dr, then four for densities.
    The seven of an N = 2 grid take 516 KB, above glibc's 128 KB mmap
    threshold: a new set per record would be mapped and faulted in anew."""
    return np.empty((7,) + shape)


def samples(bumps):
    """Quadrature samples of (r, u, radial derivative, gradient magnitude,
    weight) over the supports of a batch of test functions of one
    dimension, and their values u0 at the origin of the half line (0 off
    the half line), BATCH bumps at a time.  Every array has one row per
    record: the half line yields one dict per BATCH bumps, a row each; an
    off-center ball bump yields a dict of its own, with one row.

    Off-center ball bumps reduce to a 2D (distance, angle) integral by
    axial symmetry around the center direction: the samples are (distance,
    angle) arrays, u and the gradient magnitude, which depend on the
    distance only, (distance, 1) columns.  A one-dimensional bump is
    sampled on its support's part of [0, inf) with the plain measure dr.

    Each dict's ``kept`` holds seven arrays of its samples' shape, the
    last four free for densities.  Off the half line they are the arrays
    kept per shape (``_grid``), r, the weights and du/dr the first three:
    the next dict of the same dimension overwrites them.
    """
    if not bumps:
        return
    n = bumps[0].dimension
    if n == 3:
        cos, wang = _gauss_legendre(ANGULAR)
        wang = 2.0 * math.pi * wang
    elif n == 2:
        dirs, wang = _unit_sphere_rule(2, ANGULAR)
        cos = dirs[:, 0]
    elif n != 1:
        raise ValueError("off-center bumps support dimensions 1-3")
    for start in range(0, len(bumps), BATCH):
        batch = bumps[start:start + BATCH]
        rad = np.array([u.radius for u in batch])
        c = np.array([u.center[0] if n == 1 else 0.0 for u in batch])
        s, ws = _composite_interval(np.maximum(c - rad, 0.0), np.maximum(c + rad, 0.0),
                                    ORDER, PANELS if n == 1 else PANELS // 2)
        val, der = mollifier_and_deriv((s - c[:, None]) / rad[:, None])
        der /= rad[:, None]
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


def _integrals(sm: dict, first: int, count: int) -> np.ndarray:
    """The integrals of the ``count`` densities ``kept[first:first + count]``
    of a samples dict over each of its records, the densities multiplied
    by the weights in place and summed in one ``exact_sum``: a (count,
    records) array."""
    dens = sm["kept"][first:first + count]
    dens *= sm["w"]
    return exact_sum(dens.reshape(count * len(dens[0]), -1)).reshape(count, -1)


def _logs(sm: dict, what: str) -> np.ndarray:
    """ln r at the samples, for ``what``, which needs them all at r > 1."""
    if np.min(sm["r"]) <= 1.0:
        raise ValueError(f"{what} needs support at radius > 1")
    return np.log(sm["r"], out=sm["kept"][6])


def _sides(sm: dict, const: float, w: np.ndarray, beta: float, logs=None):
    """The two sides of a weighted inequality for each record: const
    ||w^{b-1} u|| (u divided by ``logs`` when given) and 2 ||w^b du/dr||,
    as two arrays.  A power w^0 is not taken: it is 1 (pow(x, +-0) = 1,
    C99 F.9.4.4), and 1 x = x, so the sides keep their bits."""
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
        "power_weight", n, beta, *_sides(sm, 2.0 * beta + n - 2.0, sm["r"], beta))]


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
        # the weighted densities in kept[2:]: (du/dr)^2 over du/dr, |grad u|^2,
        # then u^2 over (r ln r)^2 (N = 2) or over 1 + r^2, (1 + r)^2 and r^2
        r, u2, kept = sm["r"], sm["u"] ** 2, sm["kept"]
        np.square(sm["du_r"], out=kept[2])
        kept[3] = sm["grad"] ** 2
        if n == 2:
            d = np.multiply(r, _logs(sm, "chain case 'ii'"), out=kept[4])
            np.divide(u2, np.square(d, out=d), out=d)
        else:
            d = kept[4:7]
            np.divide(u2, np.add(1.0, np.square(r, out=d[0]), out=d[0]), out=d[0])
            np.divide(u2, np.square(np.add(1.0, r, out=d[1]), out=d[1]), out=d[1])
            np.divide(u2, np.square(r, out=d[2]), out=d[2])
        norms = np.sqrt(np.maximum(_integrals(sm, 2, 3 if n == 2 else 5)[:, 0], 0.0)).tolist()
        n_dr, n_gr = norms[:2]
        if n == 2:
            records += [link("log_vs_radial", norms[2], 2.0 * n_dr),
                        link("radial_vs_gradient", 2.0 * n_dr, 2.0 * n_gr)]
            continue
        n_rho, n_opr, n_r = norms[2:]
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


def partial_integration_identity(
    u, beta: float, gamma_hat: float | None = None
) -> IdentityRecord:
    """Quadrature check of the exact expansion of
    ||w^b du/dr + gamma_hat w^{b-1} u||^2 used to prove each inequality;
    the dimension of u picks the weight w: r (N = 3), r with a log (N = 2)
    or 1 + r (the half line).  Its densities are summed in one
    ``exact_sum``; a power w^0 is not taken, as in ``_sides``."""
    (sm,) = samples([u])
    n = u.dimension
    r, uu, dur, kept = sm["r"], sm["u"], sm["du_r"], sm["kept"]
    variant = {3: "power", 2: "log", 1: "halfline"}[n]
    # the densities, in kept[3:]: the combination's square, the gradient
    # term's and the u terms' w^{2b-2} u^2 over (ln r)^2 and ln r (N = 2)
    # or alone; the log (N = 2) is taken into kept[6]
    combo, grad, u_a, u_b = kept[3:7]
    logs = _logs(sm, "log identity") if n == 2 else None
    weight = r if n != 1 else 1.0 + r
    gh = 2.0 * beta + n - (3.0 if n == 2 else 2.0) if gamma_hat is None else gamma_hat
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
    lhs, grad_term, *u_terms = _integrals(sm, 3, 4 if n == 2 else 3)[:, 0].tolist()

    if n == 2:
        rhs = (grad_term + gh * (gh + 1.0) * u_terms[0]
               - gh * (n + 2.0 * beta - 2.0) * u_terms[1])
    else:
        # the boundary coefficient is -gh |u(0)|^2 per half line (u(0) is
        # 0 for N = 3); the two-sided whole-line form doubles it, but our
        # test functions live on [0, inf) extended by zero
        u0 = float(sm["u0"][0])
        rhs = grad_term + gh * (gh - 2.0 * beta - n + 2.0) * u_terms[0] - gh * u0**2
    return IdentityRecord(variant, n, beta, gh, lhs, rhs)


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
