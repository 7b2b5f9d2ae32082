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

The samples and the densities summed over them go into arrays kept per
grid shape (``_grid``).  An N = 2 grid array is 221 KB, above glibc's
128 KB mmap threshold: a new one per record would be mapped, or taken from
a heap top that free trims back, and its pages faulted in anew each time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
# sampling resolution: Gauss-Legendre panels and order along every radial
# or distance interval, and angular nodes (polar cosines for N = 3, a ring
# of twice as many points for N = 2)
PANELS = 48
ORDER = 12
ANGULAR = 24


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

    @property
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
    time): the samples' r, du/dr and weights, ln r and three densities."""
    return np.empty((7,) + shape)


def samples(u: BumpFunction) -> dict:
    """Quadrature samples of (r, u, radial derivative, gradient magnitude,
    weight) over the support of a test function, and its value u0 at the
    origin of the half line (0 off the half line).

    Off-center ball bumps reduce to a 2D (distance, angle) integral by
    axial symmetry around the center direction: the samples are (distance,
    angle) arrays, u and the gradient magnitude, which depend on the
    distance only, (distance, 1) columns.  A one-dimensional bump is
    sampled on its support's part of [0, inf) with the plain measure dr.

    r, du/dr and the weights are arrays kept per shape (``_grid``): the
    next call of the same dimension overwrites them.
    """
    n = u.dimension
    if n == 1:
        c, rad = u.center[0], u.radius
        r, wr = _composite_interval(max(c - rad, 0.0), max(c + rad, 0.0), ORDER, PANELS)
        t = (r - c) / rad
        kept = _grid(r.shape)
        kept[0], kept[2] = r, wr
        val, der = mollifier_and_deriv(t)
        der = np.divide(der, rad, out=kept[1])
        t0 = -c / rad
        return {
            "r": kept[0],
            "u": val,
            "du_r": der,
            "grad": np.abs(der),
            "w": kept[2],
            "u0": float(mollifier(np.array([t0]))[0]),
            "dimension": 1,
        }
    if n == 3:
        cos, wmu = _gauss_legendre(ANGULAR)
        wang = 2.0 * math.pi * wmu
    elif n == 2:
        dirs, wang = _unit_sphere_rule(2, ANGULAR)
        cos = dirs[:, 0]
    else:
        raise ValueError("off-center bumps support dimensions 1-3")

    c = u.center_radius
    s, ws = _composite_interval(0.0, u.radius, ORDER, PANELS)
    t = s / u.radius
    val_s, der_s = mollifier_and_deriv(t)
    der_s = der_s / u.radius
    s = s[:, None]
    r, du_r, weight = _grid((len(s), len(cos)))[:3]
    # r = sqrt(c^2 + s^2 + 2 c s cos), and the radial derivative of u at
    # x = center + s*omega, (x/r) . grad u = u'(s) * (s + c cos) / r
    np.sqrt(np.add(c**2 + s**2, np.multiply(2.0 * c * s, cos, out=r), out=r), out=r)
    np.divide(np.multiply(der_s[:, None], np.add(s, c * cos, out=du_r), out=du_r), r, out=du_r)
    np.multiply(s ** (n - 1) * ws[:, None], wang, out=weight)
    return {
        "r": r,
        "u": val_s[:, None],
        "du_r": du_r,
        "grad": np.abs(der_s)[:, None],
        "w": weight,
        "u0": 0.0,
        "dimension": n,
    }


def _integral(sm: dict, density: np.ndarray) -> float:
    """The exact sum of ``density`` times the weights over the samples."""
    return exact_sum(np.multiply(density, sm["w"], out=_grid(sm["w"].shape)[6]).ravel())


def _norm(sm: dict, density: np.ndarray) -> float:
    return math.sqrt(max(_integral(sm, density), 0.0))


def _logs(sm: dict, what: str) -> np.ndarray:
    """ln r at the samples, for ``what``, which needs them all at r > 1."""
    if np.min(sm["r"]) <= 1.0:
        raise ValueError(f"{what} needs support at radius > 1")
    return np.log(sm["r"], out=_grid(sm["r"].shape)[3])


def _sides(sm: dict, const: float, w: np.ndarray, beta: float, logs=None):
    """The two sides of a weighted inequality: const ||w^{b-1} u|| (u
    divided by ``logs`` when given) and 2 ||w^b du/dr||.  A power w^0 is
    not taken: it is 1 (pow(x, +-0) = 1, C99 F.9.4.4), and 1 x = x, so the
    sides keep their bits."""
    lhs, rhs, tmp = sides = _grid(sm["w"].shape)[4:]
    factor = np.power(w, 2 * beta - 2, out=lhs) if 2 * beta - 2 else 1.0
    if logs is not None:
        factor = np.divide(factor, np.square(logs, out=tmp), out=lhs)
    np.multiply(factor, sm["u"] ** 2, out=lhs)
    lhs *= sm["w"]
    np.square(sm["du_r"], out=rhs)
    if beta:
        rhs *= np.power(w, 2 * beta, out=tmp)
    rhs *= sm["w"]
    lhs, rhs = np.sqrt(np.maximum(exact_sum(sides[:2].reshape(2, -1)), 0.0))
    return const * float(lhs), 2.0 * float(rhs)


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


# ---------------------------------------------------------------------------
# the inequalities


def verify_power_weight(domain: ExteriorDomain, u, beta: float) -> VerificationRecord:
    """(2b + N - 2) ||r^{b-1} u|| <= 2 ||r^b du/dr|| for b > 1 - N/2."""
    sm = samples(u)
    n = sm["dimension"]
    if beta <= 1.0 - n / 2.0:
        raise ValueError(f"beta must exceed 1 - N/2 = {1 - n / 2}, got {beta}")
    u.check_inside(domain)
    lhs, rhs = _sides(sm, 2.0 * beta + n - 2.0, sm["r"], beta)
    return VerificationRecord("power_weight", n, beta, lhs, rhs)


def verify_log_weight(domain: ExteriorDomain, u, beta: float) -> VerificationRecord:
    """|2b + N - 3| ||r^{b-1} u / ln r|| <= 2 ||r^b du/dr|| for supports at
    radius > 1 and b outside the band (1 - N/2, (3 - N)/2)."""
    sm = samples(u)
    n = sm["dimension"]
    lo, hi = 1.0 - n / 2.0, (3.0 - n) / 2.0
    if lo < beta < hi:
        raise ValueError(
            f"beta = {beta} lies in the forbidden band ({lo}, {hi}) for N = {n}"
        )
    if domain.a < 1.0:
        raise ValueError("log-weight inequality needs inner radius >= 1")
    u.check_inside(domain)
    logs = _logs(sm, "log-weight inequality")
    lhs, rhs = _sides(sm, abs(2.0 * beta + n - 3.0), sm["r"], beta, logs)
    return VerificationRecord("log_weight", n, beta, lhs, rhs)


def verify_halfline(u, beta: float) -> VerificationRecord:
    """|2b - 1| ||(1+r)^{b-1} u|| <= 2 ||(1+r)^b u'|| + |2 min(0, 2b-1)|^{1/2} |u(0)|
    on the half line, u extended by zero."""
    sm = samples(u)
    if sm["dimension"] != 1:
        raise ValueError("half-line inequality is one-dimensional")
    gamma_hat = 2.0 * beta - 1.0
    lhs, rhs = _sides(sm, abs(gamma_hat), 1.0 + sm["r"], beta)
    rhs += math.sqrt(abs(2.0 * min(0.0, gamma_hat))) * abs(sm["u0"])
    return VerificationRecord("halfline", 1, beta, lhs, rhs)


def verify_corollary_chain(domain: ExteriorDomain, u) -> list[VerificationRecord]:
    """Check every link of the norm chains implied by the inequalities at
    beta = 0, one record per link; the domain's dimension picks the chain.

    case "i" (N = 3): rho-weighted <= sqrt(2) (1+r)-weighted <= sqrt(2)
    r-weighted <= sqrt(2) c_N radial derivative <= ... full gradient; the
    four links are recorded with the sqrt(2) on the first.
    case "ii" (N = 2): log-weighted <= 2 radial <= 2 full.
    """
    u.check_inside(domain)
    sm = samples(u)
    n = sm["dimension"]
    case = "i" if n == 3 else "ii"

    def link(name, lhs, rhs):
        return VerificationRecord(f"chain_{case}_{name}", n, 0.0, lhs, rhs)

    r, u2, d = sm["r"], sm["u"] ** 2, _grid(sm["w"].shape)[4]
    n_dr = _norm(sm, np.square(sm["du_r"], out=d))
    n_gr = _norm(sm, sm["grad"] ** 2)

    if n == 2:
        logs = _logs(sm, "chain case 'ii'")
        n_log = _norm(sm, np.divide(u2, np.square(np.multiply(r, logs, out=d), out=d), out=d))
        return [link("log_vs_radial", n_log, 2.0 * n_dr),
                link("radial_vs_gradient", 2.0 * n_dr, 2.0 * n_gr)]

    n_rho = _norm(sm, np.divide(u2, np.add(1.0, np.square(r, out=d), out=d), out=d))
    n_opr = _norm(sm, np.divide(u2, np.square(np.add(1.0, r, out=d), out=d), out=d))
    n_r = _norm(sm, np.divide(u2, np.square(r, out=d), out=d))
    c_n = 2.0 / (n - 2.0)
    return [link("rho_vs_1plusr", n_rho, WEIGHT_EQUIV * n_opr),
            link("1plusr_vs_r", n_opr, n_r),
            link("r_vs_radial", n_r, c_n * n_dr),
            link("radial_vs_gradient", c_n * n_dr, c_n * n_gr)]


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
    or 1 + r (the half line)."""
    sm = samples(u)
    n = sm["dimension"]
    r, uu, dur = sm["r"], sm["u"], sm["du_r"]
    variant = {3: "power", 2: "log", 1: "halfline"}[n]
    a, b = _grid(r.shape)[4:6]
    logs = _logs(sm, "log identity") if n == 2 else None
    weight = r if n != 1 else 1.0 + r
    gh = 2.0 * beta + n - (3.0 if n == 2 else 2.0) if gamma_hat is None else gamma_hat
    # combo = w^b du/dr + gh w^{b-1} u, with gh w^{b-1} divided by ln r for N = 2
    np.multiply(gh, np.power(weight, beta - 1, out=b), out=b)
    if logs is not None:
        b /= logs
    np.multiply(np.power(weight, beta, out=a), dur, out=a)
    lhs = _integral(sm, np.square(np.add(a, np.multiply(b, uu, out=b), out=a), out=a))
    np.multiply(np.power(weight, 2 * beta, out=a), np.square(dur, out=b), out=a)
    grad_term = _integral(sm, a)

    def u_term(logs_power):  # the integral of w^{2b-2} u^2 / (ln r)^logs_power
        np.power(weight, 2 * beta - 2, out=a)
        if logs_power:
            np.divide(a, logs if logs_power == 1 else np.square(logs, out=b), out=a)
        return _integral(sm, np.multiply(a, uu**2, out=a))

    if n == 2:
        rhs = (grad_term + gh * (gh + 1.0) * u_term(2)
               - gh * (n + 2.0 * beta - 2.0) * u_term(1))
    else:
        # the boundary coefficient is -gh |u(0)|^2 per half line (u(0) is
        # 0 for N = 3); the two-sided whole-line form doubles it, but our
        # test functions live on [0, inf) extended by zero
        rhs = grad_term + gh * (gh - 2.0 * beta - n + 2.0) * u_term(0) - gh * sm["u0"] ** 2
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

