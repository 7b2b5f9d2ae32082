"""Every constant entering the guaranteed bounds.

The unbounded-domain Poincare constant is a closed formula in the
dimension.  The remaining constants (interior Friedrichs constant,
boundary extension constant, interface trace constant) reduce to
one-dimensional radial problems per spherical-harmonic degree l, because
the coefficient enters them only through its ellipticity bounds.  Each
radial problem has explicit solutions: r^l and r^{-l-1} for N = 3,
r^{+-l} for N = 2 and l >= 1, and 1 and ln r for N = 2 and l = 0.

* The minimal-energy profile with prescribed endpoint values is
  harmonic, so its Dirichlet energy is a boundary flux of these
  solutions; the extension and trace constants are explicit per degree.
  The extension profile falls to 0 at the outer radius R: one that falls
  to 0 further in, extended by 0 out to R, is admissible for R too, so R
  gives the least energy, and the least constant, for every degree.
* The Friedrichs eigenproblem is a Bessel (N = 2) or spherical Bessel
  (N = 3) equation; its constant is 1/k at the first root of an explicit
  transcendental function.  The root is searched on enclosures with
  explicit error bounds (:mod:`extbounds.special`) only: every sign the
  search acts on is proven, and it ends at adjacent floats with proven
  opposite signs, of which the conservative one is reported.  J0, J1,
  Y0 and Y1 are enclosed in the package, so no constant needs scipy.

Every reported value, mode energies included, is rounded outward by the
relative margin ``OUTWARD_RTOL`` (the reports' ``rel_accuracy``), which
covers the floating-point error of evaluating the closed forms.  The
extension and trace constants are maxima over degrees l <= ``modes``.
:class:`ConstantsBundle`, which each ``Problem`` takes as its
``constants``, derives each constant on its first read, with ``modes``
the trace degree L, the band onto which every trace in a bound is
projected.  For the degrees above it the
trace constant has a closed-form bound, ``params["above_band"]``.

Reported constants are tied to the spectral H^{+-1/2} norms of
:mod:`extbounds.traces`; an equivalent trace norm would rescale them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import special
from .fields import Coefficient
from .geometry import ExteriorDomain
from .traces import sobolev_weight

# relative outward rounding of every reported closed-form value; the
# evaluations below agree with 50-digit ones to 2e-14 relative on
# annuli with R/a from 1.001 to 30
OUTWARD_RTOL = 1e-12
# steps of the scan for the first sign change of the Friedrichs root
# function where its bracket may hold two roots (N = 2 with R > 8a), else
# 1; only the step it ends in is searched further
ROOT_SCAN_STEPS = 64
# fixed-point bits of the first enclosure that proves a sign of the root
# function, and the most bits tried, doubling, before giving up
PROOF_BITS = 64
PROOF_BITS_MAX = 4096


class ConstantError(RuntimeError):
    """Root bracketing failure or bad mode data."""


@dataclass(frozen=True)
class ConstantReport:
    """A computed constant plus the evidence behind it."""

    name: str
    value: float
    method: str  # "formula" | "closed_form"
    mode_values: tuple | None
    params: dict
    rel_accuracy: float

    def __post_init__(self):
        if not self.value > 0.0:
            raise ConstantError(f"constant {self.name} must be positive")

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "value": self.value,
            "method": self.method,
            "rel_accuracy": self.rel_accuracy,
            "params": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self.params.items()
            },
        }
        if self.mode_values is not None:
            out["mode_values"] = list(self.mode_values)
        return out


def exterior_poincare_constant(dimension: int) -> float:
    """Best-available constant c with ||w||_weighted <= c ||grad w|| on the
    exterior domain: 2/(N-2) for N >= 3 (weight 1/rho), 2 for N = 2
    (weight 1/(r ln r))."""
    if dimension < 2:
        raise ValueError("dimension must be >= 2")
    if dimension >= 3:
        return 2.0 / (dimension - 2)
    return 2.0


def interior_weight_constant(domain: ExteriorDomain, A: Coefficient) -> float:
    """Closed-formula weight for the interior residual term:
    c_N (1 + R)/sqrt(c_A) for N >= 3 and 2 R ln R / sqrt(c_A) for N = 2
    (sup of r resp. r ln r over the annulus is attained at R)."""
    n = domain.dimension
    if n == 2:
        return 2.0 * domain.R * math.log(domain.R) / math.sqrt(A.c_A)
    return exterior_poincare_constant(n) * (1.0 + domain.R) / math.sqrt(A.c_A)


# ---------------------------------------------------------------------------
# closed forms of the per-degree radial problems


def _outward(x: float) -> float:
    return x * (1.0 + OUTWARD_RTOL)


def _closed_form(name: str, domain: ExteriorDomain, values, per_degree: bool,
                 **params) -> ConstantReport:
    """The report of a closed-form constant: the largest of ``values``,
    which are rounded outward already, with its index and the domain
    [N, a, R] added to ``params``; ``values`` is reported as
    ``mode_values`` when it holds one value per degree."""
    values = tuple(values)
    params.update(extremum="max", extremum_index=int(np.argmax(values)),
                  domain=[domain.dimension, domain.a, domain.R])
    return ConstantReport(name=name, value=max(values), method="closed_form",
                          mode_values=values if per_degree else None,
                          params=params, rel_accuracy=OUTWARD_RTOL)


def _check_modes(modes: int) -> None:
    if modes < 0:
        raise ValueError(f"need modes >= 0, got {modes}")


def _harmonic_flux(dimension: int, ell: int, inner: float, outer: float,
                   at_inner: bool) -> float:
    """Boundary flux of the degree-``ell`` radial harmonic profile on
    [inner, outer], which equals its Dirichlet energy
    int (psi'^2 + l(l+N-2) psi^2/r^2) r^{N-1} dr divided by the endpoint
    area factor: -psi'(inner) for psi(inner) = 1, psi(outer) = 0
    (``at_inner``), else psi'(outer) for psi(inner) = 0, psi(outer) = 1.

    With s = ln(outer/inner), m = 2l + N - 2 and q = (inner/outer)^m the
    flux is ((l+N-2) + l q)/(inner (1 - q)), resp. (l + (l+N-2) q)/(outer
    (1 - q)); for m = 0 (N = 2, l = 0) it is 1/(inner s), resp.
    1/(outer s).  All terms are positive and 1 - q is taken by expm1, so
    there is no cancellation."""
    s = math.log1p((outer - inner) / inner)
    m = 2 * ell + dimension - 2
    radius = inner if at_inner else outer
    if m == 0:
        return 1.0 / (radius * s)
    q = math.exp(-m * s)
    k = ell + dimension - 2
    num = k + ell * q if at_inner else ell + k * q
    return num / (radius * -math.expm1(-m * s))


def _friedrichs_function(dimension: int, a: float, R: float):
    """``enclose(k, bits)``: an :class:`~extbounds.special.Enclosure` of a
    positive multiple of g(k) at the exact float arguments, where g's
    first positive root k gives the degree-0 eigenvalue k^2 of -div grad
    on the annulus, zero at r = a and free at r = R: g(k) is
    sin(kL) - kR cos(kL) with L = R - a for N = 3 (the profile is
    sin(k(r - a))/r), J1(kR) Y0(ka) - Y1(kR) J0(ka) for N = 2.

    For N = 2 the multiple is, with x = ka, X = kR and the power-series
    parts s_nu of :func:`~extbounds.special.bessel_series`,
    (pi/2) g = J0(x) (1/X + s1(X)) - J1(X) (s0(x) + ln(R/a) J0(x)),
    in which Euler's constant and pi cancel; or, from Hankel's expansion
    with theta = k(R - a),
    (pi/2) sqrt(xX) g = (P1 P0 + Q1 Q0) cos theta + (P1 Q0 - Q1 P0) sin theta,
    P0, Q0 taken at x and P1, Q1 at X.  The expansion is used when x is
    large enough for its smallest term to fall below 2**-bits."""
    fa, fR = Fraction(a), Fraction(R)
    if dimension == 3:
        def enclose3(k, bits):
            k = Fraction(k)
            kR = k * fR
            c, s = special.cos_sin(k * (fR - fa), bits)
            return s - c.times(kR.numerator, kR.denominator)

        return enclose3

    logs = {}  # ln(R/a) per number of bits

    def enclose2(k, bits):
        k = Fraction(k)
        x, X = k * fa, k * fR
        if x > (bits + 16) * math.log(2) / 2:  # e^(-2x) below 2**-bits
            pq0, pq1 = special.hankel_pq(0, x, bits), special.hankel_pq(1, X, bits)
            if pq0 is not None and pq1 is not None:
                (p0, q0), (p1, q1) = pq0, pq1
                c, s = special.cos_sin(k * (fR - fa), bits)
                return (p1 * p0 + q1 * q0) * c + (p1 * q0 - q1 * p0) * s
        j0, s0 = special.bessel_series(0, x, bits)
        j1, s1 = special.bessel_series(1, X, bits)
        if bits not in logs:
            logs[bits] = special.log(fR / fa, bits)
        inv = special.Enclosure.of(X.denominator, X.numerator, bits)
        return j0 * (inv + s1) - j1 * (s0 + logs[bits] * j0)

    return enclose2


def _proven(enclose, k: float) -> tuple[int, float]:
    """The sign of the root function at k, +1 or -1, proven by an
    enclosure at ``PROOF_BITS`` or, where that one straddles 0, at each
    doubling of it up to ``PROOF_BITS_MAX``; and that enclosure's
    midpoint as a float."""
    bits = PROOF_BITS
    while bits <= PROOF_BITS_MAX:
        e = enclose(k, bits)
        sign = e.sign()
        if sign:
            # true division, not ldexp: the value may exceed a float's range
            return sign, e.value / (1 << bits)
        bits *= 2
    raise ConstantError(
        f"sign of the root function at {k!r} not proven with {PROOF_BITS_MAX} bits")


def _first_root(enclose, lo: float, hi: float, before: int, steps: int) -> float:
    """Left end of the pair of adjacent floats around the first root of
    the root function in (lo, hi), where its proven sign leaves
    ``before``, the sign it must have at ``lo``.

    Every decision rests on a sign from :func:`_proven`, so the floats
    around a root alone in (lo, hi) do not depend on the path: one step,
    to ``hi``, finds it.  A scan of ``steps`` equal steps from ``lo``
    stops at the first point whose sign is not ``before``.  Illinois steps
    (regula falsi that halves the value kept at an end that stayed twice
    in a row) on the enclosures' midpoints then shrink that step down to
    adjacent floats; each step is clamped into the open bracket, so each
    one shrinks it.  A wrong sign at ``lo``, as when ``lo`` was rounded
    past the root, raises instead of finding a later root."""
    sign, f_lo = _proven(enclose, lo)
    if sign != before:
        raise ConstantError(f"the root function has the wrong sign at {lo!r}")
    start, step = lo, (hi - lo) / steps
    for i in range(1, steps + 1):
        right = hi if i == steps else start + i * step
        sign, f_right = _proven(enclose, right)
        if sign != before:
            break
        lo, f_lo = right, f_right
    else:
        raise ConstantError(f"no sign change of the root function below {hi!r}")
    kept = 0  # the end that stayed on the last step: -1 lo, +1 right
    while (inner := math.nextafter(lo, right)) < right:
        k = right - f_right * (right - lo) / (f_right - f_lo)
        k = min(max(k, inner), math.nextafter(right, lo))
        sign, f_k = _proven(enclose, k)
        if sign == before:
            lo, f_lo = k, f_k
            if kept == 1:
                f_right *= 0.5
            kept = 1
        else:
            right, f_right = k, f_k
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    return lo


def interior_friedrichs_constant(domain: ExteriorDomain) -> ConstantReport:
    """Best constant in ||w|| <= c ||grad w|| over the annulus for
    functions vanishing on the inner sphere only.

    Per degree l the constant is 1/sqrt(lambda_l) for the smallest
    eigenvalue of the radial problem with potential l(l+N-2)/r^2.  That
    potential is nonnegative and increasing in l, so lambda_l increases
    with l and the constant is attained at l = 0 over all degrees: it
    takes no mode count and reports no per-degree values.  lambda_0 = k^2
    at the first root of :func:`_friedrichs_function`.

    With hi = pi/(2(R - a)) that root lies in [(a/R)^((N-1)/2) hi, hi).
    From below by the Rayleigh quotient with the weight r^{N-1} frozen at
    its extremes, which bounds the n-th eigenvalue below by (a/R)^{N-1}
    times that of -w'' with w(a) = 0 and w'(R) = 0, ((2n - 1) hi)^2.  From
    above exactly for N = 3, and for N = 2 by comparison after the
    substitution w = sqrt(r) p, which gives -w'' - w/(4r^2) = k^2 w with
    w(a) = 0 and w'(R) = w(R)/(2R), whose first eigenvalue lies below that
    of the same problem without the negative potential, itself below hi^2.

    For N = 3 the root is the only one below hi: with theta = k(R - a) the
    root function vanishes where tan theta = (R/(R - a)) theta, once in
    (0, pi/2), and next at k > 2 hi.  For N = 2 the frozen-weight bound
    puts the second root at k_2 >= 3 sqrt(a/R) hi, which for R <= 8a (8a
    is exact) is 1.06 hi or more, far beyond the rounding of hi.  These
    brackets take one step; beyond, the scan of ``ROOT_SCAN_STEPS`` steps
    picks the first sign change (the second root lies at 2.5 hi or more
    up to R/a = 1e5, by 30-digit evaluation).  Where R is so close to a
    that no float lies strictly between lo and hi, the search has no point
    to prove a sign at, and the rounding of hi may have put the root above
    it: ``ConstantError`` names a and R before any sign is proven."""
    n, a, R = domain.dimension, domain.a, domain.R
    hi = math.pi / (2.0 * (R - a))
    lo = (a / R) ** ((n - 1) / 2) * hi
    if not math.nextafter(lo, hi) < hi:
        raise ConstantError(
            f"the bracket ({lo!r}, {hi!r}) of the Friedrichs root holds no float for "
            f"a={a!r}, R={R!r}")
    steps = 1 if n == 3 or R <= 8.0 * a else ROOT_SCAN_STEPS
    k = _first_root(_friedrichs_function(n, a, R), lo, hi, 1 if n == 2 else -1, steps)
    return _closed_form("interior_friedrichs", domain, [_outward(1.0 / k)], False)


def boundary_extension_constant(
    domain: ExteriorDomain, A: Coefficient, modes: int
) -> ConstantReport:
    """Constant of the concrete mode-wise extension operator from the
    inner sphere: a degree-l trace coefficient is extended by the
    minimal-energy (harmonic) radial profile with value 1 at ``a`` and 0
    at ``R``.  The report's ``params["mode_energies"]`` holds the
    Dirichlet energy per unit surface-L2 coefficient, -psi'(a), which
    :func:`extbounds.majorant.boundary_term` reuses, weighted by
    ``c_A_plus``, for the direct extension-energy bound."""
    _check_modes(modes)
    n, a, R = domain.dimension, domain.a, domain.R
    energies = [_harmonic_flux(n, ell, a, R, True) for ell in range(modes + 1)]
    ratios = (_outward(math.sqrt(e / math.sqrt(sobolev_weight(ell, n, a)) * A.c_A_plus))
              for ell, e in enumerate(energies))
    return _closed_form("boundary_extension", domain, ratios, True, modes=modes, cutoff=R,
                        mode_energies=tuple(_outward(e) for e in energies),
                        c_A_plus=A.c_A_plus)


def interface_trace_constant(
    domain: ExteriorDomain, A: Coefficient, modes: int
) -> ConstantReport:
    """Constant bounding the interface H^{1/2} trace norm by the global
    energy norm, computed through the annulus side: per degree, the
    minimal Dirichlet energy of a radial profile vanishing at ``a`` with
    unit surface-L2 trace coefficient at ``R`` is psi'(R) for the
    harmonic profile with psi(a) = 0, psi(R) = 1; only the lower
    ellipticity bound of the coefficient is used.

    ``params["above_band"]`` bounds the constants of all degrees
    l > ``modes``: with psi'(R) >= l/R and w_l^{1/2} <= 1 + (l + (N-2)/2)/R,
    C_l^2 = w_l^{1/2}/(c_A psi'(R)) <= (1 + (R + (N-2)/2)/l)/c_A, which
    falls with l, so its value at l = modes + 1 bounds them all."""
    _check_modes(modes)
    n, a, R = domain.dimension, domain.a, domain.R
    energies = [_harmonic_flux(n, ell, a, R, False) for ell in range(modes + 1)]
    consts = (_outward(math.sqrt(math.sqrt(sobolev_weight(ell, n, R)) / (A.c_A * e)))
              for ell, e in enumerate(energies))
    above_band = _outward(math.sqrt((1.0 + (R + (n - 2) / 2) / (modes + 1)) / A.c_A))
    return _closed_form("interface_trace", domain, consts, True, modes=modes,
                        above_band=above_band, c_A=A.c_A)


@dataclass(frozen=True)
class ConstantsBundle:
    """Every constant of the bounds on ``domain`` with coefficient ``A``,
    the extension and trace constants over the degrees l <= ``modes``,
    each derived on its first read and kept: estimate I reads only
    ``poincare`` and ``extension``, so a bound that does not read ``c_o``
    proves no Friedrichs root.  Each constant is computed by this module's
    function of its name, looked up when it runs.  :meth:`derive_all`
    derives them all.  :func:`extbounds.majorant.boundary_term` reads one
    mode energy per degree of the mismatch, and
    :func:`extbounds.majorant.estimate_III` pairs the jump's projection
    onto those degrees with the error's trace, and the rest of the jump
    through the trace constant's ``above_band``."""

    domain: ExteriorDomain
    A: Coefficient
    modes: int

    NAMES = ("poincare", "c_o_formula", "friedrichs", "c_o_eigen", "extension", "trace")

    @property
    def cutoff(self) -> float:
        """The extension's cutoff radius, always R (read by perfbench)."""
        return self.domain.R

    @cached_property
    def poincare(self) -> float:
        return exterior_poincare_constant(self.domain.dimension)

    @cached_property
    def c_o_formula(self) -> float:
        return interior_weight_constant(self.domain, self.A)

    @cached_property
    def friedrichs(self) -> ConstantReport:
        return interior_friedrichs_constant(self.domain)

    @cached_property
    def c_o_eigen(self) -> float:
        return self.friedrichs.value / math.sqrt(self.A.c_A)

    @cached_property
    def extension(self) -> ConstantReport:
        return boundary_extension_constant(self.domain, self.A, self.modes)

    @cached_property
    def trace(self) -> ConstantReport:
        return interface_trace_constant(self.domain, self.A, self.modes)

    @property
    def c_o(self) -> float:
        """Weight of the interior residual in estimates II and III: the
        smaller of two valid constants.  In 3D the Friedrichs-based one is
        the smaller at small R, the closed formula at large R (between
        R = 15 and 16 for a = 1).  In 2D (a >= 1) it is always the
        Friedrichs-based one: C_F^2 <= int_a^R r ln(r/a) dr < R^2 ln(R)/2
        gives C_F <= 2 R ln R for R >= 3, and the root bracket's
        C_F <= 2 R (R - a)/(a pi) <= 2 (R - a) <= 2 R ln R below."""
        return min(self.c_o_formula, self.c_o_eigen)

    def derive_all(self) -> "ConstantsBundle":
        """This bundle, with every constant derived."""
        for name in self.NAMES:
            getattr(self, name)
        return self
