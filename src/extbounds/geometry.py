"""Spherical exterior domains and deterministic quadrature over them.

The domain is the exterior of a ball of radius ``a`` in R^N, N = 2 or 3,
split by an artificial spherical interface of radius ``R`` into a bounded
annulus ``omega_i`` and an unbounded tail ``omega_e``.  Quadrature rules
are node/weight lists, built from a rule's radial and angular factors on
the first read, so consumers never depend on how a rule was built; the
tail is mapped to a finite interval with the substitution r = R/t, which
integrates finite Laurent series in 1/r exactly.

A rule's (M, N) nodes are column-major, one contiguous column per
coordinate, so per-node broadcasts run over long contiguous runs instead
of rows of N floats; closures must be elementwise and give the same bits
for any layout (see ``fields``).  Nothing is kept per node array:
``node_radii`` computes each radius from its own row on every call.

All reductions go through ``exact_sum``, which returns the correctly
rounded sum of its values, bit-equal to ``math.fsum``: integrals are
bit-reproducible and independent of node ordering or any parallel
evaluation strategy.  It extracts the values level by level with numpy,
each level's sum exact (the error-free extraction of Rump, Ogita and
Oishi, SIAM J. Sci. Comput. 31, 2008), and sums each row of a 2-D array
in one call.  A first pass of one level, with a proven bound on the
float sum of the rests, decides the rows at once; the rows it leaves
open are extracted deeper until the rounding of their totals is fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

REGIONS = ("omega_i", "omega_e", "sphere_gamma", "sphere_Gamma")


class QuadratureError(ValueError):
    """Raised for invalid rule parameters or non-finite integrand values."""


@dataclass(frozen=True)
class ExteriorDomain:
    """Exterior of the ball of radius ``inner_radius`` in R^2 or R^3 with
    interface at ``interface_radius``."""

    dimension: int
    inner_radius: float
    interface_radius: float

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dimension}")
        if not 0.0 < self.inner_radius < self.interface_radius:
            raise ValueError(
                "radii must satisfy 0 < inner_radius < interface_radius, got "
                f"a={self.inner_radius}, R={self.interface_radius}"
            )
        if self.dimension == 2 and self.inner_radius < 1.0:
            # The two-dimensional bounds need the complement of the domain
            # to contain the unit ball (the log weight requires ln r > 0).
            raise ValueError("dimension 2 requires inner_radius >= 1")

    @property
    def a(self) -> float:
        return self.inner_radius

    @property
    def R(self) -> float:
        return self.interface_radius


@lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _composite_interval(lo: float, hi: float, order: int, panels: int,
                        edges: np.ndarray | None = None):
    """Composite Gauss-Legendre nodes/weights on [lo, hi], fixed ordering;
    for arrays of ends, one row per interval, with np.linspace's steps taken
    for each (np.linspace of arrays scales all rows another way once one is
    empty)."""
    x, w = _gauss_legendre(order)
    if edges is None:
        step = (np.asarray(hi, dtype=float) - lo) / panels
        edges = np.multiply.outer(step, np.arange(panels + 1.0)) + np.expand_dims(lo, -1)
        edges[..., -1] = hi
    mids = 0.5 * (edges[..., :-1] + edges[..., 1:])
    halfs = 0.5 * np.diff(edges)
    rows = mids.shape[:-1] + (-1,)
    return ((mids[..., None] + halfs[..., None] * x).reshape(rows),
            (halfs[..., None] * w).reshape(rows))


def _tail_edges(panels: int) -> np.ndarray:
    # geometric grading toward t = 0: the mapped tail integrand may carry
    # ln(1/t) factors (2D log weights), which uniform panels resolve only
    # algebraically while graded panels resolve them geometrically
    return np.concatenate([[0.0], 0.5 ** np.arange(panels - 1, -1.0, -1.0)])


@lru_cache(maxsize=None)
def _unit_sphere_rule(dimension: int, angular_order: int):
    """Directions and weights integrating over the unit sphere S^{N-1},
    read-only and computed once per (dimension, order).

    N = 2: offset uniform rule on the circle with 2*angular_order points;
    exact for trigonometric degree <= 2*angular_order - 1.  N = 3:
    Gauss-Legendre in the polar cosine tensored with an offset uniform
    (trapezoid) rule in azimuth; exact for spherical polynomials of degree
    <= 2*angular_order - 1.
    """
    if dimension == 2:
        n = 2 * angular_order
        theta = 2.0 * math.pi * (np.arange(n) + 0.5) / n
        dirs = np.stack([np.cos(theta), np.sin(theta)]).T
        wts = np.full(n, 2.0 * math.pi / n)
    else:
        mu, wmu = _gauss_legendre(angular_order)
        nphi = 2 * angular_order
        phi = 2.0 * math.pi * (np.arange(nphi) + 0.5) / nphi
        smu = np.sqrt(1.0 - mu**2)
        # direction i * nphi + j has polar cosine mu_i and azimuth phi_j
        dirs = np.stack([np.multiply.outer(smu, np.cos(phi)).ravel(),
                         np.multiply.outer(smu, np.sin(phi)).ravel(), np.repeat(mu, nphi)]).T
        wts = np.multiply.outer(wmu, np.full(nphi, 2.0 * math.pi / nphi)).ravel()
    dirs.flags.writeable = wts.flags.writeable = False
    return dirs, wts


class _Array:
    """A ``QuadratureRule``'s ``nodes`` or ``weights``: the array it was
    made with, or, made with None, the one ``_build`` makes on the first
    read; either is kept in ``derived``."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, rule, owner=None):
        if rule is None:
            raise AttributeError(self.name)  # a field without a default
        return rule.derived(self.name, lambda: rule._build(self.name))

    def __set__(self, rule, value):
        if value is not None:
            rule._derived[self.name] = value


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable node/weight list over one region of an exterior domain.
    Nodes and weights must be finite, and weights positive.

    Nodes must be column-major (``strides[0] == itemsize``), as
    ``build_quadrature`` writes them and as row views of another rule's
    nodes are; they are kept as they are, and row-major ones are rejected.

    ``derived`` keeps values computed from the rule alone, so that they
    live exactly as long as the rule.

    A rule that ``build_quadrature`` or ``whole_and_parts`` made is a
    tensor rule, made with None for ``nodes`` and ``weights``, which it
    builds on their first read from its factors: ``radial`` holds the
    radial nodes r_k and their weights W_k (w_k r_k^{N-1}, the radial
    rule's weight times the Jacobian), ``angular`` the directions omega_j
    and their weights, and node k * len(omega) + j is r_k omega_j with
    weight W_k times the j-th angular weight.  Its checks, ``len`` and
    ``dimension`` read the factors only.  With ``rows`` = (rule, slice)
    its arrays are those rows of that rule's.  A rule made otherwise has
    None for both factors; ``dataclasses.replace`` reads (so builds)
    every field, and with other nodes must pass None for both."""

    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    nodes: np.ndarray | None = _Array()  # (M, N), column-major
    weights: np.ndarray | None = _Array()  # (M,)
    radial_order: int
    angular_order: int
    shell_count: int
    radial: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)
    angular: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)
    rows: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for a in (self.radial or ()) + (self.angular or ()):
            a.flags.writeable = False
        if "nodes" not in self._derived:
            if self.rows is not None:  # rows of a checked rule
                return
            # no factor is negative and rounding is monotone: the least and the
            # largest factors (fmin skips NaN, max keeps it) give the extreme products
            (r, wr), (dirs, wang) = self.radial, self.angular
            if float(np.fmin.reduce(wr)) * float(wang.min()) <= 0.0:
                raise QuadratureError("all quadrature weights must be positive")
            if not (math.isfinite(float(wr.max()) * float(wang.max())) and math.isfinite(
                    float(np.abs(r).max()) * float(np.abs(dirs).max()))):
                raise QuadratureError("quadrature nodes and weights must be finite")
            return
        nodes = np.asarray(np.atleast_2d(self.nodes), dtype=float)
        if nodes.strides[0] != nodes.itemsize:
            raise QuadratureError(
                f"nodes must be column-major (strides[0] == {nodes.itemsize}), "
                f"got strides {nodes.strides}")
        weights = np.ascontiguousarray(self.weights, dtype=float)
        if nodes.shape[0] != weights.shape[0]:
            raise QuadratureError("node and weight counts differ")
        if np.any(weights <= 0.0):
            raise QuadratureError("all quadrature weights must be positive")
        if not (np.isfinite(weights).all() and np.isfinite(nodes).all()):
            raise QuadratureError("quadrature nodes and weights must be finite")
        nodes.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def _build(self, name: str) -> np.ndarray:
        if self.rows is not None:
            return getattr(self.rows[0], name)[self.rows[1]]
        (r, wr), (dirs, wang) = self.radial, self.angular
        if name == "weights":
            return np.multiply.outer(wr, wang).reshape(-1)
        # node k * len(dirs) + j is r[k] * dirs[j], written column by column
        nodes = np.empty((dirs.shape[1], len(r) * len(dirs)))
        for col, d in zip(nodes, dirs.T):
            np.multiply.outer(r, d, out=col.reshape(len(r), len(d)))
        return nodes.T

    @property
    def dimension(self) -> int:
        return self.nodes.shape[1] if self.angular is None else self.angular[0].shape[1]

    def __len__(self) -> int:
        return (self.nodes.shape[0] if self.radial is None
                else len(self.radial[0]) * len(self.angular[0]))

    def derived(self, key, compute):
        """``compute()``, made read-only, computed on the first call for
        ``key`` and returned again by the later ones."""
        if key not in self._derived:
            value = compute()
            value.flags.writeable = False
            self._derived[key] = value
        return self._derived[key]


def row_sum(x: np.ndarray) -> np.ndarray:
    """Row sums of an (M, n) array, bit-equal to ``np.sum(x, axis=1)``.

    For fewer than 8 columns numpy adds a row left to right starting from
    +0.0 (which turns a row of -0.0 into +0.0); adding whole columns in the
    same order does the same arithmetic without the strided reduction."""
    out = x[:, 0] + 0.0
    for k in range(1, x.shape[1]):
        out += x[:, k]
    return out


def node_radii(points) -> np.ndarray:
    """|x| per node, each radius from its own row, bit-equal to
    ``np.sqrt(np.sum(points**2, axis=1))``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = pts[:, 0] * pts[:, 0]
    for k in range(1, pts.shape[1]):
        out += pts[:, k] * pts[:, k]
    return np.sqrt(out, out=out)


def build_quadrature(
    domain: ExteriorDomain,
    radial_order: int,
    angular_order: int,
    shells: int,
    region: str,
) -> QuadratureRule:
    """Build a rule over one region of the domain.

    omega_i splits [a, R] into ``shells`` radial panels, each carrying a
    Gauss-Legendre rule of ``radial_order`` points, tensored with the
    angular rule.  omega_e applies the same construction in the mapped
    variable t = R/r on (0, 1], with the Jacobian folded into the
    weights.  Sphere regions carry the pure angular rule scaled by the
    surface measure.
    """
    if region not in REGIONS:
        raise QuadratureError(f"unknown region {region!r}; expected one of {REGIONS}")
    if radial_order < 1 or angular_order < 1 or shells < 1:
        raise QuadratureError("radial_order, angular_order and shells must be >= 1")

    n = domain.dimension
    dirs, wang = _unit_sphere_rule(n, angular_order)
    # near the float limit a factor or a product of two overflows, or an
    # inf meets a zero: QuadratureRule rejects such factors, so no warning
    with np.errstate(over="ignore", invalid="ignore"):
        if region in ("sphere_gamma", "sphere_Gamma"):
            radius = domain.a if region == "sphere_gamma" else domain.R
            r, wr = np.array([radius]), np.array([radius ** (n - 1)])
        else:
            if region == "omega_i":
                r, wr = _composite_interval(domain.a, domain.R, radial_order, shells)
            else:  # omega_e via r = R/t, dr = -R/t^2 dt, t in (0, 1]
                t, wt = _composite_interval(
                    0.0, 1.0, radial_order, shells, edges=_tail_edges(shells)
                )
                r = domain.R / t
                wr = wt * domain.R / t**2
            wr = wr * r ** (n - 1)
    return QuadratureRule(None, None, radial_order, angular_order, shells,
                          radial=(r, wr), angular=(dirs, wang))


def whole_and_parts(
    domain: ExteriorDomain, radial_order: int, angular_order: int, shells: int
) -> tuple[QuadratureRule, QuadratureRule, QuadratureRule]:
    """The rule over the whole domain, the tensor rule over the radial nodes
    of ``omega_i`` then those of ``omega_e``, and the rules over these two,
    as row ranges of the first one's arrays."""
    parts = [build_quadrature(domain, radial_order, angular_order, shells, region)
             for region in ("omega_i", "omega_e")]
    whole = QuadratureRule(None, None, radial_order, angular_order, shells,
                           radial=tuple(map(np.concatenate, zip(*(p.radial for p in parts)))),
                           angular=parts[0].angular)
    k = len(parts[0])
    return (whole,) + tuple(
        QuadratureRule(None, None, radial_order, angular_order, shells, p.radial, p.angular,
                       rows=(whole, rows))
        for p, rows in zip(parts, (slice(0, k), slice(k, None))))


def integrate(rule: QuadratureRule, integrand) -> float:
    """Weighted sum of ``integrand`` over the rule's nodes.

    ``integrand`` is vectorized: it maps an (M, N) array of points to
    an (M,) array of values.  The reduction is ``exact_sum``, so the
    result is the correctly rounded sum of the weighted values and does
    not depend on evaluation order.
    """
    values = np.asarray(integrand(rule.nodes), dtype=float)
    if values.shape != (len(rule),):
        raise QuadratureError(
            f"integrand returned shape {values.shape}, expected ({len(rule)},)"
        )
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise QuadratureError(
            f"integrand non-finite at node {bad}: x={rule.nodes[bad]!r}, "
            f"value={values[bad]!r}"
        )
    return exact_sum(values * rule.weights)


def exact_dot(values: np.ndarray, weights: np.ndarray):
    """Exactly rounded weighted sum for pre-evaluated values; for 2-D
    values, that of each row."""
    return exact_sum(np.asarray(values, dtype=float) * weights)


# exact_sum hands 1-D arrays shorter than _SMALL to math.fsum, as a list
# of floats, which is faster there, and reads longer ones in blocks of at
# most _BLOCK values, through one 128 KB buffer per call, which stays in
# cache.  Values of magnitude _BIG or more, where fsum can overflow on the
# way, non-finite values and rows longer than _LONGEST go to fsum.
_SMALL = 512
_BLOCK = 1 << 14
_BIG = 2.0**960
_LONGEST = 1 << 26  # keeps lead <= 27 in _extracted_sums


def _extracted_sums(x, k, lead):
    """The correctly rounded sums of the rows of the 2-D array ``x`` of n
    finite values each, |x| <= 2**(k - lead) and n + 2 <= 2**lead <= 2**27.

    A level takes q = (x + sigma) - sigma, sigma = 2**k: x + sigma lies in
    [sigma/2, 2 sigma], so q is exact and on the grid 2**(k - 53), and the
    rest x - q, the rounding error of x + sigma, is exact with |x - q| at
    most 2**(k - 53).  The |q| of a row add up to at most sigma, so their
    float sum is exact in any order, and the rests meet the same condition
    for the next level's sigma, 2**(k - 53 + lead), which bounds |sum of
    rests| too.  A rest that is not 0 is at least 2**-1074, so its sigma is
    a float above 0.

    The first pass takes one level, whose sum tau is exact, and sums the
    rests of each row in floats, to rho: in any order that sum is off by at
    most gamma_{n-1} n 2**(k - 53) < 2**(k - 106 + 2 lead) = E, with gamma_m
    = m u / (1 - m u) and u = 2**-53 (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2002, 4.2).  With s + e = tau + rho exactly
    (TwoSum), the row's sum lies within |e| + E of s, so it rounds to s
    where |e| + E is less than half the gap from s to its nearer neighbour,
    the one toward 0.  That half gap h and E are powers of two (or 0), so
    |e| < fl(h - E) gives |e| + E < h even where h - E rounds, which it does
    up to h only when E is at most half a float step below h.  All rows are
    decided at once.  A row of zeros of either sign has h = 0, and so is
    decided apart: its q and tau are +0.0, so s = tau + rho is +0.0.

    The rows left open, near a rounding midpoint, with much cancellation or
    with s = 0, are read again in passes that extract ``depth`` levels from
    each block of columns and add each level's row sums over the blocks.
    With no rest left, fsum of the level sums is the total; else, rounding
    being monotone, it is fixed once fsum rounds the same with the rests'
    bound subtracted and added.  After one level that bound is wider than
    the float spacing at the level sum, so the first of these passes takes
    two; rows left open are read again with twice the depth."""
    width = max(1, _BLOCK // len(x))
    sigma = math.ldexp(1.0, k)
    taus, rhos = [], []
    block = np.empty((len(x), min(width, x.shape[1])))
    for start in range(0, x.shape[1], width):
        src = x[:, start:start + width]
        q = np.add(src, sigma, out=block[:, :src.shape[1]])
        q -= sigma
        taus.append(q.sum(axis=1))
        rhos.append(np.subtract(src, q, out=q).sum(axis=1))
    tau, rho = sum(taus[1:], taus[0]), sum(rhos[1:], rhos[0])
    out = tau + rho
    back = out - tau
    e = (tau - (out - back)) + (rho - back)
    half = 0.5 * np.abs(out - np.nextafter(out, 0.0))
    decided = np.abs(e) < half - math.ldexp(1.0, k - 106 + 2 * lead)
    rows = np.flatnonzero(~decided)
    if rows.size:  # a row of +-0.0 sums to +0.0, which ``out`` holds
        rows = rows[x[rows].any(axis=1)]
    depth = 2
    while rows.size:
        part = x if rows.size == len(x) else x[rows]
        width = max(1, _BLOCK // rows.size)
        rests = np.empty((rows.size, min(width, x.shape[1])))
        grid = np.empty_like(rests)
        taus, more = [0.0] * depth, False
        for start in range(0, x.shape[1], width):
            src = part[:, start:start + width]
            rest, q = rests[:, :src.shape[1]], grid[:, :src.shape[1]]
            for j in range(depth):
                sigma = math.ldexp(1.0, k - j * (53 - lead))
                np.add(src, sigma, out=q)
                q -= sigma
                src = np.subtract(src, q, out=rest)
                taus[j] = taus[j] + q.sum(axis=1)
            more = more | rest.any(axis=1)
        bound = math.ldexp(1.0, k - depth * (53 - lead))
        left = []
        for row, sums, has_rest in zip(rows.tolist(), zip(*(t.tolist() for t in taus)),
                                       more.tolist()):
            total = math.fsum(sums + (-bound,) * has_rest)
            if has_rest and total != math.fsum(sums + (bound,)):
                left.append(row)
            else:
                out[row] = total
        rows = np.array(left, dtype=np.intp)
        depth *= 2
    return out


def exact_sum(values):
    """The correctly rounded sum of a float64 array, bit-equal to
    ``math.fsum`` (same zero sign, same exceptions); for a 2-D array, the
    array of the correctly rounded sums of its rows.  It extracts the values
    level by level (``_extracted_sums``; Rump, Ogita and Oishi, "Accurate
    floating-point summation, part I", SIAM J. Sci. Comput. 31, 2008).  An
    exact zero total is +0.0."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 2 and (x.ndim != 1 or x.size < _SMALL):
        return math.fsum(x.tolist() if x.ndim == 1 else x)
    rows = x if x.ndim == 2 else x[None]
    hi, lo = (x.max(), x.min()) if x.size else (0.0, 0.0)
    top = max(hi, -lo)
    if not (-_BIG < lo <= hi < _BIG and rows.shape[1] <= _LONGEST):  # a NaN fails too
        sums = np.array([math.fsum(row) for row in rows], dtype=float)
    elif top == 0.0:
        sums = np.zeros(len(rows))
    else:
        lead = (rows.shape[1] + 1).bit_length()
        sums = _extracted_sums(rows, math.frexp(top)[1] + lead, lead)
    return sums if x.ndim == 2 else float(sums[0])
