"""Spherical exterior domains and deterministic quadrature over them.

The domain is the exterior of a ball of radius ``a`` in R^N, N = 2 or 3,
split by an artificial spherical interface of radius ``R`` into a bounded
annulus ``omega_i`` and an unbounded tail ``omega_e``.  Quadrature rules are plain node/weight lists, so consumers
never depend on how a rule was built; the tail is mapped to a finite
interval with the substitution r = R/t, which integrates finite Laurent
series in 1/r exactly.

A rule's (M, N) nodes are column-major, one contiguous column per
coordinate, so per-node broadcasts run over long contiguous runs instead
of rows of N floats; closures must be elementwise and give the same bits
for any layout (see ``fields``).

All reductions go through ``exact_sum``, which returns the correctly
rounded sum of its values, bit-equal to ``math.fsum``: integrals are
bit-reproducible and independent of node ordering or any parallel
evaluation strategy.  It extracts the values level by level with numpy,
each level's sum exact, until the rounding of the total is fixed (the
error-free extraction of Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31,
2008), and sums each row of a 2-D array in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    """Composite Gauss-Legendre nodes/weights on [lo, hi], fixed ordering."""
    x, w = _gauss_legendre(order)
    if edges is None:
        edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halfs = 0.5 * np.diff(edges)
    return ((mids[:, None] + halfs[:, None] * x).ravel(),
            (halfs[:, None] * w).ravel())


def _tail_edges(panels: int) -> np.ndarray:
    # geometric grading toward t = 0: the mapped tail integrand may carry
    # ln(1/t) factors (2D log weights), which uniform panels resolve only
    # algebraically while graded panels resolve them geometrically
    return np.concatenate([[0.0], 0.5 ** np.arange(panels - 1, -1.0, -1.0)])


def _unit_sphere_rule(dimension: int, angular_order: int):
    """Directions and weights integrating over the unit sphere S^{N-1}.

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
        return dirs, wts
    mu, wmu = _gauss_legendre(angular_order)
    nphi = 2 * angular_order
    phi = 2.0 * math.pi * (np.arange(nphi) + 0.5) / nphi
    wphi = 2.0 * math.pi / nphi
    smu = np.sqrt(1.0 - mu**2)
    dirs = np.empty((angular_order * nphi, 3), order="F")
    wts = np.empty(angular_order * nphi)
    k = 0
    for i in range(angular_order):
        dirs[k : k + nphi, 0] = smu[i] * np.cos(phi)
        dirs[k : k + nphi, 1] = smu[i] * np.sin(phi)
        dirs[k : k + nphi, 2] = mu[i]
        wts[k : k + nphi] = wmu[i] * wphi
        k += nphi
    return dirs, wts


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable node/weight list over one region of an exterior domain.
    Nodes and weights must be finite, and weights positive.

    Nodes given column-major (``strides[0] == itemsize``), such as row
    views of another rule's nodes, are kept as they are; others are copied
    column-major.

    ``derived`` keeps values computed from the rule alone, so that they
    live exactly as long as the rule."""

    nodes: np.ndarray  # (M, N), column-major
    weights: np.ndarray  # (M,)
    radial_order: int
    angular_order: int
    shell_count: int
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = np.asarray(np.atleast_2d(self.nodes), dtype=float)
        if nodes.strides[0] != nodes.itemsize:
            nodes = np.asfortranarray(nodes)
        weights = np.ascontiguousarray(self.weights, dtype=float)
        if nodes.shape[0] != weights.shape[0]:
            raise QuadratureError("node and weight counts differ")
        if np.any(weights <= 0.0):
            raise QuadratureError("all quadrature weights must be positive")
        if not (np.isfinite(weights).all() and np.isfinite(nodes).all()):
            raise QuadratureError("quadrature nodes and weights must be finite")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def dimension(self) -> int:
        return self.nodes.shape[1]

    def __len__(self) -> int:
        return self.nodes.shape[0]

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


class LastValue:
    """One-entry memo: the read-only array computed for the last key.

    A key is a tuple of objects matched by identity.  The memo holds
    strong references to them, so no object in the key can be freed and
    its id reused while the entry lives.  Its callers take the objects of
    a key to be immutable, and use it from one thread."""

    def __init__(self):
        self._key: tuple = ()
        self._value = None

    def last(self) -> tuple:
        """The held (key, value); the key is () while nothing is held."""
        return self._key, self._value

    def get(self, key: tuple, compute) -> np.ndarray:
        if len(key) == len(self._key) and all(a is b for a, b in zip(key, self._key)):
            return self._value
        value = compute()
        value.flags.writeable = False
        self._key, self._value = key, value
        return value


_RADII = LastValue()


def _radii(pts: np.ndarray) -> np.ndarray:
    out = pts[:, 0] * pts[:, 0]
    for k in range(1, pts.shape[1]):
        out += pts[:, k] * pts[:, k]
    return np.sqrt(out, out=out)


def _row_range(view: np.ndarray, held: np.ndarray) -> slice | None:
    """The rows of ``held`` that ``view`` is, when it is a contiguous row
    range of the same memory with the same layout; else None."""
    if view.strides != held.strides or view.shape[1:] != held.shape[1:]:
        return None
    offset = view.__array_interface__["data"][0] - held.__array_interface__["data"][0]
    start, rest = divmod(offset, held.strides[0])
    if rest or not 0 <= start <= start + len(view) <= len(held):
        return None
    return slice(start, start + len(view))


def node_radii(points: np.ndarray) -> np.ndarray:
    """|x| per node.  A read-only array, such as a rule's nodes, is taken
    to be immutable: the radii of the last one are kept and returned,
    read-only, until another read-only array is passed.  A read-only row
    range of the kept array, such as the rows of a field's support, gets
    the matching slice of the kept radii (each radius is computed per row,
    so the bits are the same) and keeps the entry."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.flags.writeable:
        return _radii(pts)
    key, radii = _RADII.last()
    if key and key[0] is not pts:
        rows = _row_range(pts, key[0])
        if rows is not None:
            return radii[rows]
    return _RADII.get((pts,), lambda: _radii(pts))


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
    # near the float limit a node or weight overflows, or an inf meets a
    # zero: QuadratureRule rejects the non-finite values, so no warning
    with np.errstate(over="ignore", invalid="ignore"):
        if region in ("sphere_gamma", "sphere_Gamma"):
            radius = domain.a if region == "sphere_gamma" else domain.R
            nodes, weights = radius * dirs, radius ** (n - 1) * wang
        else:
            if region == "omega_i":
                r, wr = _composite_interval(domain.a, domain.R, radial_order, shells)
            else:  # omega_e via r = R/t, dr = -R/t^2 dt, t in (0, 1]
                t, wt = _composite_interval(
                    0.0, 1.0, radial_order, shells, edges=_tail_edges(shells)
                )
                r = domain.R / t
                wr = wt * domain.R / t**2
            # node k * len(dirs) + j is r[k] * dirs[j], written column by column
            nodes = np.empty((len(r) * len(dirs), n), order="F")
            for col, d in zip(nodes.T, dirs.T):
                np.multiply.outer(r, d, out=col.reshape(len(r), len(d)))
            weights = (wr[:, None] * r[:, None] ** (n - 1) * wang[None, :]).reshape(-1)
    return QuadratureRule(
        nodes=nodes,
        weights=weights,
        radial_order=radial_order,
        angular_order=angular_order,
        shell_count=shells,
    )


def whole_and_parts(
    domain: ExteriorDomain, radial_order: int, angular_order: int, shells: int
) -> tuple[QuadratureRule, QuadratureRule, QuadratureRule]:
    """The rule over the whole domain and its ``omega_i`` and ``omega_e``
    rules, the last two as row views of the first one's arrays: the whole
    rule lists the omega_i nodes, then the omega_e nodes."""
    inner = build_quadrature(domain, radial_order, angular_order, shells, "omega_i")
    outer = build_quadrature(domain, radial_order, angular_order, shells, "omega_e")
    whole = replace(inner, nodes=stack_rows([inner.nodes, outer.nodes]),
                    weights=np.concatenate([inner.weights, outer.weights]))
    k = len(inner)
    return (
        whole,
        replace(inner, nodes=whole.nodes[:k], weights=whole.weights[:k]),
        replace(outer, nodes=whole.nodes[k:], weights=whole.weights[k:]),
    )


def stack_rows(parts) -> np.ndarray:
    """The rows of the (M_k, N) arrays ``parts``, one array after another,
    in one column-major array (``np.vstack`` makes a row-major one)."""
    return np.concatenate([part.T for part in parts], axis=1).T


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


# exact_sum hands 1-D arrays shorter than _SMALL to math.fsum, which is
# faster there, and reads longer ones in blocks of at most _BLOCK values,
# whose 64 KB temporaries stay in cache and on malloc's heap.  Values of
# magnitude _BIG or more, where fsum can overflow on the way, non-finite
# values and rows longer than _LONGEST go to fsum.
_SMALL = 320
_BLOCK = 1 << 13
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

    A pass extracts ``depth`` levels from each block of columns and adds
    each level's row sums over the blocks.  With no rest left, fsum of the
    level sums is the total; else, rounding being monotone, it is fixed once
    fsum rounds the same with the rests' bound subtracted and added.  After
    one level that bound is wider than the float spacing at the level sum,
    so the first pass takes two; rows left open are read again with twice
    the depth."""
    out = np.empty(len(x))
    rows = np.arange(len(x))
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
        return math.fsum(x)
    rows = np.atleast_2d(x)
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
