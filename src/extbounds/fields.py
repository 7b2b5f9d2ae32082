"""Analytic scalar/vector fields, the diffusion coefficient, and the
weighted norms used by the error bounds.

Fields carry their derivative closures (gradient for scalars, divergence
for vectors) analytically; nothing in the bound evaluation differentiates
numerically, since the guaranteed character of the bounds would otherwise
be polluted by differencing error.  Finite differences appear only in the
tests, as oracles of the closures.

Closures map an (M, N) array of nodes to per-node values, each from its
own node only and with the same bits for any memory layout: rules hold
their nodes column-major, other callers pass row-major points.  An array
a closure fills per node takes the layout of its input, and the one
kernel that rounds by layout, the BLAS product of the perturbed flux's
divergence (``problems.perturb``), gets a C-order operand.

Every norm, and every integral of the minorant, sums a pointwise density
that ``density`` builds one column at a time in a single M-vector, with at
most one more scratch column: sum_k (a_k o d_k) b_k, o the product or the
quotient by the coefficient's diagonal d (or a_k b_k without it).  Each
node takes the IEEE operations of ``row_sum((a o d) * b)`` over the (M, N)
arrays in the same order, term by term and added left to right; that
``row_sum`` starts from +0.0 only turns a density of -0.0 into +0.0, which
no exact sum tells apart.  So no (M, N) temporary is built and every sum
keeps its bits.  A norm checks its density with ``require_finite`` and
sums it with the rule's weights in one ``exact_dot``.

Two radial weights coexist and are never interchanged silently:
``rho = (1 + r^2)^{1/2}`` in the norms (``weighted_norm``), and the plain
radius r (with a logarithm in 2D) in the inequality machinery
(``log_weighted_norm``).

A scalar or vector field may declare a radial ``support``: the closed
interval of radii outside which it and its derivative are exactly 0.
The field holds to it: its closures run only on the rows of the nodes
that ``support_rows`` finds for it and write 0.0 on the others, and so
do a sum with it (off them, the other operand's values as they are) and
the minorant, which cuts each distinct support of its basis once.

No memo outlives what it was computed from.  ``gradient_on`` keeps the
gradient of the last field it evaluated on the last rule, so that the
estimates and the true error of one approximation share one evaluation;
it holds both only through weak references, and the entry goes when
either is freed.  Its contract: fields are immutable and their closures
are pure (the same nodes give the same values), rules never change, and
the package is used from one thread.  Fields and rules are matched by
identity, so an equal but distinct field is evaluated anew.

Node radii (``geometry.node_radii``) and a catalog problem's exact
gradient grad u and flux divergence div F (wrapped by
``problems.builtin``) are kept per read-only node array
(``geometry.NodeMemo``) while the array that owns the nodes lives: the
first call on a rule evaluates them, and every later call, through
grad v = grad u + eps grad b, the true error or f = -div F, returns the
same read-only values or a row slice of them, and a sum may return
them as they are.  So no caller may write into a closure's result; a
write raises ``ValueError``.
"""

from __future__ import annotations

import functools
import math
import operator
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import QuadratureRule, exact_dot, node_radii


class CompositionError(TypeError):
    """A field combination needs a derivative closure that is missing."""


def _scaled(c: float, fn):
    """c * fn(pts), or None without ``fn``.  A product past the float range
    is inf, which ``require_finite`` then reports at its node."""
    if fn is None:
        return None

    def scaled(pts):
        with np.errstate(over="ignore"):
            return c * fn(pts)

    return scaled


def _combined(a, b, op, support):
    """op(a(pts), b(pts)), or None without both, for the formula ``b`` of a
    field with ``support``: b runs on the rows of ``support`` only, and off
    them the result is a's values (see ``ScalarField``)."""
    if a is None or b is None:
        return None

    def combined(pts):
        pts = np.atleast_2d(pts)
        values = a(pts)
        start, stop, rows = cut(pts, support)
        if stop - start == len(pts):
            return op(values, b(pts))
        if start == stop:
            return values
        out = np.array(values, dtype=float, order="K")
        op(out[start:stop], b(rows), out=out[start:stop])
        return out

    return combined


class _Field:
    """The support and arithmetic of ``ScalarField`` and ``VectorField``:
    each names its derivative closure (``_derivative``) and the shapes of
    the two closures' values at nodes ``pts`` (``_shapes``)."""

    def __post_init__(self):
        if self.support is not None:  # formula() unwraps a closure restricted before
            names = ("value", self._derivative)
            for name, fn, shape in zip(names, self.formula(), self._shapes):
                if fn is not None:
                    object.__setattr__(self, name, _on_support(fn, self.support, shape))

    def formula(self) -> tuple:
        """(value, derivative): the closures as given, before the support
        restricted them, which run on any rows given to them."""
        fns = (self.value, getattr(self, self._derivative))
        if self.support is None:
            return fns
        return tuple(getattr(fn, "evaluate", fn) for fn in fns)

    def _sum(self, other, op, sign):
        own = (self.value, getattr(self, self._derivative))
        return type(self)(
            *(_combined(a, b, op, other.support) for a, b in zip(own, other.formula())),
            label=f"({self.label}{sign}{other.label})")

    def __add__(self, other):
        return self._sum(other, np.add, "+")

    def __sub__(self, other):
        return self._sum(other, np.subtract, "-")

    def __rmul__(self, c: float):
        c = float(c)
        return type(self)(*(_scaled(c, fn) for fn in self.formula()),
                          label=f"{c}*{self.label}", support=self.support)


@dataclass(frozen=True)
class ScalarField(_Field):
    """Scalar field with vectorized ``value`` (M,N)->(M,) and optional
    analytic ``gradient`` (M,N)->(M,N).

    ``support`` is ``None`` or a closed radial interval ``(r_lo, r_hi)``
    outside which the value and the gradient are exactly 0 (up to the
    sign of zero).  The field enforces it: the closures given are run only
    on the rows ``support_rows`` gives for it, all on one read-only view of
    them (which shares its radii), and 0.0 is written on the other rows; on
    a range covering every row they run on the array itself.  So a field
    made by ``dataclasses.replace`` with another support holds to that one.
    ``c * w`` keeps the support.  ``a + b`` and ``a - b`` drop it: they run
    b's closures only on the rows of b's support, and give a's values
    themselves on the others."""

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""
    support: tuple[float, float] | None = None

    _derivative = "gradient"
    _shapes = (len, np.shape)


@dataclass(frozen=True)
class VectorField(_Field):
    """Vector field with vectorized ``value`` (M,N)->(M,N) and optional
    analytic ``divergence`` (M,N)->(M,), and a ``support`` held to as a
    ``ScalarField``'s is."""

    value: Callable[[np.ndarray], np.ndarray]
    divergence: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""
    support: tuple[float, float] | None = None

    _derivative = "divergence"
    _shapes = (np.shape, len)


@dataclass(frozen=True, eq=False)
class Coefficient:
    """Constant diagonal coefficient A = diag(d) with its ellipticity
    bounds ``c_A = min d`` and ``c_A_plus = max d``.

    A constant symmetric positive definite A = Q diag(d) Q^T loses
    nothing by being diag(d): the exterior of a ball and the energy norms
    are invariant under the rotation x = Q x'.  The diagonal is kept as a
    read-only copy, and must be 1-D, finite and strictly positive."""

    diagonal: np.ndarray
    label: str = ""
    c_A: float = field(init=False)
    c_A_plus: float = field(init=False)

    def __post_init__(self):
        d = np.array(self.diagonal, dtype=float)  # a copy: the caller's array stays writeable
        if d.ndim != 1 or not d.size or not np.all(np.isfinite(d) & (d > 0.0)):
            raise ValueError(
                f"coefficient diagonal must be 1-D, finite and > 0, got {d!r}")
        d.flags.writeable = False
        object.__setattr__(self, "diagonal", d)
        object.__setattr__(self, "c_A", float(d.min()))
        object.__setattr__(self, "c_A_plus", float(d.max()))

    @staticmethod
    def identity(dimension: int) -> "Coefficient":
        return Coefficient(np.ones(dimension), label="identity")

    def matrix(self, pts: np.ndarray) -> np.ndarray:
        """The (M, N, N) matrices of A at the M nodes ``pts``, one read-only
        view of diag(d).  No bound uses it: the benchmark's reference
        energy (``perfbench/reference.py``) and the tests' oracles do."""
        d = self.diagonal
        return np.broadcast_to(np.diag(d), (len(pts), d.size, d.size))


# (weak reference to v, weak reference to the rule, grad v) of the last call
_GRADIENT: list = []


def gradient_on(v: ScalarField, rule: QuadratureRule) -> np.ndarray:
    """grad v at the nodes of ``rule``: the array the closure returns,
    made read-only.  The result for the last (v, rule) pair is kept and
    returned again for the same pair, so every user of one operation
    shares a single evaluation, until v or the rule is freed (see the
    module docstring for the contract)."""
    if v.gradient is None:
        raise CompositionError(f"field {v.label!r} has no gradient closure")
    if _GRADIENT and _GRADIENT[0]() is v and _GRADIENT[1]() is rule:
        return _GRADIENT[2]
    value = np.asarray(v.gradient(rule.nodes), dtype=float)
    value.flags.writeable = False

    def forget(_):
        _GRADIENT.clear()

    _GRADIENT[:] = [weakref.ref(v, forget), weakref.ref(rule, forget), value]
    return value


def residual_field(f: ScalarField, y: VectorField) -> ScalarField:
    """f + div y, the equilibrium residual. Requires the divergence closure."""
    if y.divergence is None:
        raise CompositionError(f"vector field {y.label!r} has no divergence closure")
    div = y.divergence
    return ScalarField(
        value=lambda pts: f.value(pts) + div(pts),
        gradient=None,
        label=f"({f.label}+div {y.label})",
    )


def density(out: np.ndarray, pairs, d: np.ndarray | None = None, *,
            divide: bool = False) -> np.ndarray:
    """Write sum_k (a_k o d_k) b_k into ``out`` and return it, for the
    column pairs (a_k, b_k) of ``pairs`` (k = 0, 1, ...): o is * (``/``
    with ``divide``), and the term is a_k b_k without ``d``.  See the
    module docstring for the contract."""
    term = out
    for k, (a, b) in enumerate(pairs):
        if k == 1:
            term = np.empty_like(out)
        if d is None:
            np.multiply(a, b, out=term)
        else:
            (np.divide if divide else np.multiply)(a, d[k], out=term)
            term *= b
        if k:
            out += term
    return out


def _columns(q: np.ndarray, g: np.ndarray | None = None, d: np.ndarray | None = None):
    """The columns of q, of q - g, or (with ``d``) of q - d g, in turn.  A
    difference is written into one scratch column, so each column must be
    used before the next is taken."""
    if g is None:
        yield from q.T
        return
    scratch = np.empty(len(q))
    for k, (qk, gk) in enumerate(zip(q.T, g.T)):
        if d is not None:
            gk = np.multiply(gk, d[k], out=scratch)
        yield np.subtract(qk, gk, out=scratch)


def _norm(columns, rule: QuadratureRule, label: str, weight: str, *,
          d: np.ndarray | None = None, divide: bool = False,
          scale: np.ndarray | None = None) -> float:
    """(integral of scale * sum_k (c_k o d_k) c_k)^{1/2} over ``rule`` for
    the M-vectors c_k of ``columns`` (see ``density``); ``label`` and
    ``weight`` name a non-finite density's field and weight."""
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite catches them
        dens = density(np.empty(len(rule)), ((c, c) for c in columns), d, divide=divide)
        if scale is not None:
            dens *= scale
    require_finite(dens, rule.nodes, label, weight)
    return math.sqrt(max(exact_dot(dens, rule.weights), 0.0))


def _value_columns(f: ScalarField | VectorField, rule: QuadratureRule) -> np.ndarray:
    """The columns of the values of ``f`` at the rule's nodes, one for a
    scalar field."""
    vals = np.asarray(f.value(rule.nodes), dtype=float)
    return vals.reshape(len(vals), -1).T


def weighted_norm(f: ScalarField | VectorField, s: float, rule: QuadratureRule) -> float:
    """(integral of rho^{2s} |f|^2)^{1/2} with rho = (1 + r^2)^{1/2}; the
    weight rho^{2s} is kept per rule (``QuadratureRule.derived``)."""
    def rho():
        with np.errstate(over="ignore"):
            return (density(np.empty(len(rule)), zip(rule.nodes.T, rule.nodes.T)) + 1.0) ** s

    columns = _value_columns(f, rule)
    scale = None if s == 0.0 else rule.derived(("rho", s), rho)  # rho^0 is 1.0
    return _norm(columns, rule, f.label, f"rho^{2 * s}", scale=scale)


def log_weighted_norm(f: ScalarField | VectorField, rule: QuadratureRule) -> float:
    """||r ln r * f||, the 2D logarithmic weight.  The rule must live in
    dimension 2 with all nodes at radius > 1."""
    if rule.dimension != 2:
        raise ValueError("log-weighted norms are defined for dimension 2 only")
    r = node_radii(rule.nodes)
    if np.min(r) <= 1.0:
        raise ValueError("log weight needs all quadrature nodes at radius > 1")
    w = np.log(r)
    w *= r
    w *= w
    return _norm(_value_columns(f, rule), rule, f.label, "times_rlnr", scale=w)


def energy_norm(
    A: Coefficient, q: np.ndarray, mode: str, rule: QuadratureRule, *, label: str = "",
    minus_gradient: np.ndarray | None = None,
) -> float:
    """||q||_A = (int A q . q)^{1/2} or its dual ||q||_{A^{-1}}, for the
    values ``q`` of a vector field at the rule's nodes; ``label`` names the
    field in errors.  ``minus_gradient`` g, the values of a gradient at the
    same nodes, is taken from q first: the norm is then that of q - g in
    mode "A" (q a gradient) and that of q - A g in mode "A_inverse" (q a
    flux)."""
    if mode not in ("A", "A_inverse"):
        raise ValueError(f"unknown energy norm mode {mode!r}")
    d, dual = A.diagonal, mode == "A_inverse"
    columns = _columns(np.asarray(q, dtype=float), minus_gradient, d if dual else None)
    return _norm(columns, rule, label, f"energy:{mode}", d=d, divide=dual)


class QuadratureErrorAt(ArithmeticError):
    def __init__(self, index, point, label, weight):
        super().__init__(
            f"non-finite integrand for field {label!r} (weight {weight}) "
            f"at node {index}: x={point!r}"
        )
        self.index = index
        self.point = point


def require_finite(
    vals: np.ndarray, pts: np.ndarray, label: str, weight: str, *, start: int = 0
) -> None:
    """Raise ``QuadratureErrorAt`` at the first node where ``vals`` (one
    value or one row per node) is not finite.  ``pts`` are the rule's
    nodes from number ``start`` on, and the error names the rule's node
    number."""
    ok = np.isfinite(vals)
    if not ok.all():
        if ok.ndim > 1:
            ok = ok.all(axis=1)
        bad = int(np.flatnonzero(~ok)[0])
        raise QuadratureErrorAt(start + bad, pts[bad], label, weight)


# ---------------------------------------------------------------------------
# closure builders for the analytic fields used throughout


def profile(shape, dshape, centre: float, width: float):
    """(p, dp): the profile p(r) = shape(t) and its derivative
    dp(r) = dshape(t) / width, at t = (r - centre) / width."""

    def p(r):
        return shape((np.asarray(r, dtype=float) - centre) / width)

    def dp(r):
        return dshape((np.asarray(r, dtype=float) - centre) / width) / width

    return p, dp


# the shapes ``profile`` places, each with its derivative: a C-infinity
# mollifier exp(-1/(1 - t^2)) on |t| < 1, a C^2 ramp from 1 at t <= 0 to 0
# at t >= 1, and the C^2 bump (1 - t^2)^3 on |t| < 1, each exactly 0.0
# where it vanishes identically, and so is its derivative where it is flat


def mollifier(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0 - 1e-14
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def mollifier_deriv(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0 - 1e-14
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti**2)) * (-2.0 * ti / (1.0 - ti**2) ** 2)
    return out


def ramp(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def ramp_deriv(t: np.ndarray) -> np.ndarray:
    inside = (t > 0.0) & (t < 1.0)
    return np.where(inside, -30.0 * t**2 * (1.0 - t) ** 2, 0.0)


def cubic_bump(t: np.ndarray) -> np.ndarray:
    return (1.0 - np.clip(t**2, None, 1.0)) ** 3


def cubic_bump_deriv(t: np.ndarray) -> np.ndarray:
    return np.where(np.abs(t) < 1.0, -6.0 * t * (1.0 - t**2) ** 2, 0.0)


def ratio_gradient(pts: np.ndarray, i: int, m: int) -> np.ndarray:
    """grad(x_i / r^m) = e_i / r^m - m x_i x / r^(m + 2) at the (M, N)
    nodes ``pts``."""
    r = node_radii(pts)
    out = -m * pts * (pts[:, i] / r ** (m + 2))[:, None]
    out[:, i] += 1.0 / r**m
    return out


def _combination(parts):
    """sum of c a over the pairs (c, a), left to right (c a is a at c = 1.0)."""
    return functools.reduce(operator.add, (a if c == 1.0 else c * a for c, a in parts))


def angular_factor(coeffs):
    """(value, gradient) closures of q = c_0 + sum_i c_i x_i / r for the
    coefficients (c_0, c_1, ..., c_N), at least one nonzero, on (M, N)
    nodes.  The terms with a nonzero coefficient are added left to right;
    the constant's gradient is 0.0 and the others' c_i grad(x_i / r)
    (``ratio_gradient``)."""
    terms = [(i, float(c)) for i, c in enumerate(coeffs) if c != 0.0]

    def value(pts):
        return _combination((c, np.ones(len(pts)) if i == 0 else pts[:, i - 1] / node_radii(pts))
                            for i, c in terms)

    def gradient(pts):
        return _combination((1.0, np.zeros_like(pts, dtype=float)) if i == 0
                            else (c, ratio_gradient(pts, i - 1, 1)) for i, c in terms)

    return value, gradient


def support_rows(radii: np.ndarray, support: tuple[float, float]) -> tuple[int, int]:
    """[start, stop): the rows from the first to the last node whose radius
    lies in ``support``, widened outward by 1e-12 of its outer radius.  A
    profile vanishing outside [c - h, c + h], evaluated at the computed
    radius r, is nonzero only where (r - c) / h rounds into (-1, 1), that
    is r within an ulp-sized rounding of the interval, so no node where it
    or its gradient is nonzero is left out.  The ``omega_i`` rows are
    ordered by radial node, so the range holds few rows outside the
    support."""
    pad = 1e-12 * abs(support[1])
    rows = np.flatnonzero((radii >= support[0] - pad) & (radii <= support[1] + pad))
    return (int(rows[0]), int(rows[-1]) + 1) if len(rows) else (0, 0)


def cut(pts: np.ndarray, support) -> tuple:
    """(start, stop, rows): the rows of the (M, N) nodes ``pts`` that
    ``support_rows`` gives for ``support`` (all without one), and one
    read-only view of them, so that the closures run on it share its radii."""
    if support is None:
        return 0, len(pts), pts
    start, stop = support_rows(node_radii(pts), support)
    rows = pts[start:stop]
    rows.flags.writeable = False
    return start, stop, rows


def _on_support(evaluate, support: tuple[float, float], shape):
    """``evaluate`` run only on the rows ``support_rows`` gives for
    ``support``, with 0.0 on the others, in an array of the nodes' layout
    (see ``ScalarField``); the closure keeps ``evaluate`` as an attribute
    for ``formula``.  Each value is computed elementwise, so the rows of
    the range keep their bits, and the skipped ones differ from the
    formula at most in the sign of zero."""

    def restricted(pts):
        pts = np.atleast_2d(pts)
        start, stop, rows = cut(pts, support)
        if stop - start == len(pts):
            return evaluate(pts)
        out = np.zeros_like(pts, dtype=float, shape=shape(pts))
        if start < stop:
            out[start:stop] = evaluate(rows)
        return out

    restricted.evaluate = evaluate
    return restricted


def separable_field(
    p, dp, angular=None, label: str = "separable",
    support: tuple[float, float] | None = None,
) -> ScalarField:
    """p(r) q(x) for the angular factor q of the coefficients ``angular``
    (``angular_factor``), homogeneous of degree zero (so x . grad q = 0),
    or p(r) alone without them.  With a ``support``, p and dp must vanish
    at radii outside it."""
    q, grad_q = (None, None) if angular is None else angular_factor(angular)

    def value(pts):
        pts = np.atleast_2d(pts)
        r = node_radii(pts)
        return p(r) if q is None else p(r) * q(pts)

    def gradient(pts):
        pts = np.atleast_2d(pts)
        r = node_radii(pts)
        if q is None:
            return (dp(r) / r)[:, None] * pts
        radial_part = (dp(r) * q(pts) / r)[:, None] * pts
        return radial_part + p(r)[:, None] * grad_q(pts)

    return ScalarField(value=value, gradient=gradient, label=label, support=support)
