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
a closure fills per node takes the layout of its input, and a kernel
that rounds by layout (a BLAS product, ``einsum``) gets a C-order operand.

Two radial weights coexist and are never interchanged silently:
``rho = (1 + r^2)^{1/2}`` in the norms (``weighted_norm``), and the plain
radius r (with a logarithm in 2D) in the inequality machinery
(``log_weighted_norm``).

A scalar field may declare a radial ``support``: the closed interval of
radii outside which its value and gradient are exactly 0.  The field
holds to it: its closures run only on the rows of the nodes that
``support_rows`` finds for it and write 0.0 on the others, and the
minorant sums each basis function only over those rows.

``gradient_on`` keeps the gradient of the last field it evaluated on the
last rule, so that the estimates and the true error of one approximation
share one evaluation.  Its contract: fields are immutable and their
closures are pure (the same nodes give the same values), rules never
change, and the package is used from one thread.  Fields and rules are
matched by identity, so an equal but distinct field is evaluated anew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import LastValue, QuadratureRule, exact_dot, node_radii, row_sum


class CompositionError(TypeError):
    """A field combination needs a derivative closure that is missing."""


def _combine_maybe(fa, fb, op):
    if fa is None or fb is None:
        return None
    return lambda pts: op(fa(pts), fb(pts))


@dataclass(frozen=True)
class ScalarField:
    """Scalar field with vectorized ``value`` (M,N)->(M,) and optional
    analytic ``gradient`` (M,N)->(M,N).

    ``support`` is ``None`` or a closed radial interval ``(r_lo, r_hi)``
    outside which the value and the gradient are exactly 0 (up to the
    sign of zero).  The field enforces it: the closures given are run only
    on the rows ``support_rows`` gives for it, all on one read-only view of
    them (which shares its radii), and 0.0 is written on the other rows; on
    a range covering every row they run on the array itself.  So a field
    made by ``dataclasses.replace`` with another support holds to that one.
    ``c * w`` keeps the support; ``+`` and ``-`` drop it."""

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""
    support: tuple[float, float] | None = None

    def __post_init__(self):
        if self.support is None:
            return
        object.__setattr__(self, "value", _on_support(self.value, self.support, len))
        if self.gradient is not None:
            object.__setattr__(
                self, "gradient", _on_support(self.gradient, self.support, np.shape))

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(
            value=lambda pts: self.value(pts) + other.value(pts),
            gradient=_combine_maybe(self.gradient, other.gradient, np.add),
            label=f"({self.label}+{other.label})",
        )

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(
            value=lambda pts: self.value(pts) - other.value(pts),
            gradient=_combine_maybe(self.gradient, other.gradient, np.subtract),
            label=f"({self.label}-{other.label})",
        )

    def __rmul__(self, c: float) -> "ScalarField":
        c = float(c)
        grad = self.gradient
        return ScalarField(
            value=lambda pts: c * self.value(pts),
            gradient=None if grad is None else (lambda pts: c * grad(pts)),
            label=f"{c}*{self.label}",
            support=self.support,
        )


@dataclass(frozen=True)
class VectorField:
    """Vector field with vectorized ``value`` (M,N)->(M,N) and optional
    analytic ``divergence`` (M,N)->(M,)."""

    value: Callable[[np.ndarray], np.ndarray]
    divergence: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            value=lambda pts: self.value(pts) + other.value(pts),
            divergence=_combine_maybe(self.divergence, other.divergence, np.add),
            label=f"({self.label}+{other.label})",
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            value=lambda pts: self.value(pts) - other.value(pts),
            divergence=_combine_maybe(self.divergence, other.divergence, np.subtract),
            label=f"({self.label}-{other.label})",
        )

    def __rmul__(self, c: float) -> "VectorField":
        c = float(c)
        div = self.divergence
        return VectorField(
            value=lambda pts: c * self.value(pts),
            divergence=None if div is None else (lambda pts: c * div(pts)),
            label=f"{c}*{self.label}",
        )


SYMMETRY_RTOL = 1e-14


def _symmetric(mats: np.ndarray) -> bool:
    """Whether each matrix (the last two axes) differs from its transpose
    by at most ``SYMMETRY_RTOL`` times its largest entry, in every entry.
    A matrix with a non-finite entry is not symmetric."""
    gap = np.abs(mats - np.swapaxes(mats, -1, -2)).max(axis=(-2, -1), initial=0.0)
    scale = np.abs(mats).max(axis=(-2, -1), initial=0.0)
    return bool(np.all(gap <= SYMMETRY_RTOL * scale))


@dataclass(frozen=True)
class Coefficient:
    """Symmetric matrix coefficient with two-sided ellipticity bounds
    ``0 < c_A <= c_A_plus``.

    ``Coefficient.constant`` keeps a read-only copy of its matrix, which
    must be symmetric to ``SYMMETRY_RTOL`` of its largest entry.  It sets
    ``diagonal`` when the matrix is diagonal; ``apply`` and ``solve``
    then work on the diagonal alone.
    """

    matrix: Callable[[np.ndarray], np.ndarray]  # (M,N)->(M,N,N)
    c_A: float
    c_A_plus: float
    label: str = ""
    diagonal: np.ndarray | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.c_A <= self.c_A_plus:
            raise ValueError(
                f"ellipticity bounds must satisfy 0 < c_A <= c_A_plus, got "
                f"{self.c_A}, {self.c_A_plus}"
            )

    @staticmethod
    def constant(mat: np.ndarray, label: str = "") -> "Coefficient":
        mat = np.array(mat, dtype=float)  # a copy: the caller's array stays writeable
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("constant coefficient must be a square matrix")
        if not _symmetric(mat):
            raise ValueError("coefficient matrix must be symmetric")
        eigs = np.linalg.eigvalsh(mat)
        mat.flags.writeable = False
        coef = Coefficient(
            matrix=lambda pts: np.broadcast_to(mat, (len(pts), *mat.shape)),
            c_A=float(eigs[0]),
            c_A_plus=float(eigs[-1]),
            label=label or "const",
        )
        diag = np.diag(mat).copy()
        if np.array_equal(mat, np.diag(diag)):
            diag.flags.writeable = False
            object.__setattr__(coef, "diagonal", diag)
        return coef

    def apply(self, pts: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """A(x) q(x) at every node, as ``einsum("mij,mj->mi")`` gives it
        for ``q`` in C order (whose rounding depends on the layout).

        For a diagonal matrix it is ``q * diag``, which differs only in
        the sign of zeros, which no row sum sees, and in rows that hold a
        non-finite entry, which are rejected at the same node either way."""
        if self.diagonal is not None:
            return vals * self.diagonal
        return np.einsum("mij,mj->mi", np.asarray(self.matrix(pts), dtype=float),
                         np.ascontiguousarray(vals, dtype=float))

    def solve(self, pts: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """A(x)^{-1} q(x) at every node, by a direct batched solve of the
        N x N system (never an explicit inverse).  For a diagonal matrix
        it is ``q / diag``, which differs only as for ``apply``."""
        if self.diagonal is not None:
            with np.errstate(over="ignore"):  # as silent as the batched solve
                return vals / self.diagonal
        mats = np.asarray(self.matrix(pts), dtype=float)
        try:
            return np.linalg.solve(mats, vals[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "coefficient matrix singular at a quadrature node "
                "(ellipticity bound violated)"
            ) from exc

    @staticmethod
    def identity(dimension: int) -> "Coefficient":
        return Coefficient.constant(np.eye(dimension), label="identity")


_GRADIENT = LastValue()


def gradient_on(v: ScalarField, rule: QuadratureRule) -> np.ndarray:
    """grad v at the nodes of ``rule``: the array the closure returns,
    made read-only.  The result for the last (v, rule) pair is kept and
    returned again for the same pair, so every user of one operation
    shares a single evaluation (see the module docstring for the
    contract)."""
    if v.gradient is None:
        raise CompositionError(f"field {v.label!r} has no gradient closure")
    return _GRADIENT.get(
        (v, rule), lambda: np.asarray(v.gradient(rule.nodes), dtype=float)
    )


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


def _squared_magnitude(f: ScalarField | VectorField, pts: np.ndarray) -> np.ndarray:
    vals = np.asarray(f.value(pts), dtype=float)
    with np.errstate(over="ignore"):  # the callers' require_finite catches inf
        return vals**2 if vals.ndim == 1 else row_sum(vals**2)


def weighted_norm(f: ScalarField | VectorField, s: float, rule: QuadratureRule) -> float:
    """(integral of rho^{2s} |f|^2)^{1/2} with rho = (1 + r^2)^{1/2}."""
    pts = rule.nodes
    rho2 = 1.0 + row_sum(pts**2)
    sq = _squared_magnitude(f, pts)
    with np.errstate(over="ignore"):  # inf is caught by require_finite
        vals = sq * rho2**s
    require_finite(vals, pts, f.label, f"rho^{2 * s}")
    return math.sqrt(max(exact_dot(vals, rule.weights), 0.0))


def log_weighted_norm(f: ScalarField | VectorField, rule: QuadratureRule) -> float:
    """||r ln r * f||, the 2D logarithmic weight.  The rule must live in
    dimension 2 with all nodes at radius > 1."""
    if rule.dimension != 2:
        raise ValueError("log-weighted norms are defined for dimension 2 only")
    r = node_radii(rule.nodes)
    if np.min(r) <= 1.0:
        raise ValueError("log weight needs all quadrature nodes at radius > 1")
    w = r * np.log(r)
    sq = _squared_magnitude(f, rule.nodes)
    with np.errstate(over="ignore"):  # inf is caught by require_finite
        vals = sq * w**2
    require_finite(vals, rule.nodes, f.label, "times_rlnr")
    return math.sqrt(max(exact_dot(vals, rule.weights), 0.0))


def energy_norm(
    A: Coefficient, q: np.ndarray, mode: str, rule: QuadratureRule, *, label: str = ""
) -> float:
    """||q||_A = (int A q . q)^{1/2} or its dual ||q||_{A^{-1}}, for the
    values ``q`` of a vector field at the rule's nodes; ``label`` names the
    field in errors.  The inverse is applied by ``A.solve``, never by an
    explicit inverse."""
    pts = rule.nodes
    vals = np.asarray(q, dtype=float)
    if mode == "A":
        prod = A.apply(pts, vals)
    elif mode == "A_inverse":
        prod = A.solve(pts, vals)
    else:
        raise ValueError(f"unknown energy norm mode {mode!r}")
    with np.errstate(over="ignore"):  # inf is caught by require_finite
        dens = row_sum(prod * vals)
    require_finite(dens, pts, label, f"energy:{mode}")
    return math.sqrt(max(exact_dot(dens, rule.weights), 0.0))


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


def radial_scalar(p, dp, label: str) -> ScalarField:
    """Scalar field p(r) with gradient dp(r) x/r."""

    def value(pts):
        return p(node_radii(pts))

    def gradient(pts):
        pts = np.atleast_2d(pts)
        r = node_radii(pts)
        return (dp(r) / r)[:, None] * pts

    return ScalarField(value=value, gradient=gradient, label=label)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def _smoothstep_deriv(t: np.ndarray) -> np.ndarray:
    inside = (t > 0.0) & (t < 1.0)
    return np.where(inside, -30.0 * t**2 * (1.0 - t) ** 2, 0.0)


def ramp_profile(r_one: float, r_zero: float):
    """C^2 radial ramp: 1 for r <= r_one, 0 for r >= r_zero.
    Returns (p, dp) closures."""
    width = r_zero - r_one

    def p(r):
        return _smoothstep((np.asarray(r, dtype=float) - r_one) / width)

    def dp(r):
        return _smoothstep_deriv((np.asarray(r, dtype=float) - r_one) / width) / width

    return p, dp


def mollifier_profile(center: float, width: float):
    """C-infinity profile exp(-1/(1-t^2)), t = (s - center)/width.
    Returns (p, dp) closures vanishing identically for |t| >= 1."""

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


def angular_monomial(dimension: int, index: int):
    """Degree <= 1 angular factors with analytic gradients: index 0 is the
    constant 1, index i >= 1 is x_i / r.  Returns (value, gradient)."""
    if index == 0:
        return (
            lambda pts: np.ones(len(np.atleast_2d(pts))),
            lambda pts: np.zeros_like(np.atleast_2d(pts), dtype=float),
        )
    i = index - 1
    if i >= dimension:
        raise ValueError(f"angular index {index} out of range for dimension {dimension}")

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


def _on_support(evaluate, support: tuple[float, float], shape):
    """``evaluate`` run only on the rows ``support_rows`` gives for
    ``support``, with 0.0 on the others, in an array of the nodes' layout
    (see ``ScalarField``).  Each value is computed elementwise, so the rows
    of the range keep their bits, and the skipped ones differ from the
    formula at most in the sign of zero."""

    def restricted(pts):
        pts = np.atleast_2d(pts)
        start, stop = support_rows(node_radii(pts), support)
        if stop - start == len(pts):
            return evaluate(pts)
        out = np.zeros_like(pts, dtype=float, shape=shape(pts))
        if start < stop:
            sub = pts[start:stop]
            sub.flags.writeable = False
            out[start:stop] = evaluate(sub)
        return out

    return restricted


def separable_field(
    p, dp, ang_value, ang_gradient, label: str = "separable",
    support: tuple[float, float] | None = None,
) -> ScalarField:
    """p(r) * q(x) with q homogeneous of degree zero (so x . grad q = 0).
    With a ``support``, p and dp must vanish at radii outside it."""

    def value(pts):
        pts = np.atleast_2d(pts)
        return p(node_radii(pts)) * ang_value(pts)

    def gradient(pts):
        pts = np.atleast_2d(pts)
        r = node_radii(pts)
        radial_part = (dp(r) * ang_value(pts) / r)[:, None] * pts
        return radial_part + p(r)[:, None] * ang_gradient(pts)

    return ScalarField(value=value, gradient=gradient, label=label, support=support)


def check_coefficient(A: Coefficient, points: np.ndarray) -> None:
    """Sampled symmetry and eigenvalue-range check for a coefficient."""
    mats = np.asarray(A.matrix(np.atleast_2d(points)), dtype=float)
    if not _symmetric(mats):
        raise AssertionError(f"coefficient {A.label!r} not symmetric at samples")
    eigs = np.linalg.eigvalsh(mats)
    if np.min(eigs) < A.c_A - 1e-12 or np.max(eigs) > A.c_A_plus + 1e-12:
        raise AssertionError(
            f"coefficient {A.label!r} eigenvalues [{np.min(eigs)}, {np.max(eigs)}] "
            f"leave the declared range [{A.c_A}, {A.c_A_plus}]"
        )
