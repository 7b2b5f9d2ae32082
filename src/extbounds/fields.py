"""Analytic scalar/vector fields, the diffusion coefficient, the term
sums of the error bounds and the weighted norms on a rule's nodes.

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

A norm on a rule's nodes sums a pointwise density that ``density``
builds one column at a time in a single M-vector, with at most one more
scratch column: sum_k (a_k o d_k) b_k, o the product or the quotient by
the coefficient's diagonal d (or a_k b_k without it).  Each node takes
the IEEE operations of ``row_sum((a o d) * b)`` over the (M, N) arrays in
the same order, term by term and added left to right; that ``row_sum``
starts from +0.0 only turns a density of -0.0 into +0.0, which no exact
sum tells apart.  So no (M, N) temporary is built and every sum keeps its
bits.  A norm checks its density with ``require_finite`` and sums it
with the rule's weights in one ``exact_dot``.

Two radial weights coexist and are never interchanged silently:
``rho = (1 + r^2)^{1/2}`` in the norms (``weighted_norm``), and the plain
radius r (with a logarithm in 2D) in the inequality machinery
(``log_weighted_norm``).

A scalar or vector field may declare a radial ``support``: the closed
interval of radii outside which it and its derivative are exactly 0.  It
holds the field's terms (``_held_to``); the closures are the formulas as
given, which the shapes ``profile`` places make 0.0 off the support (up to
the sign of zero).

A separable field also keeps its terms (``Term``: a radial profile p with
its derivative, angular coefficients c and a support, the function
p(r) (c_0 + c . x/r)).  ``separable_field`` records one, ``c * w`` scales
them, ``a + b`` and ``a - b`` join them when both operands have terms,
and like terms merge (``merged``), so u - (u + eps s) has exactly the
terms of -eps s.  ``None`` marks a field without terms (built from bare
closures) and ``()`` the zero sum, so u - u is the zero field.  A vector
field keeps the terms of A grad phi (``potential``), of harmonic
gradients grad h (``gradients``) and of bumps s e (``bumps``, terms with
a direction e).  Every integral of the bounds is summed from the terms,
radial sums on a tensor rule's radial nodes times closed-form sphere
moments, the exact angular integrals at any angular order: the
minorant's system (``term_products``), through ``term_norm`` the true
error, the scale ||A^{1/2} grad v|| and the flux gap ||y - A grad v||_{A^{-1}}
(``bump_products`` adds a bump's cross and mass products), and through
``bump_residual_norm`` the weighted norm of the residual div(s e) of
bumps of one direction.  A bound refuses a field without terms, and a
term sum that is not finite raises ``OverflowError``.  No bound calls the
norms on a rule's nodes (``weighted_norm``, ``log_weighted_norm``,
``energy_norm``), which name the node of a non-finite density.

No memo outlives what it was computed from.  ``last_call`` keeps a
function's result for the last pair of arguments, which it holds through
weak references only, so the entry goes when either is freed: the trace
mismatch of the last approximation (``majorant.dirichlet_mismatch``).  Its
contract: fields, problems and rules are immutable, closures are pure,
and the package is used from one thread.  Arguments are matched by
identity.  The term table ``term_norm`` reads is kept on the problem's
rules (``problems.QuadratureBundle.table``) and goes with them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import weakref
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .geometry import QuadratureRule, exact_dot, exact_sum, node_radii


def _scaled(c: float, fn):
    """c * fn(pts), or None without ``fn``.  A product past the float range
    is inf, which ``require_finite`` then reports at its node."""
    if fn is None:
        return None

    def scaled(pts):
        with np.errstate(over="ignore"):
            return c * fn(pts)

    return scaled


def _combined(a, b, op):
    """op(a(pts), b(pts)), or None without both."""
    if a is None or b is None:
        return None

    def combined(pts):
        return op(a(pts), b(pts))

    return combined


class Term(NamedTuple):
    """p(r) (c . phi) with phi = (1, x_1/r, ..., x_N/r): the radial profile
    p with its derivative dp, the angular coefficients c = (c_0, ..., c_N)
    and the radial ``support`` (None: every radius) outside which p and dp
    vanish.  A term with a ``direction`` e is the vector field
    p(r) (c . phi) e, a bump of a flux (``VectorField.bumps``)."""

    p: Callable
    dp: Callable
    angular: tuple
    support: tuple[float, float] | None
    direction: tuple | None = None


def merged(terms) -> tuple:
    """``terms`` with like terms merged: those with the same closures p and
    dp, the same support and the same direction become one, at the first
    one's place, whose coefficients are the sum of theirs, added in order; a
    term whose coefficients are all 0.0 is dropped."""
    out = {}
    for t in terms:
        key = (t.p, t.dp, t.support, t.direction)
        if key in out:
            t = Term(t.p, t.dp, tuple([a + b for a, b in itertools.zip_longest(
                out[key].angular, t.angular, fillvalue=0.0)]), t.support, t.direction)
        out[key] = t
    return tuple([t for t in out.values() if any(t.angular)])


def scaled_terms(c: float, terms) -> tuple:
    """c times each term's coefficients."""
    return merged(Term(t.p, t.dp, tuple([c * a for a in t.angular]), t.support, t.direction)
                  for t in terms)


def difference(a, b) -> tuple:
    """The merged terms of a - b."""
    return merged(a + scaled_terms(-1.0, b))


def _held_to(t: Term, support) -> Term | None:
    """``t`` on the radii of ``support`` only: its support cut to that one,
    or None where the two do not meet."""
    if support is None:
        return t
    if t.support is not None:
        support = (max(t.support[0], support[0]), min(t.support[1], support[1]))
    return Term(t.p, t.dp, t.angular, support, t.direction) if support[0] <= support[1] else None


class _Field:
    """The support, terms and arithmetic of ``ScalarField`` and
    ``VectorField``: each names its derivative closure (``_derivative``)
    and its lists of terms (``_terms``): all None for a field without
    terms, else the sum they describe."""

    def __post_init__(self):
        if any(getattr(self, name) is not None for name in self._terms):
            for name in self._terms:
                held = (_held_to(Term(*t), self.support) for t in getattr(self, name) or ())
                object.__setattr__(self, name, merged(t for t in held if t is not None))

    def _closures(self) -> tuple:
        """(value, derivative)."""
        return self.value, getattr(self, self._derivative)

    def _sum(self, other, op, sign):
        mine = [getattr(self, name) for name in self._terms]
        theirs = [getattr(other, name) for name in self._terms]
        both = mine[0] is not None and theirs[0] is not None
        if both and op is np.subtract:
            theirs = [scaled_terms(-1.0, terms) for terms in theirs]
        return type(self)(
            *(_combined(a, b, op) for a, b in zip(self._closures(), other._closures())),
            label=f"({self.label}{sign}{other.label})",
            **{name: a + b if both else None for name, a, b in zip(self._terms, mine, theirs)})

    def __add__(self, other):
        return self._sum(other, np.add, "+")

    def __sub__(self, other):
        return self._sum(other, np.subtract, "-")

    def __rmul__(self, c: float):
        c = float(c)
        return type(self)(*(_scaled(c, fn) for fn in self._closures()),
                          label=f"{c}*{self.label}", support=self.support,
                          **{name: scaled_terms(c, getattr(self, name)) for name in self._terms
                             if getattr(self, name) is not None})


def terms_of(f: _Field, role: str) -> tuple:
    """The terms (a vector field's ``potential``) of ``f``, which a
    ``ValueError`` names as ``role`` where it has none."""
    terms = getattr(f, f._terms[0])
    if terms is None:
        raise ValueError(f"{role} ({f.label!r}) has no terms; every bound is summed from terms")
    return terms


@dataclass(frozen=True)
class ScalarField(_Field):
    """Scalar field with vectorized ``value`` (M,N)->(M,) and optional
    analytic ``gradient`` (M,N)->(M,N).

    ``support`` is ``None`` or a closed radial interval ``(r_lo, r_hi)``
    outside which the value and the gradient are exactly 0 (up to the
    sign of zero).  It holds the terms only: each is cut to it, so a field
    made by ``dataclasses.replace`` with another support sums its terms on
    that one, while the closures are run as given, on every row.  ``c * w``
    keeps the support, and ``a + b`` and ``a - b`` drop it.

    ``terms`` is None for a field without terms, or the ``Term``s whose
    sum the field is (``()`` for the zero field); every bound reads them in
    place of the closures.  They are held to the support and merged
    (``merged``), scaled by ``c * w``, and joined by ``a + b`` and ``a - b``
    when both operands have terms (else the result has none).  A
    ``dataclasses.replace`` that gives closures of another function must
    pass ``terms=None``."""

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""
    support: tuple[float, float] | None = None
    terms: tuple | None = field(default=None, repr=False, compare=False)

    _derivative = "gradient"
    _terms = ("terms",)


@dataclass(frozen=True)
class VectorField(_Field):
    """Vector field with vectorized ``value`` (M,N)->(M,N) and optional
    analytic ``divergence`` (M,N)->(M,), and a ``support`` that holds its
    terms as a ``ScalarField``'s does.

    Its terms are three lists, all None for a field without terms: the
    field is A grad phi + sum_k grad h_k + sum_j s_j e_j for the terms of
    phi (``potential``), for the coefficient A of the problem that holds
    it, the harmonic h_k (``gradients``: Laplace h_k = 0, so div grad h_k
    = 0) and the bumps s_j e_j (``bumps``: terms with a ``direction``); a
    list left None beside one given is ``()``.  They are kept as a
    ``ScalarField``'s terms are."""

    value: Callable[[np.ndarray], np.ndarray]
    divergence: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""
    support: tuple[float, float] | None = None
    potential: tuple | None = field(default=None, repr=False, compare=False)
    gradients: tuple | None = field(default=None, repr=False, compare=False)
    bumps: tuple | None = field(default=None, repr=False, compare=False)

    _derivative = "divergence"
    _terms = ("potential", "gradients", "bumps")


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


def last_call(memo: list):
    """Decorator: ``fn(a, b)`` kept for the last pair (a, b) it was called
    with and returned again for the same pair, matched by identity, until
    a or b is freed.  ``memo`` holds (weak reference to a, weak reference
    to b, the result); see the module docstring for the contract."""

    def decorate(fn):
        @functools.wraps(fn)
        def kept(a, b):
            if not (memo and memo[0]() is a and memo[1]() is b):
                def forget(_):
                    memo.clear()

                memo[:] = [weakref.ref(a, forget), weakref.ref(b, forget), fn(a, b)]
            return memo[2]

        return kept

    return decorate


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


def require_finite(vals: np.ndarray, pts: np.ndarray, label: str, weight: str) -> None:
    """Raise ``QuadratureErrorAt`` at the first node where ``vals`` (one
    value or one row per node, at the rule's nodes ``pts``) is not finite."""
    ok = np.isfinite(vals)
    if not ok.all():
        if ok.ndim > 1:
            ok = ok.all(axis=1)
        bad = int(np.flatnonzero(~ok)[0])
        raise QuadratureErrorAt(bad, pts[bad], label, weight)


# ---------------------------------------------------------------------------
# energies of sums of terms


def _sphere_area(n: int) -> float:
    """|S|, the area of the unit sphere in dimension n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def sphere_moments(D) -> np.ndarray:
    """(4, N + 1, N + 1): M_1, M_2, M_2^T and M_4, the moments over the unit
    sphere S of phi phi^T (omega . D omega), phi (omega . D grad_S phi)^T
    and grad_S phi . D grad_S phi^T, for a symmetric D (a 1-D ``D`` is the
    diagonal of a diagonal one), phi = (1, omega_1, ..., omega_N) and
    grad_S omega_i = e_i - omega_i omega.  With t = tr D and k = N (N + 2),
    their diagonals are

        m_1 = |S| (t / N, (t + 2 D_ii) / k),  m_2 = |S| (0, (N D_ii - t) / k),
        m_4 = |S| (0, ((N^2 - 2) D_ii + t) / k),

    their entries (i, j), i != j >= 1, are 2 |S| D_ij / k, N |S| D_ij / k
    and (N^2 - 2) |S| D_ij / k, and the others are 0, from the moments
    |S|/N of omega_i^2, |S|/k of omega_i^2 omega_j^2 (i != j) and 3 |S|/k
    of omega_i^4 (Folland, "How to integrate a polynomial over a sphere",
    Amer. Math. Monthly 108, 2001).  So M_2 is symmetric, as M_1 and M_4
    are, and for a diagonal D all three are diagonal.  The result is
    read-only, and kept for the last few D."""
    D = np.asarray(D, dtype=float)
    return _sphere_moments(D.tobytes(), D.shape)


@functools.lru_cache(maxsize=16)
def _sphere_moments(bits: bytes, shape: tuple) -> np.ndarray:
    """``sphere_moments`` of the D with these bytes and shape."""
    D = np.frombuffer(bits).reshape(shape)
    D = np.diag(D) if D.ndim == 1 else D
    n, d = len(D), np.diagonal(D)
    area = _sphere_area(n)
    t, k = float(np.sum(d)), n * (n + 2)
    m = np.zeros((4, n + 1, n + 1))
    for row, c in ((0, 2.0), (1, n), (3, n * n - 2)):
        m[row, 1:, 1:] = c * (area * D / k)
    i = np.arange(1, n + 1)
    m[0, 0, 0] = area * t / n
    m[0, i, i] = area * (t + 2.0 * d) / k
    m[1, i, i] = area * (n * d - t) / k
    m[3, i, i] = area * ((n * n - 2) * d + t) / k
    m[2] = m[1]
    m.flags.writeable = False
    return m


@functools.lru_cache(maxsize=16)
def _moment_entries(bits: bytes, shape: tuple) -> tuple:
    """(columns, x, y), read-only, for the D with these bytes and shape: the
    entries (x, y) that are not 0 in all four ``sphere_moments`` of D, and
    the (4, len(x)) moments there."""
    moments = sphere_moments(np.frombuffer(bits).reshape(shape))
    x, y = np.nonzero(np.any(moments != 0.0, axis=0))
    out = moments[:, x, y], x, y
    for a in out:
        a.flags.writeable = False
    return out


@functools.lru_cache(maxsize=16)
def _upper_pairs(count: int) -> tuple:
    """``np.triu_indices(count)``, read-only: the pairs i <= j of
    ``range(count)``."""
    pairs = np.triu_indices(count)
    for a in pairs:
        a.flags.writeable = False
    return pairs


_JOIN = 1 << 16  # term_products joins the pairs of terms in chunks of about this many


def _profiles(rule: QuadratureRule, r: np.ndarray, sets, labels, weight: str):
    """(rows, values, bounds) of the profiles (p, dp, support) of the terms
    of ``sets``: the row of each, p and p' at the radial nodes ``r`` of the
    tensor ``rule``, a row each, 0.0 off the rows [lo, hi) that
    ``support_rows`` finds for its support, and those (lo, hi).  A
    non-finite value raises ``QuadratureErrorAt`` at the first node of its
    radius, p's before p''s, named by the label of its first set and
    ``weight``."""
    profiles = {}  # (p, dp, support) -> (its row, its first set's label)
    for terms, label in zip(sets, labels):
        for t in terms:
            profiles.setdefault((t.p, t.dp, t.support), (len(profiles), label))
    values = np.zeros((2, len(profiles), len(r)))
    bounds = np.zeros((len(profiles), 2), dtype=np.intp)
    for (fn, dfn, support), (i, label) in profiles.items():
        lo, hi = (0, len(r)) if support is None else support_rows(r, support)
        values[0, i, lo:hi] = fn(r[lo:hi])
        values[1, i, lo:hi] = dfn(r[lo:hi])
        if not np.isfinite(values[:, i, lo:hi]).all():
            bad = np.flatnonzero(~np.isfinite(values[:, i, lo:hi]))[0] % (hi - lo)
            node = (lo + int(bad)) * len(rule.angular[0])
            raise QuadratureErrorAt(node, rule.nodes[node], label, weight)
        bounds[i] = lo, hi
    return {key: i for key, (i, _) in profiles.items()}, values, bounds


# the rows of p (0) and p' (1) of the first and second profile of a pair
# in its four densities, in the order of ``term_products``
_LEFT = np.array([[1], [1], [0], [0]])
_RIGHT = np.array([[1], [0], [1], [0]])


def _coefficients(terms, n: int) -> np.ndarray:
    """The angular coefficients of ``terms``, a row of N + 1 each."""
    return np.array([tuple(t.angular) + (0.0,) * (n + 1 - len(t.angular)) for t in terms],
                    dtype=float).reshape(len(terms), n + 1)


def term_products(rule: QuadratureRule, sets, labels, weight: str, radial=None):
    """``products``, whose exact sums are the energies a_D(s, t) = int w D
    grad s . grad t over the tensor ``rule`` of terms with profiles among
    those of the term ``sets``, for a radial weight w (``radial``, a
    function of r; 1 without it).  For s = p (alpha . phi), t = q (beta . phi),

        a_D(s, t) = sum_k W_k w(r_k) [p' q' alpha^T M_1 beta
                                      + (p' q / r) alpha^T M_2 beta
                                      + (p q' / r) alpha^T M_2^T beta
                                      + (p q / r^2) alpha^T M_4 beta]

    over the rule's radial nodes r_k, weights W_k, that ``support_rows``
    finds in both supports (``sphere_moments`` gives the M).  Only the
    pairs of profiles that share nodes, in one 2-D ``exact_dot``, and the
    pairs of terms with such profiles are multiplied out:
    ``products(term_sets, D)``, for a symmetric D (a 1-D D: the diagonal),
    gives (A, B, the products of a_D(s, t)), a row each, for each term s of
    set A and t of set B, A <= B, whose profiles share nodes, sorted by
    (A, B, the pair of profiles, s, t), with the entries that are 0 in all
    four M left out (those off the diagonal, for a diagonal D).  A
    non-finite profile value raises ``QuadratureErrorAt`` (``_profiles``).
    ``products.profiles`` is (rows, values) of ``_profiles``.

    ``products(term_sets, D, rows)`` sums over the radial nodes of the
    slice ``rows`` alone, each profile's rows cut to it, as a table on the
    rule with those nodes does (``omega_i``'s and ``omega_e``'s are rows of
    ``whole``'s), up to the sign of a zero sum of a support spanning R.
    The pair sums of a slice are kept with the table from its first read.

    A table over more profiles gives each a_D(s, t) the same products: a
    pair of profiles stored in the other order swaps only its sums of
    p' q / r and p q' / r, which multiply M_2 and M_2^T, and these are equal.

    The pairs of profiles come from ``np.triu_indices`` kept per count
    (``_upper_pairs``), their four densities go into one array, and the
    pairs of terms are joined in numpy, about ``_JOIN`` pairs at a time: a
    few numpy operations per chunk, not Python steps per pair."""
    radii, weights = rule.radial
    if radial is not None:
        weights = weights * radial(radii)
    index, values, bounds = _profiles(rule, radii, sets, labels, weight)

    @functools.cache
    def pairs_on(start: int, stop: int) -> tuple:
        """(each pair of profiles' row in ``sums``, -1 for a pair that shares
        no row in [start, stop); ``sums``, the pairs' radial sums there)."""
        r, part = radii[start:stop], values[:, :, start:stop]
        lo, hi = (np.clip(bounds, start, stop) - start).T
        i, j = _upper_pairs(len(bounds))
        shared = np.maximum(lo[i], lo[j]) < np.minimum(hi[i], hi[j])
        i, j = i[shared], j[shared]  # the profiles sharing rows
        # the densities p_i' p_j', p_i' p_j / r, p_i p_j' / r and p_i p_j / r^2
        dens = np.empty((len(i), 4, len(r)))
        np.multiply(part[_LEFT, i], part[_RIGHT, j], out=dens.transpose(1, 0, 2))
        dens[:, 1:3] /= r
        dens[:, 3] /= r * r
        # the radial sums per pair of profiles; a_D(s, t) is symmetric (so are
        # the M), so a pair serves both orders
        sums = exact_dot(dens.reshape(-1, len(r)), weights[start:stop]).reshape(-1, 4, 1)
        pair_of = np.full((len(bounds), len(bounds)), -1, dtype=np.intp)
        pair_of[i, j] = pair_of[j, i] = np.arange(len(i))
        return pair_of, sums

    def products(term_sets, D, rows=slice(None)):
        pair_of, sums = pairs_on(*rows.indices(len(radii))[:2])
        D = np.asarray(D, dtype=float)
        columns, x, y = _moment_entries(D.tobytes(), D.shape)
        flat = [t for terms in term_sets for t in terms]
        which, row = np.array([(k, index[t.p, t.dp, t.support])
                               for k, terms in enumerate(term_sets) for t in terms],
                              dtype=np.intp).reshape(-1, 2).T
        # the pairs (s, t) whose profiles meet, A <= B, s major, joined for
        # chunks of s of about _JOIN pairs each
        n, found = len(flat), []
        chunk = max(1, _JOIN // max(n, 1))
        for start in range(0, max(n, 1), chunk):
            part = slice(start, start + chunk)
            meet = pair_of[row[part, None], row]
            s, t = np.nonzero((which[part, None] <= which) & (meet >= 0))
            found.append((s + start, t, meet[s, t]))
        s, t, pair = found[0] if len(found) == 1 else map(np.concatenate, zip(*found))
        first, second = which[s], which[t]
        # (s, t) ascend, and the sort is stable: sorted by (A, B, pair, s, t)
        order = np.lexsort((pair, second, first))
        s, t, pair = s[order, None], t[order, None], pair[order]
        coef = _coefficients(flat, len(D))
        prods = (sums[pair] * columns) * (coef[s, x] * coef[t, y])[:, None, :]
        return first[order], second[order], prods.reshape(len(pair), 4 * len(x))

    products.profiles = index, values
    return products


def bump_moments(n: int) -> tuple:
    """(X_1, X_2, X_3): the integrals over the unit sphere S in dimension
    N = ``n`` of phi_a phi_b omega_k, of phi_a (grad_S phi_b)_k, both
    (N + 1, N + 1, N), and of phi_a phi_b, (N + 1, N + 1), for phi = (1,
    omega_1, ..., omega_N).  The nonzero entries are X_1 = |S|/N at
    (0, k, k - 1) and (k, 0, k - 1), X_2 = |S| (N - 1)/N at (0, k, k - 1)
    and X_3 = |S| diag(1, 1/N, ..., 1/N), k = 1, ..., N, from the moments
    |S|/N of omega_k^2 (Folland 2001)."""
    area = _sphere_area(n)
    k = np.arange(1, n + 1)
    x1, x2 = np.zeros((2, n + 1, n + 1, n))
    x1[0, k, k - 1] = x1[k, 0, k - 1] = area / n
    x2[0, k, k - 1] = area * (n - 1) / n
    return x1, x2, np.diag(np.r_[area, np.full(n, area / n)])


def bump_products(rule: QuadratureRule, grads, bumps, inverse: np.ndarray,
                  table, rows: slice) -> np.ndarray:
    """The products whose exact sum over the tensor ``rule`` is

        2 sum_(terms, g) sum_(t, s) int grad t . (g e) s + sum_(s, s') (e . inverse e') int s s'

    for the pairs (terms, g) of ``grads`` (g a diagonal), t among the
    terms, and the bumps s e, s' e' of ``bumps``.  For t = q (beta . phi),
    s = p (alpha . phi), s' = p' (alpha' . phi) and c = g e, with the
    sphere integrals X of ``bump_moments``,

        int grad t . c s = sum_k W_k [q' p (beta^T X_1 alpha) . c
                                      + (q p / r) (alpha^T X_2 beta) . c],
        int s s' = sum_k W_k p p' alpha^T X_3 alpha'

    over the rule's radial nodes r_k and weights W_k.  p and p' are read
    from ``table``, a ``term_products`` over profiles that include those of
    the terms and the bumps, on ``rule`` or on a rule whose radial rows
    ``rows`` are ``rule``'s."""
    r, weights = rule.radial
    n = rule.dimension
    x1, x2, x3 = bump_moments(n)
    index, (p, dp) = table.profiles[0], table.profiles[1][:, :, rows]
    alpha = _coefficients(bumps, n)
    e = np.array([s.direction for s in bumps]).reshape(len(bumps), n)
    dens, factors = [], []
    for terms, g in grads:
        for t, beta in zip(terms, _coefficients(terms, n)):
            i = index[t.p, t.dp, t.support]
            for s, a, c in zip(bumps, alpha, g * e):
                j = index[s.p, s.dp, s.support]
                dens += [dp[i] * p[j], p[i] * p[j] / r]
                factors += [2.0 * np.einsum("a,abk,b,k->", beta, x1, a, c),
                            2.0 * np.einsum("a,abk,b,k->", a, x2, beta, c)]
    for s, a, e_s in zip(bumps, alpha, e):
        for s2, b, e_2 in zip(bumps, alpha, e):
            dens.append(p[index[s.p, s.dp, s.support]] * p[index[s2.p, s2.dp, s2.support]])
            factors.append((a @ x3 @ b) * (e_s @ (inverse * e_2)))
    return exact_dot(np.reshape(dens, (-1, len(r))), weights) * np.array(factors)


def _finite_root(total, label) -> float:
    """The root of ``total()``, clamped at 0.0, with numpy's overflow
    warnings silenced.  Where ``total()`` is not finite or raises, as for a
    non-finite profile value, ``OverflowError`` names ``label()``."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            value = total()
        except (ArithmeticError, ValueError):
            value = math.nan
    if not math.isfinite(value):
        raise OverflowError("non-finite term sum for field {!r} (weight {})".format(*label()))
    return math.sqrt(max(value, 0.0))


def term_norm(A: Coefficient, table, rule: QuadratureRule, sets, label, gradients=(),
              bumps=()) -> float:
    """||A grad s + sum_k grad h_k + sum_j s_j e_j||_{A^{-1}} over ``rule``,
    for s = s_0 - s_1, the sums of the two term ``sets`` (s = s_0 for one
    set), the harmonic h_k of ``gradients`` and the bumps s_j e_j of
    ``bumps``; without the last two, ||A^{1/2} grad(s_0 - s_1)||.  With d
    the diagonal of A and a_delta the energy with the diagonal delta
    (``term_products``), its square is

        a_d(s, s) + 2 a_1(s, h) + a_{1/d}(h, h) + 2 int grad s . e_j s_j
        + 2 int grad h . d^{-1} e_j s_j + (e_j . d^{-1} e_l) int s_j s_l,

    the exact sum of the products of the merged terms (``term_products``,
    ``bump_products``); a set may be ``()``, the zero field.  A sum that is
    not finite raises ``OverflowError`` naming ``label()``'s field and weight.

    ``table(term_sets)`` gives a ``term_products`` over the profiles of all
    the inputs before they are merged, on the rule whose rows ``rule`` is
    (``QuadratureRule.rows``; ``rule`` itself for a rule made otherwise),
    summed on ``rule``'s radial rows: the norms of one approximation on
    ``whole``, ``omega_i`` and ``omega_e`` can read one table
    (``problems.QuadratureBundle.table``)."""
    s, d = difference(sets[0], sets[1] if len(sets) > 1 else ()), A.diagonal
    rows = slice(None)
    if rule.rows is not None:  # node k * directions + j of their rule is at radius k
        whole, node_rows = rule.rows
        rows = slice(*(k // len(rule.angular[0]) for k in node_rows.indices(len(whole))[:2]))

    def total():
        products = table([*sets, gradients, bumps])
        parts = [products([s], d, rows)[2]]
        if gradients:
            first, second, cross = products([s, gradients], np.ones_like(d), rows)
            parts += [2.0 * cross[(first == 0) & (second == 1)],
                      products([gradients], 1.0 / d, rows)[2]]
        if bumps:
            parts.append(bump_products(rule, [(s, np.ones_like(d)), (gradients, 1.0 / d)],
                                       bumps, 1.0 / d, products, rows))
        return exact_sum(np.concatenate([x.ravel() for x in parts]))

    return _finite_root(total, label)


def bump_residual_norm(rule: QuadratureRule, bumps, radial, label) -> float:
    """(int w (grad s . e)^2)^{1/2} over ``rule``, the norm of div(s e) with
    the radial weight w (``radial``, a function of r; 1 for None), for the
    bumps of ``bumps``, all with the direction e, whose sum is s: the root
    of the exact sum of the products of a_D(s, s), D = e e^T
    (``term_products``, with the weight); 0.0 where no bump's support has
    rows in the rule.  Where a weight W_k w(r_k) passes the float range, w
    is scaled by a power of two, which is exact, and the sum scaled back.
    Bumps of several directions, whose cross integrands are no a_D of a
    symmetric D, raise ``ValueError``, and a sum that is not finite
    ``OverflowError``, with the name and weight ``label()`` gives."""
    if len({t.direction for t in bumps}) > 1:
        raise ValueError("the residual {!r} (weight {}) has bumps of several directions, "
                         "which its terms cannot sum".format(*label()))
    r, weights = rule.radial
    bumps = [t for t in bumps if t.support is None or np.subtract(*support_rows(r, t.support))]
    if not bumps:
        return 0.0
    e = np.array(bumps[0].direction)

    def total(shift=0):
        scaled = (lambda r: np.ldexp(radial(r), -shift)) if shift else radial
        products = term_products(rule, [bumps], [""], "", scaled)
        return math.ldexp(exact_sum(products([bumps], np.outer(e, e))[2].ravel()), shift)

    try:
        return _finite_root(total, label)
    except OverflowError:
        if radial is None:
            raise
    with np.errstate(over="ignore"):  # the largest weight to about 2^1000
        shift = sum(math.frexp(float(np.max(x)))[1] for x in (weights, radial(r))) - 1000
    return _finite_root(lambda: total(max(shift, 0)), label)


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


def _mollifier_parts(t: np.ndarray) -> tuple:
    """(inside, t, 1 - t^2, exp(-1/(1 - t^2))): the mask of |t| < 1 - 1e-14
    and the rest at the t it holds."""
    inside = np.abs(t) < 1.0 - 1e-14
    ti = t[inside]
    gap = 1.0 - ti**2
    return inside, ti, gap, np.exp(-1.0 / gap)


def mollifier(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    inside, _, _, value = _mollifier_parts(t)
    out[inside] = value
    return out


def mollifier_deriv(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    inside, ti, gap, value = _mollifier_parts(t)
    out[inside] = value * (-2.0 * ti / gap**2)
    return out


def mollifier_and_deriv(t: np.ndarray) -> tuple:
    """(``mollifier(t)``, ``mollifier_deriv(t)``), the same bits from one
    exp."""
    out, deriv = np.zeros_like(t), np.zeros_like(t)
    inside, ti, gap, value = _mollifier_parts(t)
    out[inside] = value
    deriv[inside] = value * (-2.0 * ti / gap**2)
    return out, deriv


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


def separable_field(
    p, dp, angular=None, label: str = "separable",
    support: tuple[float, float] | None = None,
) -> ScalarField:
    """p(r) q(x) for the angular factor q of the coefficients ``angular``
    (``angular_factor``), homogeneous of degree zero (so x . grad q = 0),
    or p(r) alone without them.  With a ``support``, p and dp must vanish
    at radii outside it.  The field records itself as one ``Term``."""
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

    coeffs = (1.0,) if angular is None else tuple(map(float, angular))
    return ScalarField(value=value, gradient=gradient, label=label, support=support,
                       terms=(Term(p, dp, coeffs, support),))
