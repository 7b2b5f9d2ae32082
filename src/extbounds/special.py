"""Enclosures of cos, sin, ln and the Bessel functions of order 0 and 1,
which prove signs.

The root function of the Friedrichs constant (see
:mod:`extbounds.constants`) is built from them, for N = 2 from J0, J1, Y0
and Y1, and its root is found from their proven signs alone.

:class:`Enclosure` is a fixed-point number with an explicit error bound:
its integer ``value`` and ``error`` count units of 2**-bits, and the
number it encloses lies within ``error`` units of ``value``.  Each
operation rounds its value down and adds that rounding, and the errors
it carries over, to ``error``.  The series below get each term from the
one before by an exact rational factor, sum with guard bits, and add a
proven bound of the neglected tail, so an enclosure's sign is proven
once ``|value| > error``.  Their arguments are floats, hence exact
dyadic rationals.  :func:`cos_sin` and :func:`bessel_series` carry their
terms' values and errors as plain ints in these units, rounded as
:meth:`Enclosure.times` rounds them, and enclose only the sums.
"""

from __future__ import annotations

from fractions import Fraction


class Enclosure:
    """A real number within ``error`` units of ``value``, a unit being
    2**-bits."""

    __slots__ = ("value", "error", "bits")

    def __init__(self, value: int, error: int, bits: int):
        self.value, self.error, self.bits = value, error, bits

    @classmethod
    def of(cls, n: int, d: int, bits: int) -> "Enclosure":
        """The rational n/d (d > 0) rounded down to a unit."""
        return cls((n << bits) // d, 1, bits)

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.value, self.error, self.bits)

    def __add__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.value + other.value, self.error + other.error, self.bits)

    def __sub__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.value - other.value, self.error + other.error, self.bits)

    def __mul__(self, other: "Enclosure") -> "Enclosure":
        # (a + da)(b + db) - ab = a db + b da + da db, then one rounding down
        a, b, ea, eb = self.value, other.value, self.error, other.error
        spread = abs(a) * eb + abs(b) * ea + ea * eb
        return Enclosure((a * b) >> self.bits, -(-spread >> self.bits) + 1, self.bits)

    def times(self, n: int, d: int) -> "Enclosure":
        """n/d (d > 0) times the enclosed number."""
        return Enclosure((n * self.value) // d, -(-abs(n) * self.error // d) + 1, self.bits)

    def rescaled(self, bits: int) -> "Enclosure":
        """The same number in units of 2**-bits, for bits <= self.bits."""
        shift = self.bits - bits
        return Enclosure(self.value >> shift, -(-self.error >> shift) + 1, bits)

    def magnitude(self) -> int:
        """An upper bound of the enclosed number's absolute value, in units."""
        return abs(self.value) + self.error

    def sign(self) -> int:
        """+1 or -1 when the enclosed number is proven nonzero, else 0."""
        if abs(self.value) <= self.error:
            return 0
        return 1 if self.value > 0 else -1


def _zero(bits):
    return Enclosure(0, 0, bits)


def _one(bits):
    return Enclosure(1 << bits, 0, bits)


# working bits beyond those of a result: the series below sum at
# bits + GUARD, so that the rounding errors of a few thousand terms stay
# below one unit of the result, which they then are rounded to
GUARD = 16


def _result(total: Enclosure, tail: int, guard: int = GUARD) -> Enclosure:
    """``total``, summed with ``guard`` extra bits, widened by ``tail``
    units of the result for a neglected tail proven smaller, then rounded
    to the result's bits."""
    widened = Enclosure(total.value, total.error + (tail << guard), total.bits)
    return widened.rescaled(total.bits - guard)


def _negligible(term: Enclosure, guard: int = GUARD) -> bool:
    """Whether ``term`` is proven below one unit of the result."""
    return term.magnitude() >> guard == 0


def cos_sin(theta: Fraction, bits: int) -> tuple[Enclosure, Enclosure]:
    """Enclosures of cos(theta) and sin(theta) by their Taylor series, each
    term theta^j/j! got from the one before.  The terms are summed up to
    the first one below a unit with j >= 2|theta|; past it each term is at
    most half the one before, so each series' neglected tail is below 2
    units."""
    n, d, w = theta.numerator, theta.denominator, bits + GUARD
    values, errors = [0, 0], [0, 0]  # of the cos and the sin sum
    v, e, j, j_min = 1 << w, 0, 0, -(-2 * abs(n) // d)  # j_min = ceil(2|theta|)
    while j < j_min or (abs(v) + e) >> GUARD:
        values[j % 2] += v if j % 4 < 2 else -v
        errors[j % 2] += e
        j += 1
        v, e = n * v // (d * j), -(-abs(n) * e // (d * j)) + 1
    return (_result(Enclosure(values[0], errors[0], w), 2),
            _result(Enclosure(values[1], errors[1], w), 2))


def _atanh(n: int, d: int, bits: int) -> Enclosure:
    """atanh(n/d) = sum y^(2i+1)/(2i+1) for 0 <= y = n/d <= 1/3: each term
    is at most 1/9 of the one before, so the tail past the first term
    below a unit is below 9/8 units."""
    w = bits + GUARD
    total, power, i = _zero(w), Enclosure.of(n, d, w), 0
    while True:
        term = power.times(1, 2 * i + 1)
        if _negligible(term):
            return _result(total, 2)
        total += term
        power = power.times(n * n, d * d)
        i += 1


def log(q: Fraction, bits: int) -> Enclosure:
    """Enclosure of ln(q) for q >= 1: with q = 2^m r, 1 <= r < 2,
    ln q = 2 m atanh(1/3) + 2 atanh((r - 1)/(r + 1))."""
    if q < 1:
        raise ValueError("log needs q >= 1")
    m = q.numerator.bit_length() - q.denominator.bit_length()
    if q < Fraction(2) ** m:
        m -= 1
    r = q / Fraction(2) ** m
    y = (r - 1) / (r + 1)
    ln2, rest = _atanh(1, 3, bits), _atanh(y.numerator, y.denominator, bits)
    return Enclosure(2 * (m * ln2.value + rest.value),
                     2 * (m * ln2.error + rest.error), bits)


def bessel_series(nu: int, x: Fraction, bits: int) -> tuple[Enclosure, Enclosure]:
    """Enclosures of J_nu(x) = sum u_k and s_nu(x) = sum (H_k + H_{k+nu}) u_k / 2,
    with u_k = (x/2)^nu (-x^2/4)^k / (k! (k+nu)!), for nu in (0, 1) and
    x > 0: by DLMF 10.8.1-2 with psi(k+1) = H_k - gamma,
    Y_nu = (2/pi)((ln(x/2) + gamma) J_nu - nu/x - s_nu).

    Each u_k comes from u_{k-1}, so its error grows with the terms, up to
    about e^x times the first one: the sums take that many more guard
    bits.  They run up to index K with x^2 <= (K+1)(K+1+nu) and both K-th
    terms below a unit.  Past K, |u_{k+1}/u_k| <= 1/4 and
    H_{k+1} + H_{k+1+nu} <= 2 (H_k + H_{k+nu}), so each series' terms at
    least halve and its neglected tail is below 2 units."""
    guard = GUARD + int(1.45 * float(x))
    w = bits + guard
    n, d = x.numerator, x.denominator
    n2, d2 = n * n, d * d
    uv, ue = ((n << w) // (2 * d), 1) if nu else (1 << w, 0)  # u_k
    hn, hd = 0, 1  # H_k
    jv = je = sv = se = k = 0  # the two sums
    while True:
        hn_nu, hd_nu = (hn * (k + 1) + hd, hd * (k + 1)) if nu else (hn, hd)
        sn, sd = hn * hd_nu + hn_nu * hd, 2 * hd * hd_nu
        tv, te = sn * uv // sd, -(-sn * ue // sd) + 1  # the k-th term of s_nu
        if (k > 0 and n2 <= (k + 1) * (k + 1 + nu) * d2
                and (abs(uv) + ue) >> guard == 0 and (abs(tv) + te) >> guard == 0):
            return (_result(Enclosure(jv, je, w), 2, guard),
                    _result(Enclosure(sv, se, w), 2, guard))
        jv, je, sv, se = jv + uv, je + ue, sv + tv, se + te
        k += 1
        hn, hd = hn * k + hd, hd * k
        dk = 4 * d2 * k * (k + nu)
        uv, ue = -n2 * uv // dk, -(-n2 * ue // dk) + 1


def hankel_pq(nu: int, x: Fraction, bits: int) -> tuple[Enclosure, Enclosure] | None:
    """Enclosures of P(nu, x) and Q(nu, x) of Hankel's expansion (DLMF
    10.17.3-4), or None when its terms stop falling before two in a row
    are below a unit.  For nu in (0, 1) and x > 0 the remainder of either
    sum, with at least one term taken, is below its first neglected term
    (DLMF 10.17(iii)).  Term i + 1 is term i times
    (4 nu^2 - (2i + 1)^2) / (8 (i + 1) x)."""
    mu = 4 * nu * nu
    n, d, w = x.numerator, x.denominator, bits + GUARD
    sums = [_zero(w), _zero(w)]
    term, i = _one(w), 0  # a_i(nu) / x^i
    while True:
        sums[i % 2] += term if i % 4 < 2 else -term
        ratio = ((mu - (2 * i + 1) ** 2) * d, 8 * (i + 1) * n)
        if abs(ratio[0]) >= ratio[1]:
            return None
        nxt = term.times(*ratio)
        after = nxt.times((mu - (2 * i + 3) ** 2) * d, 8 * (i + 2) * n)
        if i >= 1 and _negligible(nxt) and _negligible(after):
            return _result(sums[0], 1), _result(sums[1], 1)
        term, i = nxt, i + 1
