"""The enclosures that prove signs, against mpmath at high precision."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import enclosure_bessel_series, enclosure_cos_sin

from extbounds import special
from extbounds.special import Enclosure, bessel_series, cos_sin, hankel_pq

mpmath = pytest.importorskip("mpmath")


def mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def assert_encloses(enc, want, bits):
    assert enc.bits == bits
    unit = mpmath.mpf(2) ** -bits
    assert abs(enc.value * unit - want) <= enc.error * unit


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_enclosures_contain_mpmath_values(bits):
    mpmath.mp.dps = 100
    for theta in (Fraction(1, 3), Fraction(3, 2), Fraction(0.0012), Fraction(1.5707963)):
        c, s = cos_sin(theta, bits)
        assert_encloses(c, mpmath.cos(mp(theta)), bits)
        assert_encloses(s, mpmath.sin(mp(theta)), bits)
    for q in (Fraction(1), Fraction(1.001), Fraction(2), Fraction(30), Fraction(7, 3)):
        assert_encloses(special.log(q, bits), mpmath.log(mp(q)), bits)
    for x in (Fraction(1e-4), Fraction(1.3607773853370082), Fraction(16.5), Fraction(40)):
        xm = mp(x)
        for nu in (0, 1):
            j, s = bessel_series(nu, x, bits)
            assert_encloses(j, mpmath.besselj(nu, xm), bits)
            # s_nu = (ln(x/2) + gamma) J_nu - nu/x - (pi/2) Y_nu
            assert_encloses(s, (mpmath.log(xm / 2) + mpmath.euler) * mpmath.besselj(nu, xm)
                            - nu / xm - mpmath.pi / 2 * mpmath.bessely(nu, xm), bits)
    for x in (Fraction(156.76305425927063), Fraction(1570.4781910293116)):
        xm = mp(x)
        for nu in (0, 1):
            p, q = hankel_pq(nu, x, bits)
            # P = sqrt(pi x/2) (J cos w + Y sin w), Q = sqrt(pi x/2) (Y cos w - J sin w)
            w = xm - (2 * nu + 1) * mpmath.pi / 4
            jm, ym, amp = mpmath.besselj(nu, xm), mpmath.bessely(nu, xm), mpmath.sqrt(mpmath.pi * xm / 2)
            assert_encloses(p, amp * (jm * mpmath.cos(w) + ym * mpmath.sin(w)), bits)
            assert_encloses(q, amp * (ym * mpmath.cos(w) - jm * mpmath.sin(w)), bits)


def triples(pair):
    return [(e.value, e.error, e.bits) for e in pair]


BITS = st.sampled_from([64, 128, 256, 4096])


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(-8.0, 8.0), bits=BITS)
def test_cos_sin_on_integers_matches_the_enclosure_series(theta, bits):
    theta = Fraction(theta)
    assert triples(cos_sin(theta, bits)) == triples(enclosure_cos_sin(theta, bits))


@settings(max_examples=100, deadline=None)
@given(x=st.floats(0.0, 40.0, exclude_min=True), nu=st.sampled_from([0, 1]), bits=BITS)
def test_bessel_series_on_integers_matches_the_enclosure_series(x, nu, bits):
    x = Fraction(x)
    assert triples(bessel_series(nu, x, bits)) == triples(enclosure_bessel_series(nu, x, bits))


def test_hankel_declines_where_its_terms_stay_large():
    # the smallest term of the expansion is about e^(-2x)
    assert hankel_pq(0, Fraction(16), 128) is None
    assert hankel_pq(0, Fraction(16), 32) is not None


def test_enclosure_arithmetic():
    mpmath.mp.dps = 60
    bits = 80
    a = Enclosure.of(-7, 3, bits)
    b = Enclosure.of(5, 11, bits)
    am, bm = mpmath.mpf(-7) / 3, mpmath.mpf(5) / 11
    assert_encloses(a, am, bits)
    assert_encloses(a * b, am * bm, bits)
    assert_encloses(a + b, am + bm, bits)
    assert_encloses(a - b, am - bm, bits)
    assert_encloses(a.times(-9, 4), am * -9 / 4, bits)
    assert_encloses(b.rescaled(20), bm, 20)
    assert a.sign() == -1 and b.sign() == 1
    assert Enclosure(3, 3, bits).sign() == 0
