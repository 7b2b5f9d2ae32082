"""The in-repo Bessel functions and the enclosures that prove signs, against
mpmath at high precision."""

import math
from fractions import Fraction

import numpy as np
import pytest

from extbounds import special
from extbounds.special import Enclosure, bessel_jy, bessel_series, cos_sin, hankel_pq

mpmath = pytest.importorskip("mpmath")


def mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def assert_encloses(enc, want, bits):
    assert enc.bits == bits
    unit = mpmath.mpf(2) ** -bits
    assert abs(enc.value * unit - want) <= enc.error * unit


@pytest.mark.parametrize("nu", [0, 1])
def test_bessel_jy_against_mpmath(nu):
    # error relative to the larger of |value| and the envelope min(1, x^-1/2):
    # the power series loses digits and Hankel's expansion runs out of terms
    # near the switch between them, both to about 1e-11 there
    mpmath.mp.dps = 30
    for x in np.geomspace(1e-4, 1.6e3, 240):
        x = float(x)
        tol = 4e-15 if x < 5.0 else 1e-15 if x > 25.0 else 2e-11
        got = bessel_jy(nu, x)
        for value, want in zip(got, (mpmath.besselj(nu, x), mpmath.bessely(nu, x))):
            scale = max(abs(want), min(1.0, x**-0.5))
            assert abs(value - want) <= tol * scale, (nu, x, value, want)


def test_bessel_jy_rejects_bad_arguments():
    for nu, x in ((2, 1.0), (0, 0.0), (1, -1.0), (0, math.nan)):
        with pytest.raises(ValueError):
            bessel_jy(nu, x)


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
