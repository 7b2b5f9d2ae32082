import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import j0, j1, y0, y1

import extbounds.constants as cs
from extbounds.fields import Coefficient
from extbounds.geometry import ExteriorDomain, _gauss_legendre
from extbounds.traces import degree_of_index

DOM3 = ExteriorDomain(3, 1.0, 2.0)
A_ID3 = Coefficient.identity(3)


def shooting_eigenvalue(ell=0, a=1.0, R=2.0, lam_hi=4.0):
    """Independent oracle: integrate the degree-``ell`` radial equation
    -(r^2 p')' + l(l+1) p = lam r^2 p with p(a) = 0, p'(a) = 1 and find
    the smallest lam with p'(R) = 0 (the natural free condition)."""

    def p_prime_at_R(lam):
        def rhs(r, y):
            return [y[1], -2.0 / r * y[1] + (ell * (ell + 1) / r**2 - lam) * y[0]]

        sol = solve_ivp(rhs, (a, R), [0.0, 1.0], rtol=1e-12, atol=1e-14)
        return sol.y[1, -1]

    return brentq(p_prime_at_R, 0.05, lam_hi, xtol=1e-13)


def shooting_friedrichs_constant(a=1.0, R=2.0, lam_hi=4.0):
    """The Friedrichs constant 1/sqrt(lam) of the degree-0 oracle."""
    return 1.0 / math.sqrt(shooting_eigenvalue(0, a, R, lam_hi))


def radial_solutions(dim, ell):
    """The two radial harmonics of degree ``ell`` and their derivatives."""
    if dim == 2 and ell == 0:
        return ((lambda r: np.ones_like(r), lambda r: np.zeros_like(r)),
                (np.log, lambda r: 1.0 / r))
    lo = -ell - 1 if dim == 3 else -ell
    return ((lambda r: r**ell, lambda r: ell * r ** (ell - 1.0)),
            (lambda r: r**lo, lambda r: lo * r ** (lo - 1.0)))


def harmonic_profile(dim, ell, r0, r1, v0, v1):
    """psi and psi' for the radial harmonic with psi(r0) = v0, psi(r1) = v1,
    from a 2x2 solve for its coefficients."""
    (f, df), (g, dg) = radial_solutions(dim, ell)
    ends = np.array([r0, r1])
    alpha, beta = np.linalg.solve(np.column_stack([f(ends), g(ends)]), [v0, v1])
    return (lambda r: alpha * f(r) + beta * g(r),
            lambda r: alpha * df(r) + beta * dg(r))


def profile_energy_by_quadrature(dim, ell, r0, r1, v0, v1, panels=16, order=16):
    """Dirichlet energy int (psi'^2 + l(l+N-2) psi^2/r^2) r^{N-1} dr of the
    harmonic profile on [r0, r1], by composite Gauss-Legendre quadrature."""
    psi, dpsi = harmonic_profile(dim, ell, r0, r1, v0, v1)
    gx, gw = _gauss_legendre(order)
    edges = np.linspace(r0, r1, panels + 1)
    h = np.diff(edges)[:, None]
    r = (0.5 * (edges[:-1] + edges[1:]))[:, None] + 0.5 * h * gx
    w = 0.5 * h * gw
    dens = (dpsi(r) ** 2 + ell * (ell + dim - 2) * psi(r) ** 2 / r**2) * r ** (dim - 1)
    return float(np.sum(w * dens))


def extension_energy(dim, ell, a, cutoff):
    """Per unit surface-L2 coefficient on the sphere of radius a."""
    return profile_energy_by_quadrature(dim, ell, a, cutoff, 1.0, 0.0) / a ** (dim - 1)


def trace_energy(dim, ell, a, R):
    """Per unit surface-L2 coefficient on the sphere of radius R."""
    return profile_energy_by_quadrature(dim, ell, a, R, 0.0, 1.0) / R ** (dim - 1)


def friedrichs_root(dim, a, R):
    """First root k of the degree-0 eigen-condition, by brentq on a bracket
    found by scanning; the Friedrichs constant is 1/k."""
    if dim == 3:
        def g(k):
            return math.sin(k * (R - a)) - k * R * math.cos(k * (R - a))
    else:
        def g(k):
            return float(j1(k * R) * y0(k * a) - y1(k * R) * j0(k * a))
    step = 1e-3 / (R - a)
    k = step
    while g(k) * g(k + step) > 0.0:
        k += step
    return brentq(g, k, k + step, xtol=1e-16, rtol=1e-15)


class TestFormulas:
    def test_exterior_poincare_values(self):
        assert cs.exterior_poincare_constant(3) == 2.0
        assert cs.exterior_poincare_constant(4) == 1.0
        assert cs.exterior_poincare_constant(2) == 2.0
        with pytest.raises(ValueError):
            cs.exterior_poincare_constant(1)

    def test_interior_weight_examples(self):
        assert cs.interior_weight_constant(DOM3, A_ID3) == pytest.approx(6.0)
        # dimension 4 instance of the same formula: c_N (1 + R)/sqrt(c_A)
        assert cs.exterior_poincare_constant(4) * (1 + 3.0) / math.sqrt(4.0) == (
            pytest.approx(2.0)
        )
        dom2 = ExteriorDomain(2, 1.0, math.e)
        A2 = Coefficient.identity(2)
        assert cs.interior_weight_constant(dom2, A2) == pytest.approx(2 * math.e)


class TestInteriorFriedrichs:
    def test_against_shooting_oracle(self):
        rep = cs.interior_friedrichs_constant(DOM3)
        oracle = shooting_friedrichs_constant()
        assert rep.value == pytest.approx(oracle, rel=1e-9)
        assert rep.method == "closed_form"
        assert rep.mode_values is None
        assert rep.params["extremum_index"] == 0

    def test_transcendental_root_cross_check(self):
        # for the unit annulus case the free-endpoint condition reduces to
        # tan k = 2k with the constant 1/k
        k = brentq(lambda k: math.tan(k) - 2 * k, 1.0, 1.5)
        assert shooting_friedrichs_constant() == pytest.approx(1.0 / k, rel=1e-9)

    def test_smaller_than_formula_bound(self):
        rep = cs.interior_friedrichs_constant(DOM3)
        assert rep.value < cs.interior_weight_constant(DOM3, A_ID3)

    def test_monotone_in_interface_radius(self):
        values = []
        for R in (2.0, 1.5, 1.25):
            rep = cs.interior_friedrichs_constant(ExteriorDomain(3, 1.0, R))
            values.append(rep.value)
        assert values[0] > values[1] > values[2]

    def test_degree_one_eigenvalue_above_degree_zero(self):
        # the constant is taken at degree 0 only, which needs lambda_1 > lambda_0
        lam0, lam1 = shooting_eigenvalue(0), shooting_eigenvalue(1)
        assert lam1 > lam0
        rep = cs.interior_friedrichs_constant(DOM3)
        assert rep.value == pytest.approx(1.0 / math.sqrt(lam0), rel=1e-9)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("R", [1.01, 2.0, 8.0])
    def test_not_below_closed_form(self, dim, R):
        rep = cs.interior_friedrichs_constant(ExteriorDomain(dim, 1.0, R))
        exact = 1.0 / friedrichs_root(dim, 1.0, R)
        assert exact <= rep.value <= exact * (1 + 1e-10)

    def test_preconditions(self):
        # attained at degree 0 over all degrees, the constant takes no mode count
        with pytest.raises(TypeError):
            cs.interior_friedrichs_constant(DOM3, modes=8)
        assert "modes" not in cs.interior_friedrichs_constant(DOM3).params


def friedrichs_bracket(dim, R):
    """The scan interval of :func:`cs.interior_friedrichs_constant` for a = 1."""
    hi = math.pi / (2.0 * (R - 1.0))
    return (1.0 / R) ** ((dim - 1) / 2) * hi, hi


def sign_before(dim):
    """The sign of the root function below its first root."""
    return 1 if dim == 2 else -1


def program_root(dim, R, enclose=None, steps=cs.ROOT_SCAN_STEPS):
    """The program's k for a = 1, from ``enclose`` in place of its own,
    found by a scan of ``steps`` steps."""
    enclose = enclose or cs._friedrichs_function(dim, 1.0, R)
    return cs._first_root(enclose, *friedrichs_bracket(dim, R), sign_before(dim), steps)


def searched(domain):
    """The steps of the program's search for ``domain``'s Friedrichs
    constant, and what that search and the full scan of ``ROOT_SCAN_STEPS``
    steps on the same bracket give: each the root it finds or the message
    of the ``ConstantError`` it raises; (None, the message, None) where the
    program refuses the bracket before it searches."""
    calls, first_root = [], cs._first_root

    def outcome(*args):
        try:
            return first_root(*args)
        except cs.ConstantError as error:
            return str(error)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cs, "_first_root", lambda *args: calls.append(args) or first_root(*args))
        try:
            cs.interior_friedrichs_constant(domain)
        except cs.ConstantError as error:
            if not calls:
                return None, str(error), None
    (enclose, lo, hi, before, steps), = calls
    return steps, outcome(*calls[0]), outcome(enclose, lo, hi, before, cs.ROOT_SCAN_STEPS)


# brackets proven to hold one root: N = 3 at any R/a, N = 2 with R <= 8a
ONE_ROOT_DOMAINS = st.one_of(
    st.tuples(st.just(3), st.floats(0.2, 3.0), st.floats(1.0, 50.0, exclude_min=True)),
    st.tuples(st.just(2), st.floats(1.0, 3.0), st.floats(1.0, 8.0, exclude_min=True)))


def mpmath_multiple(dim, R, k, bits):
    """The multiple of g(k) that the program's enclosure at ``bits`` holds,
    at 100 digits: g for N = 3; for N = 2, (pi/2) g from the power series,
    or (pi/2) sqrt(kR k) g from Hankel's expansion where it is used."""
    mp = pytest.importorskip("mpmath")
    from fractions import Fraction

    from extbounds import special

    mp.mp.dps = 100
    x, X = mp.mpf(k), mp.mpf(k) * mp.mpf(R)
    if dim == 3:
        return mp.sin(x * (R - 1)) - X * mp.cos(x * (R - 1))
    g = mp.besselj(1, X) * mp.bessely(0, x) - mp.bessely(1, X) * mp.besselj(0, x)
    hankel = (k > (bits + 16) * math.log(2) / 2
              and special.hankel_pq(0, Fraction(k), bits) is not None
              and special.hankel_pq(1, Fraction(k) * Fraction(R), bits) is not None)
    return mp.pi / 2 * (mp.sqrt(x * X) if hankel else 1) * g


class TestProvenBracket:
    @pytest.mark.parametrize("R", [1.001, 1.01, 1.1, 2.0, 8.0, 30.0])
    def test_n2_against_brentq_oracle(self, R):
        rep = cs.interior_friedrichs_constant(ExteriorDomain(2, 1.0, R))
        exact = 1.0 / friedrichs_root(2, 1.0, R)
        assert exact <= rep.value <= exact * (1 + 1e-10)

    def test_n2_value_at_catalog_radius(self):
        rep = cs.interior_friedrichs_constant(ExteriorDomain(2, 1.0, 2.0))
        assert rep.value == 0.7348740585906647

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("R", [1.000000001, 1.001, 1.01, 1.1, 2.0, 8.0, 30.0])
    def test_bracket_ends_have_proven_opposite_signs(self, dim, R):
        enclose = cs._friedrichs_function(dim, 1.0, R)
        lo, _ = friedrichs_bracket(dim, R)
        k = program_root(dim, R)
        before = sign_before(dim)
        assert cs._proven(enclose, lo)[0] == before
        assert cs._proven(enclose, k)[0] == before
        assert cs._proven(enclose, math.nextafter(k, math.inf))[0] == -before
        assert cs.interior_friedrichs_constant(ExteriorDomain(dim, 1.0, R)).value == (
            cs._outward(1.0 / k))

    @pytest.mark.parametrize("dim,R", [(2, 1.001), (2, 1.01), (2, 1.1), (2, 2.0), (2, 30.0),
                                       (3, 1.1), (3, 8.0)])
    def test_enclosure_holds_the_root_function(self, dim, R):
        enclose = cs._friedrichs_function(dim, 1.0, R)
        k = program_root(dim, R)
        for point in (k, math.nextafter(k, math.inf), 0.7 * k):
            for bits in (64, 128, 256):
                enc = enclose(point, bits)
                want = mpmath_multiple(dim, R, point, bits)
                assert abs(enc.value - want * 2**bits) <= enc.error, (point, bits)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("fraction", [1.0, -1.0, 0.5, -0.25])
    def test_moved_midpoints_give_the_same_root(self, dim, fraction):
        # each enclosure's midpoint moved by ``fraction`` of its error, and its
        # error widened by as much, still holds the root function: the
        # steps change, the proven signs and so the adjacent floats do not
        from extbounds.special import Enclosure

        enclose = cs._friedrichs_function(dim, 1.0, 2.0)

        def moved(k, bits):
            e = enclose(k, bits)
            shift = round(fraction * e.error)
            return Enclosure(e.value + shift, e.error + abs(shift), bits)

        for steps in (1, cs.ROOT_SCAN_STEPS):
            assert program_root(dim, 2.0, moved, steps) == program_root(dim, 2.0)

    @settings(max_examples=60, deadline=None)
    @given(drawn=ONE_ROOT_DOMAINS)
    def test_skipped_scan_changes_no_bit(self, drawn):
        # the same adjacent floats, or the same refusal where the bracket
        # is narrower than a float step; a bracket with no float inside is
        # refused before the search
        dim, a, ratio = drawn
        assume(a * ratio > a)
        steps, found, full = searched(ExteriorDomain(dim, a, a * ratio))
        if steps is None:
            assert "holds no float" in found
            return
        assert steps == 1
        assert found == full

    def test_bracket_without_a_float_is_refused(self, monkeypatch):
        # N = 2 with R one float above a = 2.5: lo is the float below hi, so
        # no float lies inside the bracket, and the rounding of hi put the
        # root above it; the refusal names a and R before any sign is proven
        proven = []
        monkeypatch.setattr(cs, "_proven", lambda *args: proven.append(args))
        domain = ExteriorDomain(2, 2.5, 2.5000000000000004)
        with pytest.raises(cs.ConstantError, match=r"holds no float for a=2\.5, "
                                                   r"R=2\.5000000000000004"):
            cs.interior_friedrichs_constant(domain)
        assert proven == []
        monkeypatch.undo()
        # N = 3 at the same radii: lo lies two floats below hi
        rep = cs.interior_friedrichs_constant(ExteriorDomain(3, 2.5, 2.5000000000000004))
        assert rep.value == 2.8271597168592875e-16

    @pytest.mark.parametrize("R,steps", [
        (8.0, 1),  # the last radius that skips the scan
        (math.nextafter(8.0, math.inf), cs.ROOT_SCAN_STEPS),
        (8.5, cs.ROOT_SCAN_STEPS),
        (30.0, cs.ROOT_SCAN_STEPS),
    ])
    def test_n2_steps_around_eight_radii(self, R, steps):
        taken, found, full = searched(ExteriorDomain(2, 1.0, R))
        assert taken == steps
        assert found == full

    def test_unproven_sign_raises(self):
        from extbounds.special import Enclosure

        with pytest.raises(cs.ConstantError, match="not proven"):
            program_root(3, 2.0, lambda k, bits: Enclosure(0, 1, bits))

    def test_wrong_sign_at_lower_end_raises(self):
        # a lower end past the first root must not lead to a later root
        enclose = cs._friedrichs_function(3, 1.0, 2.0)
        with pytest.raises(cs.ConstantError, match="wrong sign"):
            cs._first_root(enclose, *friedrichs_bracket(3, 2.0), +1, 1)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("R", [2.0, 1.5, 1.75])
    def test_enclosures_per_constant(self, monkeypatch, dim, R):
        # the catalog and sweep radii: a few ms of set-up each, which the
        # benchmark's noise would not show growing
        calls = []
        build = cs._friedrichs_function

        def counted(*args):
            enclose = build(*args)

            def wrapped(k, bits):
                calls.append(bits)
                return enclose(k, bits)

            return wrapped

        monkeypatch.setattr(cs, "_friedrichs_function", counted)
        cs.interior_friedrichs_constant(ExteriorDomain(dim, 1.0, R))
        assert len(calls) <= 16


def mode_multiplier(ell, dim, radius):
    return math.sqrt(1.0 + ell * (ell + dim - 2) / radius**2)


class TestBoundaryExtension:
    def test_mode_zero_energy_closed_form(self):
        # harmonic two-point profile on (a, c): energy a c/(c - a); per unit
        # surface-L2 coefficient this is c/(a (c - a)) = 2 for a=1, c=2
        rep = cs.boundary_extension_constant(DOM3, A_ID3, modes=8)
        assert 2.0 <= rep.params["mode_energies"][0] <= 2.0 * (1 + 1e-10)

    def test_mode_one_energy_closed_form(self):
        # alpha r + beta / r^2 with values 1, 0 at 1, 2: energy 17/7
        rep = cs.boundary_extension_constant(DOM3, A_ID3, modes=8)
        assert 17.0 / 7.0 <= rep.params["mode_energies"][1] <= 17.0 / 7.0 * (1 + 1e-10)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("R", [None, 1.3])  # None: the catalog's R = 2
    def test_not_below_closed_form(self, dim, R):
        dom = ExteriorDomain(dim, 1.0, R or 2.0)
        A = Coefficient(np.array([1.0, 3.0, 2.0][:dim]))
        modes = 12
        rep = cs.boundary_extension_constant(dom, A, modes=modes)
        assert rep.params["cutoff"] == dom.R
        for ell in range(modes + 1):
            energy = extension_energy(dim, ell, dom.a, dom.R)
            ratio = math.sqrt(energy / mode_multiplier(ell, dim, dom.a) * A.c_A_plus)
            assert energy <= rep.params["mode_energies"][ell] <= energy * (1 + 1e-10)
            assert ratio <= rep.mode_values[ell] <= ratio * (1 + 1e-10)
            assert rep.mode_values[ell] <= rep.value
        assert rep.value == max(rep.mode_values)
        assert rep.rel_accuracy <= 1e-10

    def test_direct_verification_50_samples(self):
        modes = 8
        rep = cs.boundary_extension_constant(DOM3, A_ID3, modes=modes)
        # extension energy per degree, integrated by Gauss quadrature from
        # the test's own harmonic profiles
        per_degree = [extension_energy(3, ell, DOM3.a, DOM3.R)
                      for ell in range(modes + 1)]
        ell_of = degree_of_index(3, modes)
        rng = np.random.default_rng(42)
        violations = 0
        for _ in range(50):
            c = rng.normal(size=(modes + 1) ** 2)
            # H^{1/2} norm of the band-limited trace
            h_half = math.sqrt(
                sum(
                    mode_multiplier(ell_of[i], 3, DOM3.a) * c[i] ** 2
                    for i in range(len(c))
                )
            )
            energy = sum(c[i] ** 2 * per_degree[ell_of[i]] for i in range(len(c)))
            if math.sqrt(energy) > rep.value * h_half:
                violations += 1
        assert violations == 0

    def test_single_mode_matches_ratio(self):
        rep = cs.boundary_extension_constant(DOM3, A_ID3, modes=8)
        # pure constant-mode trace: equality with the mode-0 ratio, which is
        # the maximizer here
        assert rep.mode_values[0] == pytest.approx(
            math.sqrt(rep.params["mode_energies"][0]), rel=1e-12
        )
        assert rep.params["extremum_index"] == 0


class TestInterfaceTrace:
    def test_direct_verification_50_samples(self):
        # R = 1.3 with L = 3: the band-limited constant lies below its l <= 8
        # value, and must still bound the trace of every w of degree <= 3
        for R, modes in ((2.0, 8), (1.3, 3)):
            self._verify_50_samples(ExteriorDomain(3, 1.0, R), modes)

    def _verify_50_samples(self, dom, modes):
        A = Coefficient(np.array([1.0, 2.0, 4.0]))
        rep = cs.interface_trace_constant(dom, A, modes=modes)
        # random fields w = q(r) Y_lm, l <= modes, vanishing at r = a with
        # bounded support: compare the interface H^{1/2} norm against the
        # full A-energy computed per mode by dense 1D quadrature
        rng = np.random.default_rng(7)
        gx, gw = _gauss_legendre(12)
        violations = 0
        for _ in range(50):
            ell = int(rng.integers(0, modes + 1))
            r_out = dom.R + rng.uniform(0.5, 2.0)
            # smooth radial profile vanishing at a and beyond r_out
            s = rng.uniform(0.5, 2.0)

            def q(r):
                t = np.clip((r - dom.a) / (r_out - dom.a), 0.0, 1.0)
                return s * np.sin(math.pi * t) ** 2

            def dq(r):
                t = np.clip((r - dom.a) / (r_out - dom.a), 0.0, 1.0)
                return (
                    s * 2.0 * np.sin(math.pi * t) * np.cos(math.pi * t)
                    * math.pi / (r_out - dom.a)
                )

            energy = 0.0
            edges = np.linspace(dom.a, r_out, 64)
            for k in range(len(edges) - 1):
                h = edges[k + 1] - edges[k]
                r = 0.5 * (edges[k] + edges[k + 1]) + 0.5 * h * gx
                w = 0.5 * h * gw
                energy += float(
                    np.sum(
                        w
                        * (dq(r) ** 2 + ell * (ell + 1) * q(r) ** 2 / r**2)
                        * r**2
                    )
                )
            trace_coeff = q(np.array([dom.R]))[0] * dom.R  # R^{(N-1)/2}
            lhs = math.sqrt(mode_multiplier(ell, 3, dom.R)) * abs(trace_coeff)
            rhs = rep.value * math.sqrt(A.c_A * energy)
            if lhs > rhs * (1 + 1e-12):
                violations += 1
        assert violations == 0

    def test_band_limited_constant(self):
        # the maximum over l <= L sits at l = 8 for R = 1.3: L = 3 drops it
        dom = ExteriorDomain(3, 1.0, 1.3)
        low, full = (cs.interface_trace_constant(dom, A_ID3, modes).value for modes in (3, 8))
        assert low == pytest.approx(0.92471, abs=1e-5)
        assert full == pytest.approx(1.02324, abs=1e-5)

    def test_zero_trace_field_trivial(self):
        # a profile vanishing on a neighborhood of the interface has zero
        # trace there: the left side is 0 and the inequality is trivial
        rep = cs.interface_trace_constant(DOM3, A_ID3, modes=8)
        gx, gw = _gauss_legendre(8)
        lo, hi = DOM3.R + 0.5, DOM3.R + 1.5  # support strictly inside the tail

        def q(r):
            t = np.clip((r - lo) / (hi - lo), 0.0, 1.0)
            return np.sin(math.pi * t) ** 2

        trace_value = q(np.array([DOM3.R]))[0]
        assert trace_value == 0.0
        energy = 0.0
        edges = np.linspace(lo, hi, 16)
        for k in range(len(edges) - 1):
            h = edges[k + 1] - edges[k]
            r = 0.5 * (edges[k] + edges[k + 1]) + 0.5 * h * gx
            dq = np.pi / (hi - lo) * 2 * np.sin(np.pi * (r - lo) / (hi - lo)) * (
                np.cos(np.pi * (r - lo) / (hi - lo))
            )
            energy += float(np.sum(0.5 * h * gw * dq**2 * r**2))
        assert 0.0 <= rep.value * math.sqrt(energy)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("R", [1.05, 2.0])
    def test_not_below_closed_form(self, dim, R):
        dom = ExteriorDomain(dim, 1.0, R)
        A = Coefficient(np.array([2.0, 3.0, 5.0][:dim]))
        modes = 12
        rep = cs.interface_trace_constant(dom, A, modes=modes)
        for ell in range(modes + 1):
            const = math.sqrt(
                mode_multiplier(ell, dim, R) / (A.c_A * trace_energy(dim, ell, 1.0, R))
            )
            assert const <= rep.mode_values[ell] <= const * (1 + 1e-10)
        assert rep.value == max(rep.mode_values)
        assert rep.rel_accuracy <= 1e-10

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("modes", [1, 2, 5, 8, 20])
    def test_above_band_bounds_every_higher_degree(self, dim, modes):
        # the per-degree closed form C_l = (w_l^{1/2}/(c_A psi_l'(R)))^{1/2}
        # for l = L + 1 .. L + 4000, over R/a from 1 + 1e-6 to 101
        ell = np.arange(modes + 1, modes + 4001, dtype=float)
        A = Coefficient(np.array([2.0, 3.0, 5.0][:dim]))
        for a in (1.0, 1.5):
            for R in a * (1.0 + np.geomspace(1e-6, 100.0, 25)):
                dom = ExteriorDomain(dim, a, R)
                bound = cs.interface_trace_constant(dom, A, modes).params["above_band"]
                ms = (2 * ell + dim - 2) * math.log1p((R - a) / a)
                flux = (ell + (ell + dim - 2) * np.exp(-ms)) / (R * -np.expm1(-ms))
                const = np.sqrt(np.sqrt(1.0 + ell * (ell + dim - 2) / R**2) / (A.c_A * flux))
                assert const.max() <= bound

    @pytest.mark.parametrize("dim,R", [(3, 2.5), (2, 2.5), (3, 3.0)])
    def test_wide_annulus(self, dim, R):
        # annuli wider than 1: every constant must satisfy its report
        # invariants
        dom = ExteriorDomain(dim, 1.0, R)
        A = Coefficient.identity(dim)
        for rep in (
            cs.interface_trace_constant(dom, A, modes=8),
            cs.boundary_extension_constant(dom, A, modes=8),
            cs.interior_friedrichs_constant(dom),
        ):
            assert rep.value > 0.0
            assert rep.rel_accuracy <= 1e-6


def _bits(x) -> str:
    """A float's bits, or every bit of a report's values, as text."""
    return repr(x.as_dict()) if isinstance(x, cs.ConstantReport) else float(x).hex()


class TestLazyBundle:
    """A ``ConstantsBundle`` derives each constant on its first read."""

    READ = cs.ConstantsBundle.NAMES + ("c_o", "cutoff", "modes")

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.sampled_from([2, 3]), a=st.floats(1.0, 3.0), ratio=st.floats(1.001, 20.0),
           diag=st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
           modes=st.integers(0, 16), order=st.permutations(READ))
    def test_any_order_is_bit_equal_to_eager(self, n, a, ratio, diag, modes, order):
        from oracles import eager_constants

        domain = ExteriorDomain(n, a, a * ratio)
        A = Coefficient(np.array(diag[:n]))
        want = eager_constants(domain, A, modes)
        bundle = cs.ConstantsBundle(domain, A, modes)
        for name in order + order:  # a second read returns the kept value
            assert _bits(getattr(bundle, name)) == _bits(want[name]), name

    def test_each_constant_derived_once_when_read(self, monkeypatch):
        calls = []
        for fn in ("exterior_poincare_constant", "interior_weight_constant",
                   "interior_friedrichs_constant", "boundary_extension_constant",
                   "interface_trace_constant"):
            original = getattr(cs, fn)
            monkeypatch.setattr(cs, fn, lambda *args, fn=fn, original=original:
                                calls.append(fn) or original(*args))
        bundle = cs.ConstantsBundle(DOM3, A_ID3, 8)
        assert calls == []
        bundle.poincare, bundle.extension, bundle.poincare, bundle.cutoff
        assert calls == ["exterior_poincare_constant", "boundary_extension_constant"]
        bundle.c_o, bundle.c_o
        assert "interface_trace_constant" not in calls
        assert bundle.derive_all() is bundle and bundle.derive_all() is bundle
        assert all(calls.count(fn) == 1 for fn in (
            "interior_weight_constant", "interior_friedrichs_constant",
            "boundary_extension_constant", "interface_trace_constant"))
        assert all(name in vars(bundle) for name in cs.ConstantsBundle.NAMES)


class TestReport:
    def test_positive_value_required(self):
        with pytest.raises(cs.ConstantError):
            cs.ConstantReport("bad", 0.0, "formula", None, {}, 0.0)

    def test_as_dict_roundtrip(self):
        rep = cs.boundary_extension_constant(DOM3, A_ID3, modes=8)
        d = rep.as_dict()
        assert d["name"] == "boundary_extension"
        assert isinstance(d["mode_values"], list)
        assert d["value"] == rep.value
        assert "mode_values" not in cs.interior_friedrichs_constant(DOM3).as_dict()


def test_no_optimize_or_sparse_import():
    # the problems and their constants need neither root finders, sparse
    # solvers nor scipy's special functions
    code = (
        "import sys, extbounds as xb\n"
        "for name in ('N3_harmonic', 'N3_decay', 'N3_anisotropic', 'N2_log'):\n"
        "    mp = xb.builtin(name, radial_order=4, angular_order=9, shells=2)\n"
        "    xb.constants_bundle(mp.problem)\n"
        "print([m for m in ('scipy.optimize', 'scipy.sparse', 'scipy.special')\n"
        "       if m in sys.modules])\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
