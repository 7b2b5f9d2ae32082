"""Every analytic field the program builds through ``fields.separable_field``
and ``fields.ratio_gradient`` has the bits of the reference builders in
``oracles``, each of which writes its profile, angular factor and gradient
out on its own: the exact solutions, both perturbations of v, the minorant
basis, the solenoidal harmonic gradients and the Poincare bump, compared
by ``tobytes()`` on a rule's column-major nodes and on row-major points."""

from types import SimpleNamespace

import numpy as np
import pytest

import oracles as ref
from conftest import random_points_in_annulus
from extbounds.fields import mollifier, mollifier_deriv
from extbounds.minorant import default_basis
from extbounds.problems import CATALOG, perturb, solenoidal_harmonic_gradient

# u(r) and u'(r) of each catalog problem
EXACT = {
    "N3_harmonic": (lambda r: 1.0 / r, lambda r: -1.0 / r**2),
    "N3_decay": (lambda r: 1.0 / (1.0 + r**2), lambda r: -2.0 * r / (1.0 + r**2) ** 2),
    "N3_anisotropic": (lambda r: 1.0 / r, lambda r: -1.0 / r**2),
    "N2_log": (lambda r: 1.0 / r, lambda r: -1.0 / r**2),
}
SEEDS = (0, 1, 7, 42)


def reference_v(mp, eps, mode, seed):
    """v = u + eps b, b drawn as ``perturb`` draws it: centre, width, then
    the angular coefficients for a bump; the coefficients for a ramp."""
    rng = np.random.default_rng(seed)
    dom = mp.domain
    if mode == "interior_bump":
        gap = dom.R - dom.a
        centre = dom.a + gap * rng.uniform(0.35, 0.65)
        width = gap * rng.uniform(0.15, 0.28)
        width = min(width, 0.95 * (centre - dom.a), 0.95 * (dom.R - centre))
        prof, support = ref.mollifier_profile(centre, width), (centre - width, centre + width)
    coeffs = rng.uniform(-1.0, 1.0, size=dom.dimension + 1)
    if mode == "boundary_mode":
        r_zero = dom.a + 0.5 * (dom.R - dom.a)
        prof, support = ref.ramp_profile(dom.a, r_zero), (0.0, r_zero)
    bump = ref.separable_closures(*prof, *ref.random_angular(dom.dimension, coeffs),
                                  support=support)
    return mp.exact_u + eps * bump


def assert_same_bits(new, old, points, closures=("value", "gradient")):
    for pts in points:
        for name in closures:
            got, want = (np.asarray(getattr(f, name)(pts)) for f in (new, old))
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("name", CATALOG)
def test_fields_keep_the_reference_bits(catalog, name):
    mp = catalog[name]
    dom, quads = mp.domain, mp.problem.quads
    # row-major points: random ones, and points on the axes, whose zero
    # coordinates show the sign of a zero
    radii = np.linspace(dom.a, dom.R, 41)[:, None]
    axes = np.concatenate([np.kron(radii, s * np.eye(dom.dimension)) for s in (1.0, -1.0)])
    points = [quads.whole.nodes, quads.gamma.nodes,
              np.ascontiguousarray(random_points_in_annulus(dom, 300, seed=5)), axes]

    assert_same_bits(mp.exact_u, ref.radial_scalar(*EXACT[name], "u"), points)
    for mode in ("interior_bump", "boundary_mode"):
        for seed in SEEDS:
            for eps in (0.1, 1e-3):
                assert_same_bits(perturb(mp, "v", eps, mode, seed),
                                 reference_v(mp, eps, mode, seed), points)

    for degree in (0, 1):
        n_radial = 4
        basis = default_basis(dom, n_radial, degree).fields
        n_ang = 1 + dom.dimension * degree
        edges = np.linspace(dom.a, dom.R, n_radial + 1)
        assert len(basis) == n_radial * n_ang
        for k in range(n_radial):
            centre = 0.5 * (edges[k] + edges[k + 1])
            half = 0.5 * (edges[k + 1] - edges[k])
            for j in range(n_ang):
                old = ref.separable_closures(
                    *ref.basis_bump(centre, half), *ref.angular_monomial(dom.dimension, j),
                    support=(float(centre - half), float(centre + half)))
                assert_same_bits(basis[k * n_ang + j], old, points)

    def solenoidal(value):
        return SimpleNamespace(value=value, divergence=lambda pts: np.zeros(len(pts)))

    for index in range(0 if dom.dimension == 3 else 1, dom.dimension + 1):
        assert_same_bits(solenoidal_harmonic_gradient(dom.dimension, index),
                         solenoidal(ref.harmonic_gradient(dom.dimension, index)),
                         points, ("value", "divergence"))
    if name in ("N3_harmonic", "N2_log"):  # the flux grad(1/r)
        assert_same_bits(mp.exact_flux, solenoidal(ref.harmonic_gradient(dom.dimension, 0)),
                         points, ("value",))

    # the Poincare harness's bump is the mollifier shape itself
    t = np.linspace(-1.2, 1.2, 2401)
    for new, old in zip((mollifier, mollifier_deriv), ref.mollifier_profile(0.0, 1.0)):
        assert new(t).tobytes() == old(t).tobytes()
