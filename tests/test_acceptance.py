"""Acceptance suite: one test per criterion, each printing a PASS line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them)."""

import json
import math
import time

import numpy as np
import pytest

import extbounds as xb
from extbounds.fields import energy_norm
from extbounds.majorant import (
    EquilibrationError,
    estimate_I,
    estimate_II,
    estimate_III,
)
from extbounds.minorant import default_basis, minorant
from extbounds.problems import perturb
from extbounds import poincare as pc
from extbounds.cli import main as cli_main

from test_constants import (
    extension_energy,
    mode_multiplier,
    shooting_friedrichs_constant,
)

GUARANTEE_SLACK = 1e-8


def _estimate_for(kind, mp, eps, seed):
    """One randomized trial: returns (true_error, report)."""
    p = mp.problem
    if kind == "v_interior":
        v = perturb(mp, "v", eps, "interior_bump", seed)
        rep = estimate_I(p, v, mp.exact_flux)
    elif kind == "v_boundary":
        v = perturb(mp, "v", eps, "boundary_mode", seed)
        rep = estimate_I(p, v, mp.exact_flux)
    elif kind == "y_interior":
        v = perturb(mp, "v", eps, "interior_bump", seed + 1000)
        y = perturb(mp, "y", eps, "interior_bump", seed)
        rep = estimate_II(p, v, y)
    else:  # broken flux with an interface jump
        v = perturb(mp, "v", eps, "interior_bump", seed + 1000)
        y_i, y_e = perturb(mp, "y_broken", eps, "interface_jump", seed)
        rep = estimate_III(p, v, y_i, y_e)
    return xb.true_error(mp, v), rep


def test_acceptance_1_sharpness(catalog):
    """Exact solution and exact flux drive every estimate to zero."""
    for name in ("N3_harmonic", "N3_anisotropic"):
        mp = catalog[name]
        p = mp.problem
        start = time.monotonic()
        whole = p.quads.whole
        scale = energy_norm(p.A, mp.exact_u.gradient(whole.nodes), "A", whole)
        totals = [
            estimate_I(p, mp.exact_u, mp.exact_flux).total,
            estimate_II(p, mp.exact_u, mp.exact_flux).total,
            estimate_III(p, mp.exact_u, mp.exact_flux, mp.exact_flux).total,
        ]
        elapsed = time.monotonic() - start
        for total in totals:
            assert total <= 1e-8 * scale, (name, total, scale)
        assert elapsed < 10.0, f"{name}: {elapsed:.1f}s"
    print("ACCEPTANCE 1 (sharpness): PASS")


def test_acceptance_2_guarantee(catalog):
    """>= 200 randomized trials: majorant total + slack covers the true
    error with a finite efficiency index, zero violations."""
    start = time.monotonic()
    kinds = ("v_interior", "v_boundary", "y_interior", "y_jump")
    trials = 0
    worst_eff = math.inf
    for name, mp in catalog.items():
        for kind in kinds:
            for eps in (1e-1, 1e-2, 1e-3):
                for seed in range(5):
                    err, rep = _estimate_for(kind, mp, eps, seed)
                    trials += 1
                    assert err > 0.0, (name, kind, eps, seed)
                    slack = GUARANTEE_SLACK * max(rep.scale, err)
                    assert rep.total + slack >= err, (
                        name, kind, eps, seed, rep.total, err,
                    )
                    eff = rep.total / err
                    assert math.isfinite(eff) and eff >= 1 - GUARANTEE_SLACK
                    worst_eff = min(worst_eff, eff)
    elapsed = time.monotonic() - start
    assert trials >= 200
    assert elapsed < 300.0, f"{elapsed:.1f}s"
    print(f"ACCEPTANCE 2 (guarantee): PASS ({trials} trials, "
          f"min efficiency {worst_eff:.6f}, {elapsed:.0f}s)")


def test_acceptance_3_sandwich(catalog):
    """Minorant below, majorant above, >= 100 trials; equality when the
    error direction is in the minorant basis."""
    trials = 0
    for name in ("N3_harmonic", "N3_decay", "N3_anisotropic", "N2_log"):
        mp = catalog[name]
        basis = default_basis(mp.domain, n_radial=3, degree=1)
        for seed in range(13):
            for eps in (0.1, 0.01):
                v = perturb(mp, "v", eps, "interior_bump", seed)
                err = xb.true_error(mp, v)
                low = minorant(mp.problem, v, basis)
                up = estimate_I(mp.problem, v, mp.exact_flux).total
                slack = GUARANTEE_SLACK * max(err, 1.0) ** 2
                assert low <= err**2 + slack, (name, seed, eps)
                assert err**2 <= up**2 + slack, (name, seed, eps)
                trials += 1
    assert trials >= 100

    # sharp case at higher quadrature resolution: with u - v in the basis
    # the lower bound reproduces the squared error
    mp = xb.builtin("N3_harmonic", radial_order=24, shells=24)
    v = perturb(mp, "v", 0.01, "interior_bump", seed=7)
    err = xb.true_error(mp, v)
    basis = default_basis(mp.domain).extended(mp.exact_u - v)
    low = minorant(mp.problem, v, basis)
    assert math.sqrt(low) == pytest.approx(err, rel=1e-6)
    print(f"ACCEPTANCE 3 (sandwich): PASS ({trials} trials, sharp-basis "
          f"rel dev {abs(math.sqrt(low) - err) / err:.2e})")


def test_acceptance_4_poincare_suite():
    """Zero violations over 100 random bumps per inequality and beta, all
    chain links, identities to 1e-9."""
    dom3 = pc.ExteriorDomain(3, 1.0, 2.0)
    dom2 = pc.ExteriorDomain(2, 1.0, 2.0)
    checks = 0

    for beta in (0.0, 1.0, 1.0 - 3 / 2 + 0.1):
        for u in pc.random_bumps(dom3, 100, seed=101 + int(10 * beta)):
            assert verify_and_count(pc.verify_power_weight(dom3, u, beta))
            checks += 1
    for beta in (0.0, 0.5, 1.0):
        for u in pc.random_bumps(dom2, 100, seed=211 + int(10 * beta)):
            assert verify_and_count(pc.verify_log_weight(dom2, u, beta))
            checks += 1
    rng = np.random.default_rng(307)
    for beta in (0.0, 1.0):
        for _ in range(100):
            c = rng.uniform(0.5, 6.0)
            rad = rng.uniform(0.1, 0.9) * c
            assert verify_and_count(
                pc.verify_halfline(pc.BumpFunction((c,), rad), beta)
            )
            checks += 1
        assert pc.verify_halfline(pc.HalfLineBump(2.0), beta).passed
        checks += 1

    for u in pc.random_bumps(dom3, 100, seed=401):
        recs = pc.verify_corollary_chain(dom3, u, "i")
        assert len(recs) == 4 and all(r.passed for r in recs), recs
        checks += 4

    id_worst = 0.0
    for u in pc.random_bumps(dom3, 20, seed=503):
        rec = pc.partial_integration_identity(u, 0.0, "power")
        assert rec.rel_deviation <= 1e-9
        id_worst = max(id_worst, rec.rel_deviation)
    for u in pc.random_bumps(dom2, 20, seed=509):
        rec = pc.partial_integration_identity(u, 0.0, "log")
        assert rec.rel_deviation <= 1e-9
        id_worst = max(id_worst, rec.rel_deviation)
    for u in (pc.HalfLineBump(2.0), pc.BumpFunction((2.5,), 1.5)):
        rec = pc.partial_integration_identity(u, 0.0, "halfline")
        assert rec.rel_deviation <= 1e-9
        id_worst = max(id_worst, rec.rel_deviation)
    print(f"ACCEPTANCE 4 (poincare suite): PASS ({checks} inequality checks, "
          f"worst identity deviation {id_worst:.2e})")


def verify_and_count(record):
    return record.passed


def test_acceptance_5_constants():
    """Formula constants exact; the closed-form Friedrichs constant matches
    the shooting oracle; both trace-side constants survive 50-sample
    verification."""
    assert xb.exterior_poincare_constant(3) == 2.0
    assert xb.exterior_poincare_constant(4) == 1.0

    dom = xb.ExteriorDomain(3, 1.0, 2.0)
    A = xb.Coefficient.identity(3)
    fried = xb.interior_friedrichs_constant(dom)
    oracle = shooting_friedrichs_constant()
    assert fried.value == pytest.approx(oracle, rel=1e-9)
    assert fried.value < xb.interior_weight_constant(dom, A)

    # 50-sample direct verification of the extension constant, with the
    # per-degree energies integrated from the test's own harmonic profiles
    from extbounds.traces import degree_of_index

    modes = 8
    ext = xb.boundary_extension_constant(dom, A, modes=modes)
    per_degree = [extension_energy(3, ell, dom.a, dom.R) for ell in range(modes + 1)]
    ell_of = degree_of_index(3, modes)
    rng = np.random.default_rng(601)
    violations = 0
    for _ in range(50):
        c = rng.normal(size=(modes + 1) ** 2)
        h_half = math.sqrt(
            sum(mode_multiplier(ell_of[i], 3, dom.a) * c[i] ** 2
                for i in range(len(c)))
        )
        energy = sum(c[i] ** 2 * per_degree[ell_of[i]] for i in range(len(c)))
        if math.sqrt(energy) > ext.value * h_half:
            violations += 1
    assert violations == 0

    # 50-sample direct verification of the interface trace constant
    from extbounds.geometry import _gauss_legendre

    trace = xb.interface_trace_constant(dom, A, modes=modes)
    gx, gw = _gauss_legendre(12)
    for k in range(50):
        rng_k = np.random.default_rng(700 + k)
        ell = int(rng_k.integers(0, modes + 1))
        r_out = dom.R + rng_k.uniform(0.5, 2.0)
        s = rng_k.uniform(0.5, 2.0)

        def q(r):
            t = np.clip((r - dom.a) / (r_out - dom.a), 0.0, 1.0)
            return s * np.sin(math.pi * t) ** 2

        def dq(r):
            t = np.clip((r - dom.a) / (r_out - dom.a), 0.0, 1.0)
            return (s * 2.0 * np.sin(math.pi * t) * np.cos(math.pi * t)
                    * math.pi / (r_out - dom.a))

        energy = 0.0
        edges = np.linspace(dom.a, r_out, 64)
        for j in range(len(edges) - 1):
            h = edges[j + 1] - edges[j]
            r = 0.5 * (edges[j] + edges[j + 1]) + 0.5 * h * gx
            w = 0.5 * h * gw
            energy += float(np.sum(
                w * (dq(r) ** 2 + ell * (ell + 1) * q(r) ** 2 / r**2) * r**2
            ))
        lhs = math.sqrt(mode_multiplier(ell, 3, dom.R)) * abs(
            q(np.array([dom.R]))[0] * dom.R
        )
        assert lhs <= trace.value * math.sqrt(A.c_A * energy) * (1 + 1e-12)
    print(f"ACCEPTANCE 5 (constants): PASS (friedrichs {fried.value:.6f} vs "
          f"oracle {oracle:.6f})")


def test_acceptance_6_interface_consistency(catalog):
    """Unbroken fluxes cost nothing at the interface; jump penalties scale
    exactly linearly in the jump size."""
    mp = catalog["N3_harmonic"]
    p = mp.problem
    v = perturb(mp, "v", 0.05, "interior_bump", seed=3)
    y = perturb(mp, "y", 0.05, "interior_bump", seed=4)
    rep3 = estimate_III(p, v, y, y)
    assert rep3.interface < 1e-12
    rep1 = estimate_I(p, v, y)
    recombined = rep1.total - rep1.residual + rep3.residual
    assert abs(rep3.total - recombined) <= 1e-10 * max(rep1.scale, 1.0)

    terms = []
    for eps in (0.1, 0.01, 0.001):
        y_i, y_e = perturb(mp, "y_broken", eps, "interface_jump", seed=5)
        rep = estimate_III(p, mp.exact_u, y_i, y_e)
        terms.append(rep.interface)
    assert terms[0] == pytest.approx(10 * terms[1], rel=1e-10)
    assert terms[1] == pytest.approx(10 * terms[2], rel=1e-10)
    print("ACCEPTANCE 6 (interface consistency): PASS")


def test_acceptance_7_equilibration_gate(catalog):
    """Estimate II accepts the equilibrated catalog flux and rejects a
    flux with a tail residual."""
    from extbounds.fields import VectorField
    from extbounds.geometry import node_radii

    mp = catalog["N3_harmonic"]
    rep = estimate_II(mp.problem, mp.exact_u, mp.exact_flux)
    assert rep.total <= 1e-10

    bad = VectorField(
        value=lambda pts: np.zeros_like(np.atleast_2d(pts), dtype=float),
        divergence=lambda pts: node_radii(pts) ** -5.0,
        label="tail source",
    )
    with pytest.raises(EquilibrationError):
        estimate_II(mp.problem, mp.exact_u, mp.exact_flux + bad)
    print("ACCEPTANCE 7 (equilibration gate): PASS")


def test_acceptance_8_quadrature_oracles():
    """Closed-form integrals reproduced at radial order <= 32.

    The 2D closed form is 2 pi * int_1^inf ln^2 r r^-3 dr = pi/2 (two
    integrations by parts give 1/4 for the radial integral)."""
    from extbounds.geometry import integrate, node_radii, whole_and_parts
    from extbounds.fields import ScalarField, log_weighted_norm

    dom = xb.ExteriorDomain(3, 1.0, 2.0)
    whole = whole_and_parts(dom, 16, 8, 8)[0]
    v1 = integrate(whole, lambda p: node_radii(p) ** -4.0)
    assert v1 == pytest.approx(4 * math.pi, rel=1e-10)
    v2 = integrate(
        whole, lambda p: node_radii(p) ** -4.0 / (1 + node_radii(p) ** 2)
    )
    assert v2 == pytest.approx(4 * math.pi * (1 - math.pi / 4), rel=1e-10)

    dom2 = xb.ExteriorDomain(2, 1.0, 2.0)
    whole2 = whole_and_parts(dom2, 16, 6, 16)[0]
    f = ScalarField(value=lambda p: node_radii(p) ** -3.0, label="r^-3")
    norm = log_weighted_norm(f, whole2)
    assert norm**2 == pytest.approx(math.pi / 2, rel=1e-9)
    print("ACCEPTANCE 8 (quadrature oracles): PASS")


def test_acceptance_9_determinism(tmp_path):
    """Fixed config and seed give byte-identical outputs."""
    config = {
        "problem": "N3_decay",
        "estimate": "I",
        "quadrature": {"radial_order": 10, "angular_order": 10, "shells": 12},
        "trace": {"L": 6},
        "perturbation": {"target": "v", "mode": "boundary_mode",
                         "epsilons": [0.05], "seed": 13},
        "sweep": {"kind": "epsilon", "values": [0.1, 0.05]},
        "poincare": {"count": 4},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        out.mkdir()
        for command in ("majorant", "sweep", "constants", "verify-poincare"):
            assert cli_main([command, "--config", str(cfg), "--seed", "13",
                             "--out", str(out)]) == 0
        outs.append(out)
    for name in ("report.json", "sweep.csv", "constants.json", "poincare.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    print("ACCEPTANCE 9 (determinism): PASS")
