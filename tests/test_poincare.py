import math

import numpy as np
import pytest

from extbounds.geometry import ExteriorDomain
from extbounds.poincare import (
    WEIGHT_EQUIV,
    BumpFunction,
    HalfLineBump,
    partial_integration_identity,
    random_bumps,
    records_to_csv,
    samples,
    verify_corollary_chain,
    verify_halfline,
    verify_log_weight,
    verify_power_weight,
)

DOM3 = ExteriorDomain(3, 1.0, 2.0)
DOM2 = ExteriorDomain(2, 1.0, 2.0)


class TestPowerWeight:
    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.4])
    def test_random_bumps_pass(self, beta):
        for u in random_bumps(DOM3, 100, seed=int(10 * (beta + 1))):
            rec = verify_power_weight(DOM3, u, beta)
            assert rec.passed, rec

    def test_zero_function(self):
        u = BumpFunction((0.0, 0.0, 2.0), 0.5, amplitude=0.0)
        rec = verify_power_weight(DOM3, u, 0.0)
        assert rec.lhs == 0.0 and rec.rhs == 0.0 and rec.passed

    def test_beta_out_of_range(self):
        u = BumpFunction((0.0, 0.0, 2.0), 0.5)
        with pytest.raises(ValueError, match="beta"):
            verify_power_weight(DOM3, u, -0.5)

    def test_support_violation(self):
        u = BumpFunction((0.0, 0.0, 1.2), 0.5)
        with pytest.raises(ValueError, match="support"):
            verify_power_weight(DOM3, u, 0.0)


class TestLogWeight:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_random_bumps_pass(self, beta):
        for u in random_bumps(DOM2, 100, seed=int(10 * beta) + 3):
            rec = verify_log_weight(DOM2, u, beta)
            assert rec.passed, rec

    def test_forbidden_band(self):
        u = BumpFunction((2.0, 0.0), 0.3)
        with pytest.raises(ValueError, match="forbidden band"):
            verify_log_weight(DOM2, u, 0.25)

    def test_dimension_three_admissible_beta(self):
        for u in random_bumps(DOM3, 20, seed=5):
            rec = verify_log_weight(DOM3, u, 1.0)
            assert rec.passed


class TestHalfLine:
    def test_interior_bump(self):
        rec = verify_halfline(BumpFunction((2.0,), 1.0), 0.0)
        assert rec.passed and rec.lhs > 0.0

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_random_bumps(self, beta):
        rng = np.random.default_rng(17)
        for _ in range(100):
            c = rng.uniform(0.5, 6.0)
            rad = rng.uniform(0.1, 0.9) * c
            rec = verify_halfline(BumpFunction((c,), rad), beta)
            assert rec.passed, rec

    def test_nonzero_origin_value_uses_boundary_term(self):
        u = HalfLineBump(width=2.0)
        rec = verify_halfline(u, 0.0)
        assert rec.passed
        # without the origin allowance the inequality may not hold; check
        # the allowance is actually included
        sm = samples(u)
        assert sm["u0"] == pytest.approx(math.exp(-1.0))
        assert rec.rhs > 2.0 * math.sqrt(
            math.fsum(sm["du_r"] ** 2 * sm["w"])
        )

    def test_zero_function(self):
        rec = verify_halfline(BumpFunction((2.0,), 1.0, amplitude=0.0), 1.0)
        assert rec.passed


class TestChains:
    def test_chain_i_all_links(self):
        for u in random_bumps(DOM3, 100, seed=23):
            recs = verify_corollary_chain(DOM3, u, "i")
            assert len(recs) == 4
            for rec in recs:
                assert rec.passed, rec

    def test_chain_i_first_link_needs_weight_factor(self):
        # the unit-factor comparison of the rho-weighted and (1+r)-weighted
        # norms is false for every nonzero function: the weights are ordered
        # pointwise the other way.  This check documents why the chain's
        # first link carries sqrt(2), which is the sharp equivalence factor.
        u = BumpFunction((0.0, 0.0, 2.0), 0.7)
        rec = verify_corollary_chain(DOM3, u, "i")[0]
        raw_rhs = rec.rhs / WEIGHT_EQUIV
        assert rec.lhs > raw_rhs  # constant 1 fails
        assert rec.lhs <= rec.rhs  # constant sqrt(2) holds

    def test_chain_ii(self):
        for u in random_bumps(DOM2, 50, seed=29):
            recs = verify_corollary_chain(DOM2, u, "ii")
            assert len(recs) == 2
            assert all(r.passed for r in recs)

    def test_no_half_line_chain(self):
        # the half line is checked by verify_halfline alone
        with pytest.raises(ValueError, match="unknown chain case 'iii'"):
            verify_corollary_chain(DOM3, BumpFunction((0.0, 0.0, 2.0), 0.5), "iii")
        with pytest.raises(ValueError, match="needs dimension 2"):
            verify_corollary_chain(DOM3, BumpFunction((0.0, 0.0, 2.0), 0.5), "ii")

    def test_angular_rich_bump_has_gradient_margin(self):
        # a bump sitting off-axis has angular gradient content, so the
        # radial-derivative vs full-gradient link is strict
        u = BumpFunction((1.2, 1.2, 1.2), 0.4)
        rec = verify_corollary_chain(DOM3, u, "i")[3]
        assert rec.margin > 0.0

    def test_unknown_case(self):
        with pytest.raises(ValueError, match="chain case"):
            verify_corollary_chain(DOM3, BumpFunction((0, 0, 2.0), 0.5), "iv")

    @pytest.mark.parametrize("where", [4, 2, ExteriorDomain(2, 1.0, 2.0)])
    def test_dimension_mismatch_rejected(self, where):
        # a bump of dimension 4 or 2 in the 3D domain, a 3D bump in a 2D one
        if isinstance(where, int):
            domain, center = DOM3, (0.0,) * (where - 1) + (2.0,)
        else:
            domain, center = where, (0.0, 0.0, 2.0)
        with pytest.raises(ValueError, match="does not match"):
            verify_corollary_chain(domain, BumpFunction(center, 0.5), "i")


class TestIdentities:
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_power_identity(self, beta):
        for u in random_bumps(DOM3, 25, seed=31):
            rec = partial_integration_identity(u, beta, "power")
            assert rec.passed, rec.rel_deviation

    def test_power_identity_noncanonical_gamma(self):
        # the expansion holds for every gamma, not only the optimizing one
        u = random_bumps(DOM3, 1, seed=32)[0]
        rec = partial_integration_identity(u, 0.0, "power", gamma_hat=0.7)
        assert rec.passed

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_log_identity(self, beta):
        for u in random_bumps(DOM2, 25, seed=33):
            rec = partial_integration_identity(u, beta, "log")
            assert rec.passed, rec.rel_deviation

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_halfline_identity(self, beta):
        rec = partial_integration_identity(HalfLineBump(2.0), beta, "halfline")
        assert rec.passed
        rec = partial_integration_identity(BumpFunction((2.5,), 1.5), beta, "halfline")
        assert rec.passed


def axial_ratio(center_radius, radius):
    """lhs/rhs of the beta = 0 power-weight inequality for the bump centred
    on the first axis."""
    rec = verify_power_weight(DOM3, BumpFunction((center_radius, 0.0, 0.0), radius), 0.0)
    return rec.lhs / rec.rhs


class TestScan:
    def test_ratio_below_one(self):
        # centre radius 2 or 3 and radius 0.5 or 1, less (2, 1), which reaches r = 1
        for cr, rad in ((2.0, 0.5), (3.0, 0.5), (3.0, 1.0)):
            assert axial_ratio(cr, rad) < 1.0

    def test_far_support_tightens_ratio(self):
        assert axial_ratio(40.0, 30.0) > axial_ratio(2.0, 0.5)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        recs = [verify_power_weight(DOM3, u, 0.0)
                for u in random_bumps(DOM3, 3, seed=37)]
        path = tmp_path / "records.csv"
        records_to_csv(recs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "id,N,beta,lhs,rhs,margin,pass"
        assert len(lines) == 4
        fields = lines[1].split(",")
        assert fields[0] == "power_weight" and fields[6] == "true"
        assert float(fields[4]) == recs[0].rhs
