import math
import tracemalloc

import numpy as np
import pytest

from extbounds import poincare
from extbounds.geometry import ExteriorDomain
from extbounds.poincare import (
    WEIGHT_EQUIV,
    BumpFunction,
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


def kept_samples(u):
    """``samples(u)`` with its arrays copied: the next call of the same
    dimension overwrites the ones it returns."""
    return {key: np.copy(value) if isinstance(value, np.ndarray) else value
            for key, value in samples(u).items()}


class TestPowerWeight:
    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.4])
    def test_random_bumps_pass(self, beta):
        for u in random_bumps(DOM3, 100, seed=int(10 * (beta + 1))):
            rec = verify_power_weight(DOM3, u, beta)
            assert rec.passed, rec

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
        u = BumpFunction((0.0,), 2.0)
        rec = verify_halfline(u, 0.0)
        assert rec.passed
        # without the origin allowance the inequality may not hold; check
        # the allowance is actually included
        sm = kept_samples(u)
        assert sm["u0"] == math.exp(-1.0)
        assert rec.rhs > 2.0 * math.sqrt(
            math.fsum(sm["du_r"] ** 2 * sm["w"])
        )

    @pytest.mark.parametrize("center", [0.5, -0.5])
    def test_bump_across_the_origin_is_cut_off(self, center):
        # sampled on [0, center + 1) only, with u(0) the profile at t = -center
        u = BumpFunction((center,), 1.0)
        sm = kept_samples(u)
        assert sm["r"].min() >= 0.0 and sm["r"].max() < center + 1.0
        assert sm["u0"] == pytest.approx(math.exp(-1.0 / (1.0 - center**2)), rel=1e-15)
        assert math.fsum(sm["w"]) == pytest.approx(center + 1.0, rel=1e-14)
        for beta in (0.0, 1.0):
            assert verify_halfline(u, beta).passed
            assert partial_integration_identity(u, beta).passed

    def test_zero_function(self):
        # a bump off the half line is the zero function on it
        u = BumpFunction((-3.0,), 1.0)
        sm = kept_samples(u)
        assert sm["u0"] == 0.0 and not sm["u"].any() and not sm["w"].any()
        for beta in (0.0, 1.0):
            rec = verify_halfline(u, beta)
            assert rec.lhs == 0.0 and rec.rhs == 0.0 and rec.passed


class TestChains:
    def test_chain_i_all_links(self):
        for u in random_bumps(DOM3, 100, seed=23):
            recs = verify_corollary_chain(DOM3, u)
            assert len(recs) == 4
            assert all(rec.inequality_id.startswith("chain_i_") for rec in recs)
            for rec in recs:
                assert rec.passed, rec

    def test_chain_i_first_link_needs_weight_factor(self):
        # the unit-factor comparison of the rho-weighted and (1+r)-weighted
        # norms is false for every nonzero function: the weights are ordered
        # pointwise the other way.  This check documents why the chain's
        # first link carries sqrt(2), which is the sharp equivalence factor.
        u = BumpFunction((0.0, 0.0, 2.0), 0.7)
        rec = verify_corollary_chain(DOM3, u)[0]
        raw_rhs = rec.rhs / WEIGHT_EQUIV
        assert rec.lhs > raw_rhs  # constant 1 fails
        assert rec.lhs <= rec.rhs  # constant sqrt(2) holds

    def test_chain_ii(self):
        for u in random_bumps(DOM2, 50, seed=29):
            recs = verify_corollary_chain(DOM2, u)
            assert len(recs) == 2
            assert all(rec.inequality_id.startswith("chain_ii_") for rec in recs)
            assert all(r.passed for r in recs)

    def test_no_half_line_chain(self):
        # the half line is checked by verify_halfline alone
        with pytest.raises(ValueError, match="does not match"):
            verify_corollary_chain(DOM3, BumpFunction((2.0,), 0.5))

    def test_angular_rich_bump_has_gradient_margin(self):
        # a bump sitting off-axis has angular gradient content, so the
        # radial-derivative vs full-gradient link is strict
        u = BumpFunction((1.2, 1.2, 1.2), 0.4)
        rec = verify_corollary_chain(DOM3, u)[3]
        assert rec.margin > 0.0

    @pytest.mark.parametrize("where", [4, 2, ExteriorDomain(2, 1.0, 2.0)])
    def test_dimension_mismatch_rejected(self, where):
        # a bump of dimension 4 or 2 in the 3D domain, a 3D bump in a 2D one
        if isinstance(where, int):
            domain, center = DOM3, (0.0,) * (where - 1) + (2.0,)
        else:
            domain, center = where, (0.0, 0.0, 2.0)
        with pytest.raises(ValueError, match="does not match"):
            verify_corollary_chain(domain, BumpFunction(center, 0.5))


class TestIdentities:
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_power_identity(self, beta):
        for u in random_bumps(DOM3, 25, seed=31):
            rec = partial_integration_identity(u, beta)
            assert rec.variant == "power" and rec.passed, rec.rel_deviation

    def test_power_identity_noncanonical_gamma(self):
        # the expansion holds for every gamma, not only the optimizing one
        u = random_bumps(DOM3, 1, seed=32)[0]
        rec = partial_integration_identity(u, 0.0, gamma_hat=0.7)
        assert rec.gamma_hat == 0.7 and rec.passed

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_log_identity(self, beta):
        for u in random_bumps(DOM2, 25, seed=33):
            rec = partial_integration_identity(u, beta)
            assert rec.variant == "log" and rec.passed, rec.rel_deviation

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_halfline_identity(self, beta):
        for u in (BumpFunction((0.0,), 2.0), BumpFunction((2.5,), 1.5)):
            rec = partial_integration_identity(u, beta)
            assert rec.variant == "halfline" and rec.passed


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


def record_bits(rec):
    return [np.float64(x).view(np.int64) for x in (rec.lhs, rec.rhs)]


def one_of_each(k):
    """One record of each kind for the k-th bump of each dimension: the
    half line, N = 2 and N = 3, with an identity of each."""
    u3, u2 = random_bumps(DOM3, 2, seed=41)[k], random_bumps(DOM2, 2, seed=42)[k]
    u1 = BumpFunction((1.5 + k, ), 0.5 + 0.7 * k)
    return [
        lambda: verify_power_weight(DOM3, u3, 1.0),
        lambda: verify_halfline(u1, 0.0),
        lambda: verify_log_weight(DOM2, u2, 0.5),
        lambda: partial_integration_identity(u2, 1.0),
        *(lambda i=i: verify_corollary_chain(DOM3, u3)[i] for i in range(4)),
        lambda: partial_integration_identity(u1, 1.0),
        *(lambda i=i: verify_corollary_chain(DOM2, u2)[i] for i in range(2)),
        lambda: partial_integration_identity(u3, 0.0, gamma_hat=0.7),
        lambda: verify_log_weight(DOM2, u2, 0.0),
    ]


class TestSides:
    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.4, 0.5])
    def test_powers_zero_skipped_with_the_same_bits(self, beta):
        # at beta = 0 and 1 one side has the power w^0, which _sides neither
        # takes nor multiplies by: the sides are those of the formulas with it
        cases = ((random_bumps(DOM3, 1, 50)[0], False), (random_bumps(DOM2, 1, 51)[0], True),
                 (random_bumps(DOM2, 1, 52)[0], False), (BumpFunction((2.0,), 1.5), False))
        for u, with_logs in cases:
            sm = samples(u)
            w = 1.0 + sm["r"] if sm["dimension"] == 1 else sm["r"]
            logs = np.log(sm["r"]) if with_logs else None
            lhs = np.power(w, 2 * beta - 2)
            if with_logs:
                lhs = lhs / logs**2
            lhs = (lhs * sm["u"] ** 2) * sm["w"]
            rhs = (np.power(w, 2 * beta) * sm["du_r"] ** 2) * sm["w"]
            want = tuple(c * math.sqrt(max(math.fsum(side.ravel()), 0.0))
                         for c, side in ((3.0, lhs), (2.0, rhs)))
            assert poincare._sides(sm, 3.0, w, beta, logs) == want


class TestKeptArrays:
    """The samples and densities live in arrays kept per grid shape."""

    def test_interleaved_records_bit_equal_to_lone_ones(self):
        interleaved = [record_bits(run()) for k in (0, 1) for run in one_of_each(k)]
        alone = []
        for k in (0, 1):
            for run in one_of_each(k):
                poincare._grid.cache_clear()  # new arrays for this record alone
                alone.append(record_bits(run()))
        assert interleaved == alone

    def test_samples_are_overwritten_by_the_next_call(self):
        first, second = random_bumps(DOM2, 2, seed=43)
        sm = samples(first)
        kept = kept_samples(first)
        again = samples(second)
        for key in ("r", "du_r", "w"):
            assert np.shares_memory(sm[key], again[key])
            assert not np.array_equal(sm[key], kept[key])

    def test_records_allocate_no_grid_array(self):
        # after a warm-up record of each kind, N = 2 records allocate their
        # small arrays and exact_sum's two 64 KB blocks; a new full-grid
        # (576, 48) array would add 221 KB
        for run in one_of_each(0):
            run()
        grid = poincare._grid((poincare.PANELS * poincare.ORDER, 2 * poincare.ANGULAR))
        runs = [lambda: verify_log_weight(DOM2, u, beta) for u in random_bumps(DOM2, 1, 44)
                for beta in (0.0, 1.0)]
        runs += [lambda u=u: verify_corollary_chain(DOM2, u) for u in random_bumps(DOM2, 2, 45)]
        runs.append(lambda: partial_integration_identity(random_bumps(DOM2, 1, 46)[0], 0.0))
        tracemalloc.start()
        try:
            for run in runs:
                run()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current < grid[0].nbytes
