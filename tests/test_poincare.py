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


def one_sample(u):
    """The samples of the one-bump batch ``[u]``."""
    (sm,) = samples([u])
    return sm


def kept_samples(u):
    """The one record row of ``one_sample(u)``'s arrays, copied: the next
    call of the same dimension overwrites the ones it returns."""
    return {key: np.copy(value[0]) for key, value in one_sample(u).items() if key != "kept"}


class TestPowerWeight:
    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.4])
    def test_random_bumps_pass(self, beta):
        recs = verify_power_weight(DOM3, random_bumps(DOM3, 100, seed=int(10 * (beta + 1))), beta)
        assert len(recs) == 100
        for rec in recs:
            assert rec.passed, rec

    def test_beta_out_of_range(self):
        u = BumpFunction((0.0, 0.0, 2.0), 0.5)
        with pytest.raises(ValueError, match="beta"):
            verify_power_weight(DOM3, [u], -0.5)

    def test_support_violation(self):
        u = BumpFunction((0.0, 0.0, 1.2), 0.5)
        with pytest.raises(ValueError, match="support"):
            verify_power_weight(DOM3, [u], 0.0)


class TestLogWeight:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_random_bumps_pass(self, beta):
        recs = verify_log_weight(DOM2, random_bumps(DOM2, 100, seed=int(10 * beta) + 3), beta)
        assert len(recs) == 100
        for rec in recs:
            assert rec.passed, rec

    def test_forbidden_band(self):
        u = BumpFunction((2.0, 0.0), 0.3)
        with pytest.raises(ValueError, match="forbidden band"):
            verify_log_weight(DOM2, [u], 0.25)

    def test_dimension_three_admissible_beta(self):
        recs = verify_log_weight(DOM3, random_bumps(DOM3, 20, seed=5), 1.0)
        assert len(recs) == 20 and all(rec.passed for rec in recs)


class TestHalfLine:
    def test_interior_bump(self):
        (rec,) = verify_halfline([BumpFunction((2.0,), 1.0)], 0.0)
        assert rec.passed and rec.lhs > 0.0

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_random_bumps(self, beta):
        rng = np.random.default_rng(17)
        bumps = []
        for _ in range(100):
            c = rng.uniform(0.5, 6.0)
            bumps.append(BumpFunction((c,), rng.uniform(0.1, 0.9) * c))
        recs = verify_halfline(bumps, beta)
        assert len(recs) == 100
        for rec in recs:
            assert rec.passed, rec

    def test_nonzero_origin_value_uses_boundary_term(self):
        u = BumpFunction((0.0,), 2.0)
        (rec,) = verify_halfline([u], 0.0)
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
            assert verify_halfline([u], beta)[0].passed
            assert partial_integration_identity(u, beta).passed

    def test_zero_function(self):
        # a bump off the half line is the zero function on it
        u = BumpFunction((-3.0,), 1.0)
        sm = kept_samples(u)
        assert sm["u0"] == 0.0 and not sm["u"].any() and not sm["w"].any()
        for beta in (0.0, 1.0):
            (rec,) = verify_halfline([u], beta)
            assert rec.lhs == 0.0 and rec.rhs == 0.0 and rec.passed


class TestChains:
    def test_chain_i_all_links(self):
        recs = verify_corollary_chain(DOM3, random_bumps(DOM3, 100, seed=23))
        assert len(recs) == 400
        ids = [rec.inequality_id for rec in recs[:4]]
        assert all(i.startswith("chain_i_") for i in ids) and len(set(ids)) == 4
        assert [rec.inequality_id for rec in recs] == 100 * ids
        for rec in recs:
            assert rec.passed, rec

    def test_chain_i_first_link_needs_weight_factor(self):
        # the unit-factor comparison of the rho-weighted and (1+r)-weighted
        # norms is false for every nonzero function: the weights are ordered
        # pointwise the other way.  This check documents why the chain's
        # first link carries sqrt(2), which is the sharp equivalence factor.
        u = BumpFunction((0.0, 0.0, 2.0), 0.7)
        rec = verify_corollary_chain(DOM3, [u])[0]
        raw_rhs = rec.rhs / WEIGHT_EQUIV
        assert rec.lhs > raw_rhs  # constant 1 fails
        assert rec.lhs <= rec.rhs  # constant sqrt(2) holds

    def test_chain_ii(self):
        recs = verify_corollary_chain(DOM2, random_bumps(DOM2, 50, seed=29))
        assert len(recs) == 100
        ids = [rec.inequality_id for rec in recs[:2]]
        assert all(i.startswith("chain_ii_") for i in ids) and len(set(ids)) == 2
        assert [rec.inequality_id for rec in recs] == 50 * ids
        assert all(r.passed for r in recs)

    def test_no_half_line_chain(self):
        # the half line is checked by verify_halfline alone
        with pytest.raises(ValueError, match="does not match"):
            verify_corollary_chain(DOM3, [BumpFunction((2.0,), 0.5)])

    def test_angular_rich_bump_has_gradient_margin(self):
        # a bump sitting off-axis has angular gradient content, so the
        # radial-derivative vs full-gradient link is strict
        u = BumpFunction((1.2, 1.2, 1.2), 0.4)
        rec = verify_corollary_chain(DOM3, [u])[3]
        assert rec.margin > 0.0

    def test_one_sum_keeps_the_formula_bits(self):
        # the chain's densities summed in one exact_sum give the links of
        # one fsum each
        for u in (random_bumps(DOM3, 1, 55)[0], random_bumps(DOM2, 1, 56)[0]):
            sm = kept_samples(u)
            r, u2 = sm["r"], sm["u"] ** 2

            def norm(density):
                return math.sqrt(max(fsum_integral(sm, density), 0.0))

            n_dr, n_gr = norm(sm["du_r"] ** 2), norm(sm["grad"] ** 2)
            if u.dimension == 2:
                want = [(norm(u2 / (r * np.log(r)) ** 2), 2.0 * n_dr), (2.0 * n_dr, 2.0 * n_gr)]
                domain = DOM2
            else:
                n_opr, n_r = norm(u2 / (1.0 + r) ** 2), norm(u2 / r**2)
                want = [(norm(u2 / (1.0 + r**2)), WEIGHT_EQUIV * n_opr), (n_opr, n_r),
                        (n_r, 2.0 * n_dr), (2.0 * n_dr, 2.0 * n_gr)]
                domain = DOM3
            assert [(rec.lhs, rec.rhs) for rec in verify_corollary_chain(domain, [u])] == want

    @pytest.mark.parametrize("where", [4, 2, ExteriorDomain(2, 1.0, 2.0)])
    def test_dimension_mismatch_rejected(self, where):
        # a bump of dimension 4 or 2 in the 3D domain, a 3D bump in a 2D one
        if isinstance(where, int):
            domain, center = DOM3, (0.0,) * (where - 1) + (2.0,)
        else:
            domain, center = where, (0.0, 0.0, 2.0)
        with pytest.raises(ValueError, match="does not match"):
            verify_corollary_chain(domain, [BumpFunction(center, 0.5)])


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

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.4, 0.5])
    def test_one_sum_keeps_the_formula_bits(self, beta):
        # the densities summed in one exact_sum, with no power w^0 taken,
        # give the formulas' bits with every power taken and one fsum each
        for u in (random_bumps(DOM3, 1, 53)[0], random_bumps(DOM2, 1, 54)[0],
                  BumpFunction((0.0,), 2.0)):
            sm, n = kept_samples(u), u.dimension
            r, uu, dur = sm["r"], sm["u"], sm["du_r"]
            weight = 1.0 + r if n == 1 else r
            logs = np.log(r)
            gh = 2.0 * beta + n - (3.0 if n == 2 else 2.0)
            b = gh * np.power(weight, beta - 1)
            if n == 2:
                b = b / logs
            lhs = fsum_integral(sm, (np.power(weight, beta) * dur + b * uu) ** 2)
            grad = fsum_integral(sm, np.power(weight, 2 * beta) * dur**2)

            def u_term(logs_power):
                density = np.power(weight, 2 * beta - 2)
                if logs_power:
                    density = density / (logs if logs_power == 1 else logs**2)
                return fsum_integral(sm, density * uu**2)

            if n == 2:
                rhs = grad + gh * (gh + 1.0) * u_term(2) - gh * (n + 2.0 * beta - 2.0) * u_term(1)
            else:
                u0 = float(sm["u0"])
                rhs = grad + gh * (gh - 2.0 * beta - n + 2.0) * u_term(0) - gh * u0**2
            rec = partial_integration_identity(u, beta)
            assert (rec.lhs, rec.rhs) == (lhs, rhs)


class TestValidation:
    """A batch is checked whole before any bump of it is sampled."""

    @pytest.mark.parametrize("check,match", [
        (lambda b3, b2: verify_power_weight(DOM3, b3, -0.5), "beta must exceed"),
        (lambda b3, b2: verify_power_weight(DOM3, b3 + [BumpFunction((0.0, 0.0, 1.2), 0.5)], 0.0),
         "support reaches inside"),
        (lambda b3, b2: verify_power_weight(DOM3, b3 + b2, 0.0), "does not match"),
        (lambda b3, b2: verify_log_weight(DOM2, b2, 0.25), "forbidden band"),
        (lambda b3, b2: verify_log_weight(ExteriorDomain(3, 0.5, 2.0), b3, 1.0),
         "needs inner radius >= 1"),
        (lambda b3, b2: verify_log_weight(DOM2, b2 + b3, 0.0), "does not match"),
        (lambda b3, b2: verify_corollary_chain(DOM2, b2 + [BumpFunction((1.1, 0.0), 0.2)]),
         "support reaches inside"),
        (lambda b3, b2: verify_halfline([BumpFunction((2.0,), 1.0)] + b2, 0.0),
         "one-dimensional"),
    ], ids=["power_beta", "power_inside", "power_dimension", "log_band", "log_inner_radius",
            "log_dimension", "chain_inside", "halfline_dimension"])
    def test_batch_rejected_before_sampling(self, monkeypatch, check, match):
        bumps3, bumps2 = random_bumps(DOM3, 3, seed=57), random_bumps(DOM2, 3, seed=58)

        def sampled(bumps):
            raise AssertionError(f"sampled {len(bumps)} bumps before rejecting the batch")

        monkeypatch.setattr(poincare, "samples", sampled)
        with pytest.raises(ValueError, match=match):
            check(bumps3, bumps2)

    def test_empty_batch_has_no_records(self):
        assert verify_power_weight(DOM3, [], 0.0) == verify_log_weight(DOM2, [], 0.0) == []
        assert verify_halfline([], 0.0) == verify_corollary_chain(DOM3, []) == []


def axial_ratio(center_radius, radius):
    """lhs/rhs of the beta = 0 power-weight inequality for the bump centred
    on the first axis."""
    (rec,) = verify_power_weight(DOM3, [BumpFunction((center_radius, 0.0, 0.0), radius)], 0.0)
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
        recs = verify_power_weight(DOM3, random_bumps(DOM3, 3, seed=37), 0.0)
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


def bumps_of_each():
    """Bumps of mixed radii for each dimension, more than a sampling batch
    of N = 2 and of the half line: the half line's with the origin bump, a
    bump across 0 and one off the half line."""
    more = poincare.BATCH + 1
    return {3: random_bumps(DOM3, 3, seed=41), 2: random_bumps(DOM2, more, seed=42),
            1: [BumpFunction((1.5 + k,), 0.5 + 0.7 * k) for k in range(more - 3)]
            + [BumpFunction((0.0,), 2.0), BumpFunction((0.5,), 1.0), BumpFunction((-3.0,), 1.0)]}


def batch_checks():
    """(check, batch) for every check that takes a batch of bumps."""
    bumps = bumps_of_each()
    return [
        (lambda b: verify_power_weight(DOM3, b, 1.0), bumps[3]),
        (lambda b: verify_power_weight(DOM3, b, 0.0), bumps[3]),
        (lambda b: verify_log_weight(DOM2, b, 0.5), bumps[2]),
        (lambda b: verify_log_weight(DOM2, b, 0.0), bumps[2]),
        (lambda b: verify_halfline(b, 0.0), bumps[1]),
        (lambda b: verify_halfline(b, 1.0), bumps[1]),
        (lambda b: verify_corollary_chain(DOM3, b), bumps[3]),
        (lambda b: verify_corollary_chain(DOM2, b), bumps[2]),
    ]


def one_of_each(k):
    """One record of each kind for the k-th bump of each dimension: the
    half line, N = 2 and N = 3, with an identity of each."""
    bumps = bumps_of_each()
    u3, u2, u1 = bumps[3][k], bumps[2][k], bumps[1][k]
    return [
        lambda: verify_power_weight(DOM3, [u3], 1.0)[0],
        lambda: verify_halfline([u1], 0.0)[0],
        lambda: verify_log_weight(DOM2, [u2], 0.5)[0],
        lambda: partial_integration_identity(u2, 1.0),
        *(lambda i=i: verify_corollary_chain(DOM3, [u3])[i] for i in range(4)),
        lambda: partial_integration_identity(u1, 1.0),
        *(lambda i=i: verify_corollary_chain(DOM2, [u2])[i] for i in range(2)),
        lambda: partial_integration_identity(u3, 0.0, gamma_hat=0.7),
        lambda: verify_log_weight(DOM2, [u2], 0.0)[0],
    ]


def fsum_integral(sm, density):
    """math.fsum of ``density`` times the weights of a ``kept_samples``."""
    return math.fsum((density * sm["w"]).ravel())


class TestSides:
    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.4, 0.5])
    def test_powers_zero_skipped_with_the_same_bits(self, beta):
        # at beta = 0 and 1 one side has the power w^0, which _sides neither
        # takes nor multiplies by: the sides are those of the formulas with it
        cases = ((random_bumps(DOM3, 1, 50)[0], False), (random_bumps(DOM2, 1, 51)[0], True),
                 (random_bumps(DOM2, 1, 52)[0], False), (BumpFunction((2.0,), 1.5), False))
        for u, with_logs in cases:
            sm = one_sample(u)
            w = 1.0 + sm["r"] if u.dimension == 1 else sm["r"]
            logs = np.log(sm["r"]) if with_logs else None
            lhs = np.power(w, 2 * beta - 2)
            if with_logs:
                lhs = lhs / logs**2
            lhs = (lhs * sm["u"] ** 2) * sm["w"]
            rhs = (np.power(w, 2 * beta) * sm["du_r"] ** 2) * sm["w"]
            want = [[c * math.sqrt(max(math.fsum(side.ravel()), 0.0))]
                    for c, side in ((3.0, lhs), (2.0, rhs))]
            assert [side.tolist() for side in poincare._sides(sm, 3.0, w, beta, logs)] == want


class TestKeptArrays:
    """The samples and densities live in arrays kept per grid shape, and a
    record has the same bits in any batch."""

    def test_interleaved_records_bit_equal_to_lone_ones(self):
        interleaved = [record_bits(run()) for k in (0, 1) for run in one_of_each(k)]
        alone = []
        for k in (0, 1):
            for run in one_of_each(k):
                poincare._grid.cache_clear()  # new arrays for this record alone
                alone.append(record_bits(run()))
        assert interleaved == alone
        # a batch of mixed radii gives each bump the bits of its one-bump call
        for check, bumps in batch_checks():
            lone = [record_bits(rec) for u in bumps for rec in check([u])]
            assert [record_bits(rec) for rec in check(bumps)] == lone

    def test_samples_are_overwritten_by_the_next_call(self):
        first, second = random_bumps(DOM2, 2, seed=43)
        sm = one_sample(first)
        kept = kept_samples(first)
        again = one_sample(second)
        for key in ("r", "du_r", "w"):
            assert np.shares_memory(sm[key], again[key])
            assert not np.array_equal(sm[key][0], kept[key])

    def test_records_allocate_no_grid_array(self):
        # after a warm-up record of each kind, N = 2 records allocate their
        # small arrays and exact_sum's buffers (128 KB in its first pass,
        # less than 240 KB in all); a new set of the seven (288, 32) grid
        # arrays, which _grid keeps, would add 516 KB
        for run in one_of_each(0):
            run()
        grid = one_sample(random_bumps(DOM2, 1, 44)[0])["kept"]
        runs = [lambda u=u, beta=beta: verify_log_weight(DOM2, [u], beta)
                for u in random_bumps(DOM2, 1, 44) for beta in (0.0, 1.0)]
        runs += [lambda u=u: verify_corollary_chain(DOM2, [u]) for u in random_bumps(DOM2, 2, 45)]
        runs.append(lambda: partial_integration_identity(random_bumps(DOM2, 1, 46)[0], 0.0))
        tracemalloc.start()
        try:
            for run in runs:
                run()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current < grid.nbytes


def extreme_bumps(domain):
    """The widest draw of ``random_bumps`` (radius 0.45 (|c| - a) at |c| =
    2.5 R), the draw closest to the inner sphere (the same radius fraction
    at the least |c|, 1.05 a + 0.05) and two drawn ones: the records depend
    on |c| and the radius alone."""
    a, axis = domain.a, np.eye(domain.dimension)[0]
    ends = [BumpFunction(tuple(cr * axis), 0.45 * (cr - a))
            for cr in (2.5 * domain.R, 1.05 * a + 0.05)]
    return ends + random_bumps(domain, 2, seed=61)


# the half line's widest and narrowest draws of verify-poincare, its origin
# bump and one across 0
HALF_LINE = [BumpFunction((6.0,), 5.4), BumpFunction((0.5,), 0.05), BumpFunction((0.0,), 2.0),
             BumpFunction((0.5,), 1.0)]


class TestConvergence:
    """Every check on the default rule agrees to 1e-13 relative with the
    same check on four times the panels and 48 angular nodes, at the
    extreme draws: the angular integrand of an off-center bump is analytic
    away from r = 0 (and ln r = 0), so Gauss-Legendre converges
    geometrically in rad / |c| <= 0.36 there."""

    @pytest.mark.parametrize("check", [
        lambda: [rec for beta in (0.0, 1.0, -0.4)
                 for rec in verify_power_weight(DOM3, extreme_bumps(DOM3), beta)],
        lambda: [rec for beta in (0.0, 0.5, 1.0)
                 for rec in verify_log_weight(DOM2, extreme_bumps(DOM2), beta)],
        lambda: [rec for beta in (0.0, 1.0) for rec in verify_halfline(HALF_LINE, beta)],
        lambda: verify_corollary_chain(DOM3, extreme_bumps(DOM3)),
        lambda: verify_corollary_chain(DOM2, extreme_bumps(DOM2)),
        lambda: [partial_integration_identity(u, beta) for beta in (0.0, 1.0)
                 for u in extreme_bumps(DOM3) + extreme_bumps(DOM2) + HALF_LINE],
    ], ids=["power_weight", "log_weight", "halfline", "chain_i", "chain_ii", "identities"])
    def test_default_rule_agrees_with_a_finer_one(self, monkeypatch, check):
        default = check()
        composite = poincare._composite_interval
        monkeypatch.setattr(poincare, "_composite_interval",
                            lambda lo, hi, order, panels: composite(lo, hi, order, 4 * panels))
        monkeypatch.setattr(poincare, "ANGULAR", 48)
        try:
            fine = check()
        finally:
            poincare._grid.cache_clear()  # the finer grids' arrays go
        assert len(default) == len(fine)
        for rec, ref in zip(default, fine):
            for got, want in ((rec.lhs, ref.lhs), (rec.rhs, ref.rhs)):
                assert abs(got - want) <= 1e-13 * abs(want), (rec, ref)
