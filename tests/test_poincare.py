import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import shell_integrals, shell_records

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
# two units in the last place of a value just above a power of two
ULPS_2 = 2.0**-51


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
            assert partial_integration_identity([u], beta)[0].passed

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
        # the chain's N = 2 densities summed in one exact_sum give the links
        # of one fsum each; the links of chain i lie within 2 ulps of their
        # shell integrals summed in mpmath on the same distance rule
        u = random_bumps(DOM2, 1, 56)[0]
        sm = kept_samples(u)
        r, u2 = sm["r"], sm["u"] ** 2

        def norm(density):
            return math.sqrt(max(fsum_integral(sm, density), 0.0))

        n_dr, n_gr = norm(sm["du_r"] ** 2), norm(sm["grad"] ** 2)
        want = [(norm(u2 / (r * np.log(r)) ** 2), 2.0 * n_dr), (2.0 * n_dr, 2.0 * n_gr)]
        assert [(rec.lhs, rec.rhs) for rec in verify_corollary_chain(DOM2, [u])] == want
        u = random_bumps(DOM3, 1, 55)[0]
        got = [(rec.lhs, rec.rhs) for rec in verify_corollary_chain(DOM3, [u])]
        assert len(got) == 4
        for pair, want in zip(got, shell_records(u, 0.0)["chain"]):
            assert pair == pytest.approx(want, rel=ULPS_2, abs=0.0)

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
        recs = partial_integration_identity(random_bumps(DOM3, 25, seed=31), beta)
        assert len(recs) == 25
        for rec in recs:
            assert rec.variant == "power" and rec.passed, rec.rel_deviation

    def test_power_identity_noncanonical_gamma(self):
        # the expansion holds for every gamma, not only the optimizing one
        u = random_bumps(DOM3, 1, seed=32)[0]
        (rec,) = partial_integration_identity([u], 0.0, gamma_hat=0.7)
        assert rec.gamma_hat == 0.7 and rec.passed

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_log_identity(self, beta):
        recs = partial_integration_identity(random_bumps(DOM2, 25, seed=33), beta)
        assert len(recs) == 25
        for rec in recs:
            assert rec.variant == "log" and rec.passed, rec.rel_deviation

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_halfline_identity(self, beta):
        recs = partial_integration_identity([BumpFunction((0.0,), 2.0),
                                             BumpFunction((2.5,), 1.5)], beta)
        assert len(recs) == 2
        for rec in recs:
            assert rec.variant == "halfline" and rec.passed

    @pytest.mark.parametrize("n", [3, 2, 1])
    def test_batch_returns_the_records_in_order(self, n):
        # a batch of one dimension gives each bump's record, in order
        bumps = {3: random_bumps(DOM3, 5, 34), 2: random_bumps(DOM2, 5, 35),
                 1: [BumpFunction((0.5 + k,), 0.4 + 0.3 * k) for k in range(5)]}[n]
        recs = partial_integration_identity(bumps, 1.0, gamma_hat=0.3)
        lone = [partial_integration_identity([u], 1.0, gamma_hat=0.3)[0] for u in bumps]
        assert recs == lone and len({rec.lhs for rec in recs}) == 5

    @pytest.mark.parametrize("bump", [BumpFunction((0.0, 0.0, 0.5), 1.0),
                                      BumpFunction((0.3, 0.0, 0.0), 0.3),
                                      BumpFunction((0.0, 0.0, 0.0), 0.5)],
                             ids=["across", "touching", "centred"])
    def test_power_identity_refuses_a_bump_that_reaches_the_origin(self, bump):
        # r^(2b-2) is singular inside such a support, and the shell integrals
        # need |c| > s: the whole batch is refused by name before any sampling
        with pytest.raises(ValueError, match="reaches the origin") as info:
            partial_integration_identity(random_bumps(DOM3, 2, 36) + [bump], 0.0)
        assert repr(bump) in str(info.value)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.4, 0.5])
    def test_one_sum_keeps_the_formula_bits(self, beta):
        # the densities summed in one exact_sum, with no power w^0 taken,
        # give the formulas' bits with every power taken and one fsum each
        # (N = 2 and the half line); an N = 3 record lies within 2 ulps of
        # its shell integrals summed in mpmath on the same distance rule
        u = random_bumps(DOM3, 1, 53)[0]
        (rec,) = partial_integration_identity([u], beta)
        want = shell_records(u, beta)["identity"]
        assert (rec.lhs, rec.rhs) == pytest.approx(want, rel=ULPS_2, abs=0.0)
        for u in (random_bumps(DOM2, 1, 54)[0], BumpFunction((0.0,), 2.0)):
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
            (rec,) = partial_integration_identity([u], beta)
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
        (lambda b3, b2: verify_log_weight(DOM3, b3, 1.0), "checked in N = 2"),
        (lambda b3, b2: partial_integration_identity(b3 + [BumpFunction((0.0, 0.0, 0.5), 1.0)],
                                                     0.0), "reaches the origin"),
        (lambda b3, b2: partial_integration_identity(b3 + b2, 0.0), "does not match"),
    ], ids=["power_beta", "power_inside", "power_dimension", "log_band", "log_inner_radius",
            "log_dimension", "chain_inside", "halfline_dimension", "log_dimension_three",
            "identity_origin", "identity_dimension"])
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
        assert partial_integration_identity([], 0.0) == []


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
        lambda: partial_integration_identity([u2], 1.0)[0],
        *(lambda i=i: verify_corollary_chain(DOM3, [u3])[i] for i in range(4)),
        lambda: partial_integration_identity([u1], 1.0)[0],
        *(lambda i=i: verify_corollary_chain(DOM2, [u2])[i] for i in range(2)),
        lambda: partial_integration_identity([u3], 0.0, gamma_hat=0.7)[0],
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
        # (N = 2 and the half line); the N = 3 sides, shell integrals, lie
        # within 2 ulps of them summed in mpmath on the same distance rule
        u = random_bumps(DOM3, 1, 50)[0]
        at = shell_integrals(u, 2.0 * beta)
        want = [3.0 * float(mpmath.sqrt(at["u2"])), 2.0 * float(mpmath.sqrt(at["du2"]))]
        got = [side.tolist()[0] for side in poincare._sides(one_sample(u), 3.0, None, beta)]
        assert got == pytest.approx(want, rel=ULPS_2, abs=0.0)
        cases = ((random_bumps(DOM2, 1, 51)[0], True), (random_bumps(DOM2, 1, 52)[0], False),
                 (BumpFunction((2.0,), 1.5), False))
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
        runs.append(lambda: partial_integration_identity(random_bumps(DOM2, 1, 46), 0.0))
        tracemalloc.start()
        try:
            for run in runs:
                run()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current < grid.nbytes


def shell_dict(c, s):
    """A samples dict of one N = 3 node at distance s from a center at
    radius c, with unit shell weight: ``_shell`` then gives c s times the
    integral over the polar cosine mu in [-1, 1] of its density."""
    return {"s": np.array([[s]]), "c": np.array([[c]]), "w": np.ones((1, 1))}


def polar_quad(c, s, density):
    """c s times the integral over mu in [-1, 1] of density(r, s + c mu) at
    30 digits, r = |c + s omega| = (c^2 + s^2 + 2 c s mu)^(1/2): the
    density's integral over the sphere of radius s about the center, over
    2 pi / (c s), with (r^2 - D) / (2s) = s + c mu."""
    with mpmath.workdps(30):
        c, s = mpmath.mpf(c), mpmath.mpf(s)
        return c * s * mpmath.quad(
            lambda mu: density(mpmath.sqrt(c * c + s * s + 2 * c * s * mu), s + c * mu), [-1, 1])


def deviation(got, want):
    return abs(float((mpmath.mpf(got) - want) / want))


# eps = s / |c| on both sides of the series' tier at 0.4 and up to its cut,
# where the closed forms of the higher powers of r would round to 1e-15 and
# more (at beta = 3 up to 2.8e-15); the closed forms above the cut
SERIES_EPS = [1e-8, 1e-5, 1e-3, 0.05, 0.2, 0.39, 0.41, 0.5, 0.6, 0.7, 0.8, 0.85, 0.89]
CLOSED_EPS = [0.9, 0.95, 0.99]


class TestShellIntegrals:
    """Each closed-form N = 3 shell integral against mpmath.quad over the
    polar cosine at 30 digits: to 1e-15 relative below the series cut, and
    to 1e-14 above it."""

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.4, 0.5, 1.5, 3.0])
    @pytest.mark.parametrize("c", [1.7, 23.0])
    def test_powers_of_r(self, beta, c):
        k = 2.0 * beta
        for eps in SERIES_EPS + CLOSED_EPS:
            sm, bound = shell_dict(c, eps * c), 1e-15 if eps in SERIES_EPS else 1e-14
            for d in (0, 1, 2):
                want = polar_quad(c, eps * c, lambda r, q: r ** (mpmath.mpf(k) - 2) * q**d)
                got = poincare._shell(sm, k, d)[0, 0]
                assert deviation(got, want) <= bound, (eps, d)

    @pytest.mark.parametrize("c", [1.05, 1.7, 23.0])
    def test_chain_weights(self, c):
        for eps in SERIES_EPS + CLOSED_EPS:
            sm = shell_dict(c, eps * c)
            rho, opr = (x[0, 0] for x in poincare._chain_weights(sm))
            assert deviation(rho, polar_quad(c, eps * c, lambda r, q: 1 / (1 + r * r))) <= 1e-15
            assert deviation(opr, polar_quad(c, eps * c, lambda r, q: 1 / (1 + r) ** 2)) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(beta=st.floats(-0.45, 3.0),
           gamma_hat=st.one_of(st.floats(-3.0, -1e-3), st.just(0.0), st.floats(1e-3, 3.0)),
           eps=st.floats(1e-7, 0.89), c=st.floats(1.05, 60.0))
    def test_identity_square_expanded(self, beta, gamma_hat, eps, c):
        # a^2, 2ab and b^2 of the identity at one node, u = 0.6 and u' = -1.3:
        # each to 1e-15, and their sum to 1e-15 of the sum of their sizes
        k, s, u, du = 2.0 * beta, eps * c, 0.6, -1.3
        sm = shell_dict(c, s)
        terms = [du**2 * poincare._shell(sm, k, 2)[0, 0],
                 2.0 * gamma_hat * u * du * poincare._shell(sm, k, 1)[0, 0],
                 gamma_hat**2 * u**2 * poincare._shell(sm, k, 0)[0, 0]]
        for d, term in zip((2, 1, 0), terms):
            if term:
                want = polar_quad(c, s, lambda r, q: r ** (mpmath.mpf(k) - 2) * q**d)
                scale = {2: du**2, 1: 2.0 * gamma_hat * u * du, 0: gamma_hat**2 * u**2}[d]
                assert deviation(term, scale * want) <= 1e-15
        with mpmath.workdps(30):
            b, g = mpmath.mpf(beta), mpmath.mpf(gamma_hat)
            # r^b du/dr + gh r^(b-1) u, with du/dr = u' (s + c mu) / r
            want = polar_quad(c, s, lambda r, q: (r ** (b - 1) * (du * q + g * u)) ** 2)
        assert abs(math.fsum(terms) - want) <= 1e-15 * math.fsum(map(abs, terms))


def shell_bumps():
    """17 N = 3 bumps that put the distances of one batch in every tier of
    the series and above its cut: a drawn batch, one bump up to eps = 0.5
    and one up to 0.95."""
    return random_bumps(DOM3, 15, 62) + [BumpFunction((3.0, 0.0, 0.0), 1.5),
                                         BumpFunction((0.0, 40.0, 0.0), 38.0)]


class TestShellBatches:
    @pytest.mark.parametrize("check", [
        lambda b: verify_power_weight(DOM3, b, 0.0),
        lambda b: verify_power_weight(DOM3, b, 1.0),
        lambda b: verify_power_weight(DOM3, b, -0.4),
        lambda b: verify_corollary_chain(DOM3, b),
        lambda b: partial_integration_identity(b, 0.0),
        lambda b: partial_integration_identity(b, 0.5, gamma_hat=-1.1),
    ], ids=["power_0", "power_1", "power_-0.4", "chain_i", "identity", "identity_gamma"])
    def test_records_keep_their_bits_in_any_batch(self, check):
        # every N = 3 record has the bits of its one-bump call in batches of
        # 15, 16 and 17, below, at and above BATCH
        bumps = shell_bumps()
        lone = [record_bits(rec) for u in bumps for rec in check([u])]
        per = len(lone) // len(bumps)
        for size in (poincare.BATCH - 1, poincare.BATCH, poincare.BATCH + 1):
            for start in (0, len(bumps) - size):
                got = [record_bits(rec) for rec in check(bumps[start:start + size])]
                assert got == lone[per * start:per * (start + size)], (size, start)


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


def sides(records):
    return [(rec.lhs, rec.rhs) for rec in records]


# the N = 3 records at the extreme draws, and their references: the shell
# integrals summed in mpmath on four times the panels of the distance rule
FINE_PANELS = 4 * (poincare.PANELS // 2)
N3_RECORDS = {
    "power_weight": (
        lambda: sides(rec for beta in (0.0, 1.0, -0.4)
                      for rec in verify_power_weight(DOM3, extreme_bumps(DOM3), beta)),
        lambda: [shell_records(u, beta, panels=FINE_PANELS)["power"]
                 for beta in (0.0, 1.0, -0.4) for u in extreme_bumps(DOM3)]),
    "chain_i": (
        lambda: sides(verify_corollary_chain(DOM3, extreme_bumps(DOM3))),
        lambda: [pair for u in extreme_bumps(DOM3)
                 for pair in shell_records(u, 0.0, panels=FINE_PANELS)["chain"]]),
    "identities": (
        lambda: sides(rec for beta in (0.0, 1.0)
                      for rec in partial_integration_identity(extreme_bumps(DOM3), beta)),
        lambda: [shell_records(u, beta, panels=FINE_PANELS)["identity"]
                 for beta in (0.0, 1.0) for u in extreme_bumps(DOM3)]),
}
# the N = 2 and half-line records, checked against themselves on a finer rule
RING_RECORDS = {
    "log_weight": lambda: sides(rec for beta in (0.0, 0.5, 1.0)
                                for rec in verify_log_weight(DOM2, extreme_bumps(DOM2), beta)),
    "halfline": lambda: sides(rec for beta in (0.0, 1.0)
                              for rec in verify_halfline(HALF_LINE, beta)),
    "chain_ii": lambda: sides(verify_corollary_chain(DOM2, extreme_bumps(DOM2))),
    "identities": lambda: sides(rec for beta in (0.0, 1.0)
                                for bumps in (extreme_bumps(DOM2), HALF_LINE)
                                for rec in partial_integration_identity(bumps, beta)),
}


class TestConvergence:
    """Every check on the default rule agrees to 1e-13 relative with a
    reference at the extreme draws: an N = 3 record with its shell
    integrals in closed form summed in mpmath on four times the panels of
    the distance rule (``oracles.shell_records``), an N = 2 or half-line
    record with the same check on four times the panels and 48 angular
    nodes.  The distance integrands are smooth, and the angular integrand
    of an off-center N = 2 bump is analytic away from r = 0 and ln r = 0,
    so Gauss-Legendre converges geometrically in rad / |c| <= 0.36 there."""

    @pytest.mark.parametrize("case", ["power_weight", "log_weight", "halfline", "chain_i",
                                      "chain_ii", "identities"])
    def test_default_rule_agrees_with_a_finer_one(self, monkeypatch, case):
        shell, ring = N3_RECORDS.get(case, (list, list)), RING_RECORDS.get(case, list)
        default, fine = shell[0]() + ring(), shell[1]()
        composite = poincare._composite_interval
        monkeypatch.setattr(poincare, "_composite_interval",
                            lambda lo, hi, order, panels: composite(lo, hi, order, 4 * panels))
        monkeypatch.setattr(poincare, "ANGULAR", 48)
        try:
            fine += ring()
        finally:
            poincare._grid.cache_clear()  # the finer grids' arrays go
        assert len(default) == len(fine) > 0
        for rec, ref in zip(default, fine):
            for got, want in zip(rec, ref):
                assert abs(got - want) <= 1e-13 * abs(want), (rec, ref)
