import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extbounds import geometry

from extbounds.geometry import (
    ExteriorDomain,
    QuadratureError,
    QuadratureRule,
    _composite_interval,
    _tail_edges,
    _SMALL,
    build_quadrature,
    exact_sum,
    integrate,
    node_radii,
    row_sum,
    whole_and_parts,
)

from extbounds.fields import support_rows
from extbounds.problems import make_bundle

from oracles import shell_volume, unit_sphere_area

DOM3 = ExteriorDomain(3, 1.0, 2.0)
DOM2 = ExteriorDomain(2, 1.0, 2.0)
DOM3B = ExteriorDomain(3, 0.5, 3.0)


def ones(pts):
    return np.ones(len(pts))


def r_pow(p):
    return lambda pts: node_radii(pts) ** p


class TestDomain:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ExteriorDomain(3, 2.0, 1.0)
        with pytest.raises(ValueError):
            ExteriorDomain(3, -1.0, 1.0)
        with pytest.raises(ValueError):
            ExteriorDomain(2, 0.5, 2.0)  # 2D needs a >= 1
        with pytest.raises(ValueError):
            ExteriorDomain(4, 1.0, 2.0)

    def test_no_half_line(self):
        with pytest.raises(ValueError, match="dimension must be 2 or 3, got 1"):
            ExteriorDomain(1, 1.0, 2.0)

    def test_shell_volume(self):
        assert shell_volume(DOM3) == pytest.approx(4 * math.pi * 7 / 3, rel=1e-15)
        assert shell_volume(DOM2) == pytest.approx(3 * math.pi, rel=1e-15)
        assert shell_volume(DOM3B) == pytest.approx(4 * math.pi * 26.875 / 3, rel=1e-15)

    def test_unit_sphere_area(self):
        # the Gamma formula reproduces the literal constants to the last bit
        assert [unit_sphere_area(n) for n in (2, 3)] == [2.0 * math.pi, 4.0 * math.pi]
        assert unit_sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)


class TestBuild:
    @pytest.mark.parametrize("order,panels", [(5, 3), (12, 48), (24, 7)])
    @pytest.mark.parametrize("graded", [False, True])
    def test_composite_interval_matches_panel_loop(self, order, panels, graded):
        edges = _tail_edges(panels) if graded else np.linspace(0.3, 2.9, panels + 1)
        x, w = np.polynomial.legendre.leggauss(order)
        nodes, weights = [], []
        for k in range(panels):
            mid = 0.5 * (edges[k] + edges[k + 1])
            half = 0.5 * (edges[k + 1] - edges[k])
            nodes.append(mid + half * x)
            weights.append(half * w)
        got = _composite_interval(0.3, 2.9, order, panels,
                                  edges=edges if graded else None)
        assert np.array_equal(got[0], np.concatenate(nodes))
        assert np.array_equal(got[1], np.concatenate(weights))

    def test_invalid_region(self):
        with pytest.raises(QuadratureError, match="unknown region"):
            build_quadrature(DOM3, 4, 4, 2, "nowhere")

    def test_whole_is_built_with_its_parts_only(self):
        regions = "('omega_i', 'omega_e', 'sphere_gamma', 'sphere_Gamma')"
        with pytest.raises(QuadratureError,
                           match=re.escape(f"region 'whole'; expected one of {regions}")):
            build_quadrature(DOM3, 4, 4, 2, "whole")

    @pytest.mark.parametrize("bad", [dict(radial_order=0), dict(shells=0),
                                     dict(angular_order=0)])
    def test_invalid_orders(self, bad):
        kw = dict(radial_order=4, angular_order=4, shells=2)
        kw.update(bad)
        with pytest.raises(QuadratureError, match=">= 1"):
            build_quadrature(DOM3, region="omega_i", **kw)

    @pytest.mark.parametrize("domain", [DOM3B, DOM2, DOM3])
    def test_shell_volume_reproduced(self, domain):
        rule = build_quadrature(domain, 8, 8, 4, "omega_i")
        vol = integrate(rule, ones)
        assert vol == pytest.approx(shell_volume(domain), rel=1e-12)

    @pytest.mark.parametrize("domain", [DOM3B, DOM2, DOM3])
    def test_region_containment(self, domain):
        for rule, lo, hi in zip(whole_and_parts(domain, 6, 6, 3),
                                (domain.a, domain.a, domain.R),
                                (math.inf, domain.R, math.inf)):
            r = node_radii(rule.nodes)
            assert np.all(r > lo) and np.all(r < hi)
            assert np.all(rule.weights > 0)

    def test_sphere_rules(self):
        gamma = build_quadrature(DOM3, 6, 8, 3, "sphere_gamma")
        Gamma = build_quadrature(DOM3, 6, 8, 3, "sphere_Gamma")
        assert np.allclose(node_radii(gamma.nodes), 1.0, rtol=1e-14)
        assert np.allclose(node_radii(Gamma.nodes), 2.0, rtol=1e-14)
        assert integrate(Gamma, ones) == pytest.approx(16 * math.pi, rel=1e-13)

    def test_immutable(self):
        rule = build_quadrature(DOM3, 4, 4, 2, "omega_i")
        with pytest.raises(ValueError):
            rule.nodes[0, 0] = 7.0
        with pytest.raises(ValueError):
            rule.weights[0] = 7.0

    def test_derived_values_live_with_the_rule(self):
        rule = whole_and_parts(DOM3, 4, 4, 2)[0]
        calls = []

        def compute():
            calls.append(1)
            return np.arange(3.0)

        first = rule.derived("key", compute)
        assert rule.derived("key", compute) is first and len(calls) == 1
        assert not first.flags.writeable
        # a rule made from it, as whole_and_parts makes omega_i, starts empty
        view = dataclasses.replace(rule, nodes=rule.nodes[:4], weights=rule.weights[:4])
        assert view.derived("key", compute) is not first and len(calls) == 2

    @settings(max_examples=20, deadline=None)
    @given(ro=st.integers(1, 10), ao=st.integers(1, 10), sh=st.integers(1, 6))
    def test_node_count_matches_tensor(self, ro, ao, sh):
        rule = build_quadrature(DOM3, ro, ao, sh, "omega_i")
        assert len(rule) == sh * ro * ao * 2 * ao


def eager_arrays(rule):
    """A tensor rule's nodes and weights, built at once from its factors
    with ``np.multiply.outer``."""
    (r, wr), (dirs, wang) = rule.radial, rule.angular
    nodes = np.stack([np.multiply.outer(r, d).ravel() for d in dirs.T], axis=1)
    return nodes, np.multiply.outer(wr, wang).ravel()


class TestLazyRules:
    """A tensor rule builds its 3-D arrays on their first read only."""

    @pytest.mark.parametrize("domain", [DOM2, DOM3, DOM3B])
    @pytest.mark.parametrize("ro,ao,sh", [(12, 12, 8), (3, 5, 2), (1, 1, 1)])
    def test_arrays_bit_equal_to_eager_ones(self, domain, ro, ao, sh):
        rules = [build_quadrature(domain, ro, ao, sh, region) for region in geometry.REGIONS]
        for rule in rules + list(whole_and_parts(domain, ro, ao, sh)):
            assert "nodes" not in rule._derived and "weights" not in rule._derived
            assert (len(rule), rule.dimension) == (len(rule.radial[0]) * len(rule.angular[0]),
                                                   domain.dimension)
            nodes, weights = eager_arrays(rule)
            assert_bits_equal(rule.nodes, nodes)
            assert_bits_equal(rule.weights, weights)
            assert rule.nodes is rule.nodes and rule.weights is rule.weights

    @pytest.mark.parametrize("domain", [DOM2, DOM3])
    @pytest.mark.parametrize("first", ["omega_e", "whole"])
    def test_parts_are_row_views_of_the_whole(self, domain, first):
        rules = dict(zip(("whole", "omega_i", "omega_e"), whole_and_parts(domain, 4, 4, 2)))
        rules[first].nodes  # either may be read first
        whole, k = rules["whole"], len(rules["omega_i"])
        for part, start in ((rules["omega_i"], 0), (rules["omega_e"], k)):
            rows = slice(start, start + len(part))
            assert part.nodes.base is whole.nodes.base
            assert geometry._row_range(part.nodes, whole.nodes) == rows
            assert np.shares_memory(part.weights, whole.weights)
            assert_bits_equal(part.weights, whole.weights[rows])

    @pytest.mark.parametrize("n,a,R,region,message", [
        (2, 1.0, 1.0000000000000002, "omega_i", "weights must be positive"),  # underflow
        (3, 5e-324, 1.0, "sphere_gamma", "weights must be positive"),  # a^2 is 0
        (2, 1.0, 1e150, "omega_e", "must be finite"),  # overflowing weights
        (3, 1.0, 1e308, "omega_i", "must be finite"),
    ])
    def test_near_the_float_limit_refused_at_build_time(self, n, a, R, region, message):
        domain = ExteriorDomain(n, a, R)
        with pytest.raises(QuadratureError, match=message):
            build_quadrature(domain, 12, 12, 8, region)
        if not region.startswith("sphere"):
            with pytest.raises(QuadratureError, match=message):
                whole_and_parts(domain, 12, 12, 8)

    @pytest.mark.parametrize("command", ["majorant", "minorant", "sandwich", "sweep", "constants"])
    def test_cold_command_builds_no_3d_array(self, command, tmp_path, monkeypatch):
        import contextlib
        import io

        from extbounds import problems
        from extbounds.cli import main

        built, build = [], QuadratureRule._build
        monkeypatch.setattr(problems, "_BUNDLE_CACHE", {})  # rules of its own
        monkeypatch.setattr(QuadratureRule, "_build",
                            lambda rule, name: built.append(rule) or build(rule, name))
        (tmp_path / "config.json").write_text("{}")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--config", str(tmp_path / "config.json"),
                         "--out", str(tmp_path)]) == 0
        # the trace check reads a sphere rule's radial factor, not its nodes
        assert built == []


def special_rows(cols: int, seed: int) -> np.ndarray:
    """Random rows over a wide range, then rows of signed zeros,
    subnormals, infinities and NaN in every column position, and a row of
    -0.0 (which numpy's sum turns into +0.0)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((400, cols)) * 10.0 ** rng.integers(-300, 300, (400, cols))
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, np.inf, -np.inf,
                         np.nan, 1.0, -1.0, 1e308])
    picks = rng.integers(0, len(specials), (600, cols))
    return np.vstack([x, specials[picks], np.full((1, cols), -0.0)])


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))
    assert np.array_equal(np.signbit(a), np.signbit(b))


class TestRowSum:
    @pytest.mark.parametrize("cols", [1, 2, 3])
    def test_bit_equal_to_numpy_sum(self, cols):
        x = special_rows(cols, seed=cols)
        wide = np.hstack([x, x[:, ::-1]])
        with np.errstate(invalid="ignore", over="ignore"):
            for arr in (x, np.asfortranarray(x), x[::3], wide[:, ::2], wide[::2, 1::2]):
                assert_bits_equal(row_sum(arr), np.sum(arr, axis=1))

    @pytest.mark.parametrize("cols", [1, 2, 3])
    def test_node_radii_bit_equal(self, cols):
        x = special_rows(cols, seed=10 + cols)
        with np.errstate(invalid="ignore", over="ignore", under="ignore"):
            for arr in (x, np.asfortranarray(x), x[::3]):
                assert_bits_equal(node_radii(arr), np.sqrt(np.sum(arr**2, axis=1)))
        assert node_radii(np.array([3, 4])).tolist() == [5.0]  # one integer point

    def test_node_radii_kept_for_read_only_nodes(self):
        # kept per array: another rule's radii do not evict the first's
        rule = whole_and_parts(DOM3, 4, 4, 2)[0]
        other = whole_and_parts(DOM2, 4, 4, 2)[0]
        first = node_radii(rule.nodes)
        assert not first.flags.writeable
        assert np.shares_memory(node_radii(rule.nodes), first)
        assert_bits_equal(first, np.sqrt(np.sum(rule.nodes**2, axis=1)))
        assert_bits_equal(node_radii(other.nodes),
                          np.sqrt(np.sum(other.nodes**2, axis=1)))
        again = node_radii(rule.nodes)
        assert np.shares_memory(again, first)
        assert_bits_equal(again, first)
        # a writable array may change between calls: always computed anew
        pts = np.array(rule.nodes)
        r = node_radii(pts)
        assert r.flags.writeable and node_radii(pts) is not r
        pts *= 2.0
        assert_bits_equal(node_radii(pts), 2.0 * r)

    def test_row_view_of_kept_nodes_gets_a_slice(self):
        # a support's rows, or omega_i as a view of the whole rule, keep the
        # whole rule's radii: no second radius computation, same bits
        whole, inner, _ = geometry.whole_and_parts(DOM3, 4, 4, 2)
        kept = node_radii(whole.nodes)
        for view in (whole.nodes[5:40], inner.nodes, inner.nodes[3:9], whole.nodes[7:7]):
            radii = node_radii(view)
            assert np.shares_memory(radii, kept) or len(view) == 0
            assert not radii.flags.writeable
            assert_bits_equal(radii, np.sqrt(np.sum(view**2, axis=1)))
        assert np.shares_memory(node_radii(whole.nodes), kept)
        # a strided view is not a row range: computed on each call, and the
        # whole rule's radii stay kept
        strided = whole.nodes[::2]
        assert not np.shares_memory(node_radii(strided), kept)
        assert_bits_equal(node_radii(strided), kept[::2])
        again = node_radii(whole.nodes)
        assert np.shares_memory(again, kept)
        assert_bits_equal(again, kept)


class TestLayout:
    @pytest.mark.parametrize("domain", [DOM2, DOM3])
    def test_bundle_rules_are_column_major(self, domain):
        quads = make_bundle(domain, 4, 4, 2)
        for region in ("whole", "omega_i", "omega_e", "omega_e_refined", "gamma", "Gamma"):
            nodes = getattr(quads, region).nodes
            assert nodes.strides[0] == nodes.itemsize and not nodes.flags.writeable, region
        assert quads.whole.nodes.flags.f_contiguous
        for part in (quads.omega_i, quads.omega_e):
            assert np.shares_memory(part.nodes, quads.whole.nodes)
            assert np.shares_memory(part.weights, quads.whole.weights)

    def test_parts_and_support_rows_get_slices_of_held_radii(self):
        quads = make_bundle(DOM3, 4, 4, 2)
        whole = quads.whole.nodes
        kept = node_radii(whole)
        start, stop = support_rows(kept, (1.2, 1.6))
        support = whole[start:stop]
        assert 0 < len(support) < len(quads.omega_i)
        for view in (quads.omega_i.nodes, quads.omega_e.nodes, support):
            radii = node_radii(view)
            assert np.shares_memory(radii, kept) and not radii.flags.writeable
            assert_bits_equal(radii, np.sqrt(np.sum(view**2, axis=1)))
        again = node_radii(whole)
        assert np.shares_memory(again, kept)
        assert_bits_equal(again, kept)

    def test_row_range_rejects_column_subsets_and_strides(self):
        held = make_bundle(DOM3, 4, 4, 2).whole.nodes
        assert geometry._row_range(held[5:40], held) == slice(5, 40)
        for view in (held[:, :2], held[:, 1:], held[:, ::2], held[::2], held[1::3]):
            assert geometry._row_range(view, held) is None
        assert geometry._row_range(np.ascontiguousarray(held[5:40]), held) is None

    def test_row_major_nodes_are_rejected(self):
        nodes = np.random.default_rng(3).normal(size=(50, 3))
        with pytest.raises(QuadratureError, match="column-major"):
            QuadratureRule(nodes, np.ones(50), 1, 1, 1)
        # column-major nodes, and a column-strided row view of them, are
        # kept as they are
        cols = np.asfortranarray(nodes)
        rule = QuadratureRule(cols, np.ones(50), 1, 1, 1)
        assert rule.nodes is cols and not cols.flags.writeable
        view = dataclasses.replace(rule, nodes=rule.nodes[5:20], weights=rule.weights[5:20])
        assert np.shares_memory(view.nodes, rule.nodes)
        assert view.nodes.strides == rule.nodes.strides



class TestNodeMemo:
    """``NodeMemo`` keeps a closure's value per node array: once per array
    that owns the nodes, sliced for its row ranges, and dropped with it."""

    @staticmethod
    def counted(fn):
        calls = []

        def closure(pts):
            calls.append(len(pts))
            return fn(pts)

        return geometry.NodeMemo(closure), calls

    @staticmethod
    def radial(pts):
        # a closure of the catalog's form, each row from its own node; its
        # radii bypass node_radii, so only the memo under test keeps values
        r = np.sqrt(row_sum(pts * pts))
        return (-1.0 / r**3)[:, None] * pts

    def test_parts_get_slices_of_the_whole_value(self):
        whole, inner, outer = whole_and_parts(DOM3, 4, 4, 2)
        memo, calls = self.counted(self.radial)
        first = memo(inner.nodes)  # computed on every row of whole, once
        kept = memo(whole.nodes)
        assert calls == [len(whole)] and not kept.flags.writeable
        for rule, got in ((inner, first), (outer, memo(outer.nodes)), (whole, kept)):
            assert np.shares_memory(got, kept) and not got.flags.writeable
            fresh = self.radial(np.asfortranarray(rule.nodes))
            assert_bits_equal(got, fresh)
        sub = whole.nodes[5:40]
        assert np.shares_memory(memo(sub), kept)
        assert calls == [len(whole)]

    def test_writable_arrays_are_never_kept(self):
        nodes = np.array(whole_and_parts(DOM3, 4, 4, 2)[0].nodes, order="F")
        assert nodes.flags.writeable
        memo, calls = self.counted(self.radial)
        got = [memo(nodes), memo(nodes), memo(nodes[3:9])]
        assert calls == [len(nodes), len(nodes), 6] and not memo._held
        assert all(a.flags.writeable for a in got)

    def test_no_row_range_goes_to_the_closure(self):
        whole = whole_and_parts(DOM3, 4, 4, 2)[0]
        memo, calls = self.counted(lambda pts: pts[:, 0] * 2.0)
        kept = memo(whole.nodes)
        for view in (whole.nodes[::2], whole.nodes[:, :2]):
            assert not np.shares_memory(memo(view), kept)
        assert calls == [len(whole)] + [len(whole.nodes[::2]), len(whole)]

    def test_entry_goes_with_the_owning_array(self):
        import gc
        import weakref

        whole, inner, outer = whole_and_parts(DOM3, 4, 4, 2)
        memo, _ = self.counted(self.radial)
        value = weakref.ref(memo(outer.nodes).base)
        owner = weakref.ref(whole.nodes.base)
        assert len(memo._held) == 1 and value() is not None
        del whole, inner, outer
        gc.collect()
        assert owner() is None and value() is None and not memo._held

    def test_writing_into_a_kept_value_fails(self):
        whole, inner, _ = whole_and_parts(DOM3, 4, 4, 2)
        memo, _ = self.counted(self.radial)
        got = memo(inner.nodes)
        before = got.copy()
        with pytest.raises(ValueError, match="read-only"):
            got[0, 0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            got += 1.0
        assert_bits_equal(memo(inner.nodes), before)


def fsum_outcome(fn, x):
    """The bits of ``fn(x)``, or the type of the exception it raises."""
    try:
        return np.float64(fn(x)).view(np.int64)
    except (ValueError, OverflowError) as exc:
        return type(exc)


def assert_same_as_fsum(x):
    assert fsum_outcome(exact_sum, x) == fsum_outcome(math.fsum, x)


def rows_outcome(fn, x):
    """The bits of ``fn(x)`` for a 2-D ``x``, or the type of the exception
    it raises."""
    try:
        return np.asarray(fn(x), dtype=float).view(np.int64).tolist()
    except (ValueError, OverflowError) as exc:
        return type(exc)


def assert_rows_same_as_fsum(x):
    assert rows_outcome(exact_sum, x) == rows_outcome(
        lambda rows: [math.fsum(row) for row in rows], x)


def pad(values, n=1000, seed=0):
    """``values`` among cancelling pairs, shuffled: n values in all."""
    rng = np.random.default_rng(seed)
    fill = rng.standard_normal((n - len(values)) // 2)
    x = np.concatenate([values, fill, -fill, np.zeros((n - len(values)) % 2)])
    rng.shuffle(x)
    return x


class TestExactSum:
    @pytest.mark.parametrize("seed", range(6))
    def test_cancellation(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(3000) * 10.0 ** rng.integers(-20, 20, 3000)
        y = np.concatenate([x, -x[:2000], rng.standard_normal(50) * 1e-30])
        assert_same_as_fsum(y)
        rng.shuffle(y)
        assert_same_as_fsum(y)

    @pytest.mark.parametrize("seed", range(6))
    def test_exponents_across_the_range(self, seed):
        rng = np.random.default_rng(seed)
        x = np.ldexp(rng.uniform(-1.0, 1.0, 5000), rng.integers(-1074, 951, 5000))
        assert_same_as_fsum(x)
        assert_same_as_fsum(np.concatenate([x, -x[::3]]))

    def test_subnormals_only(self):
        rng = np.random.default_rng(7)
        x = np.ldexp(rng.integers(-(2**52) + 1, 2**52, 4000).astype(float), -1074)
        assert np.all(np.abs(x) < np.finfo(float).tiny)
        assert_same_as_fsum(x)
        assert_same_as_fsum(np.abs(x))
        assert_same_as_fsum(np.full(1000, 5e-324))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_signed_zeros_sum_to_plus_zero(self, zero):
        x = np.full(2000, zero)
        assert_same_as_fsum(x)
        assert math.copysign(1.0, exact_sum(x)) == 1.0

    @pytest.mark.parametrize("values", [
        [2.0**53, 0.5, 0.5],          # 2**53 + 1: a tie, down to even
        [2.0**53, 1.0],               # the same tie
        [2.0**53 + 2.0, 1.0],         # 2**53 + 3: a tie, up to even
        [2.0**53, 1.0, 5e-324],       # just above the tie
        [2.0**53 + 2.0, 1.0, -5e-324],  # just below the tie
        [1.0, 2.0**-53],              # a tie at 1
        [1.0, 2.0**-53, 2.0**-105],
    ])
    def test_ties_to_even(self, values):
        assert_same_as_fsum(pad(values))
        assert_same_as_fsum(pad(values, n=_SMALL + 1, seed=1))

    def test_bin_whose_integer_parts_cancel(self):
        # 0.75 + 2**-40 and -0.75 share an exponent; their leading parts
        # cancel and only the low bits of the first are left
        x = np.zeros(1000)
        x[:2] = [0.75 + 2.0**-40, -0.75]
        assert exact_sum(x) == 2.0**-40
        assert_same_as_fsum(pad([0.75 + 2.0**-40, -0.75, 3.0 * 2.0**-60]))

    # lengths next to 320 and to 512; 1-D arrays shorter than _SMALL go to fsum
    @pytest.mark.parametrize("n", sorted({319, 320, 321, 511, 512, 513,
                                          _SMALL - 1, _SMALL, _SMALL + 1}))
    def test_lengths_around_the_cutoff(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-200, 200, n)
        assert_same_as_fsum(x)
        assert_same_as_fsum(pad([1e100, 1.0, -1e100], n=n))

    @pytest.mark.parametrize("power", [9, 10, 13, 14, 16])
    def test_lengths_around_powers_of_two(self, power):
        # lead, with 2**lead >= n + 2, steps up between n = 2**p - 2 and
        # 2**p - 1; n copies of the largest value below a power of two put
        # the level sums at their bound
        top = 1.0 - 2.0**-53
        for n in range(2**power - 3, 2**power + 2):
            rng = np.random.default_rng(n)
            for x in (np.full(n, top), np.full(n, -top * 2.0**-1000),
                      np.where(rng.random(n) < 0.5, top, -top) * 2.0**900,
                      pad([top, 2.0**-53, 2.0**-105], n=n, seed=n)):
                assert_same_as_fsum(x)
                assert_rows_same_as_fsum(np.vstack([x, -x[::-1], x * 2.0**-60]))

    def test_exact_zero_totals_from_symmetry(self):
        # every value meets its negative, over a wide range of exponents, as
        # in the Gram sums of odd basis products over a symmetric rule
        rng = np.random.default_rng(11)
        half = np.ldexp(rng.uniform(0.5, 1.0, 3328), rng.integers(-1074, 40, 3328))
        x = np.concatenate([half, -half])
        for y in (x, x[rng.permutation(x.size)]):
            assert_same_as_fsum(y)
            assert math.copysign(1.0, exact_sum(y)) == 1.0
        rows = np.vstack([x, x[::-1], np.concatenate([half[:-1], -half[:-1], [0.0, -0.0]])])
        sums = exact_sum(rows)
        assert_rows_same_as_fsum(rows)
        assert sums.tolist() == [0.0] * 3 and not np.signbit(sums).any()

    def test_across_block_boundaries(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(geometry._BLOCK + 3)
        x[-3:] = [1e16, 1.0, -1e16]
        assert_same_as_fsum(x)
        assert_rows_same_as_fsum(np.vstack([x, x[::-1]]))
        y = np.ldexp(rng.uniform(-1.0, 1.0, 5500), rng.integers(-1074, 951, 5500))
        tie = pad([2.0**53, 1.0, 5e-324], n=5500)  # needs more than two levels
        for block in (64, 700, 5499):
            monkeypatch.setattr(geometry, "_BLOCK", block)
            for z in (y, np.concatenate([y, -y[:-1]]), tie,
                      np.concatenate([y[:-1], [np.inf]]), np.concatenate([y[:-1], [1e300]])):
                assert_same_as_fsum(z)
            # rows read in column blocks of _BLOCK // rows values
            assert_rows_same_as_fsum(np.vstack([y, -y, tie, y[::-1]]))
            assert_rows_same_as_fsum(y[:5496].reshape(-1, 24))

    @pytest.fixture
    def fsum_calls(self, monkeypatch):
        """The lengths of the lists geometry hands to ``math.fsum``."""
        calls = []

        class Counted:
            def __getattr__(self, name):
                return getattr(math, name)

            def fsum(self, values):
                calls.append(len(values))
                return math.fsum(values)

        monkeypatch.setattr(geometry, "math", Counted())
        return calls

    @pytest.mark.parametrize("n", [13824, 27648])  # the Poincare grids, N = 3 and 2
    def test_first_pass_decides_or_hands_on(self, fsum_calls, n):
        # values of one sign are decided by the first pass, with no fsum; a
        # total within the rests' bound of a rounding midpoint goes on to the
        # deeper passes, and still rounds as fsum does
        calls = fsum_calls
        rng = np.random.default_rng(n)
        for x in (rng.random(n), -rng.random(n) * 1e-300, rng.random(n) + 2.0**-1070):
            assert_same_as_fsum(x)
        assert not calls
        for values in ([2.0**53, 1.0, 5e-324], [2.0**53, 1.0, -5e-324],
                       [2.0**53 + 2.0, 1.0, -5e-324], [2.0**53, 0.5, 0.5],
                       [1.0, 2.0**-53, 2.0**-105], [1.0, -(2.0**-54), 2.0**-300]):
            calls.clear()
            x = pad(values, n=n, seed=n)
            assert_same_as_fsum(x)
            assert calls, values
            assert_rows_same_as_fsum(np.vstack([x, rng.random(n), x[::-1]]))

    def test_rows_of_a_large_gram(self):
        # 700 rows of 200 values, more than the 612 rows the sandwich sums
        # at 6x1: exact-zero, subnormal and cancelling rows among others
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((700, 200)) * 10.0 ** rng.integers(-8, 8, (700, 200))
        rows[::7] = 0.0
        rows[1::7] = np.ldexp(rng.integers(-9, 10, (100, 200)).astype(float), -1074)
        rows[2::7, 100:] = -rows[2::7, :100]  # exact zero totals
        rows[3::7, 100:] = -rows[3::7, :100]
        rows[3::7, 0] += 2.0**-60  # a small remainder of a large cancellation
        rows[4::7, :3] = [2.0**53, 1.0, 5e-324]  # just above a tie
        rows[4::7, 3:] = 0.0
        sums = exact_sum(rows)
        assert_rows_same_as_fsum(rows)
        assert not np.signbit(sums[::7]).any() and not np.signbit(sums[2::7]).any()

    @pytest.mark.parametrize("cols", [24, 600, 5000])
    def test_zero_rows_are_decided_by_the_first_pass(self, fsum_calls, cols):
        # rows of +0.0, of -0.0 and of both, beside rows of one sign, sum to
        # +0.0 as fsum does, and none of them reaches the per-row fsum
        rng = np.random.default_rng(cols)
        rows = rng.random((9, cols)) * 10.0 ** rng.integers(-8, 8, (9, cols))
        rows[1] = 0.0
        rows[3] = -0.0
        rows[4] = np.where(rng.random(cols) < 0.5, 0.0, -0.0)
        rows[6] = -0.0
        rows[8] = 0.0
        rows[7] *= -1.0
        for x in (rows, rows[[1, 3, 4, 6]], rows[[3, 0]]):
            sums = exact_sum(x)
            assert not fsum_calls
            expected = [math.fsum(row) for row in x]
            fsum_calls.clear()
            assert sums.tobytes() == np.array(expected).tobytes()
        assert not np.signbit(exact_sum(rows)[[1, 3, 4, 6, 8]]).any()

    @pytest.mark.parametrize("values,expected", [
        ([np.inf, -np.inf], ValueError),
        ([np.nan], None),
        ([np.inf], None),
        ([-np.inf], None),
        ([1e308] * 1000, OverflowError),
        ([1e308, 1e308, -1e308], OverflowError),  # finite sum, overflow on the way
        ([np.nan, np.inf, -np.inf], ValueError),
        ([8e307, -8e307, 1.0], None),  # fsum stays finite; a sigma above it would not
    ])
    def test_exceptions_and_non_finite(self, values, expected):
        x = pad(values) if len(values) < _SMALL else np.array(values)
        with np.errstate(all="raise"):
            outcome = fsum_outcome(exact_sum, x)
        assert outcome == fsum_outcome(math.fsum, x)
        if expected is not None:
            assert outcome is expected

    @settings(max_examples=150, deadline=None)
    @given(pool=st.lists(st.floats(width=64), min_size=1, max_size=30),
           n=st.integers(0, 3 * _SMALL), seed=st.integers(0, 2**32 - 1))
    def test_same_as_fsum(self, pool, n, seed):
        rng = np.random.default_rng(seed)
        pool = np.array(pool + [-v for v in pool])
        assert_same_as_fsum(pool[rng.integers(0, len(pool), n)])

    @settings(max_examples=100, deadline=None)
    @given(pool=st.lists(st.floats(width=64), min_size=1, max_size=30),
           rows=st.integers(0, 700), cols=st.integers(0, 400),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_same_as_fsum(self, pool, rows, cols, seed):
        rng = np.random.default_rng(seed)
        pool = np.array(pool + [-v for v in pool])
        assert_rows_same_as_fsum(pool[rng.integers(0, len(pool), (rows, cols))])

    def test_rows_of_different_ranges_in_one_call(self):
        # one sigma serves the whole array, so the small rows take the most
        # levels: subnormal rows next to rows near 2**950, cancelling rows,
        # ties and zeros
        rng = np.random.default_rng(5)
        n = 600
        base = rng.standard_normal(n)
        wide = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1074, 951, n))
        rows = np.vstack([
            base * 2.0**900, base, base * 2.0**-1000, base * 2.0**-1070,
            np.ldexp(rng.integers(-3, 4, n).astype(float), -1074),
            wide, pad(wide[:20], n=n), pad([2.0**53, 1.0], n=n),
            pad([2.0**53 + 2.0, 1.0, -5e-324], n=n), np.zeros(n), np.full(n, -0.0),
        ])
        assert_rows_same_as_fsum(rows)
        assert_rows_same_as_fsum(rows[rng.permutation(len(rows))][:, rng.permutation(n)])
        assert exact_sum(rows[:0]).shape == (0,)
        assert exact_sum(np.empty((3, 0))).tolist() == [0.0] * 3

    def test_reductions_route_through_it(self, monkeypatch):
        calls = []
        monkeypatch.setattr(geometry, "exact_sum", lambda x: calls.append(len(x)) or 1.0)
        rule = whole_and_parts(DOM3, 4, 4, 2)[0]
        assert integrate(rule, ones) == 1.0
        assert geometry.exact_dot(np.ones(len(rule)), rule.weights) == 1.0
        assert calls == [len(rule), len(rule)]


class TestIntegrate:
    def test_zero(self):
        rule = build_quadrature(DOM3, 6, 6, 3, "omega_i")
        assert integrate(rule, lambda p: np.zeros(len(p))) == 0.0

    def test_constant_over_sphere(self):
        rule = build_quadrature(DOM3, 6, 8, 3, "sphere_Gamma")
        c = 2.75
        assert integrate(rule, lambda p: np.full(len(p), c)) == pytest.approx(
            c * 16 * math.pi, rel=1e-13
        )

    def test_tail_oracle_inverse_quartic(self):
        # integral over r > 1 of r^-4 equals 4 pi (antiderivative -r^-1 of
        # the reduced radial integrand r^-2)
        rule = whole_and_parts(DOM3, 12, 8, 8)[0]
        assert integrate(rule, r_pow(-4)) == pytest.approx(4 * math.pi, rel=1e-12)

    def test_tail_oracle_rho_weight(self):
        # partial fractions: 1/(r^2 (1+r^2)) = 1/r^2 - 1/(1+r^2)
        expected = 4 * math.pi * (1 - math.pi / 4)
        rule = whole_and_parts(DOM3, 16, 8, 8)[0]
        val = integrate(rule, lambda p: node_radii(p) ** -4
                        / (1 + node_radii(p) ** 2))
        assert val == pytest.approx(expected, rel=1e-12)

    def test_tail_oracle_2d_log(self):
        # closed form: int_1^inf ln^2 r r^-3 dr = 1/4 by parts, twice
        rule = whole_and_parts(DOM2, 16, 6, 16)[0]
        val = integrate(
            rule, lambda p: np.log(node_radii(p)) ** 2 * node_radii(p) ** -4
        )
        assert val == pytest.approx(2 * math.pi * 0.25, rel=1e-9)

    def test_tail_oracle_2d_inverse_log(self):
        # integrands decaying like r^-3 (ln r)^-2 have no elementary
        # antiderivative; mpmath quadrature serves as the independent oracle
        import mpmath as mp

        expected = float(
            2 * mp.pi * mp.quad(lambda r: 1.0 / (r**2 * mp.log(r) ** 2), [2, mp.inf])
        )
        rule = build_quadrature(DOM2, 16, 6, 16, "omega_e")
        val = integrate(
            rule, lambda p: node_radii(p) ** -3 / np.log(node_radii(p)) ** 2
        )
        assert val == pytest.approx(expected, rel=1e-9)

    def test_convergence_plateau(self):
        smooth = lambda p: np.exp(-node_radii(p)) * (1 + node_radii(p)) ** -2
        coarse = whole_and_parts(DOM3, 16, 12, 8)[0]
        fine = whole_and_parts(DOM3, 32, 24, 16)[0]
        v1, v2 = integrate(coarse, smooth), integrate(fine, smooth)
        assert abs(v1 - v2) < 1e-10 * abs(v2)

    def test_richardson_bump(self):
        from extbounds.fields import mollifier, mollifier_deriv, profile, separable_field

        p, dp = profile(mollifier, mollifier_deriv, 1.5, 0.22)
        bump = separable_field(p, dp, (1.0, 0.0, 0.0, 1.0))
        fine = build_quadrature(DOM3, 24, 8, 16, "omega_i")
        finer = build_quadrature(DOM3, 32, 12, 24, "omega_i")
        v1 = integrate(fine, lambda x: np.asarray(bump.value(x)) ** 2)
        v2 = integrate(finer, lambda x: np.asarray(bump.value(x)) ** 2)
        assert abs(v1 - v2) <= 1e-10 * abs(v2)

    def test_nonfinite_reports_node(self):
        rule = build_quadrature(DOM3, 4, 4, 2, "omega_i")

        def bad(pts):
            out = np.ones(len(pts))
            out[3] = np.inf
            return out

        with pytest.raises(QuadratureError, match="node 3"):
            integrate(rule, bad)

    def test_permutation_invariance(self):
        rule = whole_and_parts(DOM3, 8, 8, 4)[0]
        perm = np.random.default_rng(0).permutation(len(rule))
        shuffled = dataclasses.replace(rule, nodes=np.asfortranarray(rule.nodes[perm]),
                                       weights=rule.weights[perm])
        f = r_pow(-4)
        assert integrate(rule, f) == integrate(shuffled, f)

    def test_wrong_shape_rejected(self):
        rule = build_quadrature(DOM3, 4, 4, 2, "omega_i")
        with pytest.raises(QuadratureError, match="shape"):
            integrate(rule, lambda p: np.ones(3))
