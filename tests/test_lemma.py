import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besovlab import (
    DisjointFamily,
    Grid,
    GeneratorSpec,
    WeightSequence,
    boundedness_probe,
    generate_bm,
    kamont_series,
    lemma_statistic,
    paley_zygmund_check,
    path_of,
    randomize_signs,
)
from besovlab.errors import ConfigurationError, ParameterError, SizeError
from besovlab.generators import generate_linear
from besovlab.lemma import _count_pz_hits, signed_sum_via_sets
from besovlab.paths import DyadicInterval, DyadicSet, StochasticMeasureSample, measure_of


def random_disjoint_level(rng, max_level):
    """Disjoint sets at mixed levels: a random dyadic tree whose leaves join
    a random set or none; some sets stay empty."""
    n_sets = int(rng.integers(1, 6))
    members = [[] for _ in range(n_sets)]
    stack = [DyadicInterval(0, 1)]
    while stack:
        iv = stack.pop()
        if iv.n < max_level and rng.random() < 0.6:
            stack += [DyadicInterval(iv.n + 1, k) for k in iv.refine(iv.n + 1)]
        elif rng.random() < 0.7:
            members[int(rng.integers(n_sets))].append(iv)
    return tuple(DyadicSet.from_intervals(ivs) for ivs in members)


def random_level(rng, max_level):
    """Random sets at random levels, overlapping or not."""
    sets = []
    for _ in range(int(rng.integers(1, 5))):
        level = int(rng.integers(0, max_level + 1))
        size = int(rng.integers(0, min(3, 1 << level) + 1))
        ks = rng.choice(1 << level, size=size, replace=False) + 1
        sets.append(DyadicSet(level, tuple(int(k) for k in ks)))
    return tuple(sets)


class TestWeightSequence:
    def test_geometric_summable(self):
        w = WeightSequence.geometric(0.4, 2.0, 10)
        assert w.summable
        assert w.values[2] == pytest.approx(2.0**-0.3, rel=1e-12)
        assert math.isfinite(w.summability_margin)

    def test_geometric_not_summable_flagged(self):
        w = WeightSequence.geometric(0.6, 2.0, 10)
        assert not w.summable
        assert w.summability_margin == math.inf

    def test_positive_required(self):
        with pytest.raises(ParameterError):
            WeightSequence.from_values([1.0, 0.0])


class TestDisjointFamily:
    def test_full_dyadic_shape(self):
        fam = DisjointFamily.full_dyadic(4)
        assert fam.depth == 4
        assert [len(level) for level in fam.levels] == [2, 4, 8, 16]
        assert fam.max_resolution() == 4

    def test_rejects_overlap(self):
        half = DyadicSet(1, (1,))
        quarter = DyadicSet(2, (2,))
        with pytest.raises(ConfigurationError):
            DisjointFamily(((half, quarter),))

    def test_full_dyadic_levels_built_on_demand(self):
        fam = DisjointFamily.full_dyadic(5)
        assert fam.levels == tuple(
            tuple(DyadicSet.from_intervals([DyadicInterval(n, k)]) for k in range(1, 2**n + 1))
            for n in range(1, 6)
        )

    def test_full_dyadic_creates_no_sets(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a DyadicSet or DyadicInterval was created")

        monkeypatch.setattr(DyadicSet, "__post_init__", refuse)
        monkeypatch.setattr(DyadicInterval, "__post_init__", refuse)
        fam = DisjointFamily.full_dyadic(20)
        assert fam.depth == 20 and fam.max_resolution() == 20

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_rejects_overlap_iff_sets_intersect(self, seed):
        rng = np.random.default_rng(seed)
        levels = [random_level(rng, 5) for _ in range(int(rng.integers(1, 4)))]
        disjoint = all(
            a.is_disjoint_from(b)
            for sets in levels
            for a, b in itertools.combinations(sets, 2)
        )
        if disjoint:
            fam = DisjointFamily(levels)
            assert fam.levels == tuple(levels)
            assert fam.max_resolution() == max(
                (s.level for sets in levels for s in sets if not s.is_empty()), default=0
            )
        else:
            with pytest.raises(ConfigurationError):
                DisjointFamily(levels)


class TestLemmaStatistic:
    def test_zero_measure(self):
        g = Grid(0.0, 1.0, 6)
        sample = generate_linear(g, 0.0)
        out = lemma_statistic(
            sample, WeightSequence.geometric(0.4, 2.0, 6), DisjointFamily.full_dyadic(6)
        )
        assert np.all(out == 0.0)

    def test_linear_closed_form(self):
        # all finest increments dx; a_n = 2^{-n}: level sum 2^n 2^{-2n},
        # weighted 2^{-3n}; partial sum is the geometric series
        g = Grid(0.0, 1.0, 8)
        sample = generate_linear(g, 1.0)
        weights = WeightSequence.from_values([2.0**-n for n in range(1, 9)])
        out = lemma_statistic(sample, weights, DisjointFamily.full_dyadic(8))
        expected = np.cumsum([2.0 ** (-3 * n) for n in range(1, 9)])
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_nondecreasing_partial_sums(self):
        g = Grid(0.0, 1.0, 10)
        sample = generate_bm(g, 17)
        out = lemma_statistic(
            sample,
            WeightSequence.geometric(0.4, 2.0, 10),
            DisjointFamily.full_dyadic(10),
        )
        assert np.all(np.diff(out) >= 0.0)
        assert np.all(np.isfinite(out))

    def test_scale_equivariance(self):
        g = Grid(0.0, 1.0, 8)
        sample = generate_bm(g, 23)
        scaled = type(sample)(g, 3.0 * sample.increments)
        w = WeightSequence.geometric(0.4, 2.0, 8)
        fam = DisjointFamily.full_dyadic(8)
        np.testing.assert_allclose(
            lemma_statistic(scaled, w, fam),
            9.0 * lemma_statistic(sample, w, fam),
            rtol=1e-12,
        )

    def test_cross_identity_with_kamont(self):
        # p = 2, a_n = 2^{n(2a-1)/2}: partial sums match the dyadic series
        alpha = 0.4
        g = Grid(0.0, 1.0, 10)
        for seed in range(3):
            sample = generate_bm(g, [41, seed])
            stat = lemma_statistic(
                sample,
                WeightSequence.geometric(alpha, 2.0, 10),
                DisjointFamily.full_dyadic(10),
            )
            series = kamont_series(path_of(sample), 10, alpha, 2.0)
            np.testing.assert_allclose(stat, series.partial_sums, rtol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_mixed_level_families_match_per_set_reference(self, seed):
        rng = np.random.default_rng(seed)
        J = 8
        sample = generate_bm(Grid(0.0, 1.0, J), seed)
        levels = [random_disjoint_level(rng, J) for _ in range(int(rng.integers(1, 5)))]
        weights = WeightSequence.geometric(0.4, 2.0, len(levels))
        got = lemma_statistic(sample, weights, DisjointFamily(levels))
        expected = np.cumsum([
            a * a * math.fsum(measure_of(sample, s) ** 2 for s in sets)
            for a, sets in zip(weights.values, levels)
        ])
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_non_finite_raises(self):
        g = Grid(0.0, 1.0, 6)
        sample = StochasticMeasureSample(g, np.full(g.n_cells, 1e300))
        with pytest.raises(FloatingPointError):
            lemma_statistic(
                sample, WeightSequence.geometric(0.4, 2.0, 6), DisjointFamily.full_dyadic(6)
            )


class TestPaleyZygmund:
    def test_single_coefficient(self):
        res = paley_zygmund_check([1.0])
        assert res.probability == 1.0
        assert res.passed

    def test_two_equal(self):
        # sums {-2, 0, 0, 2}; squares beat 1/4 * 2 half the time
        res = paley_zygmund_check([1.0, 1.0])
        assert res.probability == 0.5
        assert res.passed

    def test_three_equal(self):
        # sums {+-3 x2, +-1 x6}: squares always >= 3/4
        res = paley_zygmund_check([1.0, 1.0, 1.0])
        assert res.probability == 1.0
        assert res.passed

    def test_exact_spans_several_blocks(self):
        # 2^17 patterns: the enumeration crosses a block boundary
        m = 17
        hits = sum(math.comb(m, k) for k in range(m + 1) if 4 * (m - 2 * k) ** 2 >= m)
        assert paley_zygmund_check([0.7] * m).probability == hits / 2**m

    @given(
        st.lists(
            st.one_of(st.integers(-9, 9), st.integers(-64, 64).map(lambda k: k / 16)),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_hits_match_exact_enumeration(self, lam):
        # small integers and dyadic rationals: every float sum here is exact.
        # The reference counts in exact integers, on 16 lambda.
        scaled = np.array([int(Fraction(x) * 16) for x in lam], dtype=np.int64)
        signs = np.array(list(itertools.product((1, -1), repeat=len(lam))), dtype=np.int64)
        hits = int(np.count_nonzero(4 * (signs @ scaled) ** 2 >= scaled @ scaled))
        threshold = 0.25 * float(np.dot(lam, lam))
        assert _count_pz_hits(np.array(lam, dtype=float), threshold) == hits
        assert Fraction(paley_zygmund_check(lam).probability) == Fraction(hits, 2 ** len(lam))

    @given(
        # entries of 0 or at least 1e-3: scaled by 2^-1000 they stay normal floats
        st.lists(
            st.floats(-10.0, 10.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([-1000, -300, 300, 1000]),
    )
    @settings(max_examples=100, deadline=None)
    def test_power_of_two_scale_invariant(self, lam, exponent):
        scaled = [math.ldexp(x, exponent) for x in lam]
        for mode in ("exact", "monte-carlo"):
            assert (
                paley_zygmund_check(scaled, mode, samples=2000).probability
                == paley_zygmund_check(lam, mode, samples=2000).probability
            )

    @pytest.mark.parametrize("mode", ["exact", "monte-carlo"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, mode, bad):
        with pytest.raises(ParameterError):
            paley_zygmund_check([1.0, bad], mode=mode)

    def test_exact_size_limit(self):
        with pytest.raises(SizeError):
            paley_zygmund_check([1.0] * 21, mode="exact")

    def test_monte_carlo_agrees(self):
        lam = [3.0, 1.0, 2.0, 0.5, 1.5]
        exact = paley_zygmund_check(lam).probability
        mc = paley_zygmund_check(lam, mode="monte-carlo", samples=200_000, seed=2)
        assert mc.probability == pytest.approx(exact, abs=4 * mc.stderr)
        assert mc.passed

    @given(
        st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12).filter(
            lambda xs: any(x != 0.0 for x in xs)
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_bound_holds_random(self, lam):
        assert paley_zygmund_check(lam).passed


class TestRandomizeSigns:
    def test_all_plus(self):
        fam = DisjointFamily.full_dyadic(3)
        signs = [[1] * len(level) for level in fam.levels]
        B, C = randomize_signs(fam, signs)
        for n, b in enumerate(B, start=1):
            assert b.ks == tuple(range(1, (1 << b.level) + 1)) or len(b.ks) == 2**n
        assert all(c.is_empty() for c in C)

    def test_all_minus(self):
        fam = DisjointFamily.full_dyadic(3)
        signs = [[-1] * len(level) for level in fam.levels]
        B, C = randomize_signs(fam, signs)
        assert all(b.is_empty() for b in B)
        assert all(not c.is_empty() for c in C)

    def test_missing_sign(self):
        fam = DisjointFamily.full_dyadic(3)
        with pytest.raises(ConfigurationError):
            randomize_signs(fam, [[1, 1], [1] * 4, [1] * 7])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_signed_sum_identity(self, seed):
        # sum_n a_n (mu(B_n) - mu(C_n)) == sum_{n,k} a_n eps_{kn} mu(D_{kn})
        rng = np.random.default_rng(seed)
        g = Grid(0.0, 1.0, 8)
        sample = generate_bm(g, seed)
        fam = DisjointFamily.full_dyadic(6)
        weights = WeightSequence.geometric(0.4, 2.0, 6)
        signs = [
            [int(s) for s in rng.choice([-1, 1], size=len(level))]
            for level in fam.levels
        ]
        B, C = randomize_signs(fam, signs)
        lhs = signed_sum_via_sets(sample, weights, B, C)
        rhs = math.fsum(
            weights.values[i] * eps * measure_of(sample, s)
            for i, level in enumerate(fam.levels)
            for s, eps in zip(level, signs[i])
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_unions_match_set_algebra(self, seed):
        rng = np.random.default_rng(seed)
        sample = generate_bm(Grid(0.0, 1.0, 8), seed)
        levels = [random_disjoint_level(rng, 8) for _ in range(int(rng.integers(1, 4)))]
        signs = [[int(e) for e in rng.choice([-1, 1], size=len(sets))] for sets in levels]
        B, C = randomize_signs(DisjointFamily(levels), signs)
        for sets, row, b, c in zip(levels, signs, B, C):
            ref_b, ref_c = DyadicSet.empty(), DyadicSet.empty()
            for s, eps in zip(sets, row):
                if eps == 1:
                    ref_b = ref_b.union(s)
                else:
                    ref_c = ref_c.union(s)
            for got, ref in ((b, ref_b), (c, ref_c)):
                level = max(got.level, ref.level)
                assert got.at_level(level) == ref.at_level(level)
                assert measure_of(sample, got) == measure_of(sample, ref)

    def test_rejects_bad_sign(self):
        fam = DisjointFamily.full_dyadic(2)
        with pytest.raises(ConfigurationError):
            randomize_signs(fam, [[1, -1], [1, 0, 1, -1]])


class TestBoundednessProbe:
    def test_quantile_bounded_and_uniform(self):
        spec = GeneratorSpec("bm", Grid(0.0, 1.0, 10), seed=3)
        rows = boundedness_probe(spec, [4, 16, 64], replicates=200, quantile=0.99)
        qs = [r.quantile for r in rows]
        assert all(q <= 3.0 for q in qs)
        assert qs[-1] <= 1.5 * qs[0]

    def test_zero_measure_zero_quantile(self):
        spec = GeneratorSpec("linear", Grid(0.0, 1.0, 8))
        # linear stub has deterministic increments; with c drawn in [-1, 1]
        # the sum stays bounded by the total variation
        rows = boundedness_probe(spec, [4], replicates=50, quantile=0.9)
        assert rows[0].quantile <= 1.0

    def test_quantile_validation(self):
        spec = GeneratorSpec("bm", Grid(0.0, 1.0, 8), seed=0)
        with pytest.raises(ParameterError):
            boundedness_probe(spec, [4], replicates=10, quantile=1.5)
