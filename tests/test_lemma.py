import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from besovlab import (
    Grid,
    GeneratorSpec,
    WeightSequence,
    boundedness_probe,
    kamont_series,
    lemma_statistic,
    paley_zygmund_check,
    path_of,
)
from besovlab import WeightFn, generators
from besovlab.errors import ParameterError, ResolutionError, SizeError
from besovlab.lemma import PZ_BLOCK_SUMS, PZ_THRESHOLD_FACTOR, _count_pz_hits
from besovlab.paths import StochasticMeasureSample
from oracles import count_pz_hits_outer, measure_of, probe_sums_per_size


class TestWeightSequence:
    def test_geometric_summable(self):
        w = WeightSequence.geometric(0.4, 2.0, 10)
        assert w.values[2] == pytest.approx(2.0**-0.3, rel=1e-12)

    def test_positive_required(self):
        with pytest.raises(ParameterError):
            WeightSequence((1.0, 0.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_finite_required(self, bad):
        with pytest.raises(ParameterError):
            WeightSequence((1.0, bad))

    def test_empty_refused(self):
        # the weights set the statistic's depth, which is at least 1
        with pytest.raises(ParameterError):
            WeightSequence(())
        with pytest.raises(ParameterError):
            WeightSequence.geometric(0.4, 2.0, 0)


class TestLemmaStatistic:
    def test_zero_measure(self):
        g = Grid(0.0, 1.0, 6)
        sample = StochasticMeasureSample(g, np.zeros(g.n_cells))
        out = lemma_statistic(sample, WeightSequence.geometric(0.4, 2.0, 6))
        assert np.all(out == 0.0)

    def test_depth_is_the_number_of_weights(self):
        sample = GeneratorSpec("bm", Grid(0.0, 1.0, 6)).sample(5)
        assert len(lemma_statistic(sample, WeightSequence.geometric(0.4, 2.0, 4))) == 4

    def test_more_weights_than_levels_raises(self):
        sample = GeneratorSpec("bm", Grid(0.0, 1.0, 6)).sample(5)
        with pytest.raises(ResolutionError, match="J=6"):
            lemma_statistic(sample, WeightSequence.geometric(0.4, 2.0, 7))

    def test_linear_closed_form(self):
        # all finest increments dx; a_n = 2^{-n}: level sum 2^n 2^{-2n},
        # weighted 2^{-3n}; partial sum is the geometric series
        g = Grid(0.0, 1.0, 8)
        sample = GeneratorSpec("linear", g).sample()
        weights = WeightSequence(tuple(2.0**-n for n in range(1, 9)))
        out = lemma_statistic(sample, weights)
        expected = np.cumsum([2.0 ** (-3 * n) for n in range(1, 9)])
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_nondecreasing_partial_sums(self):
        g = Grid(0.0, 1.0, 10)
        sample = GeneratorSpec("bm", g).sample(17)
        out = lemma_statistic(sample, WeightSequence.geometric(0.4, 2.0, 10))
        assert np.all(np.diff(out) >= 0.0)
        assert np.all(np.isfinite(out))

    def test_scale_equivariance(self):
        g = Grid(0.0, 1.0, 8)
        sample = GeneratorSpec("bm", g).sample(23)
        scaled = type(sample)(g, 3.0 * sample.increments)
        w = WeightSequence.geometric(0.4, 2.0, 8)
        np.testing.assert_allclose(
            lemma_statistic(scaled, w),
            9.0 * lemma_statistic(sample, w),
            rtol=1e-12,
        )

    def test_cross_identity_with_kamont(self):
        # p = 2, a_n = 2^{n(2a-1)/2}: partial sums match the dyadic series
        alpha = 0.4
        g = Grid(0.0, 1.0, 10)
        for seed in range(3):
            sample = GeneratorSpec("bm", g).sample([41, seed])
            stat = lemma_statistic(sample, WeightSequence.geometric(alpha, 2.0, 10))
            series = kamont_series(path_of(sample), 10, alpha, 2.0)
            np.testing.assert_allclose(stat, series.partial_sums, rtol=1e-12)

    @given(
        st.sampled_from([
            ("bm", None), ("fbm", 0.3), ("fbm", 0.75), ("martingale", None),
            ("wfbm", 0.75), ("linear", None),
        ]),
        st.integers(1, 9).flatmap(lambda J: st.tuples(st.just(J), st.integers(1, J))),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_full_dyadic_matches_per_cell_reference(self, kind_h, J_N, seed):
        (kind, H), (J, N) = kind_h, J_N
        sample = GeneratorSpec(kind, Grid(0.0, 1.0, J), H=H).sample(seed)
        weights = WeightSequence.geometric(0.4, 2.0, N)
        got = lemma_statistic(sample, weights)
        expected = np.cumsum([
            a * a * math.fsum(measure_of(sample, n, [k]) ** 2 for k in range(1, 2**n + 1))
            for n, a in enumerate(weights.values, start=1)
        ])
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_non_finite_raises(self):
        g = Grid(0.0, 1.0, 6)
        sample = StochasticMeasureSample(g, np.full(g.n_cells, 1e300))
        with pytest.raises(FloatingPointError):
            lemma_statistic(sample, WeightSequence.geometric(0.4, 2.0, 6))


@st.composite
def _pz_coefficients(draw):
    """1 to 14 finite floats, some repeated and some 0, possibly scaled by 2^+-1000.

    Unscaled entries are at most 1e300 and scaled ones at most 16 * 2^1000,
    so a sum of 14 stays finite while its square may overflow.
    """
    scale = draw(st.sampled_from([0, -1000, 1000]))
    values = st.floats(-16.0, 16.0) if scale else st.floats(-1e300, 1e300)
    pool = draw(st.lists(values, min_size=1, max_size=4)) + [0.0]
    lam = draw(st.lists(st.sampled_from(pool) | values, min_size=1, max_size=14))
    return np.ldexp(np.array(lam), scale)


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

    @given(_pz_coefficients())
    @example(np.zeros(1))
    @example(np.zeros(14))
    @settings(max_examples=300, deadline=None)
    def test_sorted_count_matches_outer_sum(self, lam):
        # ordinary floats: the sums and squares round, and may underflow or
        # overflow; the sorted count sees the same float predicate as the
        # outer sum.  All-zero lambda: threshold 0, so every pattern hits.
        with np.errstate(over="ignore", under="ignore"):
            threshold = 0.25 * float(np.dot(lam, lam))
            hits, expected = _count_pz_hits(lam, threshold), count_pz_hits_outer(lam, threshold)
        assert hits == expected
        if not lam.any():
            assert hits == 2 ** len(lam)

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

    @pytest.mark.parametrize(
        "lam, mode, message",
        [([], "exact", "need at least one coefficient"), ([1.0], "bogus", "unknown mode 'bogus'")],
    )
    def test_rejects_empty_list_and_unknown_mode(self, lam, mode, message):
        with pytest.raises(ParameterError, match=message):
            paley_zygmund_check(lam, mode=mode)

    def test_exact_size_limit(self):
        with pytest.raises(SizeError):
            paley_zygmund_check([1.0] * 21, mode="exact")

    @pytest.mark.parametrize("samples", [0, -5])
    def test_monte_carlo_needs_a_sample(self, samples):
        with pytest.raises(ParameterError):
            paley_zygmund_check([1.0, 1.0], mode="monte-carlo", samples=samples)

    def test_monte_carlo_agrees(self):
        lam = [3.0, 1.0, 2.0, 0.5, 1.5]
        exact = paley_zygmund_check(lam).probability
        mc = paley_zygmund_check(lam, mode="monte-carlo", samples=200_000, seed=2)
        assert mc.probability == pytest.approx(exact, abs=4 * mc.stderr)
        assert mc.passed

    @pytest.mark.parametrize("m, samples", [(5, 50_000), (20, 10_000)])
    def test_monte_carlo_blocks_match_one_draw(self, m, samples):
        assert samples > 3 * (PZ_BLOCK_SUMS // m)  # several blocks and a partial one
        lam = np.random.default_rng(m).standard_normal(m)
        got = paley_zygmund_check(lam, mode="monte-carlo", samples=samples, seed=4)
        # reference: every sign in one (samples, m) draw, as the check used to do
        scaled = np.ldexp(lam, -np.frexp(np.max(np.abs(lam)))[1])
        threshold = PZ_THRESHOLD_FACTOR * float(np.dot(scaled, scaled))
        signs = np.random.default_rng(4).integers(0, 2, size=(samples, m)) * 2.0 - 1.0
        prob = float(np.mean((signs @ scaled) ** 2 >= threshold))
        stderr = math.sqrt(max(prob * (1.0 - prob), 1.0 / samples) / samples)
        assert got.probability == prob and got.stderr == stderr

    def test_monte_carlo_memory_bounded(self):
        # one (10^6, 20) draw held 160 MB of int64 signs and as much again in floats
        tracemalloc.start()
        try:
            paley_zygmund_check(np.ones(20), mode="monte-carlo", samples=10**6, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @given(
        st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12).filter(
            lambda xs: any(x != 0.0 for x in xs)
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_bound_holds_random(self, lam):
        assert paley_zygmund_check(lam).passed


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

    def test_replicates_and_family_size_bounds(self):
        spec = GeneratorSpec("bm", Grid(0.0, 1.0, 8), seed=0)
        with pytest.raises(ParameterError, match="need at least one replicate"):
            boundedness_probe(spec, [4], replicates=0, quantile=0.9)
        with pytest.raises(ResolutionError, match="family size 257 exceeds 256 finest cells"):
            boundedness_probe(spec, [4, 257], replicates=10, quantile=0.9)

    @pytest.mark.parametrize("size", [0, -3])
    def test_family_size_below_one(self, size):
        spec = GeneratorSpec("bm", Grid(0.0, 1.0, 8), seed=0)
        with pytest.raises(ParameterError):
            boundedness_probe(spec, [4, size], replicates=10, quantile=0.9)

    def test_repeated_family_size(self):
        # sums are kept per size: a repeat would overwrite the earlier one's
        spec = GeneratorSpec("bm", Grid(0.0, 1.0, 8), seed=3)
        with pytest.raises(ParameterError, match="family size 4 is repeated"):
            boundedness_probe(spec, [4, 4, 16], replicates=50, quantile=0.9)

    def test_shared_draw_keeps_each_size_law(self):
        # The probe against the per-size draws of the reference, on an
        # independent seed.  Two-sample DKW inequality for n = m >= 458 (Wei
        # and Dudley, Statist. Probab. Lett. 82, 2012):
        # P[sup |F_n - G_n| >= eps] <= 2 exp(-n eps^2), so eps = sqrt(ln(2 / alpha) / n)
        # at alpha = 1e-4, plus 1/n for the interpolated quantile.
        reps, sizes = 2000, [4, 16, 64]
        probe = GeneratorSpec("fbm", Grid(0.0, 1.0, 8), seed=21, H=0.75)
        reference = probe_sums_per_size(
            GeneratorSpec("fbm", Grid(0.0, 1.0, 8), seed=22, H=0.75), sizes, reps
        )
        eps = math.sqrt(math.log(2 / 1e-4) / reps) + 1 / reps
        for q in np.arange(1, 10) / 10:
            for row in boundedness_probe(probe, sizes, reps, q):
                ref = np.sort(reference[row.family_size])
                below = np.searchsorted(ref, row.quantile, side="left") / reps
                upto = np.searchsorted(ref, row.quantile, side="right") / reps
                assert below - eps <= q <= upto + eps, (row, q, below, upto)

    def test_non_finite_raises(self):
        # weight 1.7e308: a sum of two of its cells overflows, and the suite turns
        # RuntimeWarnings into errors, so the overflow warns nowhere either
        spec = GeneratorSpec("martingale", Grid(0.0, 1.0, 6), seed=0,
                             weight=WeightFn("constant", (1.7e308,)))
        with pytest.raises(FloatingPointError, match="probe sum is not finite"):
            boundedness_probe(spec, [2, 4], replicates=20, quantile=0.5)

    def test_empty_family_sizes(self):
        spec = GeneratorSpec("bm", Grid(0.0, 1.0, 8), seed=0)
        with pytest.raises(ParameterError, match="family size"):
            boundedness_probe(spec, [], replicates=10, quantile=0.9)

    def test_randomness_from_generator_seed(self):
        # the generator's seed is the probe's only source of randomness; it takes no seed of its own
        def quantiles(seed):
            spec = GeneratorSpec("bm", Grid(0.0, 1.0, 8), seed=seed)
            return [r.quantile for r in boundedness_probe(spec, [4, 16], 20, 0.9)]

        assert quantiles(7) == quantiles(7) != quantiles(8)
        with pytest.raises(TypeError):
            boundedness_probe(GeneratorSpec("bm", Grid(0.0, 1.0, 8)), [4], 20, 0.9, seed=1)

    def test_fbm_embedding_once(self, monkeypatch):
        # the sampler is built once per probe, not once per replicate
        calls = []
        embedding = generators._fgn_embedding

        def counted(N, H):
            calls.append((N, H))
            return embedding(N, H)

        monkeypatch.setattr(generators, "_fgn_embedding", counted)
        spec = GeneratorSpec("fbm", Grid(0.0, 1.0, 8), seed=5, H=0.7)
        rows = boundedness_probe(spec, [4, 16], replicates=20, quantile=0.9)
        assert len(calls) == 1
        # reference: one `spec.sample` per replicate and one ordered draw of
        # 128 cells, of which size n takes the first n * (256 // (2 n))
        sums = {n: [] for n in (4, 16)}
        for r in range(20):
            rng = np.random.default_rng([spec.seed, r])
            inc = spec.sample(seed=[spec.seed, r, 1]).increments
            cells = rng.choice(256, size=128, replace=False)
            for n in (4, 16):
                coeffs = rng.uniform(-1.0, 1.0, size=n)
                picked = inc[cells[: n * (256 // (2 * n))]]
                sums[n].append(abs(float(np.dot(coeffs, picked.reshape(n, -1).sum(axis=1)))))
        assert [r.quantile for r in rows] == [float(np.quantile(sums[n], 0.9)) for n in (4, 16)]
