import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besovlab import (
    BesovParams,
    DisjointFamily,
    DyadicSet,
    Grid,
    SampledPath,
    StochasticMeasureSample,
    WeightSequence,
    path_of,
    randomize_signs,
)
from besovlab.criterion import dyadic_pyramid
from besovlab.errors import ParameterError, ResolutionError
from besovlab.lemma import signed_sum_via_sets
from oracles import increments_of, measure_of, ref_cells, union

EMPTY = DyadicSet(0, ())


def small_sample(increments, a=0.0, b=1.0):
    J = int(np.log2(len(increments)))
    return StochasticMeasureSample(Grid(a, b, J), np.asarray(increments, float))


def measure(sample, A):
    """mu(A) by the library: the signed sum of one level with weight 1, A as
    the (+1)-union and nothing as the (-1)-union."""
    return signed_sum_via_sets(sample, WeightSequence((1.0,)), [A], [EMPTY])


class TestGrid:
    def test_endpoints_exact(self):
        g = Grid(0.1, 0.3, 5)
        assert g.points()[0] == 0.1 and g.points()[-1] == 0.3

    def test_spacing(self):
        g = Grid(0.0, 1.0, 4)
        assert g.dx == 2.0**-4
        assert g.n_points == 17

    def test_invalid(self):
        with pytest.raises(ParameterError):
            Grid(1.0, 1.0, 4)
        with pytest.raises(ParameterError):
            Grid(0.0, 1.0, 0)
        with pytest.raises(ParameterError):
            Grid(0.0, 1.0, 25)


class TestDyadicSets:
    def test_interval_refine(self):
        left_half = DyadicSet(1, (1,))
        assert left_half.at_level(3).ks.tolist() == [1, 2, 3, 4]

    def test_normal_form_sorted_disjoint(self):
        # randomize_signs returns each union in normal form at the level's resolution
        family = DisjointFamily([(DyadicSet(2, (3,)), DyadicSet(1, (1,)))])
        (s,), _ = randomize_signs(family, [[1, 1]])
        assert s.level == 2
        assert s.ks.tolist() == [1, 2, 3]

    def test_full_partition_disjoint(self):
        cells = tuple(DyadicSet(3, (k,)) for k in range(1, 9))
        assert DisjointFamily([cells]).levels == (cells,)


REF_LEVEL = 8


@st.composite
def raw_sets(draw):
    """(level, cell indices) up to REF_LEVEL, the indices distinct and unsorted."""
    level = draw(st.integers(0, REF_LEVEL))
    ks = draw(st.lists(st.integers(1, 2**level), unique=True, max_size=40))
    return level, ks


class TestDyadicSetAgainstReference:
    @given(raw_sets(), st.integers(0, REF_LEVEL))
    @settings(max_examples=200, deadline=None)
    def test_at_level(self, raw, target):
        level, ks = raw
        A = DyadicSet(level, ks)
        assert A.ks.dtype == np.int64 and not A.ks.flags.writeable
        assert A.ks.tolist() == sorted(ks)
        if target < level:
            with pytest.raises(ParameterError):
                A.at_level(target)
        else:
            fine = A.at_level(target)
            assert fine.level == target
            assert fine.ks.tolist() == sorted(ref_cells(level, ks, target))

    @given(raw_sets(), raw_sets())
    @settings(max_examples=300, deadline=None)
    def test_union_disjoint_eq(self, raw_a, raw_b):
        A, B = DyadicSet(*raw_a), DyadicSet(*raw_b)
        ref_a, ref_b = ref_cells(*raw_a, REF_LEVEL), ref_cells(*raw_b, REF_LEVEL)
        assert (A == B) == (ref_a == ref_b)
        assert A == DyadicSet(REF_LEVEL, sorted(ref_a))

    @given(raw_sets(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_measure_of(self, raw, seed):
        # integer increments: every sum is exact, whatever its order
        inc = np.random.default_rng(seed).integers(-1000, 1000, 2**REF_LEVEL).astype(float)
        s = small_sample(inc)
        expected = sum(inc[c - 1] for c in ref_cells(*raw, REF_LEVEL))
        assert measure(s, DyadicSet(*raw)) == expected

    @pytest.mark.parametrize(
        "level, ks", [(-1, ()), (2, (1, 1)), (2, (0,)), (2, (5,)), (2, (1.5,))]
    )
    def test_rejects_malformed(self, level, ks):
        with pytest.raises(ParameterError):
            DyadicSet(level, ks)


class TestMeasureOf:
    def test_full_interval_telescopes(self):
        s = small_sample([1.0, 2.0, 3.0, 4.0])
        assert measure(s, DyadicSet(0, (1,))) == 10.0

    def test_empty_set(self):
        s = small_sample([1.0, 2.0, 3.0, 4.0])
        assert measure(s, EMPTY) == 0.0

    def test_left_half(self):
        # brute force: children increments 1 + 2
        s = small_sample([1.0, 2.0, 3.0, 4.0])
        left = DyadicSet(1, (1,))
        assert measure(s, left) == 3.0

    def test_resolution_error(self):
        s = small_sample([1.0, 2.0, 3.0, 4.0])
        deep = DyadicSet(5, (1,))
        with pytest.raises(ResolutionError):
            measure(s, deep)

    @given(st.integers(0, 2**60 - 1))
    @settings(max_examples=30, deadline=None)
    def test_additivity(self, seed):
        rng = np.random.default_rng(seed)
        s = small_sample(rng.standard_normal(16))
        ks = rng.permutation(16) + 1
        A = DyadicSet(4, tuple(int(k) for k in ks[:5]))
        B = DyadicSet(4, tuple(int(k) for k in ks[5:11]))
        lhs = measure(s, union(A, B))
        rhs = measure(s, A) + measure(s, B)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


class TestPathOf:
    def test_prefix_sums(self):
        s = small_sample([1.0, 2.0, 3.0, 4.0])
        assert path_of(s).values.tolist() == [0.0, 1.0, 3.0, 6.0, 10.0]

    def test_zero_increments(self):
        s = small_sample([0.0] * 8)
        assert np.all(path_of(s).values == 0.0)

    def test_round_trip_exact_on_dyadic_rationals(self):
        # sums of these increments are exactly representable
        inc = np.array([3.0, -1.5, 0.25, 8.0, -0.125, 2.0, 1.0, -4.0])
        s = small_sample(inc)
        back = np.diff(path_of(s).values)
        assert np.array_equal(back, inc)

    @given(st.integers(0, 2**60 - 1))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_gaussian(self, seed):
        inc = np.random.default_rng(seed).standard_normal(64)
        back = np.diff(path_of(small_sample(inc)).values)
        np.testing.assert_allclose(back, inc, rtol=1e-12, atol=1e-15)

    def test_telescoping_at_every_grid_point(self):
        rng = np.random.default_rng(7)
        s = small_sample(rng.standard_normal(32))
        path = path_of(s)
        for k in range(1, 33):
            prefix = DyadicSet(5, tuple(range(1, k + 1)))
            assert measure_of(s, prefix) == pytest.approx(
                path.values[k], rel=1e-12, abs=1e-14
            )


class TestIncrementsOf:
    """Level-n increments come from one source, `criterion.dyadic_pyramid`."""

    def test_constant_path_zero(self):
        g = Grid(0.0, 1.0, 4)
        path = SampledPath(g, np.full(17, 3.5))
        levels = dict(dyadic_pyramid(np.diff(path.values), 0))
        assert sorted(levels) == list(range(5))
        for n in range(5):
            assert levels[n].shape == (2**n,) and np.all(levels[n] == 0.0)

    def test_linear_path(self):
        g = Grid(0.0, 1.0, 5)
        path = SampledPath(g, g.points())
        inc = dict(dyadic_pyramid(np.diff(path.values)))[3]
        np.testing.assert_allclose(inc, np.full(8, 1 / 8), rtol=1e-14)

    @given(st.integers(0, 2**60 - 1))
    @settings(max_examples=30, deadline=None)
    def test_refinement_consistency(self, seed):
        rng = np.random.default_rng(seed)
        g = Grid(0.0, 1.0, 6)
        path = SampledPath(g, rng.standard_normal(65))
        levels = dict(dyadic_pyramid(np.diff(path.values), 0))
        for n in range(6):
            coarse, fine = levels[n], levels[n + 1]
            np.testing.assert_allclose(
                coarse, fine[0::2] + fine[1::2], rtol=1e-12, atol=1e-15
            )
            # the path's own level-n increments, up to the rounding of the
            # 2^(6-n) O(1) differences the pyramid adds up
            np.testing.assert_allclose(coarse, increments_of(path, n), rtol=1e-12, atol=1e-13)


class TestBesovParams:
    @pytest.mark.parametrize(
        "alpha, p, q",
        [
            (float("nan"), 2.0, 2.0),
            (0.3, float("nan"), 2.0),
            (0.3, 2.0, float("nan")),
            (0.3, float("inf"), 2.0),
            (0.3, 2.0, float("inf")),
            (0.3, 0.5, 2.0),
        ],
    )
    def test_rejects_non_finite_and_small_exponents(self, alpha, p, q):
        with pytest.raises(ParameterError):
            BesovParams(alpha, p, q)
