import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besovlab import (
    BesovParams,
    DyadicSet,
    Grid,
    SampledPath,
    StochasticMeasureSample,
    increments_of,
    measure_of,
    path_of,
    sample_from_path,
)
from besovlab.errors import ParameterError, ResolutionError


def small_sample(increments, a=0.0, b=1.0):
    J = int(np.log2(len(increments)))
    return StochasticMeasureSample(Grid(a, b, J), np.asarray(increments, float))


class TestGrid:
    def test_endpoints_exact(self):
        g = Grid(0.1, 0.3, 5)
        assert g.point(0) == 0.1
        assert g.point(g.n_cells) == 0.3
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
        s = DyadicSet(2, (3,)).union(DyadicSet(1, (1,)))
        assert s.level == 2
        assert s.ks.tolist() == [1, 2, 3]

    def test_union_dedupes_overlap(self):
        a = DyadicSet(1, (1,))
        b = DyadicSet(2, (2,))
        assert not a.is_disjoint_from(b)
        assert a.union(b).ks.tolist() == [1, 2]

    def test_full_partition_disjoint(self):
        cells = [DyadicSet(3, (k,)) for k in range(1, 9)]
        for i in range(8):
            for j in range(i + 1, 8):
                assert cells[i].is_disjoint_from(cells[j])


REF_LEVEL = 8


def ref_cells(level, ks, at=REF_LEVEL):
    """Reference: the level-`at` cell indices covered by cells ks at `level`, as a Python set."""
    f = 2 ** (at - level)
    return {(k - 1) * f + j for k in ks for j in range(1, f + 1)}


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
        ref_a, ref_b = ref_cells(*raw_a), ref_cells(*raw_b)
        union = A.union(B)
        assert union.level == max(raw_a[0], raw_b[0])
        assert ref_cells(union.level, union.ks.tolist()) == ref_a | ref_b
        assert A.is_disjoint_from(B) == (not ref_a & ref_b)
        assert (A == B) == (ref_a == ref_b)
        assert A == DyadicSet(REF_LEVEL, sorted(ref_a))

    @given(raw_sets(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_measure_of(self, raw, seed):
        # integer increments: every sum is exact, whatever its order
        inc = np.random.default_rng(seed).integers(-1000, 1000, 2**REF_LEVEL).astype(float)
        s = small_sample(inc)
        assert measure_of(s, DyadicSet(*raw)) == sum(inc[c - 1] for c in ref_cells(*raw))

    @pytest.mark.parametrize(
        "level, ks", [(-1, ()), (2, (1, 1)), (2, (0,)), (2, (5,)), (2, (1.5,))]
    )
    def test_rejects_malformed(self, level, ks):
        with pytest.raises(ParameterError):
            DyadicSet(level, ks)


class TestMeasureOf:
    def test_full_interval_telescopes(self):
        s = small_sample([1.0, 2.0, 3.0, 4.0])
        assert measure_of(s, DyadicSet.full()) == 10.0

    def test_empty_set(self):
        s = small_sample([1.0, 2.0, 3.0, 4.0])
        assert measure_of(s, DyadicSet.empty()) == 0.0

    def test_left_half(self):
        # brute force: children increments 1 + 2
        s = small_sample([1.0, 2.0, 3.0, 4.0])
        left = DyadicSet(1, (1,))
        assert measure_of(s, left) == 3.0

    def test_resolution_error(self):
        s = small_sample([1.0, 2.0, 3.0, 4.0])
        deep = DyadicSet(5, (1,))
        with pytest.raises(ResolutionError):
            measure_of(s, deep)

    @given(st.integers(0, 2**60 - 1))
    @settings(max_examples=30, deadline=None)
    def test_additivity(self, seed):
        rng = np.random.default_rng(seed)
        s = small_sample(rng.standard_normal(16))
        ks = rng.permutation(16) + 1
        A = DyadicSet(4, tuple(int(k) for k in ks[:5]))
        B = DyadicSet(4, tuple(int(k) for k in ks[5:11]))
        lhs = measure_of(s, A.union(B))
        rhs = measure_of(s, A) + measure_of(s, B)
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
        back = sample_from_path(path_of(s))
        assert np.array_equal(back.increments, inc)

    @given(st.integers(0, 2**60 - 1))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_gaussian(self, seed):
        inc = np.random.default_rng(seed).standard_normal(64)
        back = sample_from_path(path_of(small_sample(inc)))
        np.testing.assert_allclose(back.increments, inc, rtol=1e-12, atol=1e-15)

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
    def test_constant_path_zero(self):
        g = Grid(0.0, 1.0, 4)
        path = SampledPath(g, np.full(17, 3.5))
        for n in range(5):
            assert np.all(increments_of(path, n) == 0.0)

    def test_linear_path(self):
        g = Grid(0.0, 1.0, 5)
        path = SampledPath(g, g.points())
        inc = increments_of(path, 3)
        np.testing.assert_allclose(inc, np.full(8, 1 / 8), rtol=1e-14)

    @given(st.integers(0, 2**60 - 1))
    @settings(max_examples=30, deadline=None)
    def test_refinement_consistency(self, seed):
        rng = np.random.default_rng(seed)
        g = Grid(0.0, 1.0, 6)
        path = SampledPath(g, rng.standard_normal(65))
        for n in range(6):
            coarse = increments_of(path, n)
            fine = increments_of(path, n + 1)
            np.testing.assert_allclose(
                coarse, fine[0::2] + fine[1::2], rtol=1e-12, atol=1e-15
            )

    def test_too_deep(self):
        g = Grid(0.0, 1.0, 3)
        path = SampledPath(g, np.zeros(9))
        with pytest.raises(ResolutionError):
            increments_of(path, 4)


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
