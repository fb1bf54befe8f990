import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besovlab import BesovParams, Grid, SampledPath, StochasticMeasureSample, path_of
from besovlab.criterion import dyadic_pyramid
from besovlab.errors import ParameterError
from oracles import increments_of, measure_of


def small_sample(increments, a=0.0, b=1.0):
    J = int(np.log2(len(increments)))
    return StochasticMeasureSample(Grid(a, b, J), np.asarray(increments, float))


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

    @pytest.mark.parametrize(
        "a, b, J",
        [(0.0, np.inf, 8), (-1e308, 1e308, 4), (-np.inf, 0.0, 2), (0.0, np.nan, 4)],
    )
    def test_interval_of_infinite_or_undefined_length_refused(self, a, b, J):
        # (-1e308, 1e308) would have dx = inf and NaN points
        with pytest.raises(ParameterError, match=r"b - a finite, got \["):
            Grid(a, b, J)


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
            assert measure_of(s, 5, range(1, k + 1)) == pytest.approx(
                path.values[k], rel=1e-12, abs=1e-14
            )


class TestIncrementsOf:
    """Level-n increments come from one source, `criterion.dyadic_pyramid`."""

    def test_constant_path_zero(self):
        g = Grid(0.0, 1.0, 4)
        path = SampledPath(g, np.full(17, 3.5))
        levels = dict(dyadic_pyramid(np.diff(path.values)))
        assert sorted(levels) == list(range(1, 5))
        for n in range(1, 5):
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
        levels = dict(dyadic_pyramid(np.diff(path.values)))
        for n in range(1, 6):
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
            (1.5, 2.0, 2.0),
        ],
    )
    def test_rejects_non_finite_and_small_exponents(self, alpha, p, q):
        with pytest.raises(ParameterError):
            BesovParams(alpha, p, q)

    def test_message_names_the_exponent(self):
        with pytest.raises(ParameterError, match=r"^q must be finite and >= 1, got 0\.5$"):
            BesovParams(0.3, 2.0, 0.5)


@pytest.mark.parametrize(
    "cls, values, message",
    [
        (SampledPath, np.zeros((17, 1)), "expected a 1-d real sequence"),
        (SampledPath, np.zeros(16), "expected 17 values, got 16"),
        (SampledPath, [np.nan] + [0.0] * 16, "path values must be finite"),
        (StochasticMeasureSample, np.zeros((16, 1)), "expected a 1-d real sequence"),
        (StochasticMeasureSample, np.zeros(17), "expected 16 increments, got 17"),
    ],
    ids=["path-2d", "path-length", "path-nan", "sample-2d", "sample-length"],
)
def test_refuses_arrays_that_do_not_fit_the_grid(cls, values, message):
    with pytest.raises(ParameterError, match=message):
        cls(Grid(0.0, 1.0, 4), values)


@pytest.mark.parametrize("cls, n", [(SampledPath, 17), (StochasticMeasureSample, 16)])
def test_compares_and_hashes_by_identity(cls, n):
    one, other = cls(Grid(0.0, 1.0, 4), np.zeros(n)), cls(Grid(0.0, 1.0, 4), np.zeros(n))
    assert one == one and one != other
    assert hash(one) == hash(one)
    assert len({one, other, one}) == 2
