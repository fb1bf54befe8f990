import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besovlab import (
    Grid,
    SampledPath,
    Verdict,
    generate_bm,
    kamont_series,
    level_term,
    path_of,
    reweight_identity_check,
)
from besovlab.criterion import raw_level_sum, series_from_raw
from besovlab.errors import ParameterError, ResolutionError


def ramp(J):
    g = Grid(0.0, 1.0, J)
    return SampledPath(g, g.points())


def bm_path(J, seed):
    return path_of(generate_bm(Grid(0.0, 1.0, J), seed))


class TestLevelTerm:
    def test_constant_path_zero(self):
        g = Grid(0.0, 1.0, 8)
        path = SampledPath(g, np.full(g.n_points, 2.0))
        for n in range(1, 9):
            assert level_term(path, n, 0.4, 2.0) == 0.0

    def test_ramp_closed_form(self):
        # T_n = 2^{n(ap-1)} 2^n 2^{-np} = 2^{np(a-1)}
        assert level_term(ramp(10), 3, 0.25, 2.0) == pytest.approx(
            2.0**-4.5, rel=1e-12
        )
        for n in range(1, 11):
            for alpha, p in [(0.25, 2.0), (0.4, 4.0), (0.6, 2.0)]:
                assert level_term(ramp(10), n, alpha, p) == pytest.approx(
                    2.0 ** (n * p * (alpha - 1.0)), rel=1e-12
                )

    def test_bm_expected_value(self):
        # E[T_8] = 2^{8(2a-1)} at p=2 on [0,1]; 200 replicates
        vals = [level_term(bm_path(10, [50, r]), 8, 0.4, 2.0) for r in range(200)]
        assert np.mean(vals) == pytest.approx(2.0**-1.6, rel=0.10)

    def test_resolution_error(self):
        with pytest.raises(ResolutionError):
            level_term(ramp(6), 7, 0.4, 2.0)

    def test_bad_exponents(self):
        with pytest.raises(ParameterError):
            level_term(ramp(6), 2, 1.5, 2.0)
        with pytest.raises(ParameterError):
            level_term(ramp(6), 2, 0.4, 0.5)
        # NaN p once gave NaN terms and a "converges" verdict
        with pytest.raises(ParameterError):
            kamont_series(ramp(8), 8, 0.4, float("nan"))


class TestKamontSeries:
    def test_linear_path_converges(self):
        for alpha, p in [(0.25, 2.0), (0.5, 2.0), (0.3, 4.0)]:
            rep = kamont_series(ramp(12), 12, alpha, p)
            assert rep.fitted_log2_slope == pytest.approx(p * (alpha - 1.0), abs=1e-9)
            assert rep.verdict is Verdict.CONVERGES

    def test_constant_path_converges(self):
        g = Grid(0.0, 1.0, 8)
        rep = kamont_series(SampledPath(g, np.zeros(g.n_points)), 8, 0.4, 2.0)
        assert all(t == 0.0 for t in rep.terms)
        assert rep.verdict is Verdict.CONVERGES

    def test_partial_sums_nondecreasing(self):
        rep = kamont_series(bm_path(12, 8), 12, 0.45, 2.0)
        assert all(t >= 0.0 for t in rep.terms)
        assert np.all(np.diff(rep.partial_sums) >= 0.0)

    def test_bm_verdicts_at_moderate_alphas(self):
        conv = sum(
            kamont_series(bm_path(14, [2, r]), 12, 0.4, 2.0).verdict
            is Verdict.CONVERGES
            for r in range(30)
        )
        div = sum(
            kamont_series(bm_path(14, [2, r]), 12, 0.6, 2.0).verdict
            is Verdict.DIVERGES
            for r in range(30)
        )
        assert conv >= 29
        assert div >= 29

    def test_n_bounds(self):
        with pytest.raises(ParameterError):
            kamont_series(ramp(8), 9, 0.4, 2.0)
        with pytest.raises(ParameterError):
            kamont_series(ramp(8), 5, 0.4, 2.0)

    def test_holder_smooth_paths_converge(self):
        # smooth deterministic samples: converge for alpha < 1 tested range
        g = Grid(0.0, 1.0, 12)
        for f in (np.sin, np.cos):
            path = SampledPath(g, f(2 * np.pi * g.points()))
            for p in (2.0, 4.0):
                for alpha in (0.3, 0.6, 0.8):
                    rep = kamont_series(path, 12, alpha, p)
                    assert rep.verdict is Verdict.CONVERGES


class TestReweighting:
    def test_same_alpha_identical(self):
        a, b = reweight_identity_check(bm_path(10, 4), 5, 0.3, 0.3, 2.0)
        assert a == b

    def test_linear_factor(self):
        direct, rescaled = reweight_identity_check(ramp(8), 4, 0.2, 0.5, 2.0)
        assert direct == pytest.approx(rescaled, rel=1e-12)
        t1 = level_term(ramp(8), 4, 0.2, 2.0)
        assert direct == pytest.approx(2.0**2.4 * t1, rel=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_identity_random_paths(self, seed):
        path = bm_path(10, seed)
        direct, rescaled = reweight_identity_check(path, 7, 0.2, 0.55, 2.0)
        assert direct == pytest.approx(rescaled, rel=1e-12)

    @given(
        st.floats(0.05, 5.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_scaling_and_shift_invariance(self, c, seed):
        path = bm_path(8, seed)
        scaled = SampledPath(path.grid, c * path.values)
        shifted = SampledPath(path.grid, path.values + 10.0)
        t = level_term(path, 5, 0.4, 2.0)
        assert level_term(scaled, 5, 0.4, 2.0) == pytest.approx(c**2 * t, rel=1e-9)
        assert level_term(shifted, 5, 0.4, 2.0) == pytest.approx(t, rel=1e-9)


class TestSeriesFromRaw:
    def test_matches_kamont_series(self):
        path = bm_path(12, 31)
        raw = [raw_level_sum(path, n, 2.0) for n in range(1, 13)]
        a = series_from_raw(raw, 0.45, 2.0)
        b = kamont_series(path, 12, 0.45, 2.0)
        assert a == b
