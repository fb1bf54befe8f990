import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besovlab import (
    Grid,
    GeneratorSpec,
    SampledPath,
    Verdict,
    kamont_series,
    path_of,
)
from besovlab.criterion import fit_tail_slope, level_sums, series_from_raw
from besovlab.errors import ParameterError, ResolutionError
from oracles import increments_of, level_sums_by_pow, raw_level_sum


def ramp(J):
    g = Grid(0.0, 1.0, J)
    return SampledPath(g, g.points())


def bm_path(J, seed):
    return path_of(GeneratorSpec("bm", Grid(0.0, 1.0, J)).sample(seed))


class TestLevelTerm:
    """The level terms T_n are `kamont_series(...).terms`, entry n - 1."""

    def test_constant_path_zero(self):
        g = Grid(0.0, 1.0, 8)
        path = SampledPath(g, np.full(g.n_points, 2.0))
        assert kamont_series(path, 8, 0.4, 2.0).terms == (0.0,) * 8

    def test_ramp_closed_form(self):
        # T_n = 2^{n(ap-1)} 2^n 2^{-np} = 2^{np(a-1)}
        assert kamont_series(ramp(10), 10, 0.25, 2.0).terms[2] == pytest.approx(
            2.0**-4.5, rel=1e-12
        )
        for alpha, p in [(0.25, 2.0), (0.4, 4.0), (0.6, 2.0)]:
            terms = kamont_series(ramp(10), 10, alpha, p).terms
            for n in range(1, 11):
                assert terms[n - 1] == pytest.approx(
                    2.0 ** (n * p * (alpha - 1.0)), rel=1e-12
                )

    def test_bm_expected_value(self):
        # E[T_8] = 2^{8(2a-1)} at p=2 on [0,1]; 200 replicates
        vals = [kamont_series(bm_path(10, [50, r]), 8, 0.4, 2.0).terms[7] for r in range(200)]
        assert np.mean(vals) == pytest.approx(2.0**-1.6, rel=0.10)

    def test_resolution_error(self):
        with pytest.raises(ResolutionError):
            kamont_series(ramp(6), 7, 0.4, 2.0)

    def test_bad_exponents(self):
        with pytest.raises(ParameterError):
            kamont_series(ramp(6), 6, 1.5, 2.0)
        with pytest.raises(ParameterError):
            kamont_series(ramp(6), 6, 0.4, 0.5)
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
        with pytest.raises(ResolutionError):
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
    """T_n depends on alpha only through its prefactor 2^{n(alpha p - 1)}."""

    def test_linear_factor(self):
        direct = kamont_series(ramp(8), 8, 0.5, 2.0).terms[3]
        t1 = kamont_series(ramp(8), 8, 0.2, 2.0).terms[3]
        assert direct == pytest.approx(2.0**2.4 * t1, rel=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_identity_random_paths(self, seed):
        path = bm_path(10, seed)
        direct = kamont_series(path, 7, 0.55, 2.0).terms[6]
        rescaled = 2.0 ** (7 * 2.0 * (0.55 - 0.2)) * kamont_series(path, 7, 0.2, 2.0).terms[6]
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
        t = kamont_series(path, 8, 0.4, 2.0).terms[4]
        assert kamont_series(scaled, 8, 0.4, 2.0).terms[4] == pytest.approx(c**2 * t, rel=1e-9)
        assert kamont_series(shifted, 8, 0.4, 2.0).terms[4] == pytest.approx(t, rel=1e-9)


class TestSeriesFromRaw:
    def test_matches_kamont_series(self):
        path = bm_path(12, 31)
        raw = [raw_level_sum(path, n, 2.0) for n in range(1, 13)]
        a = series_from_raw(raw, 0.45, 2.0)
        b = kamont_series(path, 12, 0.45, 2.0)
        assert a == b

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 0.95])
    def test_single_and_no_positive_tail_level(self, alpha):
        g = Grid(0.0, 1.0, 8)
        # +-1 increments: every coarser level sums to zero, one positive tail level
        zigzag = SampledPath(g, np.resize([0.0, 1.0], g.n_points))
        report = kamont_series(zigzag, 8, alpha, 2.0)
        assert (report.fitted_log2_slope, report.verdict) == (0.0, Verdict.INCONCLUSIVE)
        flat = kamont_series(SampledPath(g, np.full(g.n_points, 3.0)), 8, alpha, 2.0)
        assert (flat.fitted_log2_slope, flat.verdict) == (-math.inf, Verdict.CONVERGES)

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.95), st.floats(1.0, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_slope_is_raw_exponent_shifted(self, seed, alpha, p):
        raw = level_sums(np.diff(bm_path(12, seed).values), 12, p)
        slope = series_from_raw(raw, alpha, p).fitted_log2_slope
        assert slope == pytest.approx(fit_tail_slope(raw) + alpha * p - 1.0, abs=1e-12)
        terms = 2.0 ** (np.arange(1, 13) * (alpha * p - 1.0)) * raw
        assert slope == pytest.approx(fit_tail_slope(terms), abs=1e-12)


def scalar_tail_slope(terms) -> float:
    """Reference: the one-series weighted tail fit, one level at a time."""
    terms = np.asarray(terms, dtype=float)
    N = len(terms)
    start = N - math.ceil(N / 2)
    tail = terms[start:]
    ns = np.arange(start + 1, N + 1, dtype=float)
    pos = tail > 1e-250
    if pos.sum() == 0:
        return -math.inf
    if pos.sum() == 1:
        return 0.0
    x = ns[pos]
    y = np.log2(tail[pos])
    w = 2.0 ** (x - x.max())
    w /= w.sum()
    xb = float(np.dot(w, x))
    yb = float(np.dot(w, y))
    sxx = float(np.dot(w, (x - xb) ** 2))
    sxy = float(np.dot(w, (x - xb) * (y - yb)))
    return sxy / sxx


class TestBatchedTailSlope:
    @given(
        st.integers(1, 12),
        st.integers(6, 24),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_reference(self, R, N, seed):
        rng = np.random.default_rng(seed)
        ns = np.arange(1, N + 1)
        slope = rng.uniform(-3.0, 3.0, size=(R, 1))
        terms = 2.0 ** (slope * ns + rng.uniform(-40.0, 40.0, size=(R, 1))
                        + rng.normal(0.0, 0.5, size=(R, N)))
        tail = N - math.ceil(N / 2)
        for i, case in enumerate(rng.integers(0, 5, size=R)):
            if case == 1:  # identically zero tail
                terms[i, tail:] = 0.0
            elif case == 2:  # a single positive tail level
                keep = rng.integers(tail, N)
                terms[i, tail:] = 0.0
                terms[i, keep] = 1.0
            elif case == 3:  # NaN terms are dropped like zeros
                terms[i, rng.integers(0, N, size=2)] = np.nan
            elif case == 4:  # some zero levels
                terms[i, rng.integers(0, N, size=2)] = 0.0
        expected = np.array([scalar_tail_slope(row) for row in terms])
        got = fit_tail_slope(terms)
        assert got.shape == (R,)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12, equal_nan=True)
        for row, want in zip(terms, expected):
            one = fit_tail_slope(row)
            assert isinstance(one, float)
            np.testing.assert_allclose(one, want, rtol=0.0, atol=1e-12, equal_nan=True)

    def test_edge_cases(self):
        rows = np.array([
            [1.0] * 6 + [0.0] * 6,  # no positive tail term
            [1.0] * 6 + [0.0, 0.0, 3.0, 0.0, 0.0, 0.0],  # exactly one
            [1.0] * 6 + [1.0, 2.0, np.inf, 8.0, 16.0, 32.0],  # infinite term
        ])
        slopes = fit_tail_slope(rows)
        assert slopes[0] == -math.inf
        assert slopes[1] == 0.0
        assert math.isnan(slopes[2])


class TestLevelSums:
    @given(
        st.sampled_from(["bm", "fbm", "martingale"]),
        st.integers(6, 14),
        st.sampled_from([1.0, 2.0, 2.5, 3.0]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_path_definition(self, kind, J, p, seed):
        spec = GeneratorSpec(kind, Grid(0.0, 1.0, J), seed=seed, H=0.8 if kind == "fbm" else None)
        sample = spec.sample()
        path = path_of(sample)
        got = level_sums(sample.increments, J, p)
        for n in range(1, J + 1):
            by_path = raw_level_sum(path, n, p)
            by_definition = float(np.sum(np.abs(increments_of(path, n)) ** p))
            assert got[n - 1] == pytest.approx(by_path, rel=1e-12, abs=0.0)
            assert got[n - 1] == pytest.approx(by_definition, rel=1e-12, abs=0.0)

    def test_bad_shapes(self):
        with pytest.raises(ParameterError):
            level_sums(np.zeros(12), 2, 2.0)
        with pytest.raises(ParameterError):  # a stack whose last axis is not 2^J
            level_sums(np.zeros((2, 12)), 2, 2.0)
        with pytest.raises(ParameterError):  # stacks are 2-d at most
            level_sums(np.zeros((2, 2, 8)), 2, 2.0)
        with pytest.raises(ParameterError):
            level_sums(np.float64(1.0), 1, 2.0)
        with pytest.raises(ResolutionError):
            level_sums(np.zeros(16), 5, 2.0)
        with pytest.raises(ResolutionError):
            level_sums(np.zeros((3, 16)), 5, 2.0)
        with pytest.raises(ParameterError):
            level_sums(np.zeros(16), 0, 2.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 65.0])
    def test_exact_powers_equal_pow(self, p):
        # |x| and x^2 in place of the pow loop, and pow itself at non-integer p and
        # integer p above the squaring range: bit-identical, across subnormals,
        # squares that underflow and squares that overflow to inf
        rng = np.random.default_rng(8)
        y = rng.standard_normal(1 << 16) * np.exp(rng.uniform(-400.0, 400.0, 1 << 16))
        y = np.concatenate([y, [5e-324, -2.5e-310, 2.2250738585072014e-308, 1.5e-162, -1e-160,
                                1.3407807929942596e154, -1.4e154, 1e300, 0.0, -0.0]])
        with np.errstate(over="ignore", under="ignore"):
            want = np.abs(y) ** p
            # one cell of each pair is 0: the level-1 sum is the power of the other
            got = level_sums(np.stack([y, np.zeros_like(y)], axis=1), 1, p)[:, 0]
        a = np.abs(y)
        assert (a > 1.35e154).any()  # squares that overflow
        assert ((a > 1e-162) & (a < 1.49e-154)).any()  # subnormal squares
        assert ((a > 0.0) & (a < np.finfo(float).tiny)).any()  # subnormal inputs
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.parametrize("p", [2.0, 3.0, 1.5, 4.0, 5.0])
    @pytest.mark.parametrize(
        "rows, J, n_levels", [(1, 6, 6), (5, 8, 6), (16, 12, 12), (3, 10, 7), (2, 14, 14)]
    )
    def test_stack_rows_equal_one_row_calls(self, p, rows, J, n_levels):
        # (2, 14, 14): rows longer than the 8192 entries a 2-d einsum sums in one chunk
        spec = GeneratorSpec("fbm", Grid(0.0, 1.0, J), H=0.7)
        stack = np.stack([spec.block_sampler()([[4, i]])[0] for i in range(rows)])
        got = level_sums(stack, n_levels, p)
        assert got.shape == (rows, n_levels)
        for row, x in zip(got, stack):
            assert row.view(np.int64).tolist() == level_sums(x, n_levels, p).view(np.int64).tolist()

    @pytest.mark.parametrize("p", [3.0, 4.0, 5.0, 7.0, 64.0])
    def test_integer_powers_match_pow(self, p):
        # repeated squaring and a dot in place of pow: within 1e-13 relative over
        # zero, subnormal and huge increments (big^p stays finite at every level)
        rng = np.random.default_rng(19)
        N = 1 << 10
        big = 2.0 ** (900.0 / p) / N
        x = rng.standard_normal((5, N))
        x[0, ::3] = 0.0
        x[1, ::4] = rng.choice([5e-324, -2.5e-310, 2.2250738585072014e-308], N // 4)
        x[2, ::16] *= big
        x[3, ::2] = rng.choice([0.0, 5e-324, big, -big], N // 2)
        x[4] = rng.choice([0.0, 5e-324, -1e-310], N)  # every power underflows to 0
        got = level_sums(x, 10, p)
        np.testing.assert_allclose(got, level_sums_by_pow(x, 10, p), rtol=1e-13, atol=0.0)
        assert (got[:4] > 0.0).all() and (got[4] == 0.0).all()
        # inf, NaN, inf - inf at a coarser level, and a power that overflows
        y = np.ones((4, N))
        y[0, 5], y[1, 9], y[2, :2], y[3, 7] = np.inf, np.nan, (np.inf, -np.inf), 2.0 ** (1100.0 / p)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = level_sums(y, 10, p), level_sums_by_pow(y, 10, p)
        assert (~np.isfinite(want)).any(axis=1).all()
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 65.0])
    def test_input_unchanged(self, p):
        # the first power pass of a level below J runs in place: never on the input
        x = GeneratorSpec("bm", Grid(0.0, 1.0, 10), seed=2).block_sampler()([[2, i] for i in range(3)])
        before = x.tobytes()
        x.flags.writeable = False
        for increments in (x, x[1]):
            level_sums(increments, 10, p)
            level_sums(increments, 7, p)
        assert x.tobytes() == before
