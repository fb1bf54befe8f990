import argparse
import hashlib
import json
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from besovlab import (
    Grid,
    GeneratorSpec,
    WeightFn,
    path_of,
)
from besovlab.cli import build_parser
from besovlab.errors import ConfigurationError, ParameterError, ResolutionError
from besovlab import generators
from besovlab.generators import _KINDS, _fgn_autocov, _fgn_circulant, _fgn_embedding
from oracles import bm_p2_law_rows, increments_of


def _fgn_hosking(N: int, H: float, rng: np.random.Generator) -> np.ndarray:
    """Durbin-Levinson sequential synthesis: exact covariance, O(N^2); the oracle."""
    gamma = _fgn_autocov(H, N)
    z = rng.standard_normal(N)
    out = np.empty(N)
    out[0] = math.sqrt(gamma[0]) * z[0]
    phi = np.empty(N)  # phi[:n] = prediction coefficients after step n
    v = gamma[0]
    for n in range(1, N):
        if n == 1:
            kappa = gamma[1] / gamma[0]
            phi[0] = kappa
        else:
            kappa = (gamma[n] - np.dot(phi[: n - 1], gamma[n - 1 : 0 : -1])) / v
            phi[: n - 1] -= kappa * phi[n - 2 :: -1].copy()
            phi[n - 1] = kappa
        v *= 1.0 - kappa * kappa
        mean = np.dot(phi[:n], out[n - 1 :: -1])
        out[n] = mean + math.sqrt(v) * z[n]
    return out


def decimal_autocov(H: float, m: int) -> float:
    """gamma(m) as the second difference of |k|^{2H}, in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        a = 2 * Decimal(H)  # H and 2H are exact in binary
        power = lambda k: Decimal(k) ** a if k else Decimal(0)
        return float((power(m + 1) - 2 * power(m) + power(abs(m - 1))) / 2)


class TestWeightFn:
    def test_descriptor_round_trip(self):
        for w in [
            WeightFn("constant", (2.5,)),
            WeightFn("affine", (1.0, -3.0)),
            WeightFn("sine", (1.0, 2.0, 0.5)),
            WeightFn("indicator", (0.0, 0.5)),
        ]:
            assert WeightFn.from_descriptor(w.descriptor()) == w

    def test_bad_descriptors(self):
        with pytest.raises(ConfigurationError):
            WeightFn("exp", (1.0,))
        with pytest.raises(ConfigurationError):
            WeightFn("constant", (1.0, 2.0))
        with pytest.raises(ConfigurationError):
            WeightFn("indicator", (0.5, 0.1))
        with pytest.raises(ConfigurationError, match="must be finite"):
            WeightFn("constant", (math.nan,))
        with pytest.raises(ConfigurationError):
            WeightFn.from_descriptor("affine:x,y")


class TestBrownian:
    def test_path_starts_at_zero(self):
        path = path_of(GeneratorSpec("bm", Grid(0.0, 1.0, 8)).sample(5))
        assert path.values[0] == 0.0

    def test_increment_variance(self):
        g = Grid(0.0, 1.0, 14)
        inc = GeneratorSpec("bm", g).sample(11).increments
        assert np.var(inc) == pytest.approx(g.dx, rel=0.05)

    def test_seed_determinism(self):
        g = Grid(0.0, 1.0, 10)
        a = GeneratorSpec("bm", g).sample(123).increments
        b = GeneratorSpec("bm", g).sample(123).increments
        assert np.array_equal(a, b)
        assert not np.array_equal(a, GeneratorSpec("bm", g).sample(124).increments)

    def test_kurtosis_gaussian(self):
        g = Grid(0.0, 1.0, 16)
        inc = GeneratorSpec("bm", g).sample(3).increments
        assert stats.kurtosis(inc, fisher=False) == pytest.approx(3.0, abs=0.2)


class TestMartingale:
    def test_unit_weight_matches_bm(self):
        # no weight and the weight 1 are both the Brownian draw, bit for bit, at any level
        g = Grid(0.0, 1.0, 10)
        for level in (10, 6):
            bm = GeneratorSpec("bm", g).block_sampler(level)([77])[0]
            for weight in (None, WeightFn("constant", (1.0,))):
                m = GeneratorSpec("martingale", g, weight=weight).block_sampler(level)([77])[0]
                assert int_rows(m) == int_rows(bm)

    def test_zero_weight(self):
        g = Grid(0.0, 1.0, 8)
        m = GeneratorSpec("martingale", g, weight=WeightFn("constant", (0.0,))).sample(1)
        assert np.all(m.increments == 0.0)

    def test_ito_isometry_midpoint(self):
        # g(s) = s: variance of increment k is about midpoint_k^2 dx
        g = Grid(0.0, 1.0, 6)
        weight = WeightFn("affine", (0.0, 1.0))
        draw = GeneratorSpec("martingale", g, weight=weight).block_sampler()
        draws = np.stack([draw([[9, r]])[0] for r in range(500)])
        target = g.midpoints() ** 2 * g.dx
        observed = draws.var(axis=0)
        # aggregate over cells: per-cell MC error at 500 replicates is ~6%
        assert observed[8:].mean() == pytest.approx(target[8:].mean(), rel=0.10)


class TestFgn:
    def test_h_half_uncorrelated(self):
        g = Grid(0.0, 1.0, 14)
        x = GeneratorSpec("fbm", g, H=0.5).block_sampler()([21])[0]
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r1) < 3.0 / np.sqrt(len(x))

    def test_h075_lag1_autocorr(self):
        g = Grid(0.0, 1.0, 14)
        x = GeneratorSpec("fbm", g, H=0.75).block_sampler()([22])[0]
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert r1 == pytest.approx(2.0**1.5 / 2.0 - 1.0, abs=0.05)

    def test_seed_determinism(self):
        g = Grid(0.0, 1.0, 12)
        spec = GeneratorSpec("fbm", g, H=0.7)
        assert np.array_equal(spec.block_sampler()([5])[0], spec.block_sampler()([5])[0])

    def test_invalid_hurst(self):
        g = Grid(0.0, 1.0, 8)
        for H in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ParameterError):
                GeneratorSpec("fbm", g, H=H)

    def test_hosking_matches_target_covariance(self):
        # the test oracle, exercised directly
        rng = np.random.default_rng(0)
        draws = np.stack([_fgn_hosking(64, 0.75, rng) for _ in range(400)])
        gamma = _fgn_autocov(0.75, 3)
        emp0 = (draws * draws).mean()
        emp1 = (draws[:, :-1] * draws[:, 1:]).mean()
        assert emp0 == pytest.approx(gamma[0], rel=0.05)
        assert emp1 == pytest.approx(gamma[1], rel=0.10)

    @pytest.mark.parametrize("H", [0.1, 0.3, 0.5, 0.75, 0.9, 0.999])
    def test_autocov_matches_decimal_second_difference(self, H):
        # lags on both sides of the series threshold (4) and of 64, where the
        # direct formula loses about eps * m^2 by cancellation
        lags = [0, 1, 2, 3, 4, 5, 10, 63, 64, 65, 1000, 2**20]
        got = _fgn_autocov(H, lags[-1] + 1)[lags]
        for m, value in zip(lags, got):
            ref = decimal_autocov(H, m)
            assert abs(value - ref) <= 1e-13 * abs(ref), (m, value, ref)

    def test_autocov_h_half_is_white(self):
        gamma = _fgn_autocov(0.5, 200)
        assert gamma[0] == 1.0 and np.all(gamma[1:] == 0.0)

    @pytest.mark.parametrize("J, H", [(18, 0.999), (20, 0.96), (22, 0.9)])
    def test_embedding_nonnegative_at_large_grids(self, J, H):
        # with the direct second difference for gamma these eigenvalues go
        # negative by more than 1e-10 of the largest, from cancellation alone
        root = _fgn_embedding(1 << J, H)
        assert len(root) == (1 << J) + 1
        assert np.all(root >= 0.0) and np.all(np.isfinite(root))

    def test_wfbm_draw_at_j22_is_finite(self):
        spec = GeneratorSpec(
            "wfbm", Grid(0.0, 1.0, 22), H=0.9, weight=WeightFn("sine", (1.0, 2.0, 0.3))
        )
        assert np.all(np.isfinite(spec.block_sampler()([5])[0]))

    def test_invalid_covariance_raises(self, monkeypatch):
        # |gamma(1)| > gamma(0) is no covariance: eigenvalue 1 + 3 cos(theta) < 0
        def invalid(H, n_lags):
            gamma = np.zeros(n_lags)
            gamma[:2] = 1.0, 1.5
            return gamma

        monkeypatch.setattr(generators, "_fgn_autocov", invalid)
        with pytest.raises(ParameterError, match="roundoff tolerance"):
            GeneratorSpec("fbm", Grid(0.0, 1.0, 8), H=0.7).block_sampler()([0])[0]

    def test_self_similarity_variance_scaling(self):
        # level-n increment variance of fBm scales as 2^{-2Hn}
        H = 0.7
        g = Grid(0.0, 1.0, 12)
        paths = [
            path_of(GeneratorSpec("fbm", g, H=H).sample(seed=[4, r]))
            for r in range(200)
        ]
        for n in (4, 6):
            v = np.mean([np.mean(increments_of(p, n) ** 2) for p in paths])
            assert v == pytest.approx(2.0 ** (-2 * H * n), rel=0.10)

    def test_max_increment_shrinks_with_resolution(self):
        # continuity proxy backing the continuous-paths hypothesis
        sup = []
        for J in (8, 12, 16):
            inc = GeneratorSpec("bm", Grid(0.0, 1.0, J)).sample(13).increments
            sup.append(np.abs(inc).max())
        assert sup[2] < sup[1] < sup[0]


class TestWeightedFbmMeasure:
    def test_requires_h_above_half(self):
        g = Grid(0.0, 1.0, 8)
        for H in (0.4, 0.5):
            with pytest.raises(ParameterError):
                GeneratorSpec("wfbm", g, H=H, weight=WeightFn("constant", (1.0,)))

    def test_refused_above_one_when_built(self):
        # the range is checked with the spec, not first when block_sampler() is called
        with pytest.raises(ParameterError, match=r"H in \(0.5, 1\)"):
            GeneratorSpec("wfbm", Grid(0, 1, 8), H=1.5)

    def test_unit_weight_endpoint_variance(self):
        # f == 1: path is fBm, Var mu(b) ~ (b-a)^{2H}
        g = Grid(0.0, 1.0, 10)
        H = 0.75
        spec = GeneratorSpec("wfbm", g, H=H, weight=WeightFn("constant", (1.0,)))
        ends = [path_of(spec.sample([6, r])).values[-1] for r in range(500)]
        assert np.var(ends) == pytest.approx(1.0, rel=0.10)

    def test_zero_weight(self):
        g = Grid(0.0, 1.0, 8)
        m = GeneratorSpec("wfbm", g, H=0.8, weight=WeightFn("constant", (0.0,))).sample(1)
        assert np.all(m.increments == 0.0)

    def test_indicator_restricts_support(self):
        g = Grid(0.0, 1.0, 8)
        m = GeneratorSpec("wfbm", g, H=0.8, weight=WeightFn("indicator", (0.0, 0.5))).sample(1)
        assert np.all(m.increments[128:] == 0.0)
        assert np.any(m.increments[:128] != 0.0)


class TestGeneratorSpec:
    def test_dict_round_trip(self):
        spec = GeneratorSpec(
            "wfbm", Grid(0.0, 2.0, 9), seed=17, H=0.8, weight=WeightFn("sine", (1, 1, 0))
        )
        assert GeneratorSpec.from_dict(spec.to_dict()) == spec

    def test_missing_hurst(self):
        with pytest.raises(ConfigurationError):
            GeneratorSpec("fbm", Grid(0.0, 1.0, 8))

    def test_unknown_kind_and_missing_field(self):
        with pytest.raises(ConfigurationError, match="unknown generator kind 'nope'"):
            GeneratorSpec("nope", Grid(0.0, 1.0, 8))
        with pytest.raises(ConfigurationError, match="generator spec missing field 'a'"):
            GeneratorSpec.from_dict({"kind": "bm"})

    @pytest.mark.parametrize("kind", [k for k, row in _KINDS.items() if row.hurst is None])
    def test_hurst_only_for_fractional_kinds(self, kind):
        with pytest.raises(ConfigurationError, match="no Hurst index"):
            GeneratorSpec(kind, Grid(0.0, 1.0, 8), H=0.3)

    @pytest.mark.parametrize(
        "kind, H",
        [(k, 0.7 if row.hurst else None) for k, row in _KINDS.items() if not row.weighted],
    )
    def test_weight_only_for_weighted_kinds(self, kind, H):
        with pytest.raises(ConfigurationError, match="no weight"):
            GeneratorSpec(kind, Grid(0.0, 1.0, 8), H=H, weight=WeightFn("sine", (1, 3, 0)))

    @pytest.mark.parametrize("kind", GeneratorSpec.KINDS)
    def test_every_kind_round_trips_and_is_a_cli_process(self, kind):
        spec = spec_of(kind, 9, 0.7)
        assert GeneratorSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
        assert process_choices() == {"generate": tuple(_KINDS), "lemma": tuple(_KINDS)}

    def test_linear_stub(self):
        path = path_of(GeneratorSpec("linear", Grid(0.0, 1.0, 6)).sample())
        np.testing.assert_allclose(path.values, Grid(0.0, 1.0, 6).points(), atol=1e-15)


def circulant_fgn_reference(root, rng):
    """Davies-Harte draw from the full 2N-point spectrum by one complex ifft."""
    N = len(root) - 1
    Z = np.zeros(2 * N, dtype=complex)
    Z[0] = rng.standard_normal()
    Z[N] = rng.standard_normal()
    V = rng.standard_normal((N - 1, 2))
    Z[1:N] = (V[:, 0] + 1j * V[:, 1]) / math.sqrt(2.0)
    Z[N + 1:] = np.conj(Z[1:N][::-1])
    full = np.concatenate([root, root[-2:0:-1]])
    return np.sqrt(2 * N) * np.fft.ifft(full * Z).real[:N]


def spec_of(kind, J, H):
    """A spec of `kind` with every field its row of the table takes."""
    row = _KINDS[kind]
    weight = WeightFn("sine", (1.5, 2.0, 0.3)) if row.weighted else None
    return GeneratorSpec(kind, Grid(-0.5, 1.5, J), seed=3, H=H if row.hurst else None,
                         weight=weight)


def process_choices():
    """Subcommand -> the choices of its --process flag."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: tuple(action.choices)
        for name, p in sub.choices.items()
        for action in p._actions
        if "--process" in action.option_strings
    }


class TestSampler:
    @given(
        st.sampled_from(GeneratorSpec.KINDS),
        st.integers(1, 12),
        st.floats(0.55, 0.95),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_draws_equal_sample(self, kind, J, H, seed):
        spec = spec_of(kind, J, H)
        draw = spec.block_sampler()
        got = draw([seed])[0]
        assert np.array_equal(got, spec.sample(seed).increments)
        assert np.array_equal(draw([seed])[0], got)  # a sampler holds no draw state
        assert np.array_equal(spec.block_sampler(J)([seed])[0], got)  # level J is the finest draw

    @pytest.mark.parametrize("H", [0.2, 0.5, 0.75, 0.95])
    def test_circulant_matches_one_piece_reference(self, H):
        # the half-spectrum irfft against the mirrored complex ifft, same eigenvalues
        g = Grid(0.0, 1.0, 11)
        root = _fgn_embedding(g.n_cells, H)
        for seed in ([1, 0], [1, 1], 77):
            expected = circulant_fgn_reference(root, np.random.default_rng(seed))
            got = GeneratorSpec("fbm", g, H=H).block_sampler()([seed])[0] / g.dx**H
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("H", [0.3, 0.75, 0.95])
    def test_circulant_covariance_matches_autocov_and_hosking(self, H):
        N, reps = 64, 1000
        root = _fgn_embedding(N, H)
        rng = np.random.default_rng(11)
        circ = _fgn_circulant(root, [rng] * reps)  # rows drawn one after another from rng
        hosk = np.stack([_fgn_hosking(N, H, rng) for _ in range(reps)])
        gamma = _fgn_autocov(H, 4)
        for lag in range(4):
            # per-draw lag products: draws are independent, a draw's cells are not
            c = (circ[:, : N - lag] * circ[:, lag:]).mean(axis=1)
            h = (hosk[:, : N - lag] * hosk[:, lag:]).mean(axis=1)
            se_c, se_h = c.std() / math.sqrt(reps), h.std() / math.sqrt(reps)
            assert abs(c.mean() - gamma[lag]) <= 4.0 * se_c
            assert abs(c.mean() - h.mean()) <= 4.0 * math.hypot(se_c, se_h)


def int_rows(x):
    return np.asarray(x).view(np.int64).tolist()


class TestBlockDraw:
    # sha256 of GeneratorSpec("fbm", Grid(0, 1, 12), seed=2024, H=H).sample().increments,
    # drawn one seed at a time before draws were made in blocks
    FBM_DIGESTS = {
        0.3: "021a2b6e084a50821dec171752e11d1c4a67adebc04ab840ccb381b45aaf8310",
        0.75: "f284aca2e46ff81f4a32d522103fa1d7160f2c31e5c51498eb46293dbe4f3970",
    }

    @given(
        st.sampled_from(GeneratorSpec.KINDS),
        st.data(),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=17),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_rows_are_the_single_draws(self, kind, data, roots):
        J = data.draw(st.integers(6, 11), label="J")
        # weighted fBm has no coarse law: it draws at level J only
        level = J if kind == "wfbm" else data.draw(st.integers(6, J), label="level")
        spec = spec_of(kind, J, 0.75 if kind == "wfbm" else 0.3)
        seeds = [[root, i] for i, root in enumerate(roots)]
        block = spec.block_sampler(level)(seeds)
        assert block.shape == (len(seeds), 2**level)
        draw = spec.block_sampler(level)
        for row, seed in zip(block, seeds):
            assert int_rows(row) == int_rows(draw([seed])[0])

    @given(st.integers(6, 14), st.integers(0, 2**32 - 1), st.integers(0, 700),
           st.integers(0, 700))
    @settings(max_examples=30, deadline=None)
    def test_law_rows_are_the_single_draws(self, n_levels, seed, a, b):
        # replicate i is row i mod 256 of the chi-square stack i div 256 on stream
        # [seed, i div 256, 2], in any block [start, stop) and drawn alone
        start, stop = sorted((a, b))
        spec = GeneratorSpec("bm", Grid(-1.0, 2.0, 14), seed=seed)
        law = spec.level_sum_rows(n_levels, 2.0)
        block = np.empty((stop - start, n_levels))
        law(block, start)
        want = bm_p2_law_rows(spec, n_levels, stop)[start:]
        assert int_rows(block) == int_rows(want)
        for i in {start, (start + stop) // 2, stop - 1} if stop > start else ():
            alone = np.empty((1, n_levels))
            law(alone, i)
            assert int_rows(alone[0]) == int_rows(want[i - start])

    @pytest.mark.parametrize("H", sorted(FBM_DIGESTS))
    def test_fbm_sample_keeps_its_bits(self, H):
        sample = GeneratorSpec("fbm", Grid(0.0, 1.0, 12), seed=2024, H=H).sample()
        assert hashlib.sha256(sample.increments.tobytes()).hexdigest() == self.FBM_DIGESTS[H]

    def test_fgn_draw_memory(self):
        # one allocation holds the half spectrum (2N + 2 floats) and the irfft
        # output (2N): normals and scaling are written in place.  The
        # embedding's N + 1 roots belong to the sampler, built before tracing.
        N = 2**16
        draw = GeneratorSpec("fbm", Grid(0.0, 1.0, 16), H=0.75).block_sampler()
        tracemalloc.start()
        try:
            draw([5])[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * N

    def test_fgn_embedding_memory(self):
        # the autocovariance's series is summed in place and the embedding drops
        # each array once used: the rfft's 2N-point input and output are the peak
        N = 2**16
        tracemalloc.start()
        try:
            GeneratorSpec("fbm", Grid(0.0, 1.0, 16), H=0.75).block_sampler()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 8 * N


class TestCoarseSampler:
    J, LEVEL, SEED = 9, 5, [8, 2]

    def coarse_and_summed(self, kind, H=None):
        spec = spec_of(kind, self.J, H)
        coarse = spec.block_sampler(self.LEVEL)([self.SEED])[0]
        summed = level_cells(spec.block_sampler()([self.SEED])[0], self.LEVEL)
        assert coarse.shape == summed.shape == (2**self.LEVEL,)
        return spec, coarse, summed

    @pytest.mark.parametrize("kind, H", [("bm", None), ("fbm", 0.3), ("fbm", 0.75)])
    def test_unweighted_draw_is_the_kind_on_the_coarse_grid(self, kind, H):
        # BM: i.i.d. N(0, 2^-level (b - a)); fGn: Davies-Harte at N = 2^level
        spec, coarse, _ = self.coarse_and_summed(kind, H)
        on_coarse_grid = GeneratorSpec(kind, Grid(spec.grid.a, spec.grid.b, self.LEVEL), H=H)
        assert np.array_equal(coarse, on_coarse_grid.block_sampler()([self.SEED])[0])

    def test_martingale_variance_is_the_block_sum_of_squared_weights(self):
        spec, coarse, _ = self.coarse_and_summed("martingale")
        on_coarse_grid = GeneratorSpec("bm", Grid(spec.grid.a, spec.grid.b, self.LEVEL))
        unit = on_coarse_grid.block_sampler()([self.SEED])[0]
        g = spec.weight(spec.grid.midpoints()).reshape(2**self.LEVEL, -1)
        # (coarse / unit)^2 dx_coarse = dx sum_k g(mid_k)^2 over each block of finest cells
        coarse_dx = spec.grid.dx * 2 ** (self.J - self.LEVEL)
        np.testing.assert_allclose((coarse / unit) ** 2 * coarse_dx,
                                   spec.grid.dx * np.sum(g * g, axis=1), rtol=1e-14)

    @pytest.mark.parametrize("kind", ["linear"])
    def test_coarse_draw_is_the_fine_draw_summed(self, kind):
        # the ramp's sums are exact
        _, coarse, summed = self.coarse_and_summed(kind)
        assert coarse.view(np.int64).tolist() == summed.view(np.int64).tolist()

    def test_wfbm_refuses_a_coarse_level(self):
        # weighted fBm has no coarse law; a sweep sums its 2^J-cell draw instead
        spec = spec_of("wfbm", self.J, 0.75)
        for level in (1, self.LEVEL, self.J - 1):
            with pytest.raises(ResolutionError, match=f"no coarse law: level {level} < J=9"):
                spec.block_sampler(level)
        assert spec.block_sampler(self.J)([self.SEED]).shape == (1, 2**self.J)

    @pytest.mark.parametrize("kind", GeneratorSpec.KINDS)
    @pytest.mark.parametrize("level", [0, -1, 10])
    def test_level_outside_the_grid_refused(self, kind, level):
        with pytest.raises(ResolutionError, match="level"):
            spec_of(kind, self.J, 0.75).block_sampler(level)

    def test_block_rms_does_not_overflow(self):
        g = np.array([1e200, -1e200, 1e200, 1e200, 3e300, 0.0, -4e300, 0.0, 0.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(generators._block_rms(g, 4), [1e200, 2.5e300, 0.0], rtol=1e-15)


def level_cells(cells, level):
    """The finest draw summed pairwise up to `level`, as the level sums see it."""
    while len(cells) > 2**level:
        cells = cells[0::2] + cells[1::2]
    return cells
