import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from besovlab import (
    Grid,
    GeneratorSpec,
    WeightFn,
    generate_bm,
    generate_fgn,
    generate_martingale,
    generate_weighted_fbm_measure,
    increments_of,
    path_of,
)
from besovlab.errors import ConfigurationError, ParameterError
from besovlab import generators
from besovlab.generators import _fgn_autocov, _fgn_hosking


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
        with pytest.raises(ConfigurationError):
            WeightFn.from_descriptor("affine:x,y")


class TestBrownian:
    def test_path_starts_at_zero(self):
        path = path_of(generate_bm(Grid(0.0, 1.0, 8), 5))
        assert path.values[0] == 0.0

    def test_increment_variance(self):
        g = Grid(0.0, 1.0, 14)
        inc = generate_bm(g, 11).increments
        assert np.var(inc) == pytest.approx(g.dx, rel=0.05)

    def test_seed_determinism(self):
        g = Grid(0.0, 1.0, 10)
        a = generate_bm(g, 123).increments
        b = generate_bm(g, 123).increments
        assert np.array_equal(a, b)
        assert not np.array_equal(a, generate_bm(g, 124).increments)

    def test_kurtosis_gaussian(self):
        g = Grid(0.0, 1.0, 16)
        inc = generate_bm(g, 3).increments
        assert stats.kurtosis(inc, fisher=False) == pytest.approx(3.0, abs=0.2)


class TestMartingale:
    def test_unit_weight_matches_bm(self):
        g = Grid(0.0, 1.0, 10)
        m = generate_martingale(g, WeightFn.one(), 77)
        assert np.array_equal(m.increments, generate_bm(g, 77).increments)

    def test_zero_weight(self):
        g = Grid(0.0, 1.0, 8)
        m = generate_martingale(g, WeightFn("constant", (0.0,)), 1)
        assert np.all(m.increments == 0.0)

    def test_ito_isometry_midpoint(self):
        # g(s) = s: variance of increment k is about midpoint_k^2 dx
        g = Grid(0.0, 1.0, 6)
        weight = WeightFn("affine", (0.0, 1.0))
        draws = np.stack(
            [generate_martingale(g, weight, [9, r]).increments for r in range(500)]
        )
        target = g.midpoints() ** 2 * g.dx
        observed = draws.var(axis=0)
        # aggregate over cells: per-cell MC error at 500 replicates is ~6%
        assert observed[8:].mean() == pytest.approx(target[8:].mean(), rel=0.10)


class TestFgn:
    def test_h_half_uncorrelated(self):
        g = Grid(0.0, 1.0, 14)
        x = generate_fgn(g, 0.5, 21)
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r1) < 3.0 / np.sqrt(len(x))

    def test_h075_lag1_autocorr(self):
        g = Grid(0.0, 1.0, 14)
        x = generate_fgn(g, 0.75, 22)
        r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert r1 == pytest.approx(2.0**1.5 / 2.0 - 1.0, abs=0.05)

    def test_seed_determinism(self):
        g = Grid(0.0, 1.0, 12)
        assert np.array_equal(generate_fgn(g, 0.7, 5), generate_fgn(g, 0.7, 5))

    def test_invalid_hurst(self):
        g = Grid(0.0, 1.0, 8)
        for H in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ParameterError):
                generate_fgn(g, H, 0)

    def test_hosking_matches_target_covariance(self):
        # sequential fallback, exercised directly
        rng = np.random.default_rng(0)
        draws = np.stack([_fgn_hosking(64, 0.75, rng) for _ in range(400)])
        gamma = _fgn_autocov(0.75, 3)
        emp0 = (draws * draws).mean()
        emp1 = (draws[:, :-1] * draws[:, 1:]).mean()
        assert emp0 == pytest.approx(gamma[0], rel=0.05)
        assert emp1 == pytest.approx(gamma[1], rel=0.10)

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
            inc = generate_bm(Grid(0.0, 1.0, J), 13).increments
            sup.append(np.abs(inc).max())
        assert sup[2] < sup[1] < sup[0]


class TestWeightedFbmMeasure:
    def test_requires_h_above_half(self):
        g = Grid(0.0, 1.0, 8)
        with pytest.raises(ParameterError):
            generate_weighted_fbm_measure(g, WeightFn.one(), 0.4, 0)
        with pytest.raises(ParameterError):
            GeneratorSpec("wfbm", g, H=0.5)

    def test_unit_weight_endpoint_variance(self):
        # f == 1: path is fBm, Var mu(b) ~ (b-a)^{2H}
        g = Grid(0.0, 1.0, 10)
        H = 0.75
        ends = [
            path_of(generate_weighted_fbm_measure(g, WeightFn.one(), H, [6, r])).values[-1]
            for r in range(500)
        ]
        assert np.var(ends) == pytest.approx(1.0, rel=0.10)

    def test_zero_weight(self):
        g = Grid(0.0, 1.0, 8)
        m = generate_weighted_fbm_measure(g, WeightFn("constant", (0.0,)), 0.8, 1)
        assert np.all(m.increments == 0.0)

    def test_indicator_restricts_support(self):
        g = Grid(0.0, 1.0, 8)
        m = generate_weighted_fbm_measure(g, WeightFn("indicator", (0.0, 0.5)), 0.8, 1)
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

    def test_linear_stub(self):
        path = path_of(GeneratorSpec("linear", Grid(0.0, 1.0, 6)).sample())
        np.testing.assert_allclose(path.values, Grid(0.0, 1.0, 6).points(), atol=1e-15)


def circulant_fgn_reference(N, H, rng):
    """Davies-Harte draw in one piece, eigenvalues included, with complex arithmetic."""
    c = _fgn_autocov(H, N + 1)
    row = np.concatenate([c, c[-2:0:-1]])
    eig = np.clip(np.fft.fft(row).real, 0.0, None)
    Z = np.zeros(2 * N, dtype=complex)
    Z[0] = rng.standard_normal()
    Z[N] = rng.standard_normal()
    V = rng.standard_normal((N - 1, 2))
    Z[1:N] = (V[:, 0] + 1j * V[:, 1]) / math.sqrt(2.0)
    Z[N + 1:] = np.conj(Z[1:N][::-1])
    return np.sqrt(2 * N) * np.fft.ifft(np.sqrt(eig) * Z).real[:N]


def spec_of(kind, J, H):
    grid = Grid(-0.5, 1.5, J)
    weight = WeightFn("sine", (1.5, 2.0, 0.3)) if kind in ("martingale", "wfbm") else None
    return GeneratorSpec(kind, grid, seed=3, H=H if kind in ("fbm", "wfbm") else None,
                         weight=weight)


class TestSampler:
    @given(
        st.sampled_from(GeneratorSpec.KINDS),
        st.integers(1, 12),
        st.floats(0.55, 0.95),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=2),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_draws_equal_sample(self, kind, J, H, seed, force_hosking):
        spec = spec_of(kind, min(J, 8) if force_hosking else J, H)
        with pytest.MonkeyPatch.context() as mp:
            if force_hosking:
                mp.setattr(generators, "_fgn_embedding", lambda N, H: None)
            draw = spec.sampler()
            got = draw(seed)
            assert np.array_equal(got, spec.sample(seed).increments)
            assert np.array_equal(draw(seed), got)  # a sampler holds no draw state
            if kind == "fbm" and force_hosking:
                direct = _fgn_hosking(spec.grid.n_cells, H, np.random.default_rng(seed))
                assert np.array_equal(got, direct * spec.grid.dx**H)

    @pytest.mark.parametrize("H", [0.2, 0.5, 0.75, 0.95])
    def test_circulant_matches_one_piece_reference(self, H):
        g = Grid(0.0, 1.0, 11)
        for seed in ([1, 0], [1, 1], 77):
            expected = circulant_fgn_reference(g.n_cells, H, np.random.default_rng(seed))
            assert np.array_equal(generate_fgn(g, H, seed), expected * g.dx**H)
