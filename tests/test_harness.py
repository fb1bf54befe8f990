import json

import numpy as np
import pytest

from besovlab import (
    ExperimentConfig,
    Grid,
    GeneratorSpec,
    WeightFn,
    run_alpha_sweep,
)
from besovlab.criterion import raw_level_sum, series_from_raw
from besovlab.errors import ConfigurationError, ParameterError
from besovlab.harness import _raw_level_sums
from besovlab.paths import path_of


def bm_config(**kw):
    defaults = dict(
        generator=GeneratorSpec("bm", Grid(0.0, 1.0, 10), seed=101),
        p=2.0,
        alpha_grid=(0.3, 0.4, 0.5, 0.6, 0.7),
        n_levels=8,
        replicates=10,
        workers=1,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_json_round_trip(self):
        cfg = bm_config()
        again = ExperimentConfig.from_json(json.dumps(cfg.to_dict()))
        assert again == cfg

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            bm_config(alpha_grid=(0.5, 0.4))
        with pytest.raises(ConfigurationError):
            bm_config(alpha_grid=())
        with pytest.raises(ConfigurationError):
            bm_config(replicates=0)
        with pytest.raises(ConfigurationError):
            bm_config(n_levels=11)
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_json("{nope")

    @pytest.mark.parametrize("p", [float("nan"), float("inf"), 0.5, 0.0, -2.0])
    def test_bad_p_rejected_up_front(self, p):
        with pytest.raises(ConfigurationError):
            bm_config(p=p)

    def test_schema_version_checked(self):
        d = bm_config().to_dict()
        d["schema_version"] = 99
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict(d)


class TestAlphaSweep:
    def test_fractions_sum_to_one(self):
        report = run_alpha_sweep(bm_config())
        for row in report.rows:
            assert row.frac_converges + row.frac_diverges + row.frac_inconclusive == 1.0

    def test_single_replicate_deterministic(self):
        cfg = bm_config(replicates=1)
        r1 = run_alpha_sweep(cfg)
        r2 = run_alpha_sweep(cfg)
        assert r1.rows == r2.rows
        assert r1.critical_alpha == r2.critical_alpha

    def test_linear_stub_all_converge(self):
        cfg = bm_config(
            generator=GeneratorSpec("linear", Grid(0.0, 1.0, 10)),
            replicates=3,
            alpha_grid=(0.2, 0.4, 0.6, 0.8),
        )
        report = run_alpha_sweep(cfg)
        assert all(row.frac_converges == 1.0 for row in report.rows)
        assert report.critical_alpha is None

    def test_bm_critical_alpha_near_half(self):
        cfg = bm_config(
            generator=GeneratorSpec("bm", Grid(0.0, 1.0, 12), seed=7),
            n_levels=10,
            replicates=30,
        )
        report = run_alpha_sweep(cfg)
        assert report.critical_alpha == pytest.approx(0.5, abs=0.06)

    def test_slope_alpha_shift_identity(self):
        # slope(alpha2) - slope(alpha1) = p (alpha2 - alpha1), per replicate
        cfg = bm_config(replicates=5, alpha_grid=(0.3, 0.45))
        path = path_of(cfg.generator.sample(seed=[cfg.generator.seed, 0]))
        raw = [raw_level_sum(path, n, cfg.p) for n in range(1, cfg.n_levels + 1)]
        s1 = series_from_raw(raw, 0.3, cfg.p).fitted_log2_slope
        s2 = series_from_raw(raw, 0.45, cfg.p).fitted_log2_slope
        assert s2 - s1 == pytest.approx(cfg.p * 0.15, abs=1e-9)

    def test_median_slope_nondecreasing_in_alpha(self):
        report = run_alpha_sweep(bm_config())
        slopes = [row.median_slope for row in report.rows]
        assert all(b >= a - 1e-12 for a, b in zip(slopes, slopes[1:]))

    def test_worker_counts_agree(self):
        cfg1 = bm_config(replicates=6, workers=1)
        cfg4 = bm_config(replicates=6, workers=4)
        r1 = run_alpha_sweep(cfg1)
        r4 = run_alpha_sweep(cfg4)
        assert r1.rows == r4.rows

    def test_csv_has_expected_columns(self):
        report = run_alpha_sweep(bm_config(replicates=2))
        lines = report.to_csv().splitlines()
        assert lines[0] == "alpha,median_slope,frac_conv,frac_div,frac_inc"
        assert len(lines) == 1 + len(report.rows)


SPLIT_SPECS = {
    "bm": GeneratorSpec("bm", Grid(0.0, 1.0, 10), seed=101),
    "fbm": GeneratorSpec("fbm", Grid(0.0, 1.0, 10), seed=102, H=0.7),
    "martingale": GeneratorSpec(
        "martingale", Grid(0.0, 1.0, 10), seed=103, weight=WeightFn("affine", (1.0, 2.0))
    ),
}


class TestWorkerBlocks:
    @pytest.mark.parametrize("kind", sorted(SPLIT_SPECS))
    @pytest.mark.parametrize("replicates, worker_counts", [(7, (1, 2, 3)), (2, (1, 4))])
    def test_rows_independent_of_split(self, kind, replicates, worker_counts):
        configs = [
            bm_config(generator=SPLIT_SPECS[kind], replicates=replicates, workers=w)
            for w in worker_counts
        ]
        raws = [_raw_level_sums(cfg) for cfg in configs]
        for raw in raws:
            assert raw.shape == (replicates, 8)
            assert raw.tobytes() == raws[0].tobytes()
        reports = [run_alpha_sweep(cfg) for cfg in configs]
        assert all(r.rows == reports[0].rows for r in reports)

    def test_row_is_the_replicate_own_draw(self):
        cfg = bm_config(generator=SPLIT_SPECS["fbm"], replicates=3, workers=2)
        raw = _raw_level_sums(cfg)
        for i in range(3):
            path = path_of(cfg.generator.sample(seed=[cfg.generator.seed, i]))
            expected = [raw_level_sum(path, n, cfg.p) for n in range(1, cfg.n_levels + 1)]
            np.testing.assert_allclose(raw[i], expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflowing_level_sums_refused(self, workers):
        cfg = bm_config(
            generator=GeneratorSpec(
                "martingale", Grid(0.0, 1.0, 8), seed=1,
                weight=WeightFn.from_descriptor("constant:1e300"),
            ),
            n_levels=6,
            replicates=3,
            workers=workers,
        )
        with np.errstate(over="ignore"), pytest.raises(ParameterError, match="non-finite"):
            run_alpha_sweep(cfg)
