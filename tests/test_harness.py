import json

import numpy as np
import pytest

from besovlab import (
    BesovParams,
    ExperimentConfig,
    Grid,
    GeneratorSpec,
    run_alpha_sweep,
    run_besov_profile,
)
from besovlab.criterion import raw_level_sum, series_from_raw
from besovlab.errors import ConfigurationError
from besovlab.generators import generate_bm
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


class TestBesovProfile:
    def test_constant_stub_zero(self):
        # linear stub rescaled to zero increments: constant path
        cfg = bm_config(
            generator=GeneratorSpec("linear", Grid(0.0, 1.0, 8)),
            n_levels=6,
            replicates=2,
        )
        # linear stub is a ramp, not constant: its seminorm is positive but
        # identical across replicates
        rows = run_besov_profile(cfg, [BesovParams(0.3, 2.0, 2.0)])
        assert rows[0].iqr_seminorm == pytest.approx(0.0, abs=1e-12)
        assert rows[0].median_seminorm > 0.0

    def test_bm_profile_finite(self):
        cfg = bm_config(
            generator=GeneratorSpec("bm", Grid(0.0, 1.0, 8), seed=5),
            n_levels=6,
            replicates=4,
        )
        rows = run_besov_profile(
            cfg, [BesovParams(0.3, 2.0, 2.0), BesovParams(0.45, 2.0, 2.0)]
        )
        assert all(np.isfinite(r.median_seminorm) for r in rows)
        # heavier singularity weight at larger alpha: seminorm grows
        assert rows[1].median_seminorm > rows[0].median_seminorm
