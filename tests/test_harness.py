import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from besovlab import (
    ExperimentConfig,
    Grid,
    GeneratorSpec,
    WeightFn,
    run_alpha_sweep,
)
from besovlab import kamont_series
from besovlab.criterion import (
    MIN_LEVELS,
    SLOPE_THRESHOLD,
    Verdict,
    level_sums,
    series_from_raw,
    tail_exponent,
)
from besovlab.errors import ConfigurationError
from besovlab import generators, harness
from besovlab.harness import _raw_level_sums
from besovlab.paths import StochasticMeasureSample, path_of
from oracles import bm_p2_law_rows, fold_per_alpha, raw_level_sum, slope_at, verdict_code


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

    @pytest.mark.parametrize("n_levels", [-1, 0, 1, 2, MIN_LEVELS - 1])
    def test_too_few_levels_refused(self, n_levels):
        # the tail fit needs MIN_LEVELS levels, as in kamont_series; fewer gave a
        # single tail level (inconclusive at every alpha) or a negative array size
        with pytest.raises(ConfigurationError, match="n_levels"):
            bm_config(n_levels=n_levels)
        d = bm_config().to_dict()
        d["n_levels"] = n_levels
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict(d)

    def test_schema_version_checked(self):
        d = bm_config().to_dict()
        d["schema_version"] = 99
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "field, value",
        [("J", 10.9), ("J", True), ("seed", 2.5), ("seed", True), ("a", False), ("b", True),
         ("n_levels", 8.9), ("n_levels", True), ("replicates", 2.7), ("replicates", True),
         ("workers", 1.5), ("workers", True), ("p", True), ("alpha_grid", [0.3, True]),
         ("schema_version", True), ("J", "10")],
    )
    def test_truncating_values_refused(self, field, value):
        # int() and float() would load these as J = 10, seed 1, p = 1.0, ...
        d = bm_config().to_dict()
        (d["generator"] if field in d["generator"] else d)[field] = value
        with pytest.raises(ConfigurationError, match=field):
            ExperimentConfig.from_dict(d)

    def test_integral_floats_accepted(self):
        d = bm_config().to_dict()
        d["generator"]["J"], d["n_levels"], d["replicates"], d["workers"] = 10.0, 8.0, 10.0, 1.0
        assert ExperimentConfig.from_dict(d) == bm_config()


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
        # slope(alpha2) - slope(alpha1) = p (alpha2 - alpha1), per replicate; near the
        # zero floor too, since the floor masks the raw sums, which ignore alpha
        for generator in (bm_config().generator, NEAR_FLOOR):
            cfg = bm_config(generator=generator, replicates=5, alpha_grid=(0.3, 0.45))
            fitted = 0
            for i in range(cfg.replicates):
                path = path_of(cfg.generator.sample(seed=[cfg.generator.seed, i]))
                raw = [raw_level_sum(path, n, cfg.p) for n in range(1, cfg.n_levels + 1)]
                s1 = series_from_raw(raw, 0.3, cfg.p).fitted_log2_slope
                s2 = series_from_raw(raw, 0.45, cfg.p).fitted_log2_slope
                s, one_level = tail_exponent([raw])
                if one_level[0]:  # a single positive tail level reads 0.0 at every alpha
                    assert s1 == s2 == 0.0
                elif s[0] == -math.inf:  # none: -inf at every alpha
                    assert s1 == s2 == -math.inf
                else:
                    assert s2 - s1 == pytest.approx(cfg.p * 0.15, abs=1e-9)
                    fitted += 1
            assert fitted >= 2

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


# raw level sums within a factor of a few of criterion._ZERO_FLOOR, the smallest normal double
NEAR_FLOOR = GeneratorSpec(
    "martingale", Grid(0.0, 1.0, 10), seed=5, weight=WeightFn.from_descriptor("constant:1.5e-154")
)
TINY = np.finfo(float).tiny

SPLIT_SPECS = {
    "bm": GeneratorSpec("bm", Grid(0.0, 1.0, 10), seed=101),
    "fbm": GeneratorSpec("fbm", Grid(0.0, 1.0, 10), seed=102, H=0.7),
    "martingale": GeneratorSpec(
        "martingale", Grid(0.0, 1.0, 10), seed=103, weight=WeightFn("affine", (1.0, 2.0))
    ),
}


def spec_of_kind(kind, grid):
    """A spec of `kind` on `grid` with a sign-changing weight where the kind takes one."""
    hurst = {"fbm": 0.3, "wfbm": 0.75}.get(kind)
    weight = WeightFn("sine", (1.5, 2.0, 0.3)) if kind in ("martingale", "wfbm") else None
    return GeneratorSpec(kind, grid, seed=17, H=hurst, weight=weight)


def huge_martingale(c):
    return GeneratorSpec("martingale", Grid(0.0, 1.0, 8), seed=1,
                         weight=WeightFn("constant", (c,)))


def assert_rows_are_fine_draws(raw, cfg):
    """Each row is bit for bit the level sums of the replicate's 2^J-cell draw."""
    draw = cfg.generator.block_sampler()
    for i, row in enumerate(raw):
        fine = level_sums(draw([[cfg.generator.seed, i]])[0], cfg.n_levels, cfg.p)
        assert row.view(np.int64).tolist() == fine.view(np.int64).tolist()


@pytest.fixture
def pools_started(monkeypatch):
    """The sizes of the thread pools a sweep starts; the pools run their threads."""
    started = []

    class RecordedPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    # harness imports the pool where a sweep starts one, from concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordedPool)
    return started


class TestWorkerBlocks:
    @pytest.mark.parametrize("kind", sorted(SPLIT_SPECS))
    @pytest.mark.parametrize("replicates, worker_counts", [(7, (1, 2, 3)), (2, (1, 4))])
    def test_rows_independent_of_split(self, kind, replicates, worker_counts, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # the splits, on any machine
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

    @pytest.mark.parametrize("kind", sorted(SPLIT_SPECS))
    def test_many_threads_switching_often_keep_the_bits(self, kind, monkeypatch):
        # 8 blocks on any machine, the interpreter switching threads as often as it
        # can: the blocks share only the sweep's read-only sampler state
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        cfg = bm_config(generator=SPLIT_SPECS[kind], replicates=40, workers=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            eight = _raw_level_sums(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert eight.tobytes() == _raw_level_sums(dataclasses.replace(cfg, workers=1)).tobytes()

    @pytest.mark.parametrize("cpus, pools", [(3, [3]), (None, [])])
    def test_pool_capped_at_cpu_count(self, pools_started, monkeypatch, cpus, pools):
        # 10000 workers run as 3 blocks on 3 CPUs, and as one where the count is unknown
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = bm_config(generator=GeneratorSpec("bm", Grid(0.0, 1.0, 8), seed=4), p=3.0,
                        n_levels=8, replicates=10000, workers=10000)
        raw = _raw_level_sums(cfg)
        assert pools_started == pools
        assert raw.tobytes() == _raw_level_sums(dataclasses.replace(cfg, workers=1)).tobytes()

    def test_row_is_the_replicate_own_draw(self):
        # each replicate is drawn at level n_levels from its own [seed, index] stream
        cfg = bm_config(generator=SPLIT_SPECS["fbm"], replicates=3, workers=2)
        raw = _raw_level_sums(cfg)
        draw = cfg.generator.block_sampler(cfg.n_levels)
        for i in range(3):
            expected = level_sums(draw([[cfg.generator.seed, i]])[0], cfg.n_levels, cfg.p)
            np.testing.assert_allclose(raw[i], expected, rtol=1e-12, atol=0.0)

    def test_fgn_embedding_once_per_sweep(self, pools_started, monkeypatch):
        # both blocks call the one `rows` built for the sweep, so they share its embedding
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        calls = []
        embedding = generators._fgn_embedding
        monkeypatch.setattr(generators, "_fgn_embedding",
                            lambda N, H: calls.append((N, H)) or embedding(N, H))
        _raw_level_sums(bm_config(generator=SPLIT_SPECS["fbm"], replicates=6, workers=2))
        assert pools_started == [2]
        assert calls == [(2**8, 0.7)]

    @pytest.mark.parametrize("kind", GeneratorSpec.KINDS)
    def test_rows_at_full_resolution_are_the_fine_draw(self, kind):
        # at n_levels == J the level-n_levels draw is the finest draw, bit for bit;
        # bm at p = 2 draws no cells (test_bm_p2_rows_are_the_level_sum_law)
        spec = spec_of_kind(kind, Grid(0.0, 1.0, 8))
        p = 3.0 if kind == "bm" else 2.0
        cfg = bm_config(generator=spec, p=p, n_levels=8, replicates=5)
        assert_rows_are_fine_draws(_raw_level_sums(cfg), cfg)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bm_p2_rows_are_the_level_sum_law(self, workers, monkeypatch):
        # row i is R_n = (b - a) 2^-n S_n, S_0 ~ chi2_1 and S_n = S_{n-1} +
        # chi2_{2^(n-1)}, from row i mod 256 of the stack on stream [seed, i div 256, 2];
        # no cell is drawn or summed.  Two workers split at 150, inside stack 0.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(generators, "level_sums", None)
        spec = GeneratorSpec("bm", Grid(-1.0, 2.0, 12), seed=29)
        cfg = bm_config(generator=spec, n_levels=9, replicates=300, workers=workers)
        raw = _raw_level_sums(cfg)
        assert raw.view(np.int64).tolist() == bm_p2_law_rows(spec, 9, 300).view(np.int64).tolist()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_law_rows_independent_of_stack_straddling_bounds(self, pools_started, monkeypatch,
                                                             workers):
        # blocks that end inside a stack draw its prefix, and blocks that start
        # inside one drop the rows before them: the bytes of one block either way
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        spec = GeneratorSpec("bm", Grid(0.0, 1.0, 10), seed=31)
        rows = spec.level_sum_rows(8, 2.0)
        whole, pieces = np.empty((700, 8)), np.empty((700, 8))
        rows(whole, 0)
        for lo, hi in [(0, 255), (255, 257), (257, 700)]:
            rows(pieces[lo:hi], lo)
        assert pieces.tobytes() == whole.tobytes()
        # and the sweep's own blocks: [0, 350) + [350, 700), [0, 233) + [233, 466) + ...
        raw = _raw_level_sums(bm_config(generator=spec, replicates=700, workers=workers))
        assert pools_started == ([workers] if workers > 1 else [])
        assert raw.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("replicates, workers", [(1, 1), (256, 1), (257, 1), (1000, 1),
                                                     (1000, 2), (1000, 3), (700, 3)])
    def test_law_sweep_builds_a_generator_per_stack(self, pools_started, monkeypatch,
                                                    replicates, workers):
        # one Generator per stack of 256 replicates, not one per replicate; a block
        # boundary inside a stack makes both blocks draw from it: one more at most
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        built = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: built.append(seed) or default_rng(seed))
        spec = GeneratorSpec("bm", Grid(0.0, 1.0, 14), seed=4)
        _raw_level_sums(bm_config(generator=spec, n_levels=12, replicates=replicates,
                                  workers=workers))
        stacks = -(-replicates // 256)
        assert stacks <= len(built) <= stacks + workers - 1
        assert {tuple(seed) for seed in built} == {(4, k, 2) for k in range(stacks)}

    def test_wfbm_rows_are_the_fine_draw_summed(self):
        # weighted fBm has no coarse law: it draws all 2^J cells and sums them down
        spec = spec_of_kind("wfbm", Grid(0.0, 1.0, 11))
        cfg = bm_config(generator=spec, n_levels=7, replicates=5, workers=2)
        assert_rows_are_fine_draws(_raw_level_sums(cfg), cfg)

    def test_bm_p2_sweep_at_J24_in_bounded_memory(self):
        # one 2^24-cell draw would be 128 MiB; the law draws 25 numbers a replicate
        cfg = bm_config(generator=GeneratorSpec("bm", Grid(0.0, 1.0, 24), seed=5),
                        n_levels=24, replicates=200)
        tracemalloc.start()
        try:
            report = run_alpha_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert report.critical_alpha == pytest.approx(0.5, abs=0.005)

    def test_stacks_sized_by_elements(self, monkeypatch):
        shapes = []
        stacked = generators.level_sums
        monkeypatch.setattr(
            generators, "level_sums", lambda x, n, p: shapes.append(x.shape) or stacked(x, n, p)
        )
        spec = dataclasses.replace(SPLIT_SPECS["martingale"], grid=Grid(0.0, 1.0, 14), seed=3)
        cfg = bm_config(generator=spec, n_levels=12, replicates=37)
        raw = _raw_level_sums(cfg)
        assert shapes == [(16, 4096), (16, 4096), (5, 4096)]  # 2^16 increments a stack
        one_by_one = [level_sums(x, 12, 2.0) for x in
                      (cfg.generator.block_sampler(12)([[3, i]])[0] for i in range(37))]
        assert raw.tobytes() == np.array(one_by_one).tobytes()

    def test_fgn_stacks_sized_by_floats(self, monkeypatch):
        # an fGn row holds its half spectrum and 2N-point irfft too: 4 rows of 2^12
        shapes = []
        stacked = generators.level_sums
        monkeypatch.setattr(
            generators, "level_sums", lambda x, n, p: shapes.append(x.shape) or stacked(x, n, p)
        )
        spec = dataclasses.replace(SPLIT_SPECS["fbm"], grid=Grid(0.0, 1.0, 12))
        cfg = bm_config(generator=spec, n_levels=12, replicates=9)
        raw = _raw_level_sums(cfg)
        assert shapes == [(4, 4096), (4, 4096), (1, 4096)]
        draw = cfg.generator.block_sampler(12)
        one_by_one = [level_sums(draw([[102, i]])[0], 12, 2.0) for i in range(9)]
        assert raw.tobytes() == np.array(one_by_one).tobytes()

    @pytest.mark.parametrize("kind", sorted(SPLIT_SPECS))
    def test_two_workers_split_stacks_bit_identically(self, kind, monkeypatch):
        # 37 replicates: stacks of 16 + 16 + 5 in one worker, 16 + 2 and 16 + 3 in two
        # (fBm rows hold their spectra too: stacks of 4)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        spec = dataclasses.replace(SPLIT_SPECS[kind], grid=Grid(0.0, 1.0, 13))
        cfg = bm_config(generator=spec, n_levels=12, replicates=37)
        one = _raw_level_sums(cfg)
        two = _raw_level_sums(dataclasses.replace(cfg, workers=2))
        assert one.view(np.int64).tolist() == two.view(np.int64).tolist()

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
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            run_alpha_sweep(cfg)

    def test_huge_martingale_weight_is_drawn_coarse_without_overflow(self):
        # the coarse weight is the block RMS of g, scaled by the block's max |g|
        # before squaring: g^2 = 1e400 would make every coarse increment infinite
        cfg = bm_config(generator=huge_martingale(1e200), p=1.0, n_levels=6, replicates=3)
        raw = _raw_level_sums(cfg)
        assert np.all(np.isfinite(raw)) and raw.min() > 1e199
        report = run_alpha_sweep(cfg)
        assert all(math.isfinite(row.median_slope) for row in report.rows)

    def test_overflowing_squares_make_no_invalid_values(self):
        # at 1e300 the increments and the pyramid stay finite; only |x|^2 overflows
        cfg = bm_config(generator=huge_martingale(1e300), n_levels=6, replicates=3)
        # an invalid value would raise NumPy's own FloatingPointError, without "non-finite"
        with np.errstate(over="ignore", invalid="raise"):
            with pytest.raises(FloatingPointError, match="non-finite"):
                run_alpha_sweep(cfg)


class TestSweepDigests:
    # sha256 of to_csv() + repr(critical_alpha) of a 200-replicate sweep at J = 10
    # and 8 levels, taken before the replicate rows moved into
    # GeneratorSpec.level_sum_rows: a refactor of the draws, the stacks, the
    # blocks or the fold keeps every report bit for bit.  ("bm", 2.0) was taken
    # again when the law's streams went from one per replicate to one per
    # stack of _LAW_STACK replicates.  ("bm", 3.0) was taken again when integer
    # p from 3 to 64 went from pow to repeated squaring and a dot: its level sums
    # moved in the last bits (within 1e-13 of pow), and two median slopes and the
    # critical alpha in their last digit.
    DIGESTS = {
        ("bm", 2.0): "2f0f84949b6341ead51955ba7a94e865a9f262051c15eab316e7766b06b462a8",
        ("bm", 3.0): "929e3cb932e1d4a8ad924aa2d8a7bb15e26577937e661b7f7ed5a7151d6d62de",
        ("martingale", 2.0): "dc4f3ff1fd9f02ed51c3c15f0b9b6303f9a690eaa238a4f01d1f6f0147148b6a",
        ("fbm", 2.0): "cf56a888416a56fe30fa894656066b67fda96c3e1c3e8306c5bba1e70d70949b",
        ("wfbm", 2.0): "684f8e5637a880f17e5754802d2990881c357c1226ee5e76daccf84b7aa01540",
        ("linear", 2.0): "99f296281fde194b1d6d1bfcc65c2c10ece036fcdf3bd2182ad0eab3b9c88c94",
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind, p", sorted(DIGESTS))
    def test_report_keeps_its_bits(self, kind, p, workers):
        cfg = bm_config(generator=spec_of_kind(kind, Grid(0.0, 1.0, 10)), p=p,
                        alpha_grid=tuple(k / 10 for k in range(1, 10)),
                        n_levels=8, replicates=200, workers=workers)
        report = run_alpha_sweep(cfg)
        text = report.to_csv() + repr(report.critical_alpha)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[kind, p]


def refit_fold(raw, alpha_grid, p):
    """The fold the closed form replaced: one tail fit of the terms T_n per alpha,
    and the linearly interpolated zero crossing of the median slope."""
    R, N = raw.shape
    rows = []
    for alpha in alpha_grid:
        slopes, _ = tail_exponent(2.0 ** (np.arange(1, N + 1) * (alpha * p - 1.0)) * raw)
        converges = int(np.count_nonzero(slopes < -0.05))
        diverges = int(np.count_nonzero(slopes > 0.05))
        rows.append((alpha, float(np.median(slopes)), converges / R, diverges / R,
                     (R - converges - diverges) / R))
    for (a1, s1, *_), (a2, s2, *_) in zip(rows, rows[1:]):
        if math.isfinite(s1) and math.isfinite(s2) and s1 < 0.0 <= s2:
            return rows, a1 + (a2 - a1) * (-s1) / (s2 - s1)
    return rows, None


def assert_matches_refit(rows, critical, want_rows, want_critical):
    for row, want in zip(rows, want_rows, strict=True):
        assert row.alpha == want[0]
        assert (row.frac_converges, row.frac_diverges, row.frac_inconclusive) == want[2:]
        assert row.median_slope == pytest.approx(want[1], rel=0.0, abs=1e-12)
    if want_critical is None:
        assert critical is None
    else:
        assert critical == pytest.approx(want_critical, rel=0.0, abs=1e-12)


def fold(s, one_level, alpha_grid, p):
    """(rows, critical alpha) of `run_alpha_sweep` over replicates whose
    `tail_exponent` is (s, one_level)."""
    cfg = bm_config(alpha_grid=alpha_grid, p=p, replicates=len(s))
    with mock.patch.object(harness, "_raw_level_sums", lambda config: None), \
            mock.patch.object(harness, "tail_exponent", lambda raw: (s, one_level)):
        report = run_alpha_sweep(cfg)
    return report.rows, report.critical_alpha


def fold_raw(raw, alpha_grid, p):
    return fold(*tail_exponent(raw), alpha_grid, p)


def zigzag_raw(J=8):
    """Raw level sums of +-1 increments: only the finest level is nonzero."""
    return level_sums(np.resize([1.0, -1.0], 2**J), J, 2.0)


class TestClosedFormFold:
    @pytest.mark.parametrize("kind", sorted(SPLIT_SPECS))
    def test_matches_per_alpha_refit(self, kind):
        cfg = bm_config(
            generator=SPLIT_SPECS[kind], replicates=60, alpha_grid=(0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
        )
        report = run_alpha_sweep(cfg)
        assert_matches_refit(report.rows, report.critical_alpha,
                              *refit_fold(_raw_level_sums(cfg), cfg.alpha_grid, cfg.p))
        if kind != "fbm":  # H = 0.7 may cross at the last grid point or beyond
            assert report.critical_alpha is not None

    def test_verdicts_match_kamont_series(self):
        # each replicate's verdict is kamont_series on its path drawn at level n_levels
        cfg = bm_config(generator=SPLIT_SPECS["fbm"], replicates=12)
        report = run_alpha_sweep(cfg)
        s, one_level = tail_exponent(_raw_level_sums(cfg))
        grid = cfg.generator.grid
        coarse = Grid(grid.a, grid.b, cfg.n_levels)
        draw = cfg.generator.block_sampler(cfg.n_levels)
        paths = [path_of(StochasticMeasureSample(coarse, draw([[cfg.generator.seed, i]])[0]))
                 for i in range(cfg.replicates)]
        for row in report.rows:
            per_path = [
                kamont_series(path, cfg.n_levels, row.alpha, cfg.p).verdict for path in paths
            ]
            sweep = [(Verdict.CONVERGES, Verdict.INCONCLUSIVE, Verdict.DIVERGES)[c]
                     for c in verdict_code(slope_at(s, one_level, row.alpha, cfg.p))]
            assert sweep == per_path
            R = cfg.replicates
            assert row.frac_converges == per_path.count(Verdict.CONVERGES) / R
            assert row.frac_diverges == per_path.count(Verdict.DIVERGES) / R
            assert row.frac_inconclusive == per_path.count(Verdict.INCONCLUSIVE) / R

    def test_one_fit_per_sweep(self, monkeypatch):
        # the fold reads every alpha off one tail fit of all the replicates' rows
        calls = []
        monkeypatch.setattr(harness, "tail_exponent",
                            lambda rows: calls.append(np.shape(rows)) or tail_exponent(rows))
        cfg = bm_config(replicates=7, alpha_grid=tuple(0.05 * k for k in range(1, 20)))
        run_alpha_sweep(cfg)
        assert calls == [(7, cfg.n_levels)]

    def test_all_zero_row_converges(self):
        raw = np.zeros((3, 8))
        rows, critical = fold_raw(raw, (0.3, 0.6, 0.9), 2.0)
        for row in rows:
            assert (row.frac_converges, row.median_slope) == (1.0, -math.inf)
        assert critical is None
        assert_matches_refit(rows, critical, *refit_fold(raw, (0.3, 0.6, 0.9), 2.0))

    def test_one_positive_level_is_inconclusive_and_left_out_of_critical(self):
        single = zigzag_raw()
        assert np.count_nonzero(single) == 1 and single[-1] > 0.0
        cfg = bm_config(replicates=9)
        bm = _raw_level_sums(cfg)
        raw = np.vstack([bm, single, single])
        rows, critical = fold_raw(raw, cfg.alpha_grid, cfg.p)
        alone, _ = fold_raw(single[None, :], cfg.alpha_grid, cfg.p)
        for row in alone:
            assert (row.frac_inconclusive, row.median_slope) == (1.0, 0.0)
        # verdicts and median slopes as the per-alpha refit gives them
        want_rows, _ = refit_fold(raw, cfg.alpha_grid, cfg.p)
        assert_matches_refit(rows, None, want_rows, None)
        # the zero crossing comes from the fitted rows alone
        s, _ = tail_exponent(bm)
        assert critical == pytest.approx((1.0 - np.median(s)) / cfg.p, rel=0.0, abs=1e-15)
        assert critical == fold_raw(bm, cfg.alpha_grid, cfg.p)[1]

    def test_near_floor_sums_mask_the_raw_sums(self):
        cfg = bm_config(generator=NEAR_FLOOR, replicates=20)
        raw = _raw_level_sums(cfg)
        assert raw.max() < 5.0 * TINY and raw.min() < TINY <= raw.max()
        rows, critical = fold_raw(raw, cfg.alpha_grid, cfg.p)
        # the per-alpha refit on sums lifted off the floor by an exact power of two,
        # with the levels under the floor kept at zero, masks exactly the same levels
        lifted = np.where(raw >= TINY, raw * 2.0**600, 0.0)
        assert_matches_refit(rows, None, refit_fold(lifted, cfg.alpha_grid, cfg.p)[0], None)
        # whereas a mask on the terms drops every level at low alpha, where all of
        # T_n = 2^{n (alpha p - 1)} R_n fall under the floor
        want_rows, _ = refit_fold(raw, cfg.alpha_grid, cfg.p)
        assert want_rows[0][2] == 1.0 and rows[0].frac_converges < 1.0
        s, one_level = tail_exponent(raw)
        assert critical == pytest.approx((1.0 - np.median(s[~one_level])) / cfg.p, abs=1e-15)

    def test_verdicts_do_not_depend_on_units(self):
        # BM on [0, 2^-860] has level sums near 2^-860, far above the floor, so
        # its verdicts are those on [0, 1]; an absolute floor of 1e-250 read
        # every replicate as converging
        unit, small = (
            run_alpha_sweep(bm_config(generator=GeneratorSpec("bm", Grid(0.0, b, 10), seed=7),
                                      replicates=200))
            for b in (1.0, 2.0**-860)
        )

        def fractions(report):
            return [(r.frac_converges, r.frac_diverges, r.frac_inconclusive) for r in report.rows]

        assert fractions(small) == fractions(unit)
        assert unit.rows[-1].frac_diverges > 0.5 and unit.critical_alpha is not None
        assert small.critical_alpha == pytest.approx(unit.critical_alpha, rel=0.0, abs=1e-12)


def bits(x):
    """A float's bytes, with every NaN alike; None stays None."""
    return None if x is None else (b"nan" if math.isnan(x) else np.float64(x).tobytes())


def assert_same_fold(got, want):
    (rows, critical), (want_rows, want_critical) = got, want
    for row, w in zip(rows, want_rows, strict=True):
        assert (row.alpha, row.frac_converges, row.frac_diverges, row.frac_inconclusive) == (
            w.alpha, w.frac_converges, w.frac_diverges, w.frac_inconclusive)
        assert bits(row.median_slope) == bits(w.median_slope)
    assert bits(critical) == bits(want_critical)


@st.composite
def exponent_laws(draw):
    """(s, one_level, alpha grid, p) as `tail_exponent` could give them: ties,
    NaN, -inf (an all-zero tail), one-level rows (s = 0.0) and exponents whose
    slope at some alpha lands on 0 or +-SLOPE_THRESHOLD or next to them."""
    alphas = sorted(set(draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6))))
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    landing = [c - (a * p - 1.0) for a in alphas for c in (-SLOPE_THRESHOLD, 0.0, SLOPE_THRESHOLD)]
    landing += [float(np.nextafter(x, to)) for x in landing for to in (-math.inf, math.inf)]
    value = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(landing),
                      st.sampled_from([-math.inf, math.nan, 0.0, -0.0]))
    pool = draw(st.lists(value, min_size=1, max_size=8))  # few values: many ties
    R = draw(st.integers(1, 40))
    s = np.array(draw(st.lists(st.sampled_from(pool), min_size=R, max_size=R)))
    one_level = np.array(draw(st.lists(st.booleans(), min_size=R, max_size=R)))
    s[one_level] = 0.0
    return s, one_level, tuple(alphas), p


class TestSortedFold:
    """The fold read off the sorted exponents against the per-alpha pass it
    replaced (`oracles.fold_per_alpha`), bit for bit."""

    @given(exponent_laws())
    @example((np.array([0.25]), np.array([False]), (0.5,), 2.0))
    @example((np.array([0.0]), np.array([True]), (0.5,), 2.0))
    @example((np.array([-math.inf, 0.0]), np.array([False, True]), (0.3, 0.7), 2.0))
    @example((np.array([0.05, -0.05, 0.0, 0.0]), np.array([False] * 4), (0.5,), 2.0))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_per_alpha_fold(self, law):
        assert_same_fold(fold(*law), fold_per_alpha(*law))

    @pytest.mark.parametrize("kind", sorted(SPLIT_SPECS))
    def test_long_grid_on_sweep_rows(self, kind):
        # 999 alphas cost a bisection each, and read the same rows as the oracle
        raw = _raw_level_sums(bm_config(generator=SPLIT_SPECS[kind], replicates=101))
        raw = np.vstack([raw, zigzag_raw(8), np.zeros(8)])  # a one-level and an all-zero row
        law = (*tail_exponent(raw), tuple(k / 1000 for k in range(1, 1000)), 2.0)
        assert_same_fold(fold(*law), fold_per_alpha(*law))
