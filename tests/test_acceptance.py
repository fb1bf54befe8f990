"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and runtimes.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from besovlab import (
    BesovParams,
    ExperimentConfig,
    Grid,
    GeneratorSpec,
    SampledPath,
    Verdict,
    WeightSequence,
    besov_norm,
    boundedness_probe,
    kamont_series,
    lemma_statistic,
    paley_zygmund_check,
    path_of,
    run_alpha_sweep,
)
from besovlab.criterion import series_from_raw
from oracles import level_term, raw_level_sum

FIXTURES = Path(__file__).parent / "fixtures"
MASTER_SEED = 2026


def report(number, label, passed, t0):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{label}]: {status} ({time.perf_counter() - t0:.1f}s)")
    assert passed, f"acceptance criterion {number} ({label}) failed"


def ramp_path(J):
    g = Grid(0.0, 1.0, J)
    return SampledPath(g, g.points())


def test_01_linear_ramp_exact_terms():
    t0 = time.perf_counter()
    path = ramp_path(12)
    ok = True
    for alpha in (0.25, 0.4, 0.6):
        for p in (2.0, 4.0):
            for n in range(1, 13):
                expected = 2.0 ** (n * p * (alpha - 1.0))
                got = level_term(path, n, alpha, p)
                ok &= abs(got - expected) <= 1e-12 * expected
    report(1, "deterministic exactness", ok, t0)


def test_02_bm_level_term_mean():
    t0 = time.perf_counter()
    g = Grid(0.0, 1.0, 14)
    vals = [
        level_term(path_of(GeneratorSpec("bm", g).sample([MASTER_SEED, r])), 8, 0.4, 2.0)
        for r in range(200)
    ]
    mean = float(np.mean(vals))
    target = 2.0**-1.6
    report(2, "BM level-term mean", abs(mean - target) <= 0.10 * target, t0)


def test_03_bm_phase_transition():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        generator=GeneratorSpec("bm", Grid(0.0, 1.0, 14), seed=MASTER_SEED),
        p=2.0,
        alpha_grid=tuple(round(0.30 + 0.05 * i, 2) for i in range(9)),
        n_levels=12,
        replicates=100,
        workers=1,
    )
    rep = run_alpha_sweep(config)
    ok = True
    for row in rep.rows:
        if row.alpha <= 0.45:
            ok &= row.frac_converges >= 0.95
        if row.alpha >= 0.55:
            ok &= row.frac_diverges >= 0.95
    ok &= rep.critical_alpha is not None and 0.45 <= rep.critical_alpha <= 0.55
    report(3, "BM phase transition", ok, t0)


def test_04_fbm_guaranteed_regime():
    t0 = time.perf_counter()
    spec = GeneratorSpec("wfbm", Grid(0.0, 1.0, 12), seed=MASTER_SEED, H=0.75)
    conv = 0
    for r in range(100):
        path = path_of(spec.sample(seed=[MASTER_SEED, r]))
        verdict = kamont_series(path, 12, 0.45, 2.0).verdict
        conv += verdict is Verdict.CONVERGES
    report(4, "fBm guaranteed regime", conv >= 95, t0)


def test_05_besov_norm_oracle():
    t0 = time.perf_counter()
    oracle = json.loads((FIXTURES / "besov_ramp_oracle.json").read_text())
    rep = besov_norm(ramp_path(12), BesovParams(0.3, 2.0, 2.0))
    err = abs(rep.seminorm_truncated - oracle["seminorm_truncated"])
    report(5, "Besov seminorm oracle", err <= 0.01 * oracle["seminorm_truncated"], t0)


def test_06_paley_zygmund_exhaustive():
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    hits = 0
    for _ in range(1000):
        m = int(rng.integers(1, 17))
        lam = rng.standard_normal(m)
        hits += paley_zygmund_check(lam, mode="exact").passed
    report(6, "Paley-Zygmund exhaustive", hits == 1000, t0)


def test_07_lemma_statistic_stabilization():
    t0 = time.perf_counter()
    g = Grid(0.0, 1.0, 12)
    weights = WeightSequence.geometric(0.4, 2.0, 12)
    stable = 0
    for r in range(100):
        stat = lemma_statistic(GeneratorSpec("bm", g).sample([MASTER_SEED, r]), weights)
        rel_change = (stat[11] - stat[9]) / stat[11]
        stable += rel_change < 0.05
    report(7, "lemma statistic stabilization", stable >= 95, t0)


def test_08_boundedness_probe():
    t0 = time.perf_counter()
    spec = GeneratorSpec("bm", Grid(0.0, 1.0, 12), seed=MASTER_SEED)
    rows = boundedness_probe(
        spec, [4, 16, 64, 256, 1024], replicates=500, quantile=0.99
    )
    qs = {row.family_size: row.quantile for row in rows}
    ok = qs[1024] <= 1.5 * qs[16] and all(q <= 3.0 for q in qs.values())
    report(8, "boundedness probe", ok, t0)


def test_09_cross_module_identity():
    t0 = time.perf_counter()
    alpha = 0.4
    g = Grid(0.0, 1.0, 10)
    weights = WeightSequence.geometric(alpha, 2.0, 10)
    ok = True
    for r in range(20):
        sample = GeneratorSpec("bm", g).sample([MASTER_SEED, r])
        stat = lemma_statistic(sample, weights)
        series = kamont_series(path_of(sample), 10, alpha, 2.0)
        ok &= np.allclose(stat, series.partial_sums, rtol=1e-12, atol=0.0)
    report(9, "cross-module identity", ok, t0)


def test_10_determinism_under_parallelism():
    t0 = time.perf_counter()
    reports = []
    for workers in (1, 4, 8):
        config = ExperimentConfig(
            generator=GeneratorSpec("bm", Grid(0.0, 1.0, 14), seed=MASTER_SEED),
            p=2.0,
            alpha_grid=tuple(round(0.30 + 0.05 * i, 2) for i in range(9)),
            n_levels=12,
            replicates=100,
            workers=workers,
        )
        d = run_alpha_sweep(config).to_dict()
        del d["meta"]["wall_time"]
        d["config"]["workers"] = None  # worker count is allowed to differ
        reports.append(json.dumps(d, sort_keys=True).encode())
    report(10, "determinism under parallelism", len(set(reports)) == 1, t0)
