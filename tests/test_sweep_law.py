"""The sweep's coarse draws against the finest draw summed: equal in law.

A sweep draws each replicate at level n_levels (`GeneratorSpec.block_sampler(level)`)
instead of drawing all 2^J cells and summing them up the pyramid.  These
gates compare the law of the per-replicate tail exponent s from both draws,
and for Brownian motion at p = 2 against the delta-method prediction.  BM
at p = 2 draws its level sums from their exact joint law instead of drawing
cells (`GeneratorSpec.level_sum_rows`); the KS gate compares them with real
cells, a moment gate checks their means and covariances, and a third gate
checks that neighbouring replicates, which share a stack's stream, are
uncorrelated.
"""

import math

import numpy as np
import pytest

from besovlab import ExperimentConfig, GeneratorSpec, Grid, WeightFn
from besovlab.criterion import level_sums, predicted_exponent_law, tail_exponent
from besovlab.errors import ParameterError
from besovlab.harness import _raw_level_sums

REPLICATES = 2000
KS_LEVELS = 8
# two-sample Kolmogorov-Smirnov critical value at the 1 % level, n = m = REPLICATES
KS_CRITICAL = 1.628 * math.sqrt(2.0 / REPLICATES)
COARSE_SEED, FINE_SEED = 1, 2  # independent samples: the streams share no normals


def exponents(spec: GeneratorSpec, n_levels: int, coarse: bool, p: float = 2.0) -> np.ndarray:
    """Tail exponent s of REPLICATES replicates: from the sweep's coarse draws,
    or from the finest draws of the same streams summed by `level_sums`."""
    if coarse:
        config = ExperimentConfig(spec, p, (0.5,), n_levels, REPLICATES)
        raw = _raw_level_sums(config)
    else:
        draw = spec.block_sampler()
        cells = np.stack([draw([[spec.seed, i]])[0] for i in range(REPLICATES)])
        raw = level_sums(cells, n_levels, p)
    return tail_exponent(raw)[0]


def ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """sup_t |F_x(t) - F_y(t)| of the two empirical distribution functions."""
    x, y = np.sort(x), np.sort(y)
    t = np.concatenate([x, y])
    fx = np.searchsorted(x, t, side="right") / len(x)
    fy = np.searchsorted(y, t, side="right") / len(y)
    return float(np.max(np.abs(fx - fy)))


def _grid():
    return Grid(0.0, 1.0, KS_LEVELS + 2)


LAW_SPECS = {
    "bm": dict(kind="bm"),
    "fbm_H0.3": dict(kind="fbm", H=0.3),
    "fbm_H0.75": dict(kind="fbm", H=0.75),
    "martingale_sine": dict(kind="martingale", weight=WeightFn("sine", (1.5, 2.0, 0.3))),
}


@pytest.mark.parametrize("name", sorted(LAW_SPECS))
def test_coarse_and_fine_exponents_agree_in_law(name):
    fields = LAW_SPECS[name]
    coarse = exponents(GeneratorSpec(grid=_grid(), seed=COARSE_SEED, **fields), KS_LEVELS, True)
    fine = exponents(GeneratorSpec(grid=_grid(), seed=FINE_SEED, **fields), KS_LEVELS, False)
    assert np.all(np.isfinite(coarse)) and np.all(np.isfinite(fine))
    assert ks_statistic(coarse, fine) < KS_CRITICAL


def test_ks_statistic_sees_a_shift():
    # the gate is not blind: a shift of a quarter sd between two normal samples is
    # caught at this replicate count, and equal samples read 0
    z = np.random.default_rng(0).standard_normal((2, REPLICATES))
    assert ks_statistic(z[0], z[0]) == 0.0
    assert ks_statistic(z[0], z[1] + 0.25) > KS_CRITICAL


@pytest.mark.parametrize("n_levels, coarse", [(8, True), (8, False), (12, True), (16, True)])
def test_bm_exponent_matches_delta_method(n_levels, coarse):
    seed = COARSE_SEED if coarse else FINE_SEED
    spec = GeneratorSpec("bm", Grid(0.0, 1.0, n_levels + 2), seed=seed)
    s = exponents(spec, n_levels, coarse)
    mean, sd = predicted_exponent_law(spec, n_levels, 2.0)
    # four standard errors of the sample mean and of the sample sd of R normal draws
    assert abs(s.mean() - mean) <= 4.0 * sd / math.sqrt(REPLICATES)
    assert abs(s.std(ddof=1) - sd) <= 4.0 * sd / math.sqrt(2.0 * (REPLICATES - 1))


def test_delta_method_prediction():
    # at 12 levels: mean +0.00121, sd 0.0248; the sd halves every two levels,
    # and the law does not depend on the interval
    spec = GeneratorSpec("bm", Grid(0.0, 1.0, 14))
    mean, sd = predicted_exponent_law(spec, 12, 2.0)
    assert mean == pytest.approx(0.00121, abs=5e-6)
    assert sd == pytest.approx(0.0248, abs=5e-5)
    assert predicted_exponent_law(spec, 14, 2.0)[1] == pytest.approx(sd / 2.0, rel=0.02)
    other = GeneratorSpec("bm", Grid(-1.0, 2.0, 12))
    assert predicted_exponent_law(other, 12, 2.0) == (mean, sd)


@pytest.mark.parametrize("spec, n_levels, p", [
    (GeneratorSpec("bm", Grid(0.0, 1.0, 12)), 12, 3.0),
    (GeneratorSpec("fbm", Grid(0.0, 1.0, 12), H=0.5), 12, 2.0),
    (GeneratorSpec("martingale", Grid(0.0, 1.0, 12)), 12, 2.0),
    (GeneratorSpec("bm", Grid(0.0, 1.0, 12)), 13, 2.0),
    (GeneratorSpec("bm", Grid(0.0, 1.0, 12)), 5, 2.0),
])
def test_prediction_refused_outside_bm_p2(spec, n_levels, p):
    with pytest.raises(ParameterError):
        predicted_exponent_law(spec, n_levels, p)


def test_bm_p2_level_sum_moments():
    # on [-1, 2], E R_n = b - a = 3 and Cov(R_n, R_m) = 2 (b - a)^2 2^-max(n, m),
    # each within four standard errors of its sample estimate
    n_levels, replicates = 10, 20000
    spec = GeneratorSpec("bm", Grid(-1.0, 2.0, n_levels), seed=3)
    raw = _raw_level_sums(ExperimentConfig(spec, 2.0, (0.5,), n_levels, replicates))
    dev = raw - 3.0
    se = dev.std(axis=0, ddof=1) / math.sqrt(replicates)
    assert np.all(np.abs(dev.mean(axis=0)) <= 4.0 * se)
    ns = np.arange(1, n_levels + 1)
    products = dev[:, :, None] * dev[:, None, :]
    cov = 18.0 * 2.0 ** -np.maximum.outer(ns, ns)
    err = np.abs(products.mean(axis=0) - cov)
    assert np.all(err <= 4.0 * products.std(axis=0, ddof=1) / math.sqrt(replicates))


def test_bm_p2_neighbouring_replicates_uncorrelated():
    # replicates i and i + 1 come from one chi-square stack (or, at i = 256 k - 1,
    # from two streams): at every level Cov(R_n of i, R_n of i + 1) = 0 within
    # four standard errors, over all neighbours and over the stack boundaries alone
    n_levels, replicates = 12, 20000
    spec = GeneratorSpec("bm", Grid(0.0, 1.0, n_levels), seed=5)
    dev = _raw_level_sums(ExperimentConfig(spec, 2.0, (0.5,), n_levels, replicates)) - 1.0
    products = dev[:-1] * dev[1:]
    boundary = products[255::256]
    assert len(boundary) == replicates // 256
    for pairs in (products, boundary):
        se = pairs.std(axis=0, ddof=1) / math.sqrt(len(pairs))
        assert np.all(np.abs(pairs.mean(axis=0)) <= 4.0 * se)
