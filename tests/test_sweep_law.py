"""The sweep's coarse draws against the finest draw summed: equal in law.

A sweep draws each replicate at level n_levels (`GeneratorSpec.sampler(level)`)
instead of drawing all 2^J cells and summing them up the pyramid.  These
gates compare the law of the per-replicate tail exponent s from both draws,
and for Brownian motion at p = 2 against the delta-method prediction.
"""

import math

import numpy as np
import pytest

from besovlab import ExperimentConfig, GeneratorSpec, Grid, WeightFn
from besovlab.criterion import level_sums, tail_exponent
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
        draw = spec.sampler()
        cells = np.stack([draw([spec.seed, i]) for i in range(REPLICATES)])
        raw = level_sums(cells, n_levels, p)
    return tail_exponent(raw)[0]


def ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """sup_t |F_x(t) - F_y(t)| of the two empirical distribution functions."""
    x, y = np.sort(x), np.sort(y)
    t = np.concatenate([x, y])
    fx = np.searchsorted(x, t, side="right") / len(x)
    fy = np.searchsorted(y, t, side="right") / len(y)
    return float(np.max(np.abs(fx - fy)))


def delta_method_law(n_levels: int) -> tuple[float, float]:
    """Predicted (mean, sd) of s for BM on [0, 1] at p = 2.

    R_n has mean 1 and Cov(R_n, R_m) = 2 * 2^-max(n, m), so to first order
    Cov(log2 R_n, log2 R_m) = 2 * 2^-max(n, m) / ln^2 2 and, to second order,
    E log2 R_n = -2^-n / ln 2.  s is linear in the log2 R_n of the tail half,
    with the weights of `fit_tail_slope`.
    """
    start = n_levels - math.ceil(n_levels / 2)
    ns = np.arange(start + 1, n_levels + 1, dtype=float)
    w = 2.0**ns / np.sum(2.0**ns)
    dx = ns - np.sum(w * ns)
    c = w * dx / np.sum(w * dx * dx)  # s = sum_n c_n log2 R_n
    mean = float(np.sum(c * -(2.0**-ns) / math.log(2.0)))
    cov = 2.0 * 2.0 ** -np.maximum.outer(ns, ns) / math.log(2.0) ** 2
    return mean, math.sqrt(float(c @ cov @ c))


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


@pytest.mark.parametrize("n_levels, coarse", [(8, True), (8, False), (12, True)])
def test_bm_exponent_matches_delta_method(n_levels, coarse):
    seed = COARSE_SEED if coarse else FINE_SEED
    s = exponents(GeneratorSpec("bm", Grid(0.0, 1.0, n_levels + 2), seed=seed), n_levels, coarse)
    mean, sd = delta_method_law(n_levels)
    # four standard errors of the sample mean and of the sample sd of R normal draws
    assert abs(s.mean() - mean) <= 4.0 * sd / math.sqrt(REPLICATES)
    assert abs(s.std(ddof=1) - sd) <= 4.0 * sd / math.sqrt(2.0 * (REPLICATES - 1))


def test_delta_method_prediction():
    # at 12 levels: mean +0.00121, sd 0.0248; the sd halves every two levels
    mean, sd = delta_method_law(12)
    assert mean == pytest.approx(0.00121, abs=5e-6)
    assert sd == pytest.approx(0.0248, abs=5e-5)
    assert delta_method_law(14)[1] == pytest.approx(sd / 2.0, rel=0.02)
