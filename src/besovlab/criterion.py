"""Dyadic level series: per-level terms, partial sums, convergence verdict.

The level term at (alpha, p) is

    T_n = 2^{n (alpha p - 1)} * sum_k |level-n dyadic increment|^p

and the verdict comes from an ordinary least-squares fit of log2 T_n
against n over the tail half of the computed levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .errors import ParameterError, ResolutionError
from .paths import SampledPath

SLOPE_THRESHOLD = 0.05  # |slope| below this is Inconclusive
MIN_LEVELS = 6
_ZERO_FLOOR = 1e-250  # terms below this count as exactly zero for the fit


class Verdict(str, Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class LevelSeriesReport:
    alpha: float
    p: float
    levels: tuple[int, ...]
    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    fitted_log2_slope: float
    verdict: Verdict

    def to_dict(self) -> dict:
        slope = self.fitted_log2_slope
        return {
            "alpha": self.alpha,
            "p": self.p,
            "levels": list(self.levels),
            "terms": list(self.terms),
            "partial_sums": list(self.partial_sums),
            "fitted_log2_slope": slope if math.isfinite(slope) else None,
            "verdict": self.verdict.value,
        }


def _check_exponents(alpha: float, p: float):
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    if not (math.isfinite(p) and p >= 1.0):
        raise ParameterError(f"p must be finite and >= 1, got {p}")


def dyadic_pyramid(cells: np.ndarray, coarsest: int = 1) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, level-n cell measures) for n = J, J - 1, ..., coarsest.

    `cells` is a 1-d float array of the 2^J finest increments.  A pairwise
    pyramid: level n - 1 is the sum of adjacent level-n cells, so all levels
    cost O(N) together and no cumulative path is formed.
    """
    n = len(cells).bit_length() - 1
    while True:
        yield n, cells
        if n <= coarsest:
            return
        cells = cells[0::2] + cells[1::2]
        n -= 1


def level_sums(increments, n_levels: int, p: float) -> np.ndarray:
    """sum_k |level-n increment|^p for n = 1..n_levels, from the 2^J finest increments.

    The level-n increments come from `dyadic_pyramid`, O(N) for all levels.
    """
    x = np.asarray(increments, dtype=float)
    if x.ndim != 1 or len(x) < 2 or len(x) & (len(x) - 1):
        raise ParameterError(f"need a 1-d array of 2^J >= 2 increments, got shape {x.shape}")
    J = len(x).bit_length() - 1
    if n_levels > J:
        raise ResolutionError(f"level {n_levels} exceeds grid resolution J={J}")
    if n_levels < 1:
        raise ParameterError(f"need at least one level, got {n_levels}")
    out = np.empty(n_levels)
    for n, cells in dyadic_pyramid(x):
        if n <= n_levels:
            out[n - 1] = np.sum(np.abs(cells) ** p)
    return out


def raw_level_sum(path: SampledPath, n: int, p: float) -> float:
    """sum_k |level-n increment|^p, before the 2^{n(alpha p - 1)} prefactor."""
    if n > path.grid.J:
        raise ResolutionError(f"level {n} exceeds grid resolution J={path.grid.J}")
    return float(level_sums(np.diff(path.values), n, p)[n - 1])


def level_term(path: SampledPath, n: int, alpha: float, p: float) -> float:
    _check_exponents(alpha, p)
    if n < 1:
        raise ParameterError(f"level must be >= 1, got {n}")
    return 2.0 ** (n * (alpha * p - 1.0)) * raw_level_sum(path, n, p)


def fit_tail_slope(terms) -> float | np.ndarray:
    """Weighted LS slope of log2 T_n vs n over the last ceil(N/2) levels.

    Weights are 2^n: the level-n term averages 2^n increment powers, so the
    noise variance of its log decays like 2^{-n} and inverse-variance
    weighting sharpens the verdict near the critical exponent.  For exactly
    geometric terms the fitted slope is exact regardless of weights.

    Levels with a zero (or NaN) term are dropped; if none are positive the
    series is identically zero on the tail and the slope is -inf, and a
    single positive level gives 0.0.  `terms` is one series (returns a
    float) or an (R, N) array of R series (returns R slopes).
    """
    terms = np.asarray(terms, dtype=float)
    rows = np.atleast_2d(terms)
    N = rows.shape[-1]
    start = N - math.ceil(N / 2)
    tail = rows[:, start:]
    ns = np.arange(start + 1, N + 1, dtype=float)
    pos = tail > _ZERO_FLOOR
    n_pos = pos.sum(axis=1)
    w = np.where(pos, 2.0 ** (ns - ns[-1]), 0.0)  # relative to the last level: no overflow
    y = np.log2(tail, out=np.zeros_like(tail), where=pos)
    # rows with fewer than two positive levels divide by zero and are replaced
    # below; an infinite term makes the slope NaN, which reads as inconclusive
    with np.errstate(divide="ignore", invalid="ignore"):
        w /= w.sum(axis=1, keepdims=True)
        xb = np.sum(w * ns, axis=1)
        yb = np.sum(w * y, axis=1)
        dx = ns - xb[:, None]
        sxx = np.sum(w * dx * dx, axis=1)
        sxy = np.sum(w * dx * (y - yb[:, None]), axis=1)
        slopes = np.where(n_pos > 1, sxy / sxx, np.where(n_pos == 1, 0.0, -math.inf))
    return float(slopes[0]) if terms.ndim == 1 else slopes


def verdict_from_slope(slope: float) -> Verdict:
    if slope < -SLOPE_THRESHOLD:
        return Verdict.CONVERGES
    if slope > SLOPE_THRESHOLD:
        return Verdict.DIVERGES
    return Verdict.INCONCLUSIVE


def level_terms(raw_sums, alpha: float, p: float) -> np.ndarray:
    """T_n = 2^{n (alpha p - 1)} raw_n for n = 1..N along the last axis."""
    raw = np.asarray(raw_sums, dtype=float)
    ns = np.arange(1, raw.shape[-1] + 1)
    return 2.0 ** (ns * (alpha * p - 1.0)) * raw


def series_from_raw(raw_sums, alpha: float, p: float) -> LevelSeriesReport:
    """Assemble the report from precomputed raw level sums for n = 1..N."""
    _check_exponents(alpha, p)
    N = len(raw_sums)
    if N < MIN_LEVELS:
        raise ParameterError(f"need at least {MIN_LEVELS} levels, got {N}")
    terms = level_terms(raw_sums, alpha, p)
    slope = fit_tail_slope(terms)
    return LevelSeriesReport(
        alpha=alpha,
        p=p,
        levels=tuple(range(1, N + 1)),
        terms=tuple(float(t) for t in terms),
        partial_sums=tuple(float(s) for s in np.cumsum(terms)),
        fitted_log2_slope=slope,
        verdict=verdict_from_slope(slope),
    )


def kamont_series(path: SampledPath, N: int, alpha: float, p: float) -> LevelSeriesReport:
    """Level terms, partial sums, and verdict for levels 1..N."""
    if N > path.grid.J:
        raise ParameterError(f"N={N} exceeds grid resolution J={path.grid.J}")
    if N < MIN_LEVELS:
        raise ParameterError(f"tail fit needs N >= {MIN_LEVELS}, got {N}")
    return series_from_raw(level_sums(np.diff(path.values), N, p), alpha, p)


def reweight_identity_check(
    path: SampledPath, n: int, alpha1: float, alpha2: float, p: float
) -> tuple[float, float]:
    """(T_n(alpha2), 2^{n p (alpha2 - alpha1)} T_n(alpha1)); equal to ~1e-12.

    The level term depends on alpha only through its explicit prefactor,
    so this is an exact algebraic identity.
    """
    direct = level_term(path, n, alpha2, p)
    rescaled = 2.0 ** (n * p * (alpha2 - alpha1)) * level_term(path, n, alpha1, p)
    return direct, rescaled
