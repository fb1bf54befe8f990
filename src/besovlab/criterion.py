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

import numpy as np

from .errors import ParameterError, ResolutionError
from .paths import SampledPath, increments_of

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


def raw_level_sum(path: SampledPath, n: int, p: float) -> float:
    """sum_k |level-n increment|^p, before the 2^{n(alpha p - 1)} prefactor."""
    if n > path.grid.J:
        raise ResolutionError(f"level {n} exceeds grid resolution J={path.grid.J}")
    inc = increments_of(path, n)
    return float(np.sum(np.abs(inc) ** p))


def level_term(path: SampledPath, n: int, alpha: float, p: float) -> float:
    _check_exponents(alpha, p)
    if n < 1:
        raise ParameterError(f"level must be >= 1, got {n}")
    return 2.0 ** (n * (alpha * p - 1.0)) * raw_level_sum(path, n, p)


def fit_tail_slope(terms) -> float:
    """Weighted LS slope of log2 T_n vs n over the last ceil(N/2) levels.

    Weights are 2^n: the level-n term averages 2^n increment powers, so the
    noise variance of its log decays like 2^{-n} and inverse-variance
    weighting sharpens the verdict near the critical exponent.  For exactly
    geometric terms the fitted slope is exact regardless of weights.

    Levels with a zero term are dropped; if none are positive the series is
    identically zero on the tail and the slope is -inf.
    """
    terms = np.asarray(terms, dtype=float)
    N = len(terms)
    start = N - math.ceil(N / 2)
    tail = terms[start:]
    ns = np.arange(start + 1, N + 1, dtype=float)
    pos = tail > _ZERO_FLOOR
    if pos.sum() == 0:
        return -math.inf
    if pos.sum() == 1:
        return 0.0
    x = ns[pos]
    y = np.log2(tail[pos])
    w = 2.0 ** (x - x.max())  # normalized to avoid overflow
    w /= w.sum()
    xb = float(np.dot(w, x))
    yb = float(np.dot(w, y))
    sxx = float(np.dot(w, (x - xb) ** 2))
    sxy = float(np.dot(w, (x - xb) * (y - yb)))
    return sxy / sxx


def verdict_from_slope(slope: float) -> Verdict:
    if slope < -SLOPE_THRESHOLD:
        return Verdict.CONVERGES
    if slope > SLOPE_THRESHOLD:
        return Verdict.DIVERGES
    return Verdict.INCONCLUSIVE


def series_from_raw(raw_sums, alpha: float, p: float) -> LevelSeriesReport:
    """Assemble the report from precomputed raw level sums for n = 1..N."""
    _check_exponents(alpha, p)
    raw = np.asarray(raw_sums, dtype=float)
    N = len(raw)
    if N < MIN_LEVELS:
        raise ParameterError(f"need at least {MIN_LEVELS} levels, got {N}")
    ns = np.arange(1, N + 1)
    terms = 2.0 ** (ns * (alpha * p - 1.0)) * raw
    slope = fit_tail_slope(terms)
    return LevelSeriesReport(
        alpha=alpha,
        p=p,
        levels=tuple(int(n) for n in ns),
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
    raw = [raw_level_sum(path, n, p) for n in range(1, N + 1)]
    return series_from_raw(raw, alpha, p)


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
