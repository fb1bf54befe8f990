"""Dyadic level series: per-level terms, partial sums, convergence verdict.

The level term at (alpha, p) is

    T_n = 2^{n (alpha p - 1)} R_n,    R_n = sum_k |level-n dyadic increment|^p,

where R_n, like besov's cell integrals of |.|^p, is summed by `_power_sums`
(integer p up to 64 by repeated squaring, not pow).  The verdict comes from
the slope of log2 T_n against n over the tail half of the computed levels.
One least-squares fit of log2 R_n, whose levels above _ZERO_FLOOR do not
depend on alpha, gives the exponent s; the slope at alpha is then exactly
s + alpha p - 1, so a path's critical exponent is (1 - s)/p.  A tail with
no positive R_n has slope -inf; one with a single positive level reads 0.0,
inconclusive at every alpha.
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
_ZERO_FLOOR = 1e-250  # raw level sums at or below this count as zero in the fit
# integer p above this take np.power: from about 64 on, repeated squaring is no faster
_SQUARING_MAX_P = 64


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


def _check_p(p: float):
    if not (math.isfinite(p) and p >= 1.0):
        raise ParameterError(f"p must be finite and >= 1, got {p}")


def dyadic_pyramid(cells: np.ndarray, coarsest: int = 1) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n, level-n cell measures) for n = J, J - 1, ..., coarsest.

    `cells` holds the 2^J finest increments along its last axis (one path,
    or a stack of paths).  A pairwise pyramid: level n - 1 is the sum of
    adjacent level-n cells, so all levels cost O(N) together and no
    cumulative path is formed.  Level n - 1 is formed before level n is
    yielded, so a consumer may overwrite every yielded level but the input.
    """
    n = cells.shape[-1].bit_length() - 1
    while True:
        coarser = cells[..., 0::2] + cells[..., 1::2] if n > coarsest else None
        yield n, cells
        if coarser is None:
            return
        cells, n = coarser, n - 1


def _power_sums(x: np.ndarray, p: float, out=None, tmp=None):
    """Sum of |x|^p along the last axis of a 1-d or 2-d x; NaN and inf propagate.

    The first pass, |x| or x^2, goes to `out`, and odd integer p >= 3 square
    x into `tmp`: both have x's shape and are allocated when None, and x is
    only read unless it is `out`.  p = 1 and 2 sum |x| and x^2, bit-identical
    to pow.  Other integer p up to _SQUARING_MAX_P square repeatedly and sum
    one einsum dot, dot(y, y) with y = x^(p/2) or dot(|x|, x^(p-1)); other p
    use np.power.  Not BLAS's dot: OpenBLAS threads one of more than 10^4
    entries, and waking its threads per Besov shift costs more than the
    product.  A 2-d einsum sums rows of more than 8192 entries in chunks, so
    those take a 1-d call each and every row rounds as it does alone.
    """
    n = int(p)
    if n != p or n == 1 or n > _SQUARING_MAX_P:
        y = np.abs(x, out=out)
        return (y if p == 1 else np.power(y, p, out=y)).sum(axis=-1)
    if n == 2:
        return np.square(x, out=out).sum(axis=-1)
    if n % 2 == 0:
        a = b = _int_power(x, n // 2, out)
    else:
        sq = np.multiply(x, x, out=tmp)
        a, b = np.abs(x, out=out), _int_power(sq, (n - 1) // 2, sq)
    if a.ndim == 1 or a.shape[-1] <= 8192:
        return np.einsum("...i,...i->...", a, b)
    return np.array([np.einsum("i,i->", u, v) for u, v in zip(a, b)])


def _int_power(x: np.ndarray, n: int, out) -> np.ndarray:
    """x^n, n >= 1, by repeated squaring into `out` (x's shape, None or x itself):
    x itself at n = 1, `out` at a power of two, else a new array."""
    result = None
    while n > 1:
        if n & 1:
            result = x.copy() if result is None else np.multiply(result, x, out=result)
        x = out = np.multiply(x, x, out=out)
        n >>= 1
    return x if result is None else np.multiply(result, x, out=result)


def level_sums(increments, n_levels: int, p: float) -> np.ndarray:
    """sum_k |level-n increment|^p for n = 1..n_levels, from the 2^J finest increments.

    `increments` is one path's 2^J increments, giving n_levels sums, or an
    (R, 2^J) stack of R paths, giving (R, n_levels); each row's sums are
    bit-identical to the call on that row alone.  The level-n increments
    come from `dyadic_pyramid`, O(N) for all levels, and each level below
    J takes its first power pass in place.
    """
    x = np.asarray(increments, dtype=float)
    N = x.shape[-1] if x.ndim else 0
    if x.ndim not in (1, 2) or N < 2 or N & (N - 1):
        raise ParameterError(
            f"need 2^J >= 2 increments along the last axis of a 1-d or 2-d array, "
            f"got shape {x.shape}"
        )
    J = N.bit_length() - 1
    if n_levels > J:
        raise ResolutionError(f"level {n_levels} exceeds grid resolution J={J}")
    if n_levels < 1:
        raise ParameterError(f"need at least one level, got {n_levels}")
    _check_p(p)
    out = np.empty(x.shape[:-1] + (n_levels,))
    for n, cells in dyadic_pyramid(x):
        if n <= n_levels:
            out[..., n - 1] = _power_sums(cells, p, None if n == J else cells)
    return out


def fit_tail_slope(values) -> float | np.ndarray:
    """Weighted LS slope of log2 values_n vs n over the last ceil(N/2) levels.

    Weights are 2^n: a level-n sum averages 2^n increment powers, so the
    noise variance of its log decays like 2^{-n} and inverse-variance
    weighting sharpens the verdict near the critical exponent.  For exactly
    geometric values the fitted slope is exact regardless of weights.

    Levels with a zero (or NaN) value are dropped; if none are positive the
    series is identically zero on the tail and the slope is -inf, and a
    single positive level gives 0.0.  `values` is one series (returns a
    float) or an (R, N) array of R series (returns R slopes).
    """
    values = np.asarray(values, dtype=float)
    rows = np.atleast_2d(values)
    N = rows.shape[-1]
    start = N - math.ceil(N / 2)
    tail = rows[:, start:]
    ns = np.arange(start + 1, N + 1, dtype=float)
    pos = tail > _ZERO_FLOOR
    n_pos = pos.sum(axis=1)
    w = np.where(pos, 2.0 ** (ns - ns[-1]), 0.0)  # relative to the last level: no overflow
    y = np.log2(tail, out=np.zeros_like(tail), where=pos)
    # rows with fewer than two positive levels divide by zero and are replaced
    # below; an infinite value makes the slope NaN, which reads as inconclusive
    with np.errstate(divide="ignore", invalid="ignore"):
        w /= w.sum(axis=1, keepdims=True)
        xb = np.sum(w * ns, axis=1)
        yb = np.sum(w * y, axis=1)
        dx = ns - xb[:, None]
        sxx = np.sum(w * dx * dx, axis=1)
        sxy = np.sum(w * dx * (y - yb[:, None]), axis=1)
        slopes = np.where(n_pos > 1, sxy / sxx, np.where(n_pos == 1, 0.0, -math.inf))
    return float(slopes[0]) if values.ndim == 1 else slopes


def tail_exponent(raw_rows) -> tuple[np.ndarray, np.ndarray]:
    """(s, one_level) per row of (R, N) raw level sums: s is `fit_tail_slope`
    of the row, and one_level marks a tail with one positive level."""
    rows = np.asarray(raw_rows, dtype=float)
    tail = rows[:, rows.shape[1] // 2 :]  # the last ceil(N/2) levels, as fitted
    return fit_tail_slope(rows), np.count_nonzero(tail > _ZERO_FLOOR, axis=1) == 1


def predicted_exponent_law(spec, n_levels: int, p: float) -> tuple[float, float]:
    """Predicted (mean, sd) of the tail exponent s of a `GeneratorSpec` over
    levels 1..n_levels at exponent p, by the delta method.

    Only Brownian motion at p = 2 is predicted so far.  There R_n/(b - a)
    has mean 1 and Cov(R_n, R_m) = 2 * 2^-max(n, m), so to first order
    Cov(log2 R_n, log2 R_m) = 2 * 2^-max(n, m) / ln^2 2 and, to second
    order, E log2 R_n = -2^-n / ln 2 + log2(b - a).  The fit is linear in
    the log2 R_n, s = sum_n c_n log2 R_n with sum_n c_n = 0, so s does not
    see the constant log2(b - a), and c_n is the slope `fit_tail_slope`
    fits to a series equal to 2 at level n and 1 elsewhere.
    """
    if spec.kind != "bm" or p != 2.0:
        raise ParameterError(f"no predicted exponent law for {spec.kind} at p = {p}")
    if not MIN_LEVELS <= n_levels <= spec.grid.J:
        raise ParameterError(f"n_levels={n_levels} is outside {MIN_LEVELS}..J={spec.grid.J}")
    c = fit_tail_slope(2.0 ** np.eye(n_levels))
    ns = np.arange(1, n_levels + 1, dtype=float)
    mean = float(c @ (-(2.0**-ns) / math.log(2.0)))
    cov = 2.0 * 2.0 ** -np.maximum.outer(ns, ns) / math.log(2.0) ** 2
    return mean, math.sqrt(float(c @ cov @ c))


def slope_at(s, one_level, alpha: float, p: float):
    """Tail slope of the T_n at alpha from `tail_exponent`: the prefactor adds
    alpha p - 1 to every log2 R_n, hence to s; a one-level tail stays 0.0."""
    return np.where(one_level, 0.0, s + (alpha * p - 1.0))


_VERDICTS = (Verdict.CONVERGES, Verdict.INCONCLUSIVE, Verdict.DIVERGES)  # by verdict_code


def verdict_code(slopes):
    """0 (converges) below -SLOPE_THRESHOLD, 2 (diverges) above SLOPE_THRESHOLD,
    1 (inconclusive) otherwise and for NaN, elementwise."""
    slopes = np.asarray(slopes)
    return 1 - (slopes < -SLOPE_THRESHOLD) + (slopes > SLOPE_THRESHOLD)


def series_from_raw(raw_sums, alpha: float, p: float) -> LevelSeriesReport:
    """Assemble the report from precomputed raw level sums for n = 1..N."""
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")
    _check_p(p)
    N = len(raw_sums)
    if N < MIN_LEVELS:
        raise ParameterError(f"need at least {MIN_LEVELS} levels, got {N}")
    terms = 2.0 ** (np.arange(1, N + 1) * (alpha * p - 1.0)) * np.asarray(raw_sums, dtype=float)
    slope = float(slope_at(*tail_exponent([raw_sums]), alpha, p)[0])
    return LevelSeriesReport(
        alpha=alpha,
        p=p,
        levels=tuple(range(1, N + 1)),
        terms=tuple(float(t) for t in terms),
        partial_sums=tuple(float(s) for s in np.cumsum(terms)),
        fitted_log2_slope=slope,
        verdict=_VERDICTS[verdict_code(slope)],
    )


def kamont_series(path: SampledPath, N: int, alpha: float, p: float) -> LevelSeriesReport:
    """Level terms, partial sums, and verdict for levels 1..N."""
    return series_from_raw(level_sums(np.diff(path.values), N, p), alpha, p)

