"""Dyadic grids, sampled paths, and additive measure samples.

Everything here is immutable after construction and safe to share across
worker processes.  A measure sample stores increments at the finest level
only; coarser increments are computed on demand, so refinement consistency
holds by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError, ResolutionError

MAX_RESOLUTION = 24  # 2^24 cells ~ 128 MiB of doubles per path


@dataclass(frozen=True)
class Grid:
    """Uniform dyadic grid on [a, b] with 2^J + 1 points."""

    a: float
    b: float
    J: int

    def __post_init__(self):
        if not self.b > self.a:
            raise ParameterError(f"need b > a, got [{self.a}, {self.b}]")
        if not (1 <= self.J <= MAX_RESOLUTION):
            raise ParameterError(f"J must be in [1, {MAX_RESOLUTION}], got {self.J}")

    @property
    def n_cells(self) -> int:
        return 1 << self.J

    @property
    def n_points(self) -> int:
        return self.n_cells + 1

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.n_cells

    def point(self, k: int) -> float:
        if k == 0:
            return self.a
        if k == self.n_cells:
            return self.b
        return self.a + k * (self.b - self.a) / self.n_cells

    def points(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n_points)

    def midpoints(self) -> np.ndarray:
        p = self.points()
        return 0.5 * (p[:-1] + p[1:])


def _frozen(arr) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    if out.ndim != 1:
        raise ParameterError("expected a 1-d real sequence")
    out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SampledPath:
    """Function values on a dyadic grid; off-grid evaluation is piecewise linear."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        if len(self.values) != self.grid.n_points:
            raise ParameterError(
                f"expected {self.grid.n_points} values, got {len(self.values)}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("path values must be finite")


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """Half-open dyadic cell (a + (k-1) 2^{-n}(b-a), a + k 2^{-n}(b-a)]."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 0:
            raise ParameterError(f"level must be >= 0, got {self.n}")
        if not (1 <= self.k <= (1 << self.n)):
            raise ParameterError(f"index {self.k} out of range at level {self.n}")

    def refine(self, level: int) -> range:
        """Indices of the level-`level` cells covering this interval."""
        if level < self.n:
            raise ParameterError("cannot refine to a coarser level")
        f = 1 << (level - self.n)
        return range((self.k - 1) * f + 1, self.k * f + 1)

    def endpoints(self, grid: Grid) -> tuple[float, float]:
        w = (grid.b - grid.a) / (1 << self.n)
        return (grid.a + (self.k - 1) * w, grid.a + self.k * w)


@dataclass(frozen=True)
class DyadicSet:
    """Finite union of dyadic cells, kept in normal form.

    Normal form: all cells expressed at a single common level, pairwise
    disjoint, indices sorted.
    """

    level: int
    ks: tuple[int, ...]

    def __post_init__(self):
        if self.level < 0:
            raise ParameterError("level must be >= 0")
        ks = tuple(sorted(self.ks))
        if any(k2 == k1 for k1, k2 in zip(ks, ks[1:])):
            raise ParameterError("duplicate cell index in normal form")
        if ks and not (1 <= ks[0] and ks[-1] <= (1 << self.level)):
            raise ParameterError("cell index out of range")
        object.__setattr__(self, "ks", ks)

    @classmethod
    def empty(cls) -> "DyadicSet":
        return cls(0, ())

    @classmethod
    def from_intervals(cls, intervals: Iterable[DyadicInterval]) -> "DyadicSet":
        intervals = list(intervals)
        if not intervals:
            return cls.empty()
        level = max(iv.n for iv in intervals)
        ks: set[int] = set()
        for iv in intervals:
            ks.update(iv.refine(level))
        return cls(level, tuple(sorted(ks)))

    @classmethod
    def full(cls) -> "DyadicSet":
        """The whole interval (a, b]."""
        return cls(0, (1,))

    def is_empty(self) -> bool:
        return not self.ks

    def at_level(self, level: int) -> "DyadicSet":
        if level < self.level:
            raise ParameterError("cannot coarsen a dyadic set")
        f = 1 << (level - self.level)
        ks = tuple(
            (k - 1) * f + j for k in self.ks for j in range(1, f + 1)
        )
        return DyadicSet(level, ks)

    def union(self, other: "DyadicSet") -> "DyadicSet":
        level = max(self.level, other.level)
        a, b = self.at_level(level), other.at_level(level)
        return DyadicSet(level, tuple(sorted(set(a.ks) | set(b.ks))))

    def is_disjoint_from(self, other: "DyadicSet") -> bool:
        level = max(self.level, other.level)
        a, b = self.at_level(level), other.at_level(level)
        return not (set(a.ks) & set(b.ks))

    def measure_length(self, grid: Grid) -> float:
        """Lebesgue length of the union."""
        return len(self.ks) * (grid.b - grid.a) / (1 << self.level)


@dataclass(frozen=True)
class StochasticMeasureSample:
    """One realization of an additive measure on the finest dyadic algebra."""

    grid: Grid
    increments: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "increments", _frozen(self.increments))
        if len(self.increments) != self.grid.n_cells:
            raise ParameterError(
                f"expected {self.grid.n_cells} increments, got {len(self.increments)}"
            )


@dataclass(frozen=True)
class BesovParams:
    """(alpha, p, q) triple for the Besov norm."""

    alpha: float
    p: float
    q: float

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.alpha, self.p, self.q)):
            raise ParameterError(
                f"alpha, p, q must be finite, got {self.alpha}, {self.p}, {self.q}"
            )
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.p < 1.0 or self.q < 1.0:
            raise ParameterError(f"p, q must be >= 1, got p={self.p}, q={self.q}")

    @property
    def in_guaranteed_regime(self) -> bool:
        """p >= 2 and alpha < 1/p: membership is guaranteed for measure paths."""
        return self.p >= 2.0 and self.alpha < 1.0 / self.p


def measure_of(sample: StochasticMeasureSample, A: DyadicSet) -> float:
    """Value of the measure on a dyadic set, by additivity over finest cells."""
    if A.is_empty():
        return 0.0
    if A.level > sample.grid.J:
        raise ResolutionError(
            f"set at level {A.level} exceeds sample resolution J={sample.grid.J}"
        )
    f = 1 << (sample.grid.J - A.level)
    idx = np.asarray(A.ks, dtype=np.int64) - 1
    # fixed summation order: cells in sorted position, finest index ascending
    blocks = sample.increments.reshape(-1, f)
    return float(np.sum(blocks[idx, :]))


def path_of(sample: StochasticMeasureSample) -> SampledPath:
    """Cumulative path t -> mu((a, t]) on the grid; starts at 0."""
    values = np.empty(sample.grid.n_points)
    values[0] = 0.0
    np.cumsum(sample.increments, out=values[1:])
    return SampledPath(sample.grid, values)


def increments_of(path: SampledPath, n: int) -> np.ndarray:
    """Level-n dyadic increments of the path (2^n entries)."""
    if n > path.grid.J:
        raise ResolutionError(f"level {n} exceeds grid resolution J={path.grid.J}")
    if n < 0:
        raise ParameterError("level must be >= 0")
    step = 1 << (path.grid.J - n)
    return np.diff(path.values[::step])


def sample_from_path(path: SampledPath) -> StochasticMeasureSample:
    """Inverse of path_of: finest-level increments of a sampled path."""
    return StochasticMeasureSample(path.grid, np.diff(path.values))
