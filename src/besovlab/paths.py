"""Dyadic grids, sampled paths, additive measure samples, and Besov parameters.

Everything here is immutable after construction and safe to share across
threads.  A measure sample stores increments at the finest level only;
coarser levels come from `criterion.dyadic_pyramid`, so refinement
consistency holds by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

MAX_RESOLUTION = 24  # 2^24 cells ~ 128 MiB of doubles per path


@dataclass(frozen=True)
class Grid:
    """Uniform dyadic grid on [a, b] with 2^J + 1 points; b - a must be finite."""

    a: float
    b: float
    J: int

    def __post_init__(self):
        if not (self.b > self.a and math.isfinite(self.b - self.a)):
            raise ParameterError(f"need b > a with b - a finite, got [{self.a}, {self.b}]")
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


@dataclass(frozen=True, eq=False)
class SampledPath:
    """Function values on a dyadic grid; off-grid evaluation is piecewise linear.

    Compares and hashes by identity, as NumPy arrays give no one truth value.
    """

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


@dataclass(frozen=True, eq=False)
class StochasticMeasureSample:
    """One realization of an additive measure on the finest dyadic algebra.

    Compares and hashes by identity, as `SampledPath` does.
    """

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
        _check_alpha(self.alpha)
        _check_p(self.p)
        _check_p(self.q, "q")


def _check_alpha(alpha: float):
    """The one rule for a smoothness exponent: alpha in (0, 1), NaN refused."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must be in (0, 1), got {alpha}")


def _check_p(p: float, name: str = "p"):
    """The one rule for an integrability exponent `name` (p or q): finite and >= 1."""
    if not (math.isfinite(p) and p >= 1.0):
        raise ParameterError(f"{name} must be finite and >= 1, got {p}")


def path_of(sample: StochasticMeasureSample) -> SampledPath:
    """Cumulative path t -> mu((a, t]) on the grid; starts at 0."""
    values = np.empty(sample.grid.n_points)
    values[0] = 0.0
    np.cumsum(sample.increments, out=values[1:])
    return SampledPath(sample.grid, values)

