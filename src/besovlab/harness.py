"""Monte Carlo orchestration: alpha sweeps and persistent reports.

A replicate's level sums are a function of (master seed, replicate index)
alone, so results are independent of worker count and scheduling.  The
replicates run as contiguous blocks, one per worker process, at most one
per CPU and per _POOL_FLOATS floats drawn (a single block runs in-process).
Each worker receives the config once and returns the raw level sums of its
block, one row of n_levels per replicate, from
`GeneratorSpec.level_sum_rows`, which owns how a row is drawn, which stream
it comes from (per replicate for cells, per stack for the law) and how many
rows a stack holds.  The fit reads levels 1..n_levels only, so each
replicate is drawn at level n_levels, or for Brownian motion at p = 2 from
the exact joint law of its level sums.  No row depends on block bounds.
This module splits the replicates into blocks, checks that every row is
finite and folds them: one tail fit per replicate gives its raw exponent s
(`criterion.tail_exponent`), and each alpha's verdict counts and median
slope s + alpha p - 1 are one pass over the replicates, so `workers`
changes the wall time, not the report.
The median slope is affine in alpha, so the critical alpha is its zero
(1 - median s)/p, reported when it lies in (first alpha, last alpha].
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass
from typing import Optional

import numpy as np

from . import __version__
from .criterion import MIN_LEVELS, slope_at, tail_exponent, verdict_code
from .errors import ConfigurationError, ParameterError, config_number
from .generators import GeneratorSpec

SCHEMA_VERSION = 1
# floats drawn per worker block (`GeneratorSpec.draw_size`): on a shared 2-core host a
# 2-worker pool lost to one block up to 200 BM p = 3 or martingale replicates of 2^12
# floats and won from 256, so a second block pays from 2^20 (fBm: from about 2^21)
_POOL_FLOATS = 1 << 19


@dataclass(frozen=True)
class ExperimentConfig:
    generator: GeneratorSpec
    p: float
    alpha_grid: tuple[float, ...]
    n_levels: int
    replicates: int
    workers: int = 1

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alpha_grid)
        object.__setattr__(self, "alpha_grid", alphas)
        if not alphas or any(not (0.0 < a < 1.0) for a in alphas):
            raise ConfigurationError("alpha grid must lie inside (0, 1)")
        if any(a2 <= a1 for a1, a2 in zip(alphas, alphas[1:])):
            raise ConfigurationError("alpha grid must be strictly increasing")
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ConfigurationError(f"p must be finite and >= 1, got {self.p}")
        if self.replicates < 1:
            raise ConfigurationError("need at least one replicate")
        if not MIN_LEVELS <= self.n_levels <= self.generator.grid.J:
            raise ConfigurationError(
                f"n_levels={self.n_levels} is outside {MIN_LEVELS}..J={self.generator.grid.J}"
            )
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "generator": self.generator.to_dict(),
            "p": self.p,
            "alpha_grid": list(self.alpha_grid),
            "n_levels": self.n_levels,
            "replicates": self.replicates,
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigurationError(f"config must be a JSON object, got {type(d).__name__}")
        version = d.get("schema_version", SCHEMA_VERSION)
        if config_number(version, "schema_version", integral=True) != SCHEMA_VERSION:
            raise ConfigurationError(f"unsupported config schema version {version}")
        try:
            return cls(
                generator=GeneratorSpec.from_dict(d["generator"]),
                p=config_number(d["p"], "p"),
                alpha_grid=tuple(config_number(a, "alpha_grid") for a in d["alpha_grid"]),
                n_levels=config_number(d["n_levels"], "n_levels", integral=True),
                replicates=config_number(d["replicates"], "replicates", integral=True),
                workers=config_number(d.get("workers", 1), "workers", integral=True),
            )
        except KeyError as exc:
            raise ConfigurationError(f"config missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad config value: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc


@dataclass(frozen=True)
class AlphaRow:  # fields in the order of the report's CSV columns
    alpha: float
    median_slope: float
    frac_converges: float
    frac_diverges: float
    frac_inconclusive: float


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: tuple[AlphaRow, ...]
    critical_alpha: Optional[float]
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "rows": [
                {**asdict(r), "median_slope": _json_float(r.median_slope)} for r in self.rows
            ],
            "critical_alpha": self.critical_alpha,
            "meta": {"wall_time": self.wall_time, "version": __version__},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["alpha", "median_slope", "frac_conv", "frac_div", "frac_inc"])
        writer.writerows([repr(x) for x in astuple(r)] for r in self.rows)
        return buf.getvalue()


def _json_float(x: float):
    return x if math.isfinite(x) else None


def _replicate_block(args) -> np.ndarray:
    """Worker task: raw level sums (before the alpha prefactor) of replicates start..stop-1."""
    config, start, stop = args
    return config.generator.level_sum_rows(config.n_levels, config.p)(start, stop)


def _raw_level_sums(config: ExperimentConfig) -> np.ndarray:
    """(replicates, n_levels) raw level sums, one contiguous block per worker.

    The block count is capped at the CPU count, so a large `workers` starts
    no more processes than can run at once, and at one block per
    _POOL_FLOATS floats drawn, so a cheap sweep starts no pool; no report
    depends on it.
    """
    work = config.replicates * config.generator.draw_size(config.n_levels, config.p)
    n_blocks = min(config.workers, config.replicates, os.cpu_count() or 1,
                   max(1, work // _POOL_FLOATS))
    bounds = [config.replicates * k // n_blocks for k in range(n_blocks + 1)]
    payloads = [(config, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if n_blocks == 1:
        raw = _replicate_block(payloads[0])
    else:
        with ProcessPoolExecutor(max_workers=n_blocks) as pool:
            raw = np.concatenate(list(pool.map(_replicate_block, payloads)))
    # a non-finite increment reaches every coarser level, so this covers the increments too
    bad = np.flatnonzero(~np.isfinite(raw).all(axis=1))
    if bad.size:
        raise ParameterError(
            f"replicate {bad[0]} has non-finite level sums ({bad.size} of "
            f"{config.replicates} replicates); the measure overflows double precision"
        )
    return raw


def run_alpha_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Per-alpha verdict fractions and median slopes over all replicates."""
    t0 = time.perf_counter()
    rows, critical = _fold(_raw_level_sums(config), config.alpha_grid, config.p)
    return ExperimentReport(config, rows, critical, time.perf_counter() - t0)


def _fold(raw: np.ndarray, alpha_grid: tuple[float, ...], p: float):
    """(rows, critical alpha) from (replicates, n_levels) raw level sums.

    One tail fit per replicate gives its exponent s; each row shifts it to
    its alpha in O(replicates) work, and no per-alpha fit is made.
    """
    s, one_level = tail_exponent(raw)
    R = len(raw)
    rows = []
    for alpha in alpha_grid:
        slopes = slope_at(s, one_level, alpha, p)
        converges, inconclusive, diverges = np.bincount(verdict_code(slopes), minlength=3).tolist()
        rows.append(
            AlphaRow(
                alpha=alpha,
                median_slope=float(np.median(slopes)),
                frac_converges=converges / R,
                frac_diverges=diverges / R,
                frac_inconclusive=inconclusive / R,
            )
        )
    # the median slope crosses 0 where alpha = (1 - median s)/p; single-level rows have no s
    fitted = s[~one_level]
    critical = (1.0 - float(np.median(fitted))) / p if fitted.size else math.nan
    return tuple(rows), critical if alpha_grid[0] < critical <= alpha_grid[-1] else None
