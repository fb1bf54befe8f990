"""Monte Carlo orchestration: alpha sweeps and persistent reports.

A replicate's level sums are a function of (master seed, replicate index)
alone, so results are independent of worker count and scheduling.  The
replicates run as contiguous blocks, at most `workers` and one per CPU, on
threads of one process (a single block runs in the calling thread); NumPy
releases the GIL in the draws, FFTs and level sums that make up a block.
Every block calls the same `rows(out, start)` from
`GeneratorSpec.level_sum_rows`, built once per sweep, which owns how a row
is drawn, which stream it comes from (per replicate for cells, per stack
for the law) and how many rows a stack holds, and writes its rows into the
block's slice of the sweep's one (replicates, n_levels) array.  The fit
reads levels 1..n_levels only, so each replicate is drawn at level
n_levels, or for Brownian motion at p = 2 from the exact joint law of its
level sums.  No row depends on block bounds.
This module splits the replicates into blocks, checks that every row is
finite and folds them: one tail fit per replicate gives its raw exponent s
(`criterion.tail_exponent`), and `criterion.fold_exponents`, the rule that
also gives one path's verdict, reads each alpha's verdict counts and
median slope s + alpha p - 1 off the sorted s by bisection, O(log
replicates) an alpha, so a long alpha grid costs little more than a short
one, and `workers` changes the wall time, not the report.
The median slope is affine in alpha, so the critical alpha is its zero
(1 - median s)/p, reported when it lies in (first alpha, last alpha].
"""

from __future__ import annotations

import contextvars
import json
import math
import os
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .criterion import MIN_LEVELS, _json_float, fold_exponents, tail_exponent
from .errors import ConfigurationError, config_number
from .generators import GeneratorSpec

SCHEMA_VERSION = 1


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


class AlphaRow(NamedTuple):  # fields in the order of the report's CSV columns
    alpha: float
    median_slope: float
    frac_converges: float
    frac_diverges: float
    frac_inconclusive: float


class ExperimentReport(NamedTuple):
    config: ExperimentConfig
    rows: tuple[AlphaRow, ...]
    critical_alpha: Optional[float]
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "rows": [
                {**r._asdict(), "median_slope": _json_float(r.median_slope)} for r in self.rows
            ],
            "critical_alpha": self.critical_alpha,
            "meta": {"wall_time": self.wall_time, "version": __version__},
        }

    def to_csv(self) -> str:
        # a float's repr holds no comma or quote, so no field needs quoting
        lines = ["alpha,median_slope,frac_conv,frac_div,frac_inc"]
        lines.extend(",".join(map(repr, r)) for r in self.rows)
        return "\n".join(lines) + "\n"


def _raw_level_sums(config: ExperimentConfig) -> np.ndarray:
    """(replicates, n_levels) raw level sums, one contiguous block of rows per
    thread, each written in place into its own slice of the one array.

    The block count is min(workers, replicates, CPU count), so a large
    `workers` starts no more threads than can run at once; no report
    depends on it.  Each block runs in its own copy of the caller's context,
    so the threads keep the caller's `np.errstate`.
    """
    rows = config.generator.level_sum_rows(config.n_levels, config.p)
    raw = np.empty((config.replicates, config.n_levels))
    n_blocks = min(config.workers, config.replicates, os.cpu_count() or 1)
    bounds = [config.replicates * k // n_blocks for k in range(n_blocks + 1)]
    blocks = [(raw[lo:hi], lo) for lo, hi in zip(bounds, bounds[1:])]
    if n_blocks == 1:
        rows(*blocks[0])
    else:
        # imported here, so that no other command loads concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_blocks) as pool:
            for done in [pool.submit(contextvars.copy_context().run, rows, *b) for b in blocks]:
                done.result()
    # a non-finite increment reaches every coarser level, so this covers the increments too
    if not np.isfinite(raw).all():
        bad = np.flatnonzero(~np.isfinite(raw).all(axis=1))
        raise FloatingPointError(
            f"replicate {bad[0]} has non-finite level sums ({bad.size} of "
            f"{config.replicates} replicates); the measure overflows double precision"
        )
    return raw


def run_alpha_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Per-alpha verdict fractions and median slopes over all replicates."""
    t0 = time.perf_counter()
    s, one_level = tail_exponent(_raw_level_sums(config))
    alphas, R = config.alpha_grid, config.replicates
    medians, converges, diverges, median_s = fold_exponents(s, one_level, alphas, config.p)
    rows = tuple(
        AlphaRow(alpha=alpha, median_slope=median, frac_converges=c / R,
                 frac_diverges=d / R, frac_inconclusive=(R - c - d) / R)
        for alpha, median, c, d in zip(alphas, medians.tolist(), converges.tolist(),
                                       diverges.tolist())
    )
    # the median slope crosses 0 where alpha = (1 - median s)/p; single-level rows have no s
    critical = (1.0 - median_s) / config.p
    critical = critical if alphas[0] < critical <= alphas[-1] else None
    return ExperimentReport(config, rows, critical, time.perf_counter() - t0)
