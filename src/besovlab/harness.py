"""Monte Carlo orchestration: alpha sweeps, Besov profiles, persistent reports.

Per-replicate RNG streams are derived from (master seed, replicate index),
so results are independent of worker count and scheduling.  Aggregation is
a deterministic fold in replicate-index order after all replicates finish.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .besov import seminorm_integral, shift_norms
from .criterion import Verdict, fit_tail_slope, raw_level_sum, series_from_raw, verdict_from_slope
from .errors import ConfigurationError
from .generators import GeneratorSpec
from .paths import BesovParams, path_of

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
        if self.n_levels > self.generator.grid.J:
            raise ConfigurationError(
                f"n_levels={self.n_levels} exceeds grid J={self.generator.grid.J}"
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
        version = d.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigurationError(f"unsupported config schema version {version}")
        try:
            return cls(
                generator=GeneratorSpec.from_dict(d["generator"]),
                p=float(d["p"]),
                alpha_grid=tuple(d["alpha_grid"]),
                n_levels=int(d["n_levels"]),
                replicates=int(d["replicates"]),
                workers=int(d.get("workers", 1)),
            )
        except KeyError as exc:
            raise ConfigurationError(f"config missing field {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc


@dataclass(frozen=True)
class AlphaRow:
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
                {
                    "alpha": r.alpha,
                    "median_slope": _json_float(r.median_slope),
                    "frac_converges": r.frac_converges,
                    "frac_diverges": r.frac_diverges,
                    "frac_inconclusive": r.frac_inconclusive,
                }
                for r in self.rows
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
        for r in self.rows:
            writer.writerow(
                [
                    repr(r.alpha),
                    repr(r.median_slope),
                    repr(r.frac_converges),
                    repr(r.frac_diverges),
                    repr(r.frac_inconclusive),
                ]
            )
        return buf.getvalue()


def _json_float(x: float):
    return x if math.isfinite(x) else None


def replicate_seed(master_seed: int, index: int) -> list[int]:
    """Seed material for replicate `index`; schedule-independent by design."""
    return [int(master_seed), int(index)]


def _replicate_raw_sums(args) -> list[float]:
    """Worker task: raw level sums (before the alpha prefactor) for one replicate."""
    config_dict, index = args
    config = ExperimentConfig.from_dict(config_dict)
    seed = replicate_seed(config.generator.seed, index)
    sample = config.generator.sample(seed=seed)
    path = path_of(sample)
    return [raw_level_sum(path, n, config.p) for n in range(1, config.n_levels + 1)]


def _map_replicates(config: ExperimentConfig, task, payloads):
    if config.workers == 1:
        return [task(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(task, payloads))


def run_alpha_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Per-alpha verdict fractions and median slopes over all replicates."""
    t0 = time.perf_counter()
    payloads = [(config.to_dict(), i) for i in range(config.replicates)]
    raw_by_rep = _map_replicates(config, _replicate_raw_sums, payloads)

    rows = []
    for alpha in config.alpha_grid:
        slopes = np.empty(config.replicates)
        counts = {v: 0 for v in Verdict}
        for i, raw in enumerate(raw_by_rep):
            report = series_from_raw(raw, alpha, config.p)
            slopes[i] = report.fitted_log2_slope
            counts[report.verdict] += 1
        rows.append(
            AlphaRow(
                alpha=alpha,
                median_slope=float(np.median(slopes)),
                frac_converges=counts[Verdict.CONVERGES] / config.replicates,
                frac_diverges=counts[Verdict.DIVERGES] / config.replicates,
                frac_inconclusive=counts[Verdict.INCONCLUSIVE] / config.replicates,
            )
        )

    critical = _critical_alpha(rows)
    return ExperimentReport(
        config=config,
        rows=tuple(rows),
        critical_alpha=critical,
        wall_time=time.perf_counter() - t0,
    )


def _critical_alpha(rows: Sequence[AlphaRow]) -> Optional[float]:
    """Zero crossing of the median slope, linearly interpolated."""
    for r1, r2 in zip(rows, rows[1:]):
        s1, s2 = r1.median_slope, r2.median_slope
        if not (math.isfinite(s1) and math.isfinite(s2)):
            continue
        if s1 < 0.0 <= s2:
            return r1.alpha + (r2.alpha - r1.alpha) * (-s1) / (s2 - s1)
    return None


@dataclass(frozen=True)
class BesovProfileRow:
    alpha: float
    p: float
    q: float
    median_seminorm: float
    iqr_seminorm: float


def _replicate_seminorms(args) -> list[float]:
    config_dict, params_list, index = args
    config = ExperimentConfig.from_dict(config_dict)
    seed = replicate_seed(config.generator.seed, index)
    path = path_of(config.generator.sample(seed=seed))
    out = []
    # the shift-norm table depends only on p: share it across params
    by_p: dict[float, np.ndarray] = {}
    for alpha, p, q in params_list:
        d = by_p.get(p)
        if d is None:
            d = shift_norms(path, p)
            by_p[p] = d
        out.append(seminorm_integral(path, d, alpha, q) ** (1.0 / q))
    return out


def run_besov_profile(
    config: ExperimentConfig, params_list: Sequence[BesovParams]
) -> list[BesovProfileRow]:
    """Median and interquartile range of the truncated seminorm per params."""
    triples = [(prm.alpha, prm.p, prm.q) for prm in params_list]
    payloads = [
        (config.to_dict(), triples, i) for i in range(config.replicates)
    ]
    results = np.asarray(_map_replicates(config, _replicate_seminorms, payloads))
    rows = []
    for j, prm in enumerate(params_list):
        col = results[:, j]
        q25, q50, q75 = np.percentile(col, [25.0, 50.0, 75.0])
        rows.append(
            BesovProfileRow(prm.alpha, prm.p, prm.q, float(q50), float(q75 - q25))
        )
    return rows
