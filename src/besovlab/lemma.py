"""Weighted quadratic statistic, Paley-Zygmund check, sign randomization,
and the boundedness-in-probability probe.

The central object is the partial sum

    S_N = sum_{n<=N} a_n^2 sum_k mu(D_{kn})^2

over per-level families of pairwise-disjoint dyadic sets, with summable
positive weights a_n.

A `DisjointFamily` stores each level as one integer label array over the
cells at that level's common dyadic resolution: the index of the set that
holds the cell, or -1 for a cell in no set.  The measures of all sets of a
level are then one `np.bincount` over the cell measures, which come from the
same pairwise pyramid as `criterion.level_sums`; a full dyadic family needs
no per-cell objects, and its statistic at p = 2 is the Kamont partial sum.
`randomize_signs` maps each level's signs onto its labels.

The exact Paley-Zygmund check enumerates the two halves of lambda
separately, 2^ceil(m/2) and 2^floor(m/2) signed sums, and counts the hits
over their outer sum in blocks; lambda is first scaled by a power of two so
that tiny or huge coefficients neither under- nor overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .criterion import dyadic_pyramid
from .errors import ConfigurationError, ParameterError, ResolutionError, SizeError
from .generators import GeneratorSpec
from .paths import MAX_RESOLUTION, DyadicSet, StochasticMeasureSample, measure_of

PZ_THRESHOLD_FACTOR = 0.25
PZ_PROBABILITY_BOUND = 0.125
EXACT_ENUM_LIMIT = 20
PZ_BLOCK_SUMS = 1 << 16  # pattern sums per block: 512 KiB of floats


@dataclass(frozen=True)
class WeightSequence:
    """Positive weights a_n, n = 1..N, with a summability diagnostic."""

    values: tuple[float, ...]
    summable: bool = True
    summability_margin: float = float("nan")

    def __post_init__(self):
        if any(v <= 0 for v in self.values):
            raise ParameterError("weights must be positive")

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def geometric(cls, alpha: float, p: float, N: int) -> "WeightSequence":
        """The regularity-proof choice a_n = 2^{n (alpha p - 1) / 2}.

        Summable iff alpha p < 1; the margin adds the geometric tail bound
        to the finite partial sum.
        """
        if N < 1:
            raise ParameterError("need at least one weight")
        ns = np.arange(1, N + 1)
        vals = 2.0 ** (ns * (alpha * p - 1.0) / 2.0)
        ratio = 2.0 ** ((alpha * p - 1.0) / 2.0)
        summable = alpha * p < 1.0
        margin = float(vals.sum())
        if summable:
            margin += float(vals[-1]) * ratio / (1.0 - ratio)
        else:
            margin = math.inf
        return cls(tuple(float(v) for v in vals), summable, margin)

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "WeightSequence":
        return cls(tuple(float(v) for v in values), True, float(np.sum(values)))


@dataclass(frozen=True)
class _LabelLevel:
    """One level of a family: labels[j] is the set holding cell j + 1 at `resolution`, or -1."""

    resolution: int
    labels: np.ndarray
    n_sets: int

    def sets(self) -> tuple[DyadicSet, ...]:
        order = np.argsort(self.labels, kind="stable")
        bounds = np.searchsorted(self.labels[order], np.arange(self.n_sets + 1))
        return tuple(
            DyadicSet(self.resolution, tuple((order[lo:hi] + 1).tolist()))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        )


def _label_level(n: int, sets: tuple[DyadicSet, ...]) -> _LabelLevel:
    """Label the cells of one level's sets; raises if two sets share a cell."""
    members = [(i, s) for i, s in enumerate(sets) if not s.is_empty()]
    resolution = max((s.level for _, s in members), default=0)
    if resolution > MAX_RESOLUTION:
        raise ResolutionError(
            f"set at level {resolution} exceeds the resolution bound {MAX_RESOLUTION}"
        )
    labels = np.full(1 << resolution, -1, dtype=np.intp)
    if members:
        blocks = [
            ((np.asarray(s.ks) - 1)[:, None] << (resolution - s.level))
            + np.arange(1 << (resolution - s.level))
            for _, s in members
        ]
        cells = np.concatenate([b.ravel() for b in blocks])
        if np.bincount(cells, minlength=len(labels)).max() > 1:
            raise ConfigurationError(f"sets at level {n} are not disjoint")
        labels[cells] = np.repeat([i for i, _ in members], [b.size for b in blocks])
    return _LabelLevel(resolution, labels, len(sets))


class DisjointFamily:
    """Per-level families of pairwise-disjoint dyadic sets; index i is level i+1.

    Each level is stored as one label array over the cells at its common
    dyadic resolution (the finest level among its sets), so the measures of
    all sets of a level are one `np.bincount`.  `levels` gives the same
    family as tuples of `DyadicSet`, built only when asked for.
    """

    def __init__(self, levels: Sequence[Sequence[DyadicSet]]):
        self._sets = tuple(tuple(sets) for sets in levels)
        self._labels = tuple(
            _label_level(n, sets) for n, sets in enumerate(self._sets, start=1)
        )

    @classmethod
    def full_dyadic(cls, depth: int) -> "DisjointFamily":
        """Level n holds the full partition into the 2^n dyadic cells."""
        if depth > MAX_RESOLUTION:
            raise ResolutionError(
                f"depth {depth} exceeds the resolution bound {MAX_RESOLUTION}"
            )
        family = cls.__new__(cls)
        family._sets = None
        family._labels = tuple(
            _LabelLevel(n, np.arange(1 << n), 1 << n) for n in range(1, depth + 1)
        )
        return family

    @property
    def levels(self) -> tuple[tuple[DyadicSet, ...], ...]:
        if self._sets is None:
            self._sets = tuple(level.sets() for level in self._labels)
        return self._sets

    @property
    def depth(self) -> int:
        return len(self._labels)

    def max_resolution(self) -> int:
        return max((level.resolution for level in self._labels), default=0)


def lemma_statistic(
    sample: StochasticMeasureSample,
    weights: WeightSequence,
    family: DisjointFamily,
) -> np.ndarray:
    """Partial sums S_n of the weighted quadratic statistic, n = 1..depth.

    The cells of each level's resolution come from the pairwise pyramid of
    the sample's increments, and each set's measure is one bincount over the
    level's labels, so a full dyadic family costs O(N) in the grid size.
    """
    if len(weights) < family.depth:
        raise ParameterError(
            f"need {family.depth} weights, got {len(weights)}"
        )
    if family.max_resolution() > sample.grid.J:
        raise ResolutionError("family exceeds the sample's dyadic resolution")
    needed = {level.resolution for level in family._labels}
    cells = {
        n: c
        for n, c in dyadic_pyramid(sample.increments, min(needed, default=sample.grid.J))
        if n in needed
    }
    level_sums = np.empty(family.depth)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, level in enumerate(family._labels):
            measures = np.bincount(
                level.labels + 1, weights=cells[level.resolution], minlength=level.n_sets + 1
            )[1:]
            a = weights.values[i]
            level_sums[i] = a * a * np.sum(measures * measures)
        partial = np.cumsum(level_sums)
    if not np.all(np.isfinite(partial)):
        raise FloatingPointError("the lemma statistic is not finite")
    return partial


def _signed_sums(lam: np.ndarray) -> np.ndarray:
    """All 2^k sums sum_i eps_i lambda_i over sign patterns of the k coefficients."""
    sums = np.zeros(1)
    for x in lam:
        sums = np.concatenate([sums + x, sums - x])
    return sums


def _count_pz_hits(lam: np.ndarray, threshold: float) -> int:
    """Number of the 2^m sign patterns with (sum lambda_i eps_i)^2 >= threshold.

    Split-half enumeration: each pattern's sum is hi + lo, with hi one of the
    2^ceil(m/2) signed sums of the first half of lambda and lo one of the
    2^floor(m/2) of the second.  The outer sum is formed in blocks of rows
    of at most PZ_BLOCK_SUMS entries, so memory stays bounded.
    """
    half = (len(lam) + 1) // 2
    hi, lo = _signed_sums(lam[:half]), _signed_sums(lam[half:])
    rows = max(1, PZ_BLOCK_SUMS // len(lo))
    # one buffer for every block: a fresh block per iteration left long-running
    # processes with about 1 MiB more peak RSS
    buf = np.empty((min(rows, len(hi)), len(lo)))
    hits = 0
    for start in range(0, len(hi), rows):
        block = hi[start : start + rows, None]
        sums = buf[: len(block)]
        np.add(block, lo, out=sums)
        np.multiply(sums, sums, out=sums)
        hits += int(np.count_nonzero(sums >= threshold))
    return hits


@dataclass(frozen=True)
class PZResult:
    probability: float
    bound: float
    passed: bool
    stderr: Optional[float] = None


def paley_zygmund_check(
    lambdas: Sequence[float],
    mode: str = "exact",
    samples: int = 100_000,
    seed=0,
) -> PZResult:
    """P[(sum lambda_i eps_i)^2 >= 1/4 sum lambda_i^2] over uniform signs.

    Exact mode enumerates all 2^m sign patterns (m <= 20); Monte Carlo mode
    estimates with a 3-sigma guard band on the 1/8 lower bound.
    """
    lam = np.asarray(lambdas, dtype=float)
    m = len(lam)
    if m < 1:
        raise ParameterError("need at least one coefficient")
    if not np.all(np.isfinite(lam)):
        raise ParameterError("coefficients must be finite")
    # Scaling by a power of two keeps the squares in range and rounds exactly
    # as the unscaled sums would wherever those neither under- nor overflow.
    lam = np.ldexp(lam, -np.frexp(np.max(np.abs(lam)))[1])
    threshold = PZ_THRESHOLD_FACTOR * float(np.dot(lam, lam))
    if mode == "exact":
        if m > EXACT_ENUM_LIMIT:
            raise SizeError(
                f"exact enumeration limited to m <= {EXACT_ENUM_LIMIT}, got {m}"
            )
        prob = _count_pz_hits(lam, threshold) / (1 << m)
        return PZResult(prob, PZ_PROBABILITY_BOUND, prob >= PZ_PROBABILITY_BOUND)
    if mode == "monte-carlo":
        rng = np.random.default_rng(seed)
        signs = rng.integers(0, 2, size=(samples, m)) * 2.0 - 1.0
        hits = (signs @ lam) ** 2 >= threshold
        prob = float(np.mean(hits))
        stderr = math.sqrt(max(prob * (1.0 - prob), 1.0 / samples) / samples)
        passed = prob >= PZ_PROBABILITY_BOUND - 3.0 * stderr
        return PZResult(prob, PZ_PROBABILITY_BOUND, passed, stderr)
    raise ParameterError(f"unknown mode {mode!r}")


def randomize_signs(
    family: DisjointFamily,
    signs: Sequence[Sequence[int]],
) -> tuple[list[DyadicSet], list[DyadicSet]]:
    """Split each level of the family into a (+1)-union B_n and (-1)-union C_n.

    `signs[n-1][k-1]` is +-1 for the k-th set at level n.  The identity

        sum_n a_n (mu(B_n) - mu(C_n)) = sum_{n,k} a_n eps_{kn} mu(D_{kn})

    then holds exactly for every sample.
    """
    if len(signs) < family.depth:
        raise ConfigurationError("missing sign assignments for some levels")
    B: list[DyadicSet] = []
    C: list[DyadicSet] = []
    for i, level in enumerate(family._labels):
        row = np.asarray(signs[i][: level.n_sets])
        if len(row) < level.n_sets:
            raise ConfigurationError(f"missing sign at level {i + 1}")
        bad = (row != 1) & (row != -1)
        if np.any(bad):
            raise ConfigurationError(f"signs must be +-1, got {row[bad][0]}")
        # label -1 picks the appended 0: cells in no set join neither union
        signed = np.append(row, 0)[level.labels]
        B.append(_cell_set(level.resolution, signed == 1))
        C.append(_cell_set(level.resolution, signed == -1))
    return B, C


def _cell_set(resolution: int, mask: np.ndarray) -> DyadicSet:
    ks = tuple((np.flatnonzero(mask) + 1).tolist())
    return DyadicSet(resolution, ks) if ks else DyadicSet.empty()


def signed_sum_via_sets(
    sample: StochasticMeasureSample,
    weights: WeightSequence,
    B: Sequence[DyadicSet],
    C: Sequence[DyadicSet],
) -> float:
    """sum_n a_n (mu(B_n) - mu(C_n)) for the randomized-sign construction."""
    return math.fsum(
        a * (measure_of(sample, b) - measure_of(sample, c))
        for a, b, c in zip(weights.values, B, C)
    )


@dataclass(frozen=True)
class ProbeRow:
    family_size: int
    quantile: float


def boundedness_probe(
    generator: GeneratorSpec,
    family_sizes: Sequence[int],
    replicates: int,
    quantile: float,
    seed=0,
) -> list[ProbeRow]:
    """Empirical quantile of |sum_k c_k mu(A_k)| over random disjoint families.

    For each replicate one measure sample is drawn; for each family size n,
    a family of n disjoint groups of finest-level cells is sampled (covering
    about half the interval, so family sizes are comparable) together with
    coefficients |c_k| <= 1.  Uniform boundedness across sizes is the
    property under test.
    """
    if not (0.0 < quantile < 1.0):
        raise ParameterError(f"quantile must be in (0, 1), got {quantile}")
    if replicates < 1:
        raise ParameterError("need at least one replicate")
    n_cells = generator.grid.n_cells
    for n in family_sizes:
        if n > n_cells:
            raise ResolutionError(f"family size {n} exceeds {n_cells} finest cells")
    sums = {n: np.empty(replicates) for n in family_sizes}
    for r in range(replicates):
        rng = np.random.default_rng([generator.seed, r])
        sample = generator.sample(seed=[generator.seed, r, 1])
        inc = sample.increments
        for n in family_sizes:
            group = max(1, n_cells // (2 * n))
            total = min(n * group, n_cells)
            cells = rng.choice(n_cells, size=total, replace=False)
            coeffs = rng.uniform(-1.0, 1.0, size=n)
            picked = inc[cells].reshape(n, -1).sum(axis=1)
            sums[n][r] = abs(float(np.dot(coeffs, picked)))
    return [
        ProbeRow(int(n), float(np.quantile(sums[n], quantile))) for n in family_sizes
    ]
