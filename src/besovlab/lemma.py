"""Weighted quadratic statistic, Paley-Zygmund check, sign randomization,
and the boundedness-in-probability probe.

The central object is the partial sum

    S_N = sum_{n<=N} a_n^2 sum_k mu(D_{kn})^2

over per-level families of pairwise-disjoint dyadic sets, with summable
positive weights a_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ParameterError, ResolutionError, SizeError
from .generators import GeneratorSpec
from .paths import DyadicInterval, DyadicSet, StochasticMeasureSample, measure_of

PZ_THRESHOLD_FACTOR = 0.25
PZ_PROBABILITY_BOUND = 0.125
EXACT_ENUM_LIMIT = 20
SIGN_BLOCK_ROWS = 1 << 16  # sign patterns per block: 10 MiB of float rows at m = 20


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
class DisjointFamily:
    """Per-level lists of pairwise-disjoint dyadic sets; levels[i] is level i+1."""

    levels: tuple[tuple[DyadicSet, ...], ...]

    def __post_init__(self):
        # disjointness within a level == no duplicate cell at the common level
        for n, sets in enumerate(self.levels, start=1):
            nonempty = [s for s in sets if not s.is_empty()]
            if not nonempty:
                continue
            common = max(s.level for s in nonempty)
            seen: set[int] = set()
            count = 0
            for s in nonempty:
                f = 1 << (common - s.level)
                count += len(s.ks) * f
                seen.update(
                    (k - 1) * f + j for k in s.ks for j in range(1, f + 1)
                )
            if len(seen) != count:
                raise ConfigurationError(f"sets at level {n} are not disjoint")

    @property
    def depth(self) -> int:
        return len(self.levels)

    def max_resolution(self) -> int:
        return max(
            (s.level for sets in self.levels for s in sets if not s.is_empty()),
            default=0,
        )

    @classmethod
    def full_dyadic(cls, depth: int) -> "DisjointFamily":
        """Level n holds the full partition into the 2^n dyadic cells."""
        levels = tuple(
            tuple(
                DyadicSet.from_intervals([DyadicInterval(n, k)])
                for k in range(1, (1 << n) + 1)
            )
            for n in range(1, depth + 1)
        )
        return cls(levels)


def lemma_statistic(
    sample: StochasticMeasureSample,
    weights: WeightSequence,
    family: DisjointFamily,
) -> np.ndarray:
    """Partial sums S_n of the weighted quadratic statistic, n = 1..depth."""
    if len(weights) < family.depth:
        raise ParameterError(
            f"need {family.depth} weights, got {len(weights)}"
        )
    if family.max_resolution() > sample.grid.J:
        raise ResolutionError("family exceeds the sample's dyadic resolution")
    level_sums = np.empty(family.depth)
    for i, sets in enumerate(family.levels):
        a = weights.values[i]
        level_sums[i] = a * a * math.fsum(
            measure_of(sample, s) ** 2 for s in sets
        )
    return np.cumsum(level_sums)


def _count_pz_hits(lam: np.ndarray, threshold: float) -> int:
    """Number of the 2^m sign patterns with (sum lambda_i eps_i)^2 >= threshold.

    Pattern `code` has eps_i = -1 where bit i of `code` is set; patterns are
    enumerated in blocks of SIGN_BLOCK_ROWS so memory stays bounded.
    """
    m = len(lam)
    shifts = np.arange(m, dtype=np.uint32)
    hits = 0
    for start in range(0, 1 << m, SIGN_BLOCK_ROWS):
        codes = np.arange(start, min(start + SIGN_BLOCK_ROWS, 1 << m), dtype=np.uint32)
        signs = 1.0 - 2.0 * ((codes[:, None] >> shifts) & 1).astype(float)
        sums = signs @ lam
        hits += int(np.count_nonzero(sums * sums >= threshold))
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
    for i, sets in enumerate(family.levels):
        row = signs[i]
        if len(row) < len(sets):
            raise ConfigurationError(f"missing sign at level {i + 1}")
        b = DyadicSet.empty()
        c = DyadicSet.empty()
        for s, eps in zip(sets, row):
            if eps == 1:
                b = b.union(s)
            elif eps == -1:
                c = c.union(s)
            else:
                raise ConfigurationError(f"signs must be +-1, got {eps}")
        B.append(b)
        C.append(c)
    return B, C


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
