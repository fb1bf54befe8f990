"""Weighted quadratic statistic, Paley-Zygmund check, and the
boundedness-in-probability probe.

The central object is the partial sum

    S_N = sum_{n<=N} a_n^2 sum_k mu(D_{kn})^2

over per-level families of pairwise-disjoint dyadic sets, with summable
positive weights a_n.  On the full dyadic family, where level n holds the
2^n dyadic cells, sum_k mu(D_{kn})^2 is the p = 2 level sum R_n of
`criterion.level_sums`, so S_N is a weighted cumulative sum of R_n; with
the weights of `WeightSequence.geometric` at p = 2 it is the Kamont partial
sum.

The exact Paley-Zygmund check enumerates the two halves of lambda
separately, 2^ceil(m/2) and 2^floor(m/2) signed sums, sorts the second half
once and counts the hits of every first-half sum by bisection (the two-list
method of Horowitz and Sahni, J. ACM 21, 1974), in O(2^{m/2} m) instead of
the 2^m of the outer sum; lambda is first scaled by a power of two so that
tiny or huge coefficients neither under- nor overflow.

The boundedness probe draws one ordered sample of distinct cells per
replicate and gives each family size a prefix of it, so the sizes share
common random numbers while each keeps its exact law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .criterion import level_sums
from .errors import ParameterError, ResolutionError, SizeError
from .generators import GeneratorSpec
from .paths import StochasticMeasureSample, _check_alpha, _check_p

PZ_THRESHOLD_FACTOR = 0.25
PZ_PROBABILITY_BOUND = 0.125
EXACT_ENUM_LIMIT = 20
PZ_BLOCK_SUMS = 1 << 16  # signs per Monte Carlo block: 512 KiB of floats


@dataclass(frozen=True)
class WeightSequence:
    """Positive weights a_n, n = 1..N."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ParameterError("need at least one weight")
        if not all(math.isfinite(v) and v > 0 for v in self.values):
            raise ParameterError("weights must be positive and finite")

    @classmethod
    def geometric(cls, alpha: float, p: float, N: int) -> "WeightSequence":
        """The regularity-proof choice a_n = 2^{n (alpha p - 1) / 2}.

        Summable iff alpha p < 1.
        """
        _check_alpha(alpha)
        _check_p(p)
        ns = np.arange(1, N + 1)
        vals = 2.0 ** (ns * (alpha * p - 1.0) / 2.0)
        return cls(tuple(float(v) for v in vals))


def lemma_statistic(sample: StochasticMeasureSample, weights: WeightSequence) -> np.ndarray:
    """Partial sums S_n of the weighted quadratic statistic over the full
    dyadic family, n = 1..len(weights.values).

    Level n of the family holds the 2^n dyadic cells, so sum_k mu(D_{kn})^2
    is the p = 2 level sum R_n and S_n is one weighted cumulative sum of
    `criterion.level_sums`, O(N) in the grid size.  More weights than the
    sample's J levels raise ResolutionError.
    """
    a = np.asarray(weights.values)
    with np.errstate(over="ignore", invalid="ignore"):
        partial = np.cumsum(a * a * level_sums(sample.increments, len(a), 2.0))
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

    Split-half count: each pattern's sum is h + l, with h one of the
    2^ceil(m/2) signed sums of the first half of lambda and l one of the
    2^floor(m/2) of the second, sorted once.  For fixed h the rounded sum
    s = fl(h + l) is non-decreasing in l, and fl(s * s) is monotone in |s|,
    so the hits with s < 0 are a prefix of the sorted l and those with
    s >= 0 a suffix.  One bisection over every h at once finds the end of
    the prefix and the start of the suffix on the float predicate
    fl(s * s) >= threshold itself, so the count is exactly that of the full
    outer sum, in O(2^{m/2} m) time and O(2^{m/2}) memory.
    """
    half = (len(lam) + 1) // 2
    hi, lo = _signed_sums(lam[:half]), np.sort(_signed_sums(lam[half:]))
    # pos[0] counts the leading l whose sums are hits below 0, pos[1] the
    # leading l whose sums are below 0 or misses; halving steps over
    # len(lo) = 2^k, then a last step of 1, reach every count from 0 to len(lo)
    prefix = np.array([[True], [False]])
    pos = np.zeros((2, len(hi)), dtype=np.intp)
    k = len(lo).bit_length() - 1
    for step in [1 << j for j in reversed(range(k))] + [1]:
        s = hi + lo[pos + (step - 1)]
        hit, neg = s * s >= threshold, s < 0
        pos += step * np.where(prefix, neg & hit, neg | ~hit)
    return int(np.sum(pos[0]) + np.sum(len(lo) - pos[1]))


class PZResult(NamedTuple):
    probability: float
    bound: float
    passed: bool
    stderr: Optional[float] = None


def paley_zygmund_check(
    lambdas: Sequence[float],
    mode: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
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
        if samples < 1:
            raise ParameterError(f"need at least one Monte Carlo sample, got {samples}")
        if seed < 0:  # numpy's seed sequences take no negative entropy
            raise ParameterError(f"seed must be >= 0, got {seed}")
        rng = np.random.default_rng(seed)
        # row blocks of PZ_BLOCK_SUMS signs draw the same bits as one
        # (samples, m) draw, in memory independent of `samples`
        rows = max(1, PZ_BLOCK_SUMS // m)
        hits = 0
        for start in range(0, samples, rows):
            signs = rng.integers(0, 2, size=(min(rows, samples - start), m)) * 2.0 - 1.0
            hits += int(np.count_nonzero((signs @ lam) ** 2 >= threshold))
        prob = hits / samples
        stderr = math.sqrt(max(prob * (1.0 - prob), 1.0 / samples) / samples)
        passed = prob >= PZ_PROBABILITY_BOUND - 3.0 * stderr
        return PZResult(prob, PZ_PROBABILITY_BOUND, passed, stderr)
    raise ParameterError(f"unknown mode {mode!r}")


class ProbeRow(NamedTuple):
    family_size: int
    quantile: float


def boundedness_probe(
    generator: GeneratorSpec,
    family_sizes: Sequence[int],
    replicates: int,
    quantile: float,
) -> list[ProbeRow]:
    """Empirical quantile of |sum_k c_k mu(A_k)| over random disjoint families.

    For each replicate one measure sample is drawn; for each family size n,
    a family of n disjoint groups of `group` finest-level cells (covering
    about half the interval, so family sizes are comparable) is taken
    together with coefficients c_k uniform on [-1, 1].  Uniform boundedness
    across sizes is the property under test.

    Each replicate draws one ordered sample of distinct cells, as many as
    the largest n * group; size n takes its first n * group cells as n
    consecutive groups.  A prefix of a uniform ordered sample is itself one,
    so each size's statistic keeps its exact law, and the sizes share
    common random numbers.  All randomness derives from `generator.seed`:
    replicate r draws its sample from [seed, r, 1], and its cells and then
    each size's coefficients, in the order of `family_sizes`, from
    [seed, r].  A repeated size is refused, and a sum that is not finite
    raises FloatingPointError.
    """
    if not (0.0 < quantile < 1.0):
        raise ParameterError(f"quantile must be in (0, 1), got {quantile}")
    if replicates < 1:
        raise ParameterError("need at least one replicate")
    if len(family_sizes) == 0:
        raise ParameterError("need at least one family size")
    n_cells = generator.grid.n_cells
    seen = set()
    for n in family_sizes:
        if n < 1:
            raise ParameterError(f"family sizes must be at least 1, got {n}")
        if n > n_cells:
            raise ResolutionError(f"family size {n} exceeds {n_cells} finest cells")
        if n in seen:
            raise ParameterError(f"family size {n} is repeated")
        seen.add(n)
    groups = [max(1, n_cells // (2 * n)) for n in family_sizes]
    need = max(n * group for n, group in zip(family_sizes, groups))
    draw = generator.block_sampler()
    sums = np.empty((len(family_sizes), replicates))
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(replicates):
            rng = np.random.default_rng([generator.seed, r])
            inc = draw([[generator.seed, r, 1]])[0]
            picked = inc[rng.choice(n_cells, size=need, replace=False)]
            for i, (n, group) in enumerate(zip(family_sizes, groups)):
                coeffs = rng.uniform(-1.0, 1.0, size=n)
                measures = picked[: n * group].reshape(n, group).sum(axis=1)
                sums[i, r] = abs(float(np.dot(coeffs, measures)))
    if not np.all(np.isfinite(sums)):
        raise FloatingPointError("a probe sum is not finite")
    return [
        ProbeRow(int(n), float(np.quantile(row, quantile))) for n, row in zip(family_sizes, sums)
    ]
