"""Test-side references shared by more than one test file.

`measure_of` and `increments_of` are independent of the library: a union
of dyadic cells is measured by an exactly rounded sum over the finest
increments it covers, and level-n increments come from a strided difference
of the path.  `raw_level_sum` and `level_term` are thin wrappers over
`criterion.level_sums`, so tests that use them still exercise the library's
one level-sum path, and `level_sums_by_pow` is that path with pow in place
of repeated squaring.

`bm_p2_law_rows` spells out the stream layout of Brownian motion's p = 2
level-sum law, drawing every stack whole.

`count_pz_hits_outer` and `probe_sums_per_size` are the lemma module's
earlier algorithms, kept as references for the ones that replaced them: the
Paley-Zygmund count over the full outer sum of the two halves' signed sums,
and the boundedness probe with one cell draw per family size.  Likewise
`fold_per_alpha` is the sweep fold that the sorted-exponent fold replaced:
every alpha's slopes (`slope_at`), verdict codes (`verdict_code`) and
`np.median` over all replicates.
"""

import math

import numpy as np

from besovlab.criterion import SLOPE_THRESHOLD, dyadic_pyramid, level_sums
from besovlab.harness import AlphaRow
from besovlab.lemma import PZ_BLOCK_SUMS, _signed_sums


def measure_of(sample, level, ks):
    """mu of the level-`level` cells ks (1-based, distinct): the exactly
    rounded sum of the finest increments they cover."""
    f = 1 << (sample.grid.J - level)
    return math.fsum(x for k in ks for x in sample.increments[(k - 1) * f : k * f].tolist())


def increments_of(path, n):
    """The 2^n level-n increments of a sampled path."""
    return np.diff(path.values[:: 1 << (path.grid.J - n)])


def raw_level_sum(path, n, p):
    """sum_k |level-n increment|^p, before the 2^{n(alpha p - 1)} prefactor."""
    return float(level_sums(np.diff(path.values), n, p)[n - 1])


def level_term(path, n, alpha, p):
    """T_n = 2^{n(alpha p - 1)} R_n, the level-n term of `kamont_series`."""
    return 2.0 ** (n * (alpha * p - 1.0)) * raw_level_sum(path, n, p)


def level_sums_by_pow(increments, n_levels, p):
    """`criterion.level_sums` with every power taken by pow: sum_k |c_k|^p
    over the level-n cells of `dyadic_pyramid`, one path or a stack."""
    out = np.empty(np.shape(increments)[:-1] + (n_levels,))
    for n, cells in dyadic_pyramid(np.asarray(increments, dtype=float)):
        if n <= n_levels:
            out[..., n - 1] = np.sum(np.abs(cells) ** p, axis=-1)
    return out


def bm_p2_law_rows(spec, n_levels, stop):
    """Rows 0..stop-1 of BM's p = 2 level-sum law: stack k is a whole
    (256, n_levels + 1) chi-square draw, df 1, 1, 2, 4, ..., on stream
    [seed, k, 2], and R_n = (b - a) 2^-n times the cumulative sum S_n."""
    df = [1.0] + [2.0**k for k in range(n_levels)]
    stacks = [np.random.default_rng([spec.seed, k, 2]).chisquare(df, (256, n_levels + 1))
              for k in range(-(-stop // 256))]
    S = np.cumsum(np.concatenate(stacks or [np.empty((0, n_levels + 1))]), axis=1)
    scale = (spec.grid.b - spec.grid.a) * 2.0 ** -np.arange(1.0, n_levels + 1)
    return S[:stop, 1:] * scale


def count_pz_hits_outer(lam, threshold):
    """Patterns with fl(fl(hi + lo)^2) >= threshold, over the whole outer sum
    of the two halves' signed sums, in row blocks of at most PZ_BLOCK_SUMS."""
    half = (len(lam) + 1) // 2
    hi, lo = _signed_sums(lam[:half]), _signed_sums(lam[half:])
    rows = max(1, PZ_BLOCK_SUMS // len(lo))
    hits = 0
    for start in range(0, len(hi), rows):
        sums = hi[start : start + rows, None] + lo
        hits += int(np.count_nonzero(sums * sums >= threshold))
    return hits


def probe_sums_per_size(generator, family_sizes, replicates):
    """{n: the replicates' |sum_k c_k mu(A_k)|}, drawing every size's cells
    with its own `choice` from the replicate's [seed, r] stream, then its
    coefficients."""
    n_cells = generator.grid.n_cells
    draw = generator.block_sampler()
    sums = {n: np.empty(replicates) for n in family_sizes}
    for r in range(replicates):
        rng = np.random.default_rng([generator.seed, r])
        inc = draw([[generator.seed, r, 1]])[0]
        for n in family_sizes:
            group = max(1, n_cells // (2 * n))
            cells = rng.choice(n_cells, size=n * group, replace=False)
            coeffs = rng.uniform(-1.0, 1.0, size=n)
            sums[n][r] = abs(float(np.dot(coeffs, inc[cells].reshape(n, group).sum(axis=1))))
    return sums


def slope_at(s, one_level, alpha, p):
    """Tail slope of the T_n at alpha from `tail_exponent`: the prefactor adds
    alpha p - 1 to every log2 R_n, hence to s; a one-level tail stays 0.0."""
    return np.where(one_level, 0.0, s + (alpha * p - 1.0))


def verdict_code(slopes):
    """0 (converges) below -SLOPE_THRESHOLD, 2 (diverges) above SLOPE_THRESHOLD,
    1 (inconclusive) otherwise and for NaN, elementwise."""
    slopes = np.asarray(slopes)
    return 1 - (slopes < -SLOPE_THRESHOLD) + (slopes > SLOPE_THRESHOLD)


def fold_per_alpha(s, one_level, alpha_grid, p):
    """(rows, critical alpha) from `tail_exponent`'s (s, one_level), one pass
    over the replicates per alpha."""
    R = len(s)
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
