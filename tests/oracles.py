"""Test-side references shared by more than one test file.

`measure_of`, `union`, `is_disjoint` and `increments_of` are independent
of the library: dyadic sets become Python sets of cell indices, and level-n
increments come from a strided difference of the path.  `raw_level_sum` and
`level_term` are thin wrappers over `criterion.level_sums`, so tests that
use them still exercise the library's one level-sum path, and
`level_sums_by_pow` is that path with pow in place of repeated squaring.

`bm_p2_law_rows` spells out the stream layout of Brownian motion's p = 2
level-sum law, drawing every stack whole.

`count_pz_hits_outer` and `probe_sums_per_size` are the lemma module's
earlier algorithms, kept as references for the ones that replaced them: the
Paley-Zygmund count over the full outer sum of the two halves' signed sums,
and the boundedness probe with one cell draw per family size.
"""

import math

import numpy as np

from besovlab.criterion import dyadic_pyramid, level_sums
from besovlab.lemma import PZ_BLOCK_SUMS, _signed_sums
from besovlab.paths import DyadicSet


def ref_cells(level, ks, at):
    """The level-`at` cell indices covered by cells ks at `level`, as a Python set."""
    f = 2 ** (at - level)
    return {(k - 1) * f + j for k in ks for j in range(1, f + 1)}


def _cells(A, at):
    return ref_cells(A.level, A.ks.tolist(), at)


def measure_of(sample, A):
    """mu(A): the exactly rounded sum of the finest increments of A's cells."""
    return math.fsum(sample.increments[c - 1] for c in _cells(A, sample.grid.J))


def union(A, B):
    level = max(A.level, B.level)
    return DyadicSet(level, sorted(_cells(A, level) | _cells(B, level)))


def is_disjoint(A, B):
    level = max(A.level, B.level)
    return not _cells(A, level) & _cells(B, level)


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
