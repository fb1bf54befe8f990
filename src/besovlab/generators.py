"""Random measure-sample generators: Brownian, weighted-martingale, fBm.

All generators are pure functions of (grid, parameters, seed): equal seeds
give bit-identical output regardless of scheduling.  Seeds may be ints or
sequences of ints and are fed to numpy's PCG64 via default_rng.

Each generator kind is one row of the table `_KINDS`: the Hurst range it
takes (or none), whether it takes a weight, and its sampler factory.
`GeneratorSpec` checks its fields against the row, and `block_sampler()` is
the one generation path: it computes what a spec's draws share (sqrt(dx),
the weight, if any, at the cell midpoints, the fGn circulant embedding)
once and returns `draw(seeds)`, one row of increments per seed, each
seed's normals written into its own row (fGn: one irfft per block), so row
i is bit for bit the block of seeds[i] alone.  `sample()` is the block of
one.

A draw at `level` makes the 2^level increments of the dyadic cells at a
coarser level, with the law of the finest draw summed up the pyramid.  A
row marked `coarse` has a cheap law there, so its draw is made directly:
BM is i.i.d. N(0, 2^-level (b - a)); fGn is Davies-Harte at N = 2^level
with scale (2^-level (b - a))^H, exact in law by self-similarity; the
martingale is N(0, dx sum_k g(mid_k)^2) over each block of finest cells;
the ramp is the constant 2^-level (b - a).  Weighted fBm has no such law,
so it draws only at level J, and a coarser level raises ResolutionError.
A coarse draw uses fewer normals of the seed's stream, so it is equal to
the summed finest draw in law, not bit for bit; at level J both are the
same draw.

A sweep's replicate rows are made here too: `level_sum_rows(n_levels, p)`
returns `rows(out, start)`, which writes the raw level sums R_1..R_{n_levels}
of replicates start, start + 1, ... of the spec's seed into the rows of the
caller's array `out`, so this module owns the map
from replicate to stream: per replicate for cells, per stack for the law.
Replicate i of a kind that draws cells is the block draw of seed
[seed, i] at level n_levels (weighted fBm: at J), summed by `level_sums`
in stacks of about _STACK_FLOATS floats.  At p = 2 a kind's row may carry
a level-sum law instead.  Only BM has one: by the Haar (Levy-Ciesielski)
decomposition R_n = (b - a) 2^-n S_n, where S_0 ~ chi2_1 and S_n = S_{n-1} +
chi2_{2^(n-1)}, all independent, so n_levels + 1 chi-square draws replace
2^n_levels normals.  It is exact in law for all the sums jointly.  The
law's draws are keyed by stacks of _LAW_STACK replicates, not by
replicate: replicate i is row i mod _LAW_STACK of stack i div _LAW_STACK,
one chi-square call on stream [seed, k, 2].  The Generator fills the
stack in C order, so a row never depends on how many rows follow it, and
a block that ends inside a stack draws only the stack's prefix: the rows
do not depend on block bounds either.

fGn has one path, the Davies-Harte circulant embedding: O(N log N) per
draw for every H in (0, 1).  The embedding is nonnegative in exact
arithmetic (Craigmile 2003); the autocovariance is summed without
cancellation, so its computed eigenvalues go negative only by FFT roundoff,
which is clipped, and an eigenvalue below that tolerance raises
ParameterError.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .criterion import level_sums
from .errors import ConfigurationError, ParameterError, ResolutionError, config_number
from .paths import Grid, StochasticMeasureSample


class _WeightKind(NamedTuple):
    arity: int
    fn: Callable[[tuple, np.ndarray], np.ndarray]  # (params, x) -> weight at x
    requires: Optional[tuple[str, Callable[[tuple], bool]]] = None  # (text, test on params)


# params: constant (c,), affine (c0, c1), sine (amp, freq, phase), indicator (lo, hi)
_WEIGHTS = {
    "constant": _WeightKind(1, lambda p, x: np.full_like(x, p[0])),
    "affine": _WeightKind(2, lambda p, x: p[0] + p[1] * x),
    "sine": _WeightKind(3, lambda p, x: p[0] * np.sin(2.0 * np.pi * p[1] * x + p[2])),
    "indicator": _WeightKind(
        2,
        lambda p, x: np.where((x >= p[0]) & (x <= p[1]), 1.0, 0.0),
        ("lo <= hi", lambda p: p[0] <= p[1]),
    ),
}


@dataclass(frozen=True)
class WeightFn:
    """Serializable bounded weight function on [a, b]; its kinds are the rows of `_WEIGHTS`."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in _WEIGHTS:
            raise ConfigurationError(f"unknown weight kind {self.kind!r}")
        row = _WEIGHTS[self.kind]
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if len(self.params) != row.arity:
            raise ConfigurationError(f"{self.kind} weight takes {row.arity} parameters")
        if not all(math.isfinite(p) for p in self.params):
            raise ConfigurationError("weight parameters must be finite")
        if row.requires and not row.requires[1](self.params):
            raise ConfigurationError(f"{self.kind} needs {row.requires[0]}")

    def __call__(self, x):
        return _WEIGHTS[self.kind].fn(self.params, np.asarray(x, dtype=float))

    def descriptor(self) -> str:
        return self.kind + ":" + ",".join(repr(p) for p in self.params)

    @classmethod
    def from_descriptor(cls, text: str) -> "WeightFn":
        if not isinstance(text, str):  # a sidecar or config field of another JSON type
            raise ConfigurationError(f"weight descriptor must be a string, got {text!r}")
        kind, _, rest = text.partition(":")
        try:
            params = tuple(float(tok) for tok in rest.split(",")) if rest else ()
        except ValueError as exc:
            raise ConfigurationError(f"bad weight descriptor {text!r}") from exc
        return cls(kind, params)


BlockSampler = Callable[[Sequence], np.ndarray]  # seeds -> one row per seed, as drawn alone
RowSampler = Callable[[np.ndarray, int], None]  # (out, start): row j of out <- replicate start + j


def _rows(seeds: Sequence, width: int, fill: Callable) -> np.ndarray:
    """(len(seeds), width) rows: `fill(rng, row)` writes row i from seeds[i]'s own stream."""
    out = np.empty((len(seeds), width))
    for row, seed in zip(out, seeds):
        fill(np.random.default_rng(seed), row)
    return out


def _scaled(factor, draw: BlockSampler) -> BlockSampler:
    """`draw` times `factor` (a number, or one value per cell), in place."""
    return lambda seeds: operator.imul(draw(seeds), factor)


# Sampler factories take (grid, H); those of kinds without a Hurst index ignore H.
def _bm_sampler(grid: Grid, H: None) -> BlockSampler:
    normal = lambda rng, row: rng.standard_normal(out=row)
    return _scaled(math.sqrt(grid.dx), lambda seeds: _rows(seeds, grid.n_cells, normal))


def _bm_p2_law(grid: Grid, n_levels: int, seed: int) -> RowSampler:
    """`rows(out, start)` writes BM's raw level sums R_1..R_{n_levels} at p = 2
    of replicates start..start + len(out) - 1 into out, from their joint law.

    Two adjacent level-(n+1) cells u, v sum to their level-n parent, and
    u - v ~ N(0, 2^-n (b - a)) is independent of it and of every coarser
    cell, so R_{n+1} = (R_n + (u - v)^2 summed over the 2^n pairs) / 2.
    Hence R_n = (b - a) 2^-n S_n with S_0 ~ chi2_1 and S_n = S_{n-1} +
    chi2_{2^(n-1)}, all independent: n_levels + 1 chi-square draws, not
    2^n_levels normals.  Stack k is one (rows, n_levels + 1) chi-square draw
    on stream [seed, k, 2], which no other draw uses; only the rows up to
    `stop` are drawn, and those before `start` are dropped.
    """
    df = np.concatenate([[1.0], 2.0 ** np.arange(n_levels)])
    scale = (grid.b - grid.a) * 2.0 ** -np.arange(1.0, n_levels + 1)

    def rows(out: np.ndarray, start: int):
        stop = start + len(out)
        for k in range(start // _LAW_STACK, -(-stop // _LAW_STACK)):
            lo, hi = k * _LAW_STACK, min((k + 1) * _LAW_STACK, stop)
            chi2 = np.random.default_rng([seed, k, 2]).chisquare(df, (hi - lo, n_levels + 1))
            first = max(start, lo)
            out[first - start : hi - start] = np.cumsum(chi2[first - lo :], axis=1)[:, 1:]
        out *= scale

    return rows


def _block_rms(g: np.ndarray, width: int) -> np.ndarray:
    """Root mean square of g over consecutive blocks of `width` values.

    Each block is scaled by its largest |g| before squaring, so a weight
    near the top of the double range does not overflow in g^2.
    """
    blocks = np.abs(g).reshape(-1, width)
    top = blocks.max(axis=1, keepdims=True)
    unit = np.divide(blocks, top, out=np.zeros_like(blocks), where=top > 0.0)
    return top[:, 0] * np.sqrt(np.mean(unit * unit, axis=1))


# Lags from _SERIES_FROM_LAG on are summed from the even binomial series of the
# second difference, whose terms share one sign: the direct formula loses about
# eps * m^2 relative to gamma(m) by cancellation, and the series' 11 terms reach
# full precision from lag 4 on (the truncation is O(m^-24) relative).
_SERIES_FROM_LAG = 4
_SERIES_TERMS = 11
# Eigenvalues down to -EMBEDDING_TOLERANCE * eps * log2(2N) * max eig are FFT
# roundoff around an exact eigenvalue of 0 or more and are clipped to 0.
EMBEDDING_TOLERANCE = 16.0
# floats an fGn draw holds per cell: its N + 1 complex half spectrum and its
# 2N-point irfft output make a row of 4 N + 2
_FGN_FLOATS = 4


def _fgn_autocov(H: float, n_lags: int) -> np.ndarray:
    """Unit-step fGn autocovariance gamma(m), m = 0 .. n_lags - 1.

    gamma(m) = (|m+1|^{2H} - 2|m|^{2H} + |m-1|^{2H}) / 2, summed for
    m >= _SERIES_FROM_LAG as m^{2H} sum_{j>=1} binom(2H, 2j) m^{-2j}, in
    place in gamma: 4 N floats at the peak, no more than the embedding's rfft.
    """
    a = 2.0 * H
    head = np.arange(min(n_lags, _SERIES_FROM_LAG), dtype=float)
    gamma = np.empty(n_lags)
    gamma[: len(head)] = 0.5 * ((head + 1) ** a - 2 * head**a + np.abs(head - 1) ** a)
    if n_lags > _SERIES_FROM_LAG:
        coeffs, binom = [], 1.0
        for k in range(1, 2 * _SERIES_TERMS + 1):
            binom *= (a - k + 1) / k  # binom(a, k)
            if k % 2 == 0:
                coeffs.append(binom)
        m = np.arange(_SERIES_FROM_LAG, n_lags, dtype=float)
        u = 1.0 / (m * m)
        series = gamma[_SERIES_FROM_LAG:]
        series.fill(0.0)
        for c in reversed(coeffs):  # Horner in u
            series += c
            series *= u
        series *= np.power(m, a, out=m)
    return gamma


def _fgn_embedding(N: int, H: float) -> np.ndarray:
    """Square roots of the N + 1 distinct Davies-Harte circulant eigenvalues.

    The embedding of fGn is nonnegative in exact arithmetic (Craigmile 2003),
    so eigenvalues within the roundoff tolerance below 0 are clipped to 0; a
    more negative one means an invalid covariance and raises ParameterError.
    They depend only on (N, H), so a sampler computes them once per spec.
    """
    # the circulant's first row, gamma(0..N) then gamma(N-1..1), lives only
    # while its rfft runs: 4 N floats at the peak
    eig = np.fft.rfft(np.pad(_fgn_autocov(H, N + 1), (0, N - 1), mode="reflect")).real
    top = eig.max()
    floor = -EMBEDDING_TOLERANCE * np.finfo(float).eps * math.log2(2 * N) * top
    if not eig.min() >= floor:
        raise ParameterError(
            f"fGn circulant embedding (N={N}, H={H}) has eigenvalue ratio "
            f"{eig.min() / top:.3g}, below the roundoff tolerance {floor / top:.3g}"
        )
    return np.sqrt(np.clip(eig, 0.0, None))


def _fgn_circulant(root: np.ndarray, seeds: Sequence) -> np.ndarray:
    """Davies-Harte synthesis of unit-step fGn from the embedding's root, one row per seed.

    Row i of Z is the half spectrum of a Hermitian vector: Z[0] and Z[N]
    real standard normals, Z[1:N] = (V[:, 0] + 1j V[:, 1]) / sqrt(2), drawn
    from seeds[i] (a seed or a Generator) in that order and written through
    the (real, imag) view.  One irfft makes all rows, into the same
    allocation as Z (two allocations made a sweep's heap shrink and regrow
    at every stack), and the scaling is in place.
    """
    N = len(root) - 1

    def fill(rng, row):  # re Z[0], im Z[0], re Z[1], im Z[1], ..., re Z[N], im Z[N]
        rng.standard_normal(out=row[:1])
        rng.standard_normal(out=row[2 * N : 2 * N + 1])
        rng.standard_normal(out=row[2 : 2 * N])

    buf = _rows(seeds, _FGN_FLOATS * N + 2, fill)
    parts = buf[:, : 2 * N + 2]
    parts[:, [1, 2 * N + 1]] = 0.0
    parts[:, 2 : 2 * N] *= 1.0 / math.sqrt(2.0)
    Z = parts.view(complex)
    Z *= root
    cells = np.fft.irfft(Z, 2 * N, axis=-1, out=buf[:, 2 * N + 2 :])[:, :N]
    cells *= math.sqrt(2 * N)
    return cells


def _fgn_sampler(grid: Grid, H: float) -> BlockSampler:
    root = _fgn_embedding(grid.n_cells, H)
    return _scaled(grid.dx**H, lambda seeds: _fgn_circulant(root, seeds))


def _ramp_sampler(grid: Grid, H: None) -> BlockSampler:
    n, dx = grid.n_cells, grid.dx
    return lambda seeds: np.full((len(seeds), n), dx)


class _Kind(NamedTuple):
    hurst: Optional[tuple[float, float]]  # the open range of H, or None: the kind takes no H
    weighted: bool  # takes a weight: increment k is weight(midpoint_k) times the base draw
    factory: Callable[[Grid, Optional[float]], BlockSampler]  # (grid, H) -> base draw
    # a coarse draw is the factory on the coarse level's grid (times the block RMS of
    # the weight); otherwise the kind draws only at level J
    coarse: bool
    floats: int  # floats a draw holds per cell
    # (grid, n_levels, seed) -> rows(out, start) of the raw level sums at p = 2 from
    # their exact joint law, or None: the sweep sums drawn cells
    p2_law: Optional[Callable[[Grid, int, int], RowSampler]] = None


# replicates a BM p = 2 law stack draws from one stream: changing it changes every
# BM p = 2 report, since it decides which stream and row each replicate comes from
_LAW_STACK = 256
# floats a stack of drawn-cell replicates holds: 16 rows of 2^12 cells, or 4 fGn
# rows with their spectra; a larger stack gains little and raises the peak memory
# of a sweep
_STACK_FLOATS = 1 << 16

# The first row is the CLI's default process.
_KINDS = {
    "bm": _Kind(None, False, _bm_sampler, True, 1, _bm_p2_law),  # i.i.d. N(0, dx)
    "martingale": _Kind(None, True, _bm_sampler, True, 1),  # g(midpoint_k) dW_k: an Ito integral
    "fbm": _Kind((0.0, 1.0), False, _fgn_sampler, True, _FGN_FLOATS),  # fGn, variance dx^{2H}
    "wfbm": _Kind((0.5, 1.0), True, _fgn_sampler, False, _FGN_FLOATS),  # f(midpoint_k) dW^H_k
    "linear": _Kind(None, False, _ramp_sampler, True, 1),  # the constant dx: a ramp (test stub)
}


@dataclass(frozen=True)
class GeneratorSpec:
    """Serializable recipe for one measure-sample generator."""

    kind: str  # a key of _KINDS
    grid: Grid
    seed: int = 0
    H: Optional[float] = None
    weight: Optional[WeightFn] = None

    KINDS = tuple(_KINDS)

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigurationError(f"unknown generator kind {self.kind!r}")
        row = _KINDS[self.kind]
        # a field the draw ignores would still be recorded in the sidecar
        if row.hurst is None:
            if self.H is not None:
                raise ConfigurationError(f"{self.kind} generator takes no Hurst index")
        elif self.H is None:
            raise ConfigurationError(f"{self.kind} generator needs a Hurst index")
        elif not row.hurst[0] < self.H < row.hurst[1]:
            lo, hi = row.hurst
            raise ParameterError(f"{self.kind} requires H in ({lo:g}, {hi:g}), got {self.H}")
        if not row.weighted and self.weight is not None:
            raise ConfigurationError(f"{self.kind} generator takes no weight")
        if self.seed < 0:  # numpy's seed sequences take no negative entropy
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    def _level(self, level: Optional[int]) -> int:
        level = self.grid.J if level is None else level
        if not 1 <= level <= self.grid.J:
            raise ResolutionError(f"level {level} is outside the grid's levels 1..J={self.grid.J}")
        return level

    def level_sum_rows(self, n_levels: int, p: float) -> RowSampler:
        """`rows(out, start)` writes into the (k, n_levels) array `out` the raw
        level sums R_1..R_{n_levels} at exponent p of replicates
        start..start + k - 1 of the spec's seed; no row depends on `start` or k.

        `bm` at p = 2 draws them from their exact joint law in stacks of
        _LAW_STACK replicates, equal in law to the level sums of a
        `block_sampler(n_levels)` draw, not bit for bit.  Every other kind and
        p sums the draw of seed [seed, i] at level n_levels (at J for a kind
        without a coarse law) with `level_sums`, in stacks of about
        _STACK_FLOATS floats.
        """
        row = _KINDS[self.kind]
        n_levels = self._level(n_levels)
        if row.p2_law is not None and p == 2.0:
            return row.p2_law(self.grid, n_levels, self.seed)
        level = n_levels if row.coarse else self.grid.J
        cells = self.block_sampler(level)
        stack = max(1, _STACK_FLOATS // (row.floats << level))  # floats: a replicate's draw

        def rows(out: np.ndarray, start: int):
            stop = start + len(out)
            for lo in range(start, stop, stack):
                seeds = [[self.seed, i] for i in range(lo, min(lo + stack, stop))]
                out[lo - start : lo - start + len(seeds)] = level_sums(cells(seeds), n_levels, p)

        return rows

    def block_sampler(self, level: Optional[int] = None) -> BlockSampler:
        """`draw(seeds)` -> (len(seeds), 2^level): the increments of the
        level-`level` dyadic cells, row i drawn from seeds[i] alone.

        `level` None is J: the finest increments.  A coarser level has the
        law of the finest draw summed up the pyramid (see the module
        docstring); a kind without a coarse law refuses one.  What the
        draws share is computed here once.
        """
        level, fine = self._level(level), self.grid
        row = _KINDS[self.kind]
        if level < fine.J and not row.coarse:
            raise ResolutionError(f"{self.kind} has no coarse law: level {level} < J={fine.J}")
        grid = Grid(fine.a, fine.b, level)
        draw = row.factory(grid, self.H)
        if self.weight is not None:
            weights = self.weight(fine.midpoints())
            if level < fine.J:
                weights = _block_rms(weights, 1 << (fine.J - level))
            draw = _scaled(weights, draw)
        return draw

    def sample(self, seed=None) -> StochasticMeasureSample:
        """Draw one realization; seed overrides the spec's own seed."""
        s = self.seed if seed is None else seed
        return StochasticMeasureSample(self.grid, self.block_sampler()([s])[0])

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "a": self.grid.a,
            "b": self.grid.b,
            "J": self.grid.J,
            "seed": int(self.seed),
        }
        if self.H is not None:
            d["H"] = self.H
        if self.weight is not None:
            d["weight"] = self.weight.descriptor()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorSpec":
        try:
            grid = Grid(
                config_number(d["a"], "a"),
                config_number(d["b"], "b"),
                config_number(d["J"], "J", integral=True),
            )
            weight = (
                WeightFn.from_descriptor(d["weight"]) if "weight" in d else None
            )
            return cls(
                kind=d["kind"],
                grid=grid,
                seed=config_number(d.get("seed", 0), "seed", integral=True),
                H=config_number(d["H"], "H") if "H" in d else None,
                weight=weight,
            )
        except KeyError as exc:
            raise ConfigurationError(f"generator spec missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad generator spec value: {exc}") from exc
