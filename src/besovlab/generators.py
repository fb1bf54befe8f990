"""Random measure-sample generators: Brownian, weighted-martingale, fBm.

All generators are pure functions of (grid, parameters, seed): equal seeds
give bit-identical output regardless of scheduling.  Seeds may be ints or
sequences of ints and are fed to numpy's PCG64 via default_rng.

`GeneratorSpec.sampler()` is the one generation path: it computes what a
spec's draws share (sqrt(dx), the weight at the cell midpoints, the fGn
circulant embedding) once and returns `draw(seed)`.  `sample()` and the
`generate_*` functions are single draws through the same samplers.

fGn has one path, the Davies-Harte circulant embedding: O(N log N) per
draw for every H in (0, 1).  The embedding is nonnegative in exact
arithmetic (Craigmile 2003); the autocovariance is summed without
cancellation, so its computed eigenvalues go negative only by FFT roundoff,
which is clipped, and an eigenvalue below that tolerance raises
ParameterError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, ParameterError
from .paths import Grid, StochasticMeasureSample

WEIGHT_KINDS = ("constant", "affine", "sine", "indicator")


@dataclass(frozen=True)
class WeightFn:
    """Serializable bounded weight function on [a, b].

    kinds:
      constant:  (c,)                 -> c
      affine:    (c0, c1)             -> c0 + c1 x
      sine:      (amp, freq, phase)   -> amp sin(2 pi freq x + phase)
      indicator: (lo, hi)             -> 1 on [lo, hi], 0 elsewhere
    """

    kind: str
    params: tuple[float, ...]

    _ARITY = {"constant": 1, "affine": 2, "sine": 3, "indicator": 2}

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise ConfigurationError(f"unknown weight kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if len(self.params) != self._ARITY[self.kind]:
            raise ConfigurationError(
                f"{self.kind} weight takes {self._ARITY[self.kind]} parameters"
            )
        if not all(math.isfinite(p) for p in self.params):
            raise ConfigurationError("weight parameters must be finite")
        if self.kind == "indicator" and self.params[0] > self.params[1]:
            raise ConfigurationError("indicator needs lo <= hi")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        p = self.params
        if self.kind == "constant":
            return np.full_like(x, p[0])
        if self.kind == "affine":
            return p[0] + p[1] * x
        if self.kind == "sine":
            return p[0] * np.sin(2.0 * np.pi * p[1] * x + p[2])
        return np.where((x >= p[0]) & (x <= p[1]), 1.0, 0.0)

    @classmethod
    def one(cls) -> "WeightFn":
        return cls("constant", (1.0,))

    def descriptor(self) -> str:
        return self.kind + ":" + ",".join(repr(p) for p in self.params)

    @classmethod
    def from_descriptor(cls, text: str) -> "WeightFn":
        kind, _, rest = text.partition(":")
        try:
            params = tuple(float(tok) for tok in rest.split(",")) if rest else ()
        except ValueError as exc:
            raise ConfigurationError(f"bad weight descriptor {text!r}") from exc
        return cls(kind, params)


Sampler = Callable[[object], np.ndarray]  # seed -> finest-level increments


def _bm_sampler(grid: Grid) -> Sampler:
    n, scale = grid.n_cells, math.sqrt(grid.dx)
    return lambda seed: np.random.default_rng(seed).standard_normal(n) * scale


def _weighted(g: WeightFn, grid: Grid, draw: Sampler) -> Sampler:
    weights = g(grid.midpoints())
    return lambda seed: weights * draw(seed)


def generate_bm(grid: Grid, seed) -> StochasticMeasureSample:
    """Brownian measure: independent N(0, dx) increments over finest cells."""
    return StochasticMeasureSample(grid, _bm_sampler(grid)(seed))


def generate_martingale(grid: Grid, g: WeightFn, seed) -> StochasticMeasureSample:
    """Ito-integral martingale measure with deterministic integrand g.

    Midpoint discretization: increment over cell k is g(midpoint_k) dW_k.
    With g == 1 the output is bit-identical to generate_bm at equal seeds.
    """
    return StochasticMeasureSample(grid, _weighted(g, grid, _bm_sampler(grid))(seed))


# Lags from _SERIES_FROM_LAG on are summed from the even binomial series of the
# second difference, whose terms share one sign: the direct formula loses about
# eps * m^2 relative to gamma(m) by cancellation, and the series' 11 terms reach
# full precision from lag 4 on (the truncation is O(m^-24) relative).
_SERIES_FROM_LAG = 4
_SERIES_TERMS = 11
# Eigenvalues down to -EMBEDDING_TOLERANCE * eps * log2(2N) * max eig are FFT
# roundoff around an exact eigenvalue of 0 or more and are clipped to 0.
EMBEDDING_TOLERANCE = 16.0


def _fgn_autocov(H: float, n_lags: int) -> np.ndarray:
    """Unit-step fGn autocovariance gamma(m), m = 0 .. n_lags - 1.

    gamma(m) = (|m+1|^{2H} - 2|m|^{2H} + |m-1|^{2H}) / 2, summed for
    m >= _SERIES_FROM_LAG as m^{2H} sum_{j>=1} binom(2H, 2j) m^{-2j}.
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
        series = np.zeros_like(m)
        for c in reversed(coeffs):  # Horner in u = m^-2
            series += c
            series *= u
        gamma[_SERIES_FROM_LAG:] = m**a * series
    return gamma


def _fgn_embedding(N: int, H: float) -> np.ndarray:
    """Square roots of the N + 1 distinct Davies-Harte circulant eigenvalues.

    The embedding of fGn is nonnegative in exact arithmetic (Craigmile 2003),
    so eigenvalues within the roundoff tolerance below 0 are clipped to 0; a
    more negative one means an invalid covariance and raises ParameterError.
    They depend only on (N, H), so a sampler computes them once per spec.
    """
    c = _fgn_autocov(H, N + 1)
    eig = np.fft.rfft(np.concatenate([c, c[-2:0:-1]])).real
    top = eig.max()
    floor = -EMBEDDING_TOLERANCE * np.finfo(float).eps * math.log2(2 * N) * top
    if not eig.min() >= floor:
        raise ParameterError(
            f"fGn circulant embedding (N={N}, H={H}) has eigenvalue ratio "
            f"{eig.min() / top:.3g}, below the roundoff tolerance {floor / top:.3g}"
        )
    return np.sqrt(np.clip(eig, 0.0, None))


def _fgn_circulant(root: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Davies-Harte synthesis of unit-step fGn from the embedding's root.

    Z is the half spectrum of a Hermitian vector: Z[0] and Z[N] real
    standard normals, Z[1:N] = (V[:, 0] + 1j V[:, 1]) / sqrt(2), drawn in
    that order and written through a (real, imag) view.
    """
    N = len(root) - 1
    Z = np.empty(N + 1, dtype=complex)
    parts = Z.view(float).reshape(N + 1, 2)
    parts[0] = rng.standard_normal(), 0.0
    parts[N] = rng.standard_normal(), 0.0
    parts[1:N] = rng.standard_normal((N - 1, 2)) * (1.0 / math.sqrt(2.0))
    return math.sqrt(2 * N) * np.fft.irfft(root * Z, 2 * N)[:N]


def _fgn_sampler(grid: Grid, H: float) -> Sampler:
    if not (0.0 < H < 1.0):
        raise ParameterError(f"Hurst index must be in (0, 1), got {H}")
    N, scale = grid.n_cells, grid.dx**H
    root = _fgn_embedding(N, H)
    return lambda seed: _fgn_circulant(root, np.random.default_rng(seed)) * scale


def generate_fgn(grid: Grid, H: float, seed) -> np.ndarray:
    """Fractional Gaussian noise over the finest cells, scaled by dx^H.

    Circulant (FFT) embedding: O(N log N) per draw for every H in (0, 1).
    """
    return _fgn_sampler(grid, H)(seed)


def generate_weighted_fbm_measure(
    grid: Grid, f: WeightFn, H: float, seed
) -> StochasticMeasureSample:
    """Weighted fBm measure, H > 1/2: increment k is f(midpoint_k) dW^H_k."""
    if not H > 0.5:
        raise ParameterError(f"weighted fBm measure requires H > 1/2, got {H}")
    return StochasticMeasureSample(grid, _weighted(f, grid, _fgn_sampler(grid, H))(seed))


def generate_linear(grid: Grid, slope: float = 1.0) -> StochasticMeasureSample:
    """Deterministic ramp measure (test stub): equal increments slope*dx."""
    return StochasticMeasureSample(grid, np.full(grid.n_cells, slope * grid.dx))


@dataclass(frozen=True)
class GeneratorSpec:
    """Serializable recipe for one measure-sample generator."""

    kind: str  # bm | martingale | fbm | wfbm | linear
    grid: Grid
    seed: int = 0
    H: Optional[float] = None
    weight: Optional[WeightFn] = None

    KINDS = ("bm", "martingale", "fbm", "wfbm", "linear")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigurationError(f"unknown generator kind {self.kind!r}")
        if self.kind in ("fbm", "wfbm") and self.H is None:
            raise ConfigurationError(f"{self.kind} generator needs a Hurst index")
        # a field the draw ignores would still be recorded in the sidecar
        if self.kind not in ("fbm", "wfbm") and self.H is not None:
            raise ConfigurationError(f"{self.kind} generator takes no Hurst index")
        if self.kind not in ("martingale", "wfbm") and self.weight is not None:
            raise ConfigurationError(f"{self.kind} generator takes no weight")
        if self.kind == "wfbm" and self.H is not None and not self.H > 0.5:
            raise ParameterError(f"wfbm requires H > 1/2, got {self.H}")
        if self.kind == "fbm" and self.H is not None and not (0.0 < self.H < 1.0):
            raise ParameterError(f"fbm requires H in (0, 1), got {self.H}")

    def sampler(self) -> Sampler:
        """`draw(seed)` -> finest-level increments, equal to `sample(seed).increments`.

        The per-spec constants (sqrt(dx), the weight at the midpoints, the
        fGn circulant embedding) are computed here once, not per draw.
        """
        grid, weight = self.grid, self.weight or WeightFn.one()
        if self.kind == "bm":
            return _bm_sampler(grid)
        if self.kind == "martingale":
            return _weighted(weight, grid, _bm_sampler(grid))
        if self.kind == "fbm":
            return _fgn_sampler(grid, self.H)
        if self.kind == "wfbm":
            return _weighted(weight, grid, _fgn_sampler(grid, self.H))
        n, dx = grid.n_cells, grid.dx
        return lambda seed: np.full(n, dx)

    def sample(self, seed=None) -> StochasticMeasureSample:
        """Draw one realization; seed overrides the spec's own seed."""
        s = self.seed if seed is None else seed
        return StochasticMeasureSample(self.grid, self.sampler()(s))

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
            grid = Grid(float(d["a"]), float(d["b"]), int(d["J"]))
            weight = (
                WeightFn.from_descriptor(d["weight"]) if "weight" in d else None
            )
            return cls(
                kind=d["kind"],
                grid=grid,
                seed=int(d.get("seed", 0)),
                H=float(d["H"]) if "H" in d else None,
                weight=weight,
            )
        except KeyError as exc:
            raise ConfigurationError(f"generator spec missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad generator spec value: {exc}") from exc
