"""Besov norm of a sampled path: L_p norm, modulus of continuity, seminorm.

The path is understood as its piecewise-linear interpolant.  At p = 2 the
shift norms use the exact cell integral (l^2 + l r + r^2) / 3 of a squared
linear segment, summed for every shift at once: the cross terms
sum_k v_k v_{k+m} come from one zero-padded FFT autocorrelation of the
mean-centred path (Wiener-Khinchin) and the edge terms from prefix sums,
so all N shifts cost O(N log N).  The FFT's absolute error is about
eps * |v|^2, which is large relative to the norms of the smallest shifts
and of the largest (short overlaps), so the first and last DIRECT_SHIFTS
shifts are summed directly by the same closed form; the first ones are
the smallest octave of the t-grid and feed the tail fit.

Every other p keeps 5-node Gauss-Legendre quadrature per cell, exact for
|linear|^p up to quadrature order, one shift at a time: O(N^2), so it is
refused above GENERAL_P_MAX_J.  The L_p norm itself is one O(N) Gauss pass
for every p.

The outer singular integral is truncated at the grid spacing and evaluated
on a logarithmic t-grid; an opt-in power-law extrapolation estimates the
unresolved tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .errors import ParameterError, ResolutionError, SizeError
from .paths import BesovParams, SampledPath

POINTS_PER_OCTAVE = 64
# p = 2 shifts summed directly at each end of the shift range, not by FFT;
# they include the d[0] and d[1] of the tail fit
DIRECT_SHIFTS = 64
# p != 2 shift norms cost O(N^2): about 15 s at J = 14 on a 2-core Xeon
GENERAL_P_MAX_J = 14
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(5)
# mapped from [-1, 1] to [0, 1]
_S = 0.5 * (_GAUSS_NODES + 1.0)
_W = 0.5 * _GAUSS_WEIGHTS


@dataclass(frozen=True)
class ModulusCurve:
    """w_p(t) on an increasing t-grid from dx up to b - a."""

    t_grid: np.ndarray
    w_values: np.ndarray

    def __post_init__(self):
        for name in ("t_grid", "w_values"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class BesovNormReport:
    lp_norm: float
    seminorm_truncated: float
    truncation_floor: float
    extrapolated_seminorm: Optional[float]
    tail_diverges: bool
    norm_total: float

    def to_dict(self) -> dict:
        return {
            "lp_norm": self.lp_norm,
            "seminorm_truncated": self.seminorm_truncated,
            "truncation_floor": self.truncation_floor,
            "extrapolated_seminorm": self.extrapolated_seminorm,
            "tail_diverges": self.tail_diverges,
            "norm_total": self.norm_total,
        }


def _cell_power_integral(left: np.ndarray, right: np.ndarray, p: float, dx: float) -> float:
    """sum over cells of integral |linear segment|^p, Gauss 5-node per cell."""
    vals = np.multiply.outer(left, 1.0 - _S) + np.multiply.outer(right, _S)
    np.abs(vals, out=vals)
    if p == 2.0:
        vals *= vals
    else:
        vals **= p
    return float(np.dot(vals.sum(axis=0), _W)) * dx


def _check_p(p: float):
    if not (math.isfinite(p) and p >= 1.0):
        raise ParameterError(f"p must be finite and >= 1, got {p}")


def lp_norm(path: SampledPath, p: float) -> float:
    """L_p norm of the piecewise-linear interpolant on [a, b]."""
    _check_p(p)
    v = path.values
    total = _cell_power_integral(v[:-1], v[1:], p, path.grid.dx)
    return total ** (1.0 / p)


def shift_norms(path: SampledPath, p: float, max_shift: Optional[int] = None) -> np.ndarray:
    """Discrete L_p norm of f(. - h) - f(.) over the overlap, per shift h = m dx.

    Entry m-1 corresponds to shift m, m = 1..max_shift.  Only nonnegative
    shifts are needed: for h < 0 substituting x -> x - h maps the overlap
    integral onto the h > 0 case.  p = 2 costs O(N log N); other p cost
    O(N^2) and are refused above J = GENERAL_P_MAX_J.
    """
    _check_p(p)
    v = path.values
    N = path.grid.n_cells
    dx = path.grid.dx
    M = N if max_shift is None else min(max_shift, N)
    if p == 2.0:
        return np.sqrt(np.maximum(_p2_shift_cell_sums(v, M) * dx, 0.0))
    if path.grid.J > GENERAL_P_MAX_J:
        raise SizeError(
            f"shift norms for p != 2 cost O(N^2) and are limited to "
            f"J <= {GENERAL_P_MAX_J}, got J={path.grid.J}; p = 2 is the fast path"
        )
    out = np.empty(M)
    for m in range(1, M + 1):
        g = v[: N + 1 - m] - v[m:]
        out[m - 1] = _cell_power_integral(g[:-1], g[1:], p, dx) ** (1.0 / p)
    return out


def _p2_shift_cell_sums(v: np.ndarray, M: int) -> np.ndarray:
    """sum_k (g_k^2 + g_k g_{k+1} + g_{k+1}^2) / 3 for g = v[:-m] - v[m:], m = 1..M.

    With A = sum_k g_k^2 and B = sum_k g_k g_{k+1} over the overlap of
    length L = N + 1 - m, the cell sum is (2 A + B - g_0^2 - g_{L-1}^2) / 3.
    The FFT's absolute error is about eps |c|^2, too large relative to the
    norms of the smallest shifts and of the largest (short overlaps), so the
    first and last DIRECT_SHIFTS shifts take A and B from dot products.  The
    others expand them through the autocorrelation R(j) = sum_k c_k c_{k+j}
    of the mean-centred path c and prefix sums of c_k^2 and c_k c_{k+1}.
    NaN and inf propagate to the result.
    """
    c = v - v.mean()  # shift norms ignore constants; centring shrinks |c|^2
    N = len(c) - 1
    m = np.arange(1, M + 1)
    A = np.empty(M)
    B = np.empty(M)
    lo = min(M, DIRECT_SHIFTS)
    hi = max(lo, N - DIRECT_SHIFTS)
    for j in chain(range(1, lo + 1), range(hi + 1, M + 1)):
        g = c[: N + 1 - j] - c[j:]
        A[j - 1] = np.dot(g, g)
        B[j - 1] = np.dot(g[:-1], g[1:])
    r = m[lo : min(M, hi)]
    if r.size:
        # the circular autocorrelation over 2N points equals R(j) for j < N;
        # these shifts need j <= N - DIRECT_SHIFTS + 1, so DIRECT_SHIFTS >= 2
        spec = np.fft.rfft(c, 2 * N)
        R = np.fft.irfft(spec.real**2 + spec.imag**2, 2 * N)[:N]
        sq = c * c
        prod = c[:-1] * c[1:]
        sq_pre = np.cumsum(sq)  # sq_pre[j-1] = sum_{k<j} c_k^2
        sq_suf = np.cumsum(sq[::-1])  # sq_suf[j-1] = sum_{k>N-j} c_k^2
        prod_pre = np.cumsum(prod)
        prod_suf = np.cumsum(prod[::-1])
        A[r - 1] = 2.0 * np.dot(c, c) - sq_pre[r - 1] - sq_suf[r - 1] - 2.0 * R[r]
        B[r - 1] = (
            2.0 * prod_pre[-1]
            - prod_pre[r - 1]
            - prod_suf[r - 1]
            - R[r + 1]
            - R[r - 1]
            + c[0] * c[r - 1]
            + c[N + 1 - r] * c[N]
        )
    first = c[0] - c[m]
    last = c[N - m] - c[N]
    return (2.0 * A + B - first * first - last * last) / 3.0


def modulus(path: SampledPath, t: float, p: float) -> float:
    """w_p(t): sup over shifts h <= t (grid multiples) of the overlap L_p norm."""
    dx = path.grid.dx
    span = path.grid.b - path.grid.a
    if t < dx * (1.0 - 1e-12):
        raise ResolutionError(f"t={t} is below the grid spacing {dx}")
    if t > span * (1.0 + 1e-12):
        raise ParameterError(f"t={t} exceeds the interval length {span}")
    m = min(max(int(t / dx * (1.0 + 1e-12)), 1), path.grid.n_cells)
    return float(shift_norms(path, p, max_shift=m).max())


def modulus_curve(path: SampledPath, p: float) -> ModulusCurve:
    """w_p on the standard logarithmic t-grid (64 points per octave)."""
    t_grid = _log_t_grid(path)
    d = shift_norms(path, p)
    w = _modulus_on_grid(path, t_grid, d)
    return ModulusCurve(t_grid, w)


def _log_t_grid(path: SampledPath) -> np.ndarray:
    J = path.grid.J
    span = path.grid.b - path.grid.a
    k = np.arange(J * POINTS_PER_OCTAVE + 1)
    return span * 2.0 ** (-J + k / POINTS_PER_OCTAVE)


def _modulus_on_grid(path: SampledPath, t_grid: np.ndarray, d: np.ndarray) -> np.ndarray:
    prefix_max = np.maximum.accumulate(d)
    dx = path.grid.dx
    m = np.minimum((t_grid / dx * (1.0 + 1e-12)).astype(int), len(d))
    if m.min() < 1:
        raise ResolutionError("t-grid reaches below the grid spacing")
    return prefix_max[m - 1]


def seminorm_integral(path: SampledPath, d: np.ndarray, alpha: float, q: float) -> float:
    """Truncated integral of w_p(t)^q t^{-alpha q - 1} dt over [dx, b - a].

    `d` is the path's full shift-norm table `shift_norms(path, p)`; w_p is
    its prefix maximum on the logarithmic t-grid, and the integral is the
    trapezoid rule in log t.  The truncated seminorm is its q-th root.
    """
    t_grid = _log_t_grid(path)
    w = _modulus_on_grid(path, t_grid, d)
    # integral of w^q t^{-alpha q - 1} dt = integral of w^q t^{-alpha q} d(log t)
    integrand = w**q * t_grid ** (-alpha * q)
    return float(np.trapezoid(integrand, np.log(t_grid)))


def besov_norm(
    path: SampledPath, params: BesovParams, extrapolate: bool = False
) -> BesovNormReport:
    """Truncated Besov norm report; extrapolation of the [0, dx] tail is opt-in."""
    alpha, p, q = params.alpha, params.p, params.q
    dx = path.grid.dx
    d = shift_norms(path, p)
    truncated_q = seminorm_integral(path, d, alpha, q)
    seminorm = truncated_q ** (1.0 / q)  # NaN stays NaN

    extrapolated = None
    diverges = False
    if extrapolate:
        extrapolated, diverges = _extrapolate_tail(d, truncated_q, alpha, q, dx)

    lp = lp_norm(path, p)
    return BesovNormReport(
        lp_norm=lp,
        seminorm_truncated=seminorm,
        truncation_floor=dx,
        extrapolated_seminorm=extrapolated,
        tail_diverges=diverges,
        norm_total=lp + seminorm,
    )


def _extrapolate_tail(d, truncated_q, alpha, q, dx):
    """Power-law fit w ~ C t^beta on the smallest resolved octave of shifts;
    add the [0, dx] tail integral.

    The fit uses the shift norms at h = dx and h = 2 dx (the modulus curve
    itself is a step function of t at that scale).  Returns (extrapolated
    seminorm or None, divergence flag); the tail converges only when
    beta > alpha.
    """
    if len(d) < 2 or d[0] <= 0.0 or d[1] <= 0.0:
        return None, False  # flat (constant path): zero tail
    beta = math.log2(d[1] / d[0])
    if beta <= alpha:
        return None, True
    c = d[0] / dx**beta
    tail_q = c**q * dx ** ((beta - alpha) * q) / ((beta - alpha) * q)
    return (truncated_q + tail_q) ** (1.0 / q), False
