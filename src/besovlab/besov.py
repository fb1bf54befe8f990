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

Every other p uses 5-node Gauss-Legendre quadrature per cell.  A cell's
node values, each scaled by W_i^(1/p) for its weight W_i, sit side by side
in one flat table (`_node_values`), so the quadrature of |g|^p over any run
of cells is the sum of |entries|^p of a contiguous slice, taken by
`criterion._power_sums` as the dyadic level sums are (integer p without
pow).  The L_p norm sums it over blocks of the path's own table
(`_cell_power_integral`, which also holds the p = 2 closed form above).
The shift norms build the table of the mean-centred path
once, and for shift m the node values of its difference are one
subtraction of two windows of it: O(max_shift N) in all, refused above
max_shift N = 4^GENERAL_P_MAX_J.  Tables are built in blocks of at most
_BLOCK_CELLS cells, so memory stays bounded at any J.

The outer singular integral is truncated at the grid spacing and evaluated
on a logarithmic t-grid; an opt-in power-law extrapolation estimates the
unresolved tail.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .criterion import _check_p, _power_sums
from .errors import ResolutionError, SizeError
from .paths import BesovParams, SampledPath

POINTS_PER_OCTAVE = 64
# p = 2 shifts summed directly at each end of the shift range, not by FFT;
# they include the d[0] and d[1] of the tail fit
DIRECT_SHIFTS = 64
# p != 2 shift norms cost O(max_shift N): refused above max_shift N = 4^GENERAL_P_MAX_J,
# every shift at J = 14 (besov_norm about 1.7 s at p = 3, 3.4 s at p = 1.5 on a shared
# 2-core Xeon)
GENERAL_P_MAX_J = 14
# cells per block of Gauss-node values: a full table at J <= GENERAL_P_MAX_J is one block
_BLOCK_CELLS = 2**GENERAL_P_MAX_J
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(5)
# mapped from [-1, 1] to [0, 1]
_S = 0.5 * (_GAUSS_NODES + 1.0)
_W = 0.5 * _GAUSS_WEIGHTS


@dataclass(frozen=True)
class BesovNormReport:
    lp_norm: float
    seminorm_truncated: float
    truncation_floor: float
    extrapolated_seminorm: Optional[float]
    tail_diverges: bool
    norm_total: float

    def to_dict(self) -> dict:
        return asdict(self)


def _p2_cell_sum(g: np.ndarray) -> float:
    """sum_k (g_k^2 + g_k g_{k+1} + g_{k+1}^2) / 3, the integral of the squared
    piecewise-linear g over its unit cells.

    With A = sum_k g_k^2 and B = sum_k g_k g_{k+1} over g_0..g_L, the sum is
    (2 A + B - g_0^2 - g_L^2) / 3.
    """
    return (2.0 * np.dot(g, g) + np.dot(g[:-1], g[1:]) - g[0] * g[0] - g[-1] * g[-1]) / 3.0


def _cell_power_integral(g: np.ndarray, p: float) -> float:
    """sum_k of the integral over s in [0, 1] of |g_k (1 - s) + g_{k+1} s|^p.

    p = 2 is the closed form `_p2_cell_sum`.  Other p sum `_power_sums` over
    the weighted Gauss-node values (`_node_values`) of blocks of at most
    _BLOCK_CELLS cells, so memory stays bounded at any length.  One buffer
    of 10 min(L, _BLOCK_CELLS) floats holds a block's node values and one
    temporary.
    """
    if p == 2.0:
        return _p2_cell_sum(g)
    L = len(g) - 1
    B = min(L, _BLOCK_CELLS)
    nodes, tmp = np.empty((2, 5 * B))
    total = 0.0
    for k0 in range(0, L, _BLOCK_CELLS):
        w = min(_BLOCK_CELLS, L - k0)
        x = _node_values(g[k0 : k0 + w + 1], p, nodes, tmp)
        total += float(_power_sums(x, p, x, tmp[: len(x)]))
    return total


def _node_values(g: np.ndarray, p: float, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Gauss-node values of the piecewise-linear g over its L cells, weighted for |.|^p.

    Cell-major: entry 5 k + i of the result, a view of `out` (5 L floats),
    is W_i^(1/p) (g_k (1 - s_i) + g_{k+1} s_i), so the sum of |entries|^p is
    the 5-node Gauss-Legendre integral of |g|^p and any run of cells is one
    contiguous slice.  Built one node column at a time from contiguous
    products (an outer product into (L, 5) runs length-5 inner loops, about
    twice as slow, with the same roundings).  `tmp` (2 L floats) is overwritten.
    """
    L = len(g) - 1
    cells, left, right = out[: 5 * L].reshape(L, 5), tmp[:L], tmp[L : 2 * L]
    scale = _W ** (1.0 / p)
    for i, (wl, wr) in enumerate(zip(scale * (1.0 - _S), scale * _S)):
        np.multiply(g[:-1], wl, out=left)
        np.add(left, np.multiply(g[1:], wr, out=right), out=cells[:, i])
    return out[: 5 * L]


def lp_norm(path: SampledPath, p: float) -> float:
    """L_p norm of the piecewise-linear interpolant on [a, b]."""
    _check_p(p)
    return (_cell_power_integral(path.values, p) * path.grid.dx) ** (1.0 / p)


def shift_norms(path: SampledPath, p: float, max_shift: Optional[int] = None) -> np.ndarray:
    """Discrete L_p norm of f(. - h) - f(.) over the overlap, per shift h = m dx.

    Entry m-1 corresponds to shift m, m = 1..max_shift.  Only nonnegative
    shifts are needed: for h < 0 substituting x -> x - h maps the overlap
    integral onto the h > 0 case.  p = 2 costs O(N log N); other p cost
    O(max_shift N) and are refused above max_shift N = 4^GENERAL_P_MAX_J,
    a full table at J = GENERAL_P_MAX_J.
    """
    _check_p(p)
    v = path.values
    N = path.grid.n_cells
    dx = path.grid.dx
    M = N if max_shift is None else min(max_shift, N)
    if p == 2.0:
        return np.sqrt(np.maximum(_p2_shift_cell_sums(v, M) * dx, 0.0))
    if M * N > 4**GENERAL_P_MAX_J:
        raise SizeError(
            f"shift norms for p != 2 cost O(max_shift * N) and are limited to "
            f"max_shift * N <= 2^{2 * GENERAL_P_MAX_J} (every shift at J = {GENERAL_P_MAX_J}), "
            f"got {M} shifts at J={path.grid.J}; p = 2 is the fast path"
        )
    return (_general_p_shift_sums(v, p, M) * dx) ** (1.0 / p)


def _general_p_shift_sums(v: np.ndarray, p: float, M: int) -> np.ndarray:
    """`_cell_power_integral` of g = v[:-m] - v[m:] for every shift m = 1..M.

    The node table holds the weighted Gauss-node values (`_node_values`) of
    the mean-centred path c, so the node values of g = c[:-m] - c[m:] are
    the difference of two contiguous windows of it.  The table covers
    blocks of at most _BLOCK_CELLS cells plus the M cells the shifts reach
    past a block: at J <= GENERAL_P_MAX_J a full table is one block, and
    memory stays bounded at any J.  NaN and inf propagate to the result.
    """
    N = len(v) - 1
    mu = v.mean()  # shift norms ignore constants; centring shrinks |c|
    out = np.zeros(M)
    width = min(N, _BLOCK_CELLS + M)
    table, diff, tmp = np.empty((3, 5 * width))
    for k0 in range(0, N - 1, _BLOCK_CELLS):
        w = min(k0 + _BLOCK_CELLS + M, N) - k0
        T = _node_values(v[k0 : k0 + w + 1] - mu, p, table, tmp)
        for m in range(1, M + 1):
            L = min(_BLOCK_CELLS, N - m - k0)  # cells k0..k0+L-1 overlap at shift m
            if L <= 0:
                break
            x = np.subtract(T[: 5 * L], T[5 * m : 5 * (m + L)], out=diff[: 5 * L])
            out[m - 1] += _power_sums(x, p, x, tmp[: len(x)])
    return out


def _p2_shift_cell_sums(v: np.ndarray, M: int) -> np.ndarray:
    """`_p2_cell_sum` of g = v[:-m] - v[m:] for every shift m = 1..M.

    The FFT's absolute error is about eps |c|^2, too large relative to the
    norms of the smallest shifts and of the largest (short overlaps), so the
    first and last DIRECT_SHIFTS shifts call `_p2_cell_sum` on g itself.  The
    others expand its A = sum_k g_k^2 and B = sum_k g_k g_{k+1} through the
    autocorrelation R(j) = sum_k c_k c_{k+j} of the mean-centred path c and
    prefix sums of c_k^2 and c_k c_{k+1}.  NaN and inf propagate to the result.
    """
    c = v - v.mean()  # shift norms ignore constants; centring shrinks |c|^2
    N = len(c) - 1
    out = np.empty(M)
    lo = min(M, DIRECT_SHIFTS)
    hi = max(lo, N - DIRECT_SHIFTS)
    for j in chain(range(1, lo + 1), range(hi + 1, M + 1)):
        out[j - 1] = _p2_cell_sum(c[: N + 1 - j] - c[j:])
    r = np.arange(lo + 1, min(M, hi) + 1)
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
        A = 2.0 * np.dot(c, c) - sq_pre[r - 1] - sq_suf[r - 1] - 2.0 * R[r]
        B = (
            2.0 * prod_pre[-1]
            - prod_pre[r - 1]
            - prod_suf[r - 1]
            - R[r + 1]
            - R[r - 1]
            + c[0] * c[r - 1]
            + c[N + 1 - r] * c[N]
        )
        first = c[0] - c[r]
        last = c[N - r] - c[N]
        out[r - 1] = (2.0 * A + B - first * first - last * last) / 3.0
    return out


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
