"""Reference values the benchmark checks the program's outputs against.

These are the benchmark's own implementations, frozen with it, so a later
change to the program is compared with the definitions as they stand when
the benchmark was written:

- `besov_reference` is the truncated Besov norm report of a piecewise-linear
  path on the 64-points-per-octave log t-grid.  Cell integrals of |linear|^2
  use the exact closed form (l^2 + l r + r^2) / 3; other p use 5-node
  Gauss-Legendre per cell, the quadrature that defines the reported value.
- `pz_equal_probability` is the Paley-Zygmund probability for m equal
  coefficients, a binomial sum.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

POINTS_PER_OCTAVE = 64
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(5)
_S = 0.5 * (_NODES + 1.0)
_W = 0.5 * _WEIGHTS


def _cells_power_sum(g: np.ndarray, p: float) -> float:
    """Sum over cells of the integral over [0, 1] of |g_k (1 - s) + g_{k+1} s|^p ds."""
    left, right = g[:-1], g[1:]
    if p == 2.0:
        return float(np.sum(left * left + left * right + right * right)) / 3.0
    vals = np.abs(left[:, None] * (1.0 - _S) + right[:, None] * _S) ** p
    return float(np.sum(vals @ _W))


def besov_reference(values, alpha: float, p: float, q: float, extrapolate: bool) -> dict:
    """The fields of the program's `besov` report for a path on [0, 1]."""
    v = np.asarray(values, dtype=float)
    n = len(v) - 1
    J = n.bit_length() - 1
    dx = 1.0 / n
    shifts = np.array(
        [(_cells_power_sum(v[: n + 1 - m] - v[m:], p) * dx) ** (1.0 / p) for m in range(1, n + 1)]
    )
    t = 2.0 ** (-J + np.arange(J * POINTS_PER_OCTAVE + 1) / POINTS_PER_OCTAVE)
    m = np.minimum((t / dx * (1.0 + 1e-12)).astype(int), n)
    w = np.maximum.accumulate(shifts)[m - 1]
    f = w**q * t ** (-alpha * q)
    truncated_q = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(np.log(t))))
    seminorm = truncated_q ** (1.0 / q) if truncated_q > 0.0 else 0.0

    extrapolated, diverges = None, False
    if extrapolate and shifts[0] > 0.0 and shifts[1] > 0.0:
        beta = math.log2(shifts[1] / shifts[0])
        if beta <= alpha:
            diverges = True
        else:
            c = shifts[0] / dx**beta
            tail_q = c**q * dx ** ((beta - alpha) * q) / ((beta - alpha) * q)
            extrapolated = (truncated_q + tail_q) ** (1.0 / q)

    lp = (_cells_power_sum(v, p) * dx) ** (1.0 / p)
    return {
        "lp_norm": lp,
        "seminorm_truncated": seminorm,
        "truncation_floor": dx,
        "extrapolated_seminorm": extrapolated,
        "tail_diverges": diverges,
        "norm_total": lp + seminorm,
    }


def pz_equal_probability(m: int) -> Fraction:
    """P[(sum_i eps_i)^2 >= m / 4] for m uniform random signs, exactly."""
    hits = sum(math.comb(m, k) for k in range(m + 1) if (m - 2 * k) ** 2 * 4 >= m)
    return Fraction(hits, 1 << m)
