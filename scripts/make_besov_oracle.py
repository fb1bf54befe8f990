#!/usr/bin/env python3
"""Derive the frozen oracle for the ramp-path Besov seminorm test.

For f(x) = x on [0, 1] the L_2 overlap integral at shift h is h^2 (1 - h),
so the modulus of continuity is

    w_2(t) = t sqrt(1 - t)          for t <= 2/3   (objective increasing)
           = (2/3) sqrt(1/3)        for t >  2/3   (maximum at h = 2/3)

The truncated seminorm at (alpha=0.3, p=q=2, floor 2^-12) is then

    ( int_{2^-12}^{1} w_2(t)^2 t^{-1.6} dt )^{1/2}

computed here with adaptive quadrature, split at the kink t = 2/3.
This script is independent of the package; its output is frozen into
tests/fixtures/besov_ramp_oracle.json.
"""

import json
import math
from pathlib import Path

from scipy.integrate import quad

ALPHA = 0.3
Q = 2.0
FLOOR = 2.0**-12


def w2_squared(t: float) -> float:
    if t <= 2.0 / 3.0:
        return t * t * (1.0 - t)
    return (2.0 / 3.0) ** 2 * (1.0 / 3.0)


def oracle() -> dict:
    integrand = lambda t: w2_squared(t) * t ** (-ALPHA * Q - 1.0)
    i1, e1 = quad(integrand, FLOOR, 2.0 / 3.0, limit=500, epsabs=0.0, epsrel=1e-12)
    i2, e2 = quad(integrand, 2.0 / 3.0, 1.0, limit=500, epsabs=0.0, epsrel=1e-12)
    seminorm = math.sqrt(i1 + i2)
    return {
        "alpha": ALPHA,
        "p": 2.0,
        "q": Q,
        "truncation_floor": FLOOR,
        "seminorm_truncated": seminorm,
        "quadrature_error_bound": e1 + e2,
        "lp_norm": 1.0 / math.sqrt(3.0),
    }


def main():
    out = oracle()
    dest = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
    dest.mkdir(parents=True, exist_ok=True)
    (dest / "besov_ramp_oracle.json").write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
