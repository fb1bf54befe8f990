import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besovlab import (
    BesovParams,
    Grid,
    SampledPath,
    besov_norm,
    generate_bm,
    generate_fgn,
    lp_norm,
    modulus,
    path_of,
)
from besovlab.besov import (
    DIRECT_SHIFTS,
    GENERAL_P_MAX_J,
    POINTS_PER_OCTAVE,
    modulus_curve,
    shift_norms,
)
from besovlab.errors import ParameterError, ResolutionError, SizeError

FIXTURES = Path(__file__).parent / "fixtures"


def ramp(J, a=0.0, b=1.0):
    g = Grid(a, b, J)
    return SampledPath(g, g.points())


def const(J, c):
    g = Grid(0.0, 1.0, J)
    return SampledPath(g, np.full(g.n_points, c))


class TestLpNorm:
    def test_constant(self):
        assert lp_norm(const(6, -2.5), 3.0) == pytest.approx(2.5, rel=1e-12)

    def test_ramp_p2(self):
        assert lp_norm(ramp(8), 2.0) == pytest.approx(3.0**-0.5, rel=1e-10)

    def test_ramp_p4(self):
        assert lp_norm(ramp(8), 4.0) == pytest.approx(5.0**-0.25, rel=1e-10)

    def test_p_below_one(self):
        with pytest.raises(ParameterError):
            lp_norm(ramp(4), 0.5)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                lp_norm(ramp(4), bad)
            with pytest.raises(ParameterError):
                shift_norms(ramp(4), bad)


class TestModulus:
    def test_constant_zero(self):
        assert modulus(const(8, 4.0), 0.25, 2.0) == 0.0

    def test_ramp_closed_form(self):
        # sup_{h<=1/4} h sqrt(1-h); objective increasing below h = 2/3
        got = modulus(ramp(12), 0.25, 2.0)
        assert got == pytest.approx(0.25 * 0.75**0.5, rel=1e-6)

    def test_monotone_in_t(self):
        path = path_of(generate_bm(Grid(0.0, 1.0, 10), 3))
        assert modulus(path, 0.5, 2.0) >= modulus(path, 0.25, 2.0)

    def test_below_resolution(self):
        with pytest.raises(ResolutionError):
            modulus(ramp(6), 2.0**-10, 2.0)

    def test_curve_nondecreasing(self):
        path = path_of(generate_bm(Grid(0.0, 1.0, 10), 9))
        curve = modulus_curve(path, 2.0)
        assert np.all(np.diff(curve.w_values) >= 0.0)
        assert np.all(curve.w_values >= 0.0)
        assert curve.t_grid[0] == pytest.approx(path.grid.dx)
        assert curve.t_grid[-1] == pytest.approx(1.0)


class TestBesovNorm:
    def test_constant_path(self):
        rep = besov_norm(const(8, 3.0), BesovParams(0.4, 2.0, 2.0))
        assert rep.seminorm_truncated == 0.0
        assert rep.norm_total == rep.lp_norm == pytest.approx(3.0, rel=1e-12)

    def test_ramp_matches_frozen_oracle(self):
        oracle = json.loads((FIXTURES / "besov_ramp_oracle.json").read_text())
        rep = besov_norm(ramp(12), BesovParams(0.3, 2.0, 2.0))
        assert rep.truncation_floor == oracle["truncation_floor"]
        assert rep.seminorm_truncated == pytest.approx(
            oracle["seminorm_truncated"], rel=0.01
        )
        assert rep.lp_norm == pytest.approx(oracle["lp_norm"], rel=1e-9)

    def test_refinement_stability_smooth_path(self):
        vals = []
        for J in (10, 12):
            g = Grid(0.0, 1.0, J)
            path = SampledPath(g, np.sin(2 * np.pi * g.points()))
            vals.append(besov_norm(path, BesovParams(0.3, 2.0, 2.0)).seminorm_truncated)
        assert vals[1] == pytest.approx(vals[0], rel=0.02)

    @given(st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_homogeneity(self, c, seed):
        g = Grid(0.0, 1.0, 7)
        v = np.random.default_rng(seed).standard_normal(g.n_points)
        params = BesovParams(0.35, 2.0, 2.0)
        r1 = besov_norm(SampledPath(g, v), params)
        r2 = besov_norm(SampledPath(g, c * v), params)
        assert r2.lp_norm == pytest.approx(c * r1.lp_norm, rel=1e-10)
        assert r2.seminorm_truncated == pytest.approx(
            c * r1.seminorm_truncated, rel=1e-10
        )
        assert r2.norm_total == pytest.approx(c * r1.norm_total, rel=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_triangle_inequality(self, seed):
        g = Grid(0.0, 1.0, 7)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(g.n_points)
        h = rng.standard_normal(g.n_points)
        params = BesovParams(0.3, 2.0, 2.0)
        nf = besov_norm(SampledPath(g, f), params).norm_total
        nh = besov_norm(SampledPath(g, h), params).norm_total
        nfh = besov_norm(SampledPath(g, f + h), params).norm_total
        assert nfh <= nf + nh + 1e-9

    def test_seminorm_zero_iff_constant(self):
        assert besov_norm(const(7, 1.0), BesovParams(0.3, 2, 2)).seminorm_truncated < 1e-12
        g = Grid(0.0, 1.0, 7)
        v = np.zeros(g.n_points)
        v[64] = 1e-6
        rep = besov_norm(SampledPath(g, v), BesovParams(0.3, 2, 2))
        assert rep.seminorm_truncated > 1e-12

    def test_extrapolation_ramp(self):
        rep = besov_norm(ramp(10), BesovParams(0.3, 2.0, 2.0), extrapolate=True)
        # ramp modulus ~ t near 0: beta ~ 1 > alpha, tail converges
        assert not rep.tail_diverges
        assert rep.extrapolated_seminorm is not None
        assert rep.extrapolated_seminorm >= rep.seminorm_truncated

    def test_extrapolation_divergence_flag(self):
        # rough path: fitted small-scale exponent ~1/2 < alpha = 0.8
        path = path_of(generate_bm(Grid(0.0, 1.0, 12), 5))
        rep = besov_norm(path, BesovParams(0.8, 2.0, 2.0), extrapolate=True)
        assert rep.tail_diverges
        assert rep.extrapolated_seminorm is None


def _closed_form_cells(g, dx):
    """Integral of |piecewise-linear g|^2: (l^2 + l r + r^2) / 3 per cell."""
    left, right = g[:-1], g[1:]
    return float(np.sum(left * left + left * right + right * right)) / 3.0 * dx


def _reference_p2(v, alpha, q, extrapolate):
    """Shift norms, modulus curve and besov report fields, one shift at a time."""
    N = len(v) - 1
    J = N.bit_length() - 1
    dx = 1.0 / N
    d = np.array(
        [math.sqrt(_closed_form_cells(v[: N + 1 - m] - v[m:], dx)) for m in range(1, N + 1)]
    )
    t = 2.0 ** (-J + np.arange(J * POINTS_PER_OCTAVE + 1) / POINTS_PER_OCTAVE)
    w = np.maximum.accumulate(d)[np.minimum((t / dx * (1.0 + 1e-12)).astype(int), N) - 1]
    f = w**q * t ** (-alpha * q)
    integral = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(np.log(t))))
    seminorm = integral ** (1.0 / q)
    extrapolated, diverges = None, False
    if extrapolate and d[0] > 0.0 and d[1] > 0.0:
        beta = math.log2(d[1] / d[0])
        if beta <= alpha:
            diverges = True
        else:
            tail = (d[0] / dx**beta) ** q * dx ** ((beta - alpha) * q) / ((beta - alpha) * q)
            extrapolated = (integral + tail) ** (1.0 / q)
    lp = math.sqrt(_closed_form_cells(v, dx))
    report = {
        "lp_norm": lp,
        "seminorm_truncated": seminorm,
        "truncation_floor": dx,
        "extrapolated_seminorm": extrapolated,
        "tail_diverges": diverges,
        "norm_total": lp + seminorm,
    }
    return d, w, report


def _test_path(kind, J, seed, H):
    g = Grid(0.0, 1.0, J)
    x = g.points()
    if kind == "bm":
        return path_of(generate_bm(g, seed))
    if kind == "fbm":
        return SampledPath(g, np.concatenate([[0.0], np.cumsum(generate_fgn(g, H, seed))]))
    values = {"ramp": x, "x2": x * x, "sin": np.sin(2.0 * np.pi * x)}[kind]
    return SampledPath(g, values)


class TestP2ShiftNorms:
    @pytest.mark.parametrize("kind", ["bm", "fbm", "ramp", "x2", "sin"])
    @given(
        st.integers(8, 12),  # N > 2 * DIRECT_SHIFTS: the FFT path runs
        st.integers(0, 2**32 - 1),
        st.floats(0.1, 0.95),
        st.floats(0.05, 0.95),
        st.floats(1.0, 4.0),
        st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_matches_per_shift_closed_form(self, kind, J, seed, H, alpha, q, extrapolate):
        path = _test_path(kind, J, seed, H)
        d, w, ref = _reference_p2(path.values, alpha, q, extrapolate)
        np.testing.assert_allclose(modulus_curve(path, 2.0).w_values, w, rtol=1e-10)
        np.testing.assert_allclose(shift_norms(path, 2.0)[:2], d[:2], rtol=1e-10)
        got = besov_norm(path, BesovParams(alpha, 2.0, q), extrapolate=extrapolate).to_dict()
        for field, want in ref.items():
            if want is None or isinstance(want, bool):
                assert got[field] == want, field
            else:
                assert got[field] == pytest.approx(want, rel=1e-10), field

    def test_constant_offset_invariant(self):
        path = path_of(generate_bm(Grid(0.0, 1.0, 12), 17))
        shifted = SampledPath(path.grid, path.values + 1e3)
        np.testing.assert_allclose(
            shift_norms(shifted, 2.0), shift_norms(path, 2.0), rtol=1e-10
        )

    def test_large_grid(self):
        # J = 18 is far out of reach of an O(N^2) shift loop
        path = path_of(generate_bm(Grid(0.0, 1.0, 18), 4))
        d = shift_norms(path, 2.0)
        v, N, dx = path.values, path.grid.n_cells, path.grid.dx
        for m in (1, 2, DIRECT_SHIFTS + 1, 1000, N // 2, N - 1):
            want = math.sqrt(_closed_form_cells(v[: N + 1 - m] - v[m:], dx))
            assert d[m - 1] == pytest.approx(want, rel=1e-10), m
        rep = besov_norm(path, BesovParams(0.4, 2.0, 2.0), extrapolate=True)
        assert all(math.isfinite(x) for x in (rep.seminorm_truncated, rep.lp_norm))
        assert rep.extrapolated_seminorm is not None

    def test_overflow_propagates(self):
        # squared shift differences overflow: the result is NaN/inf, never a number
        g = Grid(0.0, 1.0, 8)
        v = np.where(np.arange(g.n_points) % 2 == 0, 1.2e154, -1.2e154)
        path = SampledPath(g, v)
        with np.errstate(over="ignore", invalid="ignore"):
            d = shift_norms(path, 2.0)
            rep = besov_norm(path, BesovParams(0.4, 2.0, 2.0))
        assert not np.isfinite(d[DIRECT_SHIFTS:-DIRECT_SHIFTS]).any()
        assert not math.isfinite(rep.seminorm_truncated)


class TestGeneralPLimit:
    def test_refused_above_limit(self):
        # the check runs before any shift is integrated, so this returns at once
        g = Grid(0.0, 1.0, GENERAL_P_MAX_J + 1)
        path = SampledPath(g, g.points())
        with pytest.raises(SizeError, match="p = 2"):
            shift_norms(path, 3.0)
        with pytest.raises(SizeError):
            besov_norm(path, BesovParams(0.2, 3.0, 2.0))
        assert shift_norms(path, 2.0, max_shift=4)[0] > 0.0
