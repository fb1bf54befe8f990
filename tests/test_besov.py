import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besovlab import (
    GeneratorSpec,
    BesovParams,
    Grid,
    SampledPath,
    besov_norm,
    lp_norm,
    path_of,
)
from besovlab import besov as besov_module
from besovlab.besov import (
    DIRECT_SHIFTS,
    GENERAL_P_MAX_J,
    POINTS_PER_OCTAVE,
    _cell_power_integral,
    _log_t_grid,
    _modulus_on_grid,
    _node_values,
    _p2_shift_cell_sums,
    shift_norms,
)
from besovlab.criterion import _power_sums
from besovlab.errors import ParameterError, ResolutionError, SizeError
from oracles import p2_shift_cell_sums_indexed

FIXTURES = Path(__file__).parent / "fixtures"


def ramp(J, a=0.0, b=1.0):
    g = Grid(a, b, J)
    return SampledPath(g, g.points())


def const(J, c):
    g = Grid(0.0, 1.0, J)
    return SampledPath(g, np.full(g.n_points, c))


def modulus_curve(path, p):
    """w_p on the logarithmic t-grid, exactly what `seminorm_integral` integrates."""
    return _modulus_on_grid(path, _log_t_grid(path), shift_norms(path, p))


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(5)


def _gauss5_cells(g, p):
    """The (L, 5) Gauss-5 cell integral the node-major kernel replaced."""
    s, w = 0.5 * (_GAUSS_NODES + 1.0), 0.5 * _GAUSS_WEIGHTS
    vals = np.multiply.outer(g[:-1], 1.0 - s) + np.multiply.outer(g[1:], s)
    return float(np.dot((np.abs(vals) ** p).sum(axis=0), w))


# magnitudes 1e-6..1e6 and exact zeros, both signs: no under- or overflow of |g|^p
SEGMENT_VALUES = st.one_of(
    st.just(0.0),
    st.floats(1e-6, 1e6).flatmap(lambda x: st.sampled_from([x, -x])),
)


class TestCellKernel:
    @given(
        st.lists(SEGMENT_VALUES, min_size=2, max_size=200),
        st.sampled_from([1.0, 1.5, 3.0, 4.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_general_p_matches_gauss5_reference(self, g, p):
        g = np.array(g)
        g[0], g[-1] = -abs(g[0]) - 1.0, abs(g[-1]) + 1.0  # at least one sign change
        got = _cell_power_integral(g, p)
        assert got == pytest.approx(_gauss5_cells(g, p), rel=1e-12)

    @given(st.lists(SEGMENT_VALUES, min_size=2, max_size=200), st.floats(0.1, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_p2_lp_norm_matches_gauss5_reference(self, values, span):
        v = np.array(values)
        J = max(1, (len(v) - 1).bit_length())
        v = np.resize(v, 2**J + 1)  # onto a dyadic grid
        path = SampledPath(Grid(0.0, span, J), v)
        want = math.sqrt(_gauss5_cells(v, 2.0) * path.grid.dx)
        assert lp_norm(path, 2.0) == pytest.approx(want, rel=1e-12)


def test_gauss_literals_are_leggauss_5():
    # besov writes the rule as literals, so that it never imports numpy.polynomial
    assert besov_module._GAUSS_NODES.tobytes() == _GAUSS_NODES.tobytes()
    assert besov_module._GAUSS_WEIGHTS.tobytes() == _GAUSS_WEIGHTS.tobytes()


def _outer_node_values(g, p):
    """The (L, 5) outer-product build of the weighted node table the column-wise one replaced."""
    s, w = 0.5 * (_GAUSS_NODES + 1.0), 0.5 * _GAUSS_WEIGHTS
    scale = w ** (1.0 / p)
    cells = np.multiply.outer(g[:-1], scale * (1.0 - s))
    cells += np.multiply.outer(g[1:], scale * s)
    return cells.ravel()


class TestNodeValues:
    @given(
        st.lists(SEGMENT_VALUES, min_size=2, max_size=300),
        st.sampled_from([1.0, 1.5, 3.0, 4.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_outer_product(self, g, p):
        g = np.array(g)
        assert _node_values(g, p).tobytes() == _outer_node_values(g, p).tobytes()

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0])
    def test_full_block_bit_identical(self, p):
        g = path_of(GeneratorSpec("bm", Grid(0.0, 1.0, GENERAL_P_MAX_J)).sample(11)).values
        assert _node_values(g, p).tobytes() == _outer_node_values(g, p).tobytes()


class TestPowerSum:
    @given(
        st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=300),
        st.one_of(st.integers(1, 70).map(float), st.floats(1.0, 9.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_pow(self, x, p):
        # integer p up to _SQUARING_MAX_P by repeated squaring, every other p by np.power
        x = np.array(x)
        want = float(np.sum(np.abs(x) ** p))
        got = float(_power_sums(x, p))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

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
    """w_p(t) is the largest shift norm up to shift m = t / dx."""

    def test_constant_zero(self):
        assert shift_norms(const(8, 4.0), 2.0)[:64].max() == 0.0  # t = 1/4

    def test_ramp_closed_form(self):
        # sup_{h<=1/4} h sqrt(1-h); objective increasing below h = 2/3
        got = shift_norms(ramp(12), 2.0)[:1024].max()  # t = 1/4
        assert got == pytest.approx(0.25 * 0.75**0.5, rel=1e-6)

    def test_monotone_in_t(self):
        path = path_of(GeneratorSpec("bm", Grid(0.0, 1.0, 10)).sample(3))
        d = shift_norms(path, 2.0)
        w_half = d[:512].max()  # t = 1/2
        w_quarter = d[:256].max()  # t = 1/4
        assert w_half >= w_quarter

    def test_below_resolution(self):
        path = ramp(6)
        with pytest.raises(ResolutionError):
            _modulus_on_grid(path, np.array([2.0**-10]), shift_norms(path, 2.0))

    def test_curve_nondecreasing(self):
        path = path_of(GeneratorSpec("bm", Grid(0.0, 1.0, 10)).sample(9))
        w = modulus_curve(path, 2.0)
        t_grid = _log_t_grid(path)
        assert np.all(np.diff(w) >= 0.0)
        assert np.all(w >= 0.0)
        assert t_grid[0] == pytest.approx(path.grid.dx)
        assert t_grid[-1] == pytest.approx(1.0)


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

    def test_extrapolation_of_a_constant_path(self):
        # every shift norm is 0: no tail to fit, and none that diverges
        rep = besov_norm(const(1, 3.0), BesovParams(0.3, 2.0, 2.0), extrapolate=True)
        assert (rep.extrapolated_seminorm, rep.tail_diverges) == (None, False)

    def test_extrapolation_divergence_flag(self):
        # rough path: fitted small-scale exponent ~1/2 < alpha = 0.8
        path = path_of(GeneratorSpec("bm", Grid(0.0, 1.0, 12)).sample(5))
        rep = besov_norm(path, BesovParams(0.8, 2.0, 2.0), extrapolate=True)
        assert rep.tail_diverges
        assert rep.extrapolated_seminorm is None


def _closed_form_cells(g, dx):
    """Integral of |piecewise-linear g|^2: (l^2 + l r + r^2) / 3 per cell."""
    left, right = g[:-1], g[1:]
    return float(np.sum(left * left + left * right + right * right)) / 3.0 * dx


def _cells(g, p, dx):
    """Integral of |piecewise-linear g|^p: the closed form at p = 2, else Gauss-5 per cell."""
    return _closed_form_cells(g, dx) if p == 2.0 else _gauss5_cells(g, p) * dx


def _reference(v, p, alpha, q, extrapolate):
    """Shift norms, modulus curve and besov report fields, one shift at a time."""
    N = len(v) - 1
    J = N.bit_length() - 1
    dx = 1.0 / N
    d = np.array([_cells(v[: N + 1 - m] - v[m:], p, dx) ** (1.0 / p) for m in range(1, N + 1)])
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
    lp = _cells(v, p, dx) ** (1.0 / p)
    report = {
        "lp_norm": lp,
        "seminorm_truncated": seminorm,
        "truncation_floor": dx,
        "extrapolated_seminorm": extrapolated,
        "tail_diverges": diverges,
        "norm_total": lp + seminorm,
    }
    return d, w, report


def _assert_report_matches(got, ref, rel):
    for field, want in ref.items():
        if want is None or isinstance(want, bool):
            assert got[field] == want, field
        else:
            assert got[field] == pytest.approx(want, rel=rel), field


def _test_path(kind, J, seed, H):
    g = Grid(0.0, 1.0, J)
    x = g.points()
    if kind in ("bm", "offset"):
        path = path_of(GeneratorSpec("bm", g).sample(seed))
        return path if kind == "bm" else SampledPath(g, path.values + 1e3)
    if kind == "fbm":
        fgn = GeneratorSpec("fbm", g, H=H).block_sampler()([seed])[0]
        return SampledPath(g, np.concatenate([[0.0], np.cumsum(fgn)]))
    if kind in ("ramp_noise", "zigzag"):
        noise = np.random.default_rng(seed).random(g.n_points)
        if kind == "ramp_noise":
            return SampledPath(g, x + 1e-3 * (noise - 0.5))
        return SampledPath(g, np.where(np.arange(g.n_points) % 2 == 0, 1.0, -1.0) * (1.0 + noise))
    values = {"ramp": x, "x2": x * x, "sin": np.sin(2.0 * np.pi * x)}[kind]
    return SampledPath(g, values)


def _zigzag_1e154(J=8):
    """+-1.2e154 alternating: odd-shift differences of 2.4e154 overflow when cubed."""
    g = Grid(0.0, 1.0, J)
    return SampledPath(g, np.where(np.arange(g.n_points) % 2 == 0, 1.2e154, -1.2e154))


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
        d, w, ref = _reference(path.values, 2.0, alpha, q, extrapolate)
        np.testing.assert_allclose(modulus_curve(path, 2.0), w, rtol=1e-10)
        np.testing.assert_allclose(shift_norms(path, 2.0)[:2], d[:2], rtol=1e-10)
        got = besov_norm(path, BesovParams(alpha, 2.0, q), extrapolate=extrapolate).to_dict()
        _assert_report_matches(got, ref, 1e-10)

    def test_constant_offset_invariant(self):
        path = path_of(GeneratorSpec("bm", Grid(0.0, 1.0, 12)).sample(17))
        shifted = SampledPath(path.grid, path.values + 1e3)
        np.testing.assert_allclose(
            shift_norms(shifted, 2.0), shift_norms(path, 2.0), rtol=1e-10
        )

    def test_large_grid(self):
        # J = 18 is far out of reach of an O(N^2) shift loop
        path = path_of(GeneratorSpec("bm", Grid(0.0, 1.0, 18)).sample(4))
        d = shift_norms(path, 2.0)
        v, N, dx = path.values, path.grid.n_cells, path.grid.dx
        for m in (1, 2, DIRECT_SHIFTS + 1, 1000, N // 2, N - 1):
            want = math.sqrt(_closed_form_cells(v[: N + 1 - m] - v[m:], dx))
            assert d[m - 1] == pytest.approx(want, rel=1e-10), m
        rep = besov_norm(path, BesovParams(0.4, 2.0, 2.0), extrapolate=True)
        assert all(math.isfinite(x) for x in (rep.seminorm_truncated, rep.lp_norm))
        assert rep.extrapolated_seminorm is not None

    @pytest.mark.parametrize("kind", ["bm", "fbm", "offset", "ramp_noise", "zigzag"])
    @given(st.integers(8, 13), st.integers(0, 2**32 - 1), st.floats(0.1, 0.95))
    @settings(max_examples=10, deadline=None)
    def test_in_place_sums_equal_the_indexed_ones(self, kind, J, seed, H):
        # the same operands in the same order: every shift's sum is bit for bit
        # the indexed version's (tests/oracles.py), in the FFT range too
        v = _test_path(kind, J, seed, H).values
        got, want = _p2_shift_cell_sums(v), p2_shift_cell_sums_indexed(v)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("path", [const(10, 2.5), _zigzag_1e154(10)], ids=["const", "zigzag"])
    def test_in_place_sums_equal_the_indexed_ones_at_the_extremes(self, path):
        # a constant path sums to exact zeros; the zigzag's overflow gives the same inf and NaN
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _p2_shift_cell_sums(path.values), p2_shift_cell_sums_indexed(path.values)
        assert got.tobytes() == want.tobytes()

    def test_memory(self):
        # each FFT-range array is built in place and freed once used: the centred
        # path, the output, the 2N-point autocorrelation and three scratch rows
        N = 2**16
        path = path_of(GeneratorSpec("bm", Grid(0.0, 1.0, 16)).sample(9))
        tracemalloc.start()
        try:
            shift_norms(path, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * 8 * N

    def test_overflow_propagates(self):
        # squared shift differences overflow: the result is NaN/inf, never a number
        path = _zigzag_1e154()
        with np.errstate(over="ignore", invalid="ignore"):
            d = shift_norms(path, 2.0)
            rep = besov_norm(path, BesovParams(0.4, 2.0, 2.0))
        assert not np.isfinite(d[DIRECT_SHIFTS:-DIRECT_SHIFTS]).any()
        assert not math.isfinite(rep.seminorm_truncated)


class TestGeneralPShiftNorms:
    @pytest.mark.parametrize("kind", ["bm", "fbm", "ramp_noise", "offset", "zigzag"])
    @given(
        st.integers(6, 10),
        st.sampled_from([1.0, 1.5, 3.0, 4.0, 5.0]),
        st.integers(0, 2**32 - 1),
        st.floats(0.1, 0.95),
        st.floats(0.05, 0.95),
        st.floats(1.0, 4.0),
        st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_matches_per_shift_gauss5(self, kind, J, p, seed, H, alpha, q, extrapolate):
        path = _test_path(kind, J, seed, H)
        d, w, ref = _reference(path.values, p, alpha, q, extrapolate)
        np.testing.assert_allclose(shift_norms(path, p), d, rtol=1e-10)
        np.testing.assert_allclose(modulus_curve(path, p), w, rtol=1e-10)
        got = besov_norm(path, BesovParams(alpha, p, q), extrapolate=extrapolate).to_dict()
        _assert_report_matches(got, ref, 1e-10)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0, 5.0])
    @pytest.mark.parametrize("J", [6, 8, 10])
    def test_ramp_closed_form(self, J, p):
        # g = -m dx on every overlap cell: no sign change, so Gauss-5 is exact
        h = np.arange(1, 2**J + 1) * 2.0**-J
        np.testing.assert_allclose(shift_norms(ramp(J), p), h * (1.0 - h) ** (1.0 / p), rtol=1e-13)

    @pytest.mark.parametrize("p", [3.0, 1.5])
    def test_overflow_propagates(self, p):
        path = _zigzag_1e154()
        with np.errstate(over="ignore", invalid="ignore"):
            d = shift_norms(path, p)
            rep = besov_norm(path, BesovParams(0.4, p, 2.0))
        assert not math.isfinite(rep.seminorm_truncated)
        assert not math.isfinite(rep.norm_total)
        assert (d[1::2] == 0.0).all()  # even shifts: identical values
        if p == 3.0:  # |2.4e154|^3 overflows; |2.4e154|^1.5 does not, w^q at q = 2 does
            assert not np.isfinite(d[0::2]).any()
        else:
            assert np.isfinite(d).all()

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_small_blocks_match_per_shift_gauss5(self, p):
        # the shift norms and lp_norm against the per-shift Gauss-5 reference
        path = _test_path("bm", 8, 5, 0.5)
        d, _, ref = _reference(path.values, p, 0.3, 2.0, False)
        np.testing.assert_allclose(shift_norms(path, p), d, rtol=1e-10)
        assert lp_norm(path, p) == pytest.approx(ref["lp_norm"], rel=1e-12)


class TestGeneralPLimit:
    def test_refused_above_limit(self):
        # the check runs before any shift or node table is formed, so this returns at once
        g = Grid(0.0, 1.0, GENERAL_P_MAX_J + 1)
        path = SampledPath(g, g.points())
        with pytest.raises(SizeError, match="p = 2"):
            shift_norms(path, 3.0)
        with pytest.raises(SizeError, match="p = 2"):
            lp_norm(path, 3.0)
        with pytest.raises(SizeError):
            besov_norm(path, BesovParams(0.2, 3.0, 2.0))
        assert shift_norms(path, 2.0)[0] > 0.0

    def test_work_limit_boundary(self, monkeypatch):
        # with the limit lowered to J = 4: every shift of 2^4 cells runs, 2^5 cells are refused
        monkeypatch.setattr(besov_module, "GENERAL_P_MAX_J", 4)
        h = np.arange(1, 17) / 16
        np.testing.assert_allclose(
            shift_norms(ramp(4), 3.0), h * (1.0 - h) ** (1.0 / 3.0), rtol=1e-13
        )
        with pytest.raises(SizeError, match="p = 2"):
            shift_norms(ramp(5), 3.0)
        # lp_norm reads the same limit
        assert lp_norm(ramp(4), 3.0) > 0.0
        with pytest.raises(SizeError, match="p = 2"):
            lp_norm(ramp(5), 3.0)
