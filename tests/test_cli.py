import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from besovlab import (
    GeneratorSpec,
    Grid,
    SampledPath,
    kamont_series,
    path_of,
)
from besovlab import cli, generators, paths
from besovlab.cli import (
    CSV_CHUNK_ROWS,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    DataError,
    _write_path_csv,
    ingest_series,
    main,
    read_series_csv,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_deterministic_files(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run(
                capsys, "generate", "--process", "bm", "--J", "8", "--seed", "42",
                "--out", str(out),
            )
            assert code == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_fbm_row_count(self, tmp_path, capsys):
        out = tmp_path / "fbm.csv"
        code, _, _ = run(
            capsys, "generate", "--process", "fbm", "--H", "0.75", "--J", "10",
            "--seed", "7", "--out", str(out),
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2**10 + 1  # header + grid points
        meta = json.loads((tmp_path / "fbm.csv.meta.json").read_text())
        assert meta["kind"] == "fbm" and meta["seed"] == 7

    def test_csv_bytes_match_row_writer(self, tmp_path):
        # reference: one csv.writer row per grid point, repr of each float
        J = CSV_CHUNK_ROWS.bit_length()  # more than one chunk of rows
        grid = Grid(-1.5, 2.25, J)
        values = path_of(GeneratorSpec("bm", grid).sample(9)).values.copy()
        values[1:6] = [1e-300, -0.0, 1e16, 1.0 / 3.0, -2.5e-7]
        path = SampledPath(grid, values)
        ref = tmp_path / "ref.csv"
        with ref.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["t", "value"])
            for t, v in zip(grid.points(), path.values):
                writer.writerow([repr(float(t)), repr(float(v))])
        out = tmp_path / "out.csv"
        _write_path_csv(path, out)
        assert out.read_bytes() == ref.read_bytes()

    def test_csv_write_memory_bounded_by_chunks(self, tmp_path):
        # 2^16 + 1 rows: formatting a chunk of 2^12 rows peaks at about 1.2 MiB,
        # and all of them at once (or in chunks of 2^16) at about 11 MiB
        grid = Grid(0.0, 1.0, 16)
        path = path_of(GeneratorSpec("bm", grid).sample(4))
        out = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            _write_path_csv(path, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        ref = tmp_path / "ref.csv"
        with ref.open("w", newline="") as fh:
            fh.write("t,value\n")
            for t, v in zip(grid.points().tolist(), path.values.tolist()):
                fh.write(f"{t!r},{v!r}\n")
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("a", ["-1e-3", "-.5", "-2"])
    def test_negative_value_is_a_value(self, tmp_path, capsys, a):
        # "-1e-3" and "-.5" read as values, not as options, on every Python
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "generate", "--process", "bm", "--a", a, "--J", "4",
                           "--out", str(out))
        assert code == EXIT_OK, err
        meta = json.loads((tmp_path / "x.csv.meta.json").read_text())
        assert meta["a"] == float(a)

    def test_wfbm_low_hurst_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "generate", "--process", "wfbm", "--H", "0.4", "--J", "8",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize(
        "process, flags, message",
        [("fbm", [], "needs a Hurst index"), ("wfbm", ["--H", "1.5"], "H in (0.5, 1)")],
    )
    def test_hurst_checked_by_the_spec(self, tmp_path, capsys, process, flags, message):
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "generate", "--process", process, *flags, "--J", "8", "--out", str(out)
        )
        assert code == EXIT_USAGE
        assert message in err and not out.exists()

    def test_negative_seed_refused(self, tmp_path, capsys):
        # numpy's seed sequences take no negative entropy: a usage error, not a traceback
        out = tmp_path / "bm.csv"
        code, stdout, err = run(capsys, "generate", "--process", "bm", "--J", "6",
                                "--seed", "-1", "--out", str(out))
        assert (code, stdout) == (EXIT_USAGE, "")
        assert err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "generate", "--process", "nope", "--out", "x")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "process, flags, message",
        [
            ("bm", ["--weight", "sine:1,3,0"], "no weight"),
            ("martingale", ["--H", "0.3"], "no Hurst index"),
        ],
    )
    def test_unused_field_refused(self, tmp_path, capsys, process, flags, message):
        # the sidecar would record a field the draw ignores
        out = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "generate", "--process", process, *flags, "--J", "8",
            "--seed", "1", "--out", str(out),
        )
        assert code == EXIT_USAGE
        assert message in err and not out.exists()

    def test_invalid_fgn_covariance_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        def invalid(H, n_lags):  # |gamma(1)| > gamma(0): no covariance
            gamma = np.zeros(n_lags)
            gamma[:2] = 1.0, 1.5
            return gamma

        monkeypatch.setattr(generators, "_fgn_autocov", invalid)
        out = tmp_path / "fbm.csv"
        code, _, err = run(
            capsys, "generate", "--process", "fbm", "--H", "0.7", "--J", "8",
            "--out", str(out),
        )
        assert code == EXIT_USAGE
        assert "roundoff tolerance" in err and not out.exists()


def write_overflowing_csv(tmp_path, J=8):
    """A path whose increments are 1e200: its squared values overflow."""
    g = Grid(0.0, 1.0, J)
    values = np.concatenate([[0.0], np.cumsum(np.full(g.n_cells, 1e200))])
    f = tmp_path / "huge.csv"
    f.write_text(
        "t,value\n"
        + "".join(f"{t!r},{v!r}\n" for t, v in zip(g.points().tolist(), values.tolist()))
    )
    return f


def assert_one_numeric_failure_line(err):
    assert err.startswith("numeric failure: ") and "non-finite" in err
    assert err.count("\n") == 1 and err.endswith("\n")


class TestDyadic:
    def write_ramp(self, tmp_path, J=10):
        g = Grid(0.0, 1.0, J)
        f = tmp_path / "ramp.csv"
        rows = ["t,value"] + [f"{float(t)!r},{float(t)!r}" for t in g.points()]
        f.write_text("\n".join(rows) + "\n")
        return f

    def test_ramp_closed_form(self, tmp_path, capsys):
        f = self.write_ramp(tmp_path)
        code, out, _ = run(
            capsys, "dyadic", "--input", str(f), "--alpha", "0.25", "--p", "2",
            "--N", "10",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        for n, term in zip(payload["levels"], payload["terms"]):
            assert term == pytest.approx(2.0 ** (2 * n * (0.25 - 1.0)), rel=1e-12)
        assert payload["verdict"] == "converges"
        assert payload["resampled"] is False

    def test_constant_csv(self, tmp_path, capsys):
        g = Grid(0.0, 1.0, 8)
        f = tmp_path / "const.csv"
        f.write_text("t,value\n" + "".join(f"{float(t)!r},2.0\n" for t in g.points()))
        code, out, _ = run(capsys, "dyadic", "--input", str(f), "--alpha", "0.4")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert all(t == 0.0 for t in payload["terms"])
        assert payload["verdict"] == "converges"

    def test_out_writes_report_and_table(self, tmp_path, capsys):
        f = self.write_ramp(tmp_path)
        code, out, _ = run(
            capsys, "dyadic", "--input", str(f), "--alpha", "0.3",
            "--out", str(tmp_path / "r.json"),
        )
        assert code == EXIT_OK and out == f"{tmp_path / 'r.json'}\n"
        assert json.loads((tmp_path / "r.json").read_text())["verdict"] == "converges"
        assert (tmp_path / "r.csv").read_text().splitlines()[0] == "n,term,partial_sum"

    def test_out_that_is_its_own_table_refused(self, tmp_path, capsys):
        # the CSV table would overwrite the JSON report at r.csv
        f = self.write_ramp(tmp_path)
        code, out, err = run(
            capsys, "dyadic", "--input", str(f), "--alpha", "0.3",
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == EXIT_USAGE
        assert out == "" and "another suffix" in err
        assert not (tmp_path / "r.csv").exists()

    def test_round_trip_bit_exact(self, tmp_path, capsys):
        out = tmp_path / "bm.csv"
        run(
            capsys, "generate", "--process", "bm", "--J", "10", "--seed", "5",
            "--out", str(out),
        )
        code, text, _ = run(
            capsys, "dyadic", "--input", str(out), "--alpha", "0.4", "--N", "10",
        )
        assert code == EXIT_OK
        payload = json.loads(text)
        direct = kamont_series(
            path_of(GeneratorSpec("bm", Grid(0.0, 1.0, 10)).sample(5)), 10, 0.4, 2.0
        )
        assert tuple(payload["terms"]) == direct.terms
        assert payload["fitted_log2_slope"] == direct.fitted_log2_slope

    def test_n_beyond_resolution_is_a_data_error(self, tmp_path, capsys):
        # as `level_sums` and `lemma --statistic`: a resolution error exits 3
        f = self.write_ramp(tmp_path, J=8)
        code, out, err = run(capsys, "dyadic", "--input", str(f), "--alpha", "0.4", "--N", "10")
        assert (code, out) == (EXIT_DATA, "")
        assert "exceeds grid resolution J=8" in err

    def test_coarse_path_is_a_data_error(self, tmp_path, capsys):
        # below MIN_LEVELS levels the default N fails on the input's resolution, as --N 6 does
        f = tmp_path / "coarse.csv"
        run(capsys, "generate", "--process", "bm", "--J", "4", "--seed", "1", "--out", str(f))
        for flags in ([], ["--N", "6"]):
            code, out, err = run(capsys, "dyadic", "--input", str(f), "--alpha", "0.4", *flags)
            assert (code, out) == (EXIT_DATA, "")
            assert "exceeds grid resolution J=4" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "dyadic", "--input", "/no/such.csv", "--alpha", "0.4")
        assert code == EXIT_DATA
        assert "error" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("time,value\n0,0\n1,1\n", "expected header 't,value'"),
            ("t,value\n0,0\n", "need at least two samples"),
            ("t,value\n0,0\n1,1\n1,2\n", "times must be strictly increasing"),
        ],
        ids=["header", "one-row", "times-not-increasing"],
    )
    def test_refused_file_is_a_data_error(self, tmp_path, capsys, text, message):
        f = tmp_path / "bad.csv"
        f.write_text(text)
        code, out, err = run(capsys, "dyadic", "--input", str(f), "--alpha", "0.4")
        assert (code, out) == (EXIT_DATA, "")
        assert err == f"error: {f}: {message}\n"

    @pytest.mark.parametrize("command", ["dyadic", "besov"])
    def test_short_row(self, tmp_path, capsys, command):
        f = tmp_path / "short.csv"
        f.write_text("t,value\n0,0\n0.5\n1,1\n")
        code, out, err = run(capsys, command, "--input", str(f), "--alpha", "0.4")
        assert code == EXIT_DATA
        assert out == "" and "line 3" in err

    @pytest.mark.parametrize("command", ["dyadic", "besov"])
    @pytest.mark.parametrize("row", ["0.5,nan", "0.5,-inf", "inf,0.5"])
    def test_non_finite_input_is_a_data_error(self, tmp_path, capsys, command, row):
        f = tmp_path / "nan.csv"
        f.write_text(f"t,value\n0,0\n\n{row}\n1,1\n")
        code, out, err = run(capsys, command, "--input", str(f), "--alpha", "0.4")
        assert code == EXIT_DATA
        assert out == "" and "line 4" in err and "not finite" in err

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_non_finite_result(self, tmp_path, capsys, to_file):
        # the suite turns RuntimeWarnings into errors: the overflow warns nowhere
        f = write_overflowing_csv(tmp_path)
        report = tmp_path / "report.json"
        out_flags = ["--out", str(report)] if to_file else []
        code, out, err = run(capsys, "dyadic", "--input", str(f), "--alpha", "0.4", *out_flags)
        assert code == EXIT_NUMERIC
        assert out == "" and not report.exists() and not report.with_suffix(".csv").exists()
        assert_one_numeric_failure_line(err)


class TestBesovCmd:
    def test_constant_input(self, tmp_path, capsys):
        g = Grid(0.0, 1.0, 8)
        f = tmp_path / "c.csv"
        f.write_text("t,value\n" + "".join(f"{float(t)!r},1.5\n" for t in g.points()))
        code, out, _ = run(capsys, "besov", "--input", str(f), "--alpha", "0.3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["seminorm_truncated"] == 0.0

    def test_ramp_matches_oracle(self, tmp_path, capsys):
        oracle = json.loads(
            (Path(__file__).parent / "fixtures" / "besov_ramp_oracle.json").read_text()
        )
        g = Grid(0.0, 1.0, 12)
        f = tmp_path / "ramp.csv"
        f.write_text("t,value\n" + "".join(f"{float(t)!r},{float(t)!r}\n" for t in g.points()))
        code, out, _ = run(
            capsys, "besov", "--input", str(f), "--alpha", "0.3", "--p", "2",
            "--q", "2",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["seminorm_truncated"] == pytest.approx(
            oracle["seminorm_truncated"], rel=0.01
        )

    def test_extrapolate_flag(self, tmp_path, capsys):
        out = tmp_path / "bm.csv"
        run(
            capsys, "generate", "--process", "bm", "--J", "10", "--seed", "9",
            "--out", str(out),
        )
        code, text, _ = run(
            capsys, "besov", "--input", str(out), "--alpha", "0.4", "--extrapolate",
        )
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["extrapolated_seminorm"] is not None
        assert payload["extrapolated_seminorm"] >= payload["seminorm_truncated"]

    def test_non_finite_result(self, tmp_path, capsys):
        # the suite turns RuntimeWarnings into errors: the overflow warns nowhere
        f = write_overflowing_csv(tmp_path)
        out_file = tmp_path / "report.json"
        code, out, err = run(
            capsys, "besov", "--input", str(f), "--alpha", "0.4", "--out", str(out_file)
        )
        assert code == EXIT_NUMERIC
        assert out == "" and not out_file.exists()
        assert_one_numeric_failure_line(err)

    def test_non_finite_result_general_p(self, tmp_path, capsys):
        # +-1.2e154 alternating: the cubed odd-shift differences overflow
        g = Grid(0.0, 1.0, 8)
        values = np.where(np.arange(g.n_points) % 2 == 0, 1.2e154, -1.2e154)
        f = tmp_path / "zigzag.csv"
        f.write_text(
            "t,value\n"
            + "".join(f"{t!r},{v!r}\n" for t, v in zip(g.points().tolist(), values.tolist()))
        )
        code, out, err = run(capsys, "besov", "--input", str(f), "--alpha", "0.4", "--p", "3")
        assert code == EXIT_NUMERIC
        assert out == "" and "non-finite" in err

    def test_format_option_removed(self, tmp_path, capsys):
        # each report is JSON, printed or written by --out; `dyadic --out` writes
        # its table beside the report
        g = Grid(0.0, 1.0, 8)
        f = tmp_path / "c.csv"
        f.write_text("t,value\n" + "".join(f"{float(t)!r},1.5\n" for t in g.points()))
        for command in ("besov", "dyadic"):
            code, out, err = run(
                capsys, command, "--input", str(f), "--alpha", "0.3", "--format", "csv"
            )
            assert code == EXIT_USAGE
            assert out == "" and "--format" in err

    def test_general_p_grid_limit(self, tmp_path, capsys):
        g = Grid(0.0, 1.0, 15)
        f = tmp_path / "ramp.csv"
        f.write_text("t,value\n" + "".join(f"{t!r},{t!r}\n" for t in g.points().tolist()))
        code, _, err = run(capsys, "besov", "--input", str(f), "--alpha", "0.2", "--p", "3")
        assert code == EXIT_USAGE
        assert "p = 2" in err


class TestSweepCmd:
    def test_sweep_writes_reports(self, tmp_path, capsys):
        config = {
            "schema_version": 1,
            "generator": {"kind": "bm", "a": 0.0, "b": 1.0, "J": 10, "seed": 3},
            "p": 2.0,
            "alpha_grid": [0.3, 0.4, 0.5, 0.6, 0.7],
            "n_levels": 8,
            "replicates": 5,
            "workers": 1,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        code, _, _ = run(
            capsys, "sweep", "--config", str(cfg), "--out-dir", str(out_dir),
        )
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        assert len(report["rows"]) == 5
        csv_lines = (out_dir / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "alpha,median_slope,frac_conv,frac_div,frac_inc"

    def test_too_many_replicates_is_a_usage_error(self, tmp_path, capsys):
        # (10^13, 6) raw level sums are 4.8e14 bytes, above 2^48: beyond x86-64's
        # 128 TiB user address space, so the allocation fails at once
        config = {
            "schema_version": 1,
            "generator": {"kind": "bm", "a": 0.0, "b": 1.0, "J": 8, "seed": 3},
            "p": 2.0,
            "alpha_grid": [0.4],
            "n_levels": 6,
            "replicates": 10**13,
            "workers": 1,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "sweep", "--config", str(cfg), "--out-dir",
                             str(tmp_path / "out"))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{}")
        code, _, _ = run(capsys, "sweep", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == EXIT_USAGE

    def test_missing_config_is_a_data_error(self, tmp_path, capsys):
        code, out, err = run(capsys, "sweep", "--config", str(tmp_path / "none.json"),
                             "--out-dir", str(tmp_path / "out"))
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith("error: cannot read config: ")
        assert not (tmp_path / "out").exists()

    def test_report_with_null_slopes_is_strict_json(self, tmp_path, capsys):
        # the indicator of [2, 3] is zero on [0, 1]: every level sum is 0, so every
        # fitted slope and every median slope is -inf, which the report writes as null
        config = {
            "generator": {"kind": "martingale", "a": 0.0, "b": 1.0, "J": 8, "seed": 1,
                          "weight": "indicator:2,3"},
            "p": 2.0, "alpha_grid": [0.3, 0.5], "n_levels": 6, "replicates": 4,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        code, out, _ = run(capsys, "sweep", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert (code, out) == (EXIT_OK, f"{tmp_path / 'report.json'}\n")

        def refuse(constant):
            raise AssertionError(f"{constant} in a strict JSON report")

        report = json.loads((tmp_path / "report.json").read_text(), parse_constant=refuse)
        assert [row["median_slope"] for row in report["rows"]] == [None, None]
        assert report["critical_alpha"] is None

    @pytest.mark.parametrize(
        "change",
        [
            {"alpha_grid": [0.3, "x"]},
            {"alpha_grid": 0.3},
            {"generator": {"kind": "bm", "a": 0.0, "b": 1.0, "J": "eight"}},
            {"generator": [1, 2]},
            {"p": None},
            {"n_levels": -1},
            {"n_levels": 1},
            {"n_levels": 2},
            None,  # the whole config is [1, 2]
            {"generator": {"kind": "bm", "a": 0.0, "b": 1.0, "J": 8.9}},
            {"generator": {"kind": "bm", "a": 0.0, "b": 1.0, "J": 8, "seed": True}},
            {"p": True},
            {"n_levels": 7.5},
            {"replicates": 2.5},
            {"workers": True},
            {"generator": {"kind": "martingale", "a": 0.0, "b": 1.0, "J": 8, "weight": 5}},
            {"generator": {"kind": "bm", "a": 0.0, "b": 1.0, "J": 8, "seed": -3}},
        ],
        ids=["alpha-not-number", "alpha-grid-scalar", "J-not-integer", "generator-list",
             "p-null", "n-levels-negative", "n-levels-1", "n-levels-2", "top-level-list",
             "J-fraction", "seed-bool", "p-bool", "n-levels-fraction", "replicates-fraction",
             "workers-bool", "weight-not-string", "seed-negative"],
    )
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, change):
        config = {
            "generator": {"kind": "bm", "a": 0.0, "b": 1.0, "J": 8, "seed": 3},
            "p": 2.0, "alpha_grid": [0.3, 0.5], "n_levels": 8, "replicates": 2,
        }
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps([1, 2] if change is None else {**config, **change}))
        code, out, err = run(capsys, "sweep", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    def test_workers_zero_in_config_is_a_usage_error(self, tmp_path, capsys):
        config = {
            "generator": {"kind": "bm", "a": 0.0, "b": 1.0, "J": 8, "seed": 3},
            "p": 2.0, "alpha_grid": [0.3, 0.5], "n_levels": 8, "replicates": 3, "workers": 0,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "sweep", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and "workers" in err
        assert not (tmp_path / "report.json").exists()

    def test_workers_flag_is_refused(self, tmp_path, capsys):
        # a sweep's thread count has one source: the config's workers
        code, out, err = run(capsys, "sweep", "--config", str(write_sweep_config(tmp_path)),
                             "--out-dir", str(tmp_path / "out"), "--workers", "2")
        assert (code, out) == (EXIT_USAGE, "")
        assert [line for line in err.splitlines() if "error:" in line] == [
            "besovlab: error: unrecognized arguments: --workers 2"
        ]
        assert not (tmp_path / "out").exists()

    def test_overflow_error_alike_at_any_workers(self, tmp_path, capsys, monkeypatch):
        # the blocks' threads keep main's np.errstate: no overflow warning from a
        # thread (an error under this suite's warning filter) reaches stderr
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        config = {
            "generator": {"kind": "martingale", "a": 0.0, "b": 1.0, "J": 8, "seed": 1,
                          "weight": "constant:1e300"},
            "p": 2.0, "alpha_grid": [0.3, 0.5], "n_levels": 6, "replicates": 4,
        }
        results = []
        for workers in (1, 2):
            cfg = tmp_path / f"config-w{workers}.json"
            cfg.write_text(json.dumps({**config, "workers": workers}))
            results.append(run(capsys, "sweep", "--config", str(cfg), "--out-dir", str(tmp_path)))
        code, out, err = results[0]
        assert (code, out) == (EXIT_NUMERIC, "")
        assert_one_numeric_failure_line(err)
        assert results[1] == results[0]


class TestLemmaCmd:
    def test_pz_monte_carlo(self, capsys):
        code, out, _ = run(capsys, "lemma", "--pz-mc", "1,1,1", "--samples", "1000")
        assert code == EXIT_OK
        # three equal coefficients: every signed sum squared is at least 3/4, so 1.0
        assert out == "paley-zygmund probability 1.0 stderr 0.001 bound 0.125 PASS\n"

    def test_pz_exact_single(self, capsys):
        code, out, _ = run(capsys, "lemma", "--pz-exact", "1")
        assert code == EXIT_OK
        assert "probability 1.0" in out and "PASS" in out

    def test_pz_exact_pair(self, capsys):
        code, out, _ = run(capsys, "lemma", "--pz-exact", "1,1")
        assert code == EXIT_OK
        assert "probability 0.5" in out and "PASS" in out

    def test_pz_exact_negative_coefficient(self, capsys):
        # a list that starts with a minus sign is the flag's value
        code, out, _ = run(capsys, "lemma", "--pz-exact", "-1,1")
        assert code == EXIT_OK
        assert "probability 0.5" in out and "PASS" in out
        code, _, err = run(capsys, "lemma", "--pz-exact", "-x")  # not a number: an option
        assert code == EXIT_USAGE and "expected one argument" in err

    @pytest.mark.parametrize("flag, what", [("--pz-exact", "coefficient"),
                                            ("--pz-mc", "coefficient"),
                                            ("--sizes", "family size")])
    @pytest.mark.parametrize("text", ["1,,2", "1,2,", ""])
    def test_number_list_refuses_empty_entries(self, capsys, flag, what, text):
        argv = ["lemma", f"{flag}={text}", "--samples", "100"]
        code, out, err = run(capsys, *argv, *(["--probe"] if flag == "--sizes" else []))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: bad {what} list {text!r}\n"

    def test_number_list_reads_spaces_around_entries(self, capsys):
        spaced = run(capsys, "lemma", "--pz-exact", "1, 2")
        assert spaced == run(capsys, "lemma", "--pz-exact", "1,2") and spaced[0] == EXIT_OK

    def test_probe_too_many_replicates_is_a_usage_error(self, capsys):
        # one size's 10^14 sums are 8e14 bytes, above 2^48: the allocation fails at once
        code, out, err = run(capsys, "lemma", "--probe", "--J", "4", "--sizes", "2",
                             "--replicates", str(10**14))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_statistic_nondecreasing(self, capsys):
        code, out, _ = run(
            capsys, "lemma", "--statistic", "--alpha", "0.4", "--p", "2",
            "--N", "8", "--process", "bm", "--J", "10", "--seed", "4",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,partial_sum"
        sums = [float(line.split(",")[1]) for line in lines[1:]]
        assert sums == sorted(sums)

    def test_probe_output(self, capsys):
        code, out, _ = run(
            capsys, "lemma", "--probe", "--J", "8", "--sizes", "4,16",
            "--replicates", "50",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "family_size,quantile"

    def test_no_action(self, capsys):
        code, _, err = run(capsys, "lemma")
        assert code == EXIT_USAGE

    def test_probe_uses_weight(self, capsys):
        # a constant weight 2 doubles every increment, hence every quantile, exactly
        common = ["lemma", "--probe", "--J", "8", "--sizes", "4,16", "--replicates", "50",
                  "--seed", "3"]
        _, bm, _ = run(capsys, *common, "--process", "bm")
        code, weighted, _ = run(
            capsys, *common, "--process", "martingale", "--weight", "constant:2"
        )
        assert code == EXIT_OK
        q_bm = [float(line.split(",")[1]) for line in bm.split()[1:]]
        q_w = [float(line.split(",")[1]) for line in weighted.split()[1:]]
        assert len(q_bm) == 2 and q_w == [2.0 * q for q in q_bm]

    def test_probe_fbm_requires_hurst(self, capsys):
        code, _, err = run(capsys, "lemma", "--probe", "--process", "fbm", "--J", "8")
        assert code == EXIT_USAGE
        assert "fbm generator needs a Hurst index" in err

    @pytest.mark.parametrize("flag", ["--pz-exact", "--pz-mc"])
    @pytest.mark.parametrize("lam", ["nan,1", "inf,1", "1,-inf", "abc"])
    def test_pz_rejects_bad_coefficients(self, capsys, flag, lam):
        code, out, err = run(capsys, "lemma", f"{flag}={lam}", "--samples", "100")
        assert code == EXIT_USAGE
        assert out == "" and "error" in err

    @pytest.mark.parametrize("lam", ["1e-200,1e-200", "1e200,1e200", "1e-320,1e-320"])
    def test_pz_exact_extreme_scale(self, capsys, lam):
        # the threshold of 1e-200 coefficients used to underflow to 0 (probability 1.0)
        code, out, _ = run(capsys, "lemma", "--pz-exact", lam)
        assert code == EXIT_OK
        assert out == "paley-zygmund probability 0.5 bound 0.125 PASS\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_statistic_non_finite(self, capsys):
        code, out, err = run(
            capsys, "lemma", "--statistic", "--process", "martingale",
            "--weight", "constant:1e300", "--J", "8", "--N", "6",
        )
        assert code == EXIT_NUMERIC
        assert out == "" and "not finite" in err

    def test_probe_non_finite(self, capsys):
        # a weight of 1.7e308 overflows the sums of the families' cells: no table, exit 4
        code, out, err = run(
            capsys, "lemma", "--probe", "--process", "martingale",
            "--weight", "constant:1.7e308", "--J", "6", "--sizes", "2,4", "--replicates", "20",
        )
        assert code == EXIT_NUMERIC
        assert out == "" and err == "numeric failure: a probe sum is not finite\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--probe", "--sizes", "4,x"], "family size list"),
            (["--probe", "--sizes", "0"], "family sizes"),
            (["--probe", "--sizes", "-3"], "family sizes"),
            (["--pz-mc", "1,1", "--samples", "0"], "Monte Carlo sample"),
            (["--probe", "--sizes", ","], "family size"),
            (["--probe", "--sizes", "4,4,16"], "family size 4 is repeated"),
            (["--probe", "--seed", "-2"], "seed must be >= 0, got -2"),
            (["--pz-mc", "1,1", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["--statistic", "--N", "6", "--alpha", "nan"], "alpha must be in (0, 1)"),
            (["--statistic", "--N", "6", "--alpha", "1.5"], "alpha must be in (0, 1)"),
            (["--statistic", "--N", "6", "--p", "nan"], "p must be finite and >= 1"),
            (["--statistic", "--N", "6", "--p", "0.5"], "p must be finite and >= 1"),
        ],
    )
    def test_bad_input_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, "lemma", "--J", "8", *argv)
        assert code == EXIT_USAGE
        assert out == "" and message in err

    def test_statistic_checks_depth_before_drawing_sample(self, capsys, monkeypatch):
        # N > J is refused before the sample's 2^J cells are drawn
        def unreachable(self, *args):
            raise AssertionError("the sample was drawn")

        monkeypatch.setattr(GeneratorSpec, "sample", unreachable)
        code, out, err = run(capsys, "lemma", "--statistic", "--N", "24", "--J", "10")
        assert code == EXIT_DATA
        assert out == "" and "resolution" in err

    def test_statistic_full_depth_matches_kamont(self, capsys):
        # N = J = 20: a full family of 2M cells, which set objects could not build
        code, out, _ = run(
            capsys, "lemma", "--statistic", "--N", "20", "--J", "20", "--seed", "6",
        )
        assert code == EXIT_OK
        rows = out.split()
        assert rows[0] == "n,partial_sum" and len(rows) == 21
        sample = GeneratorSpec("bm", Grid(0.0, 1.0, 20), seed=6).sample()
        ref = kamont_series(path_of(sample), 20, 0.4, 2.0).partial_sums[-1]
        assert float(rows[-1].split(",")[1]) == pytest.approx(ref, rel=1e-12)


def write_sweep_config(tmp_path, **generator):
    config = {
        "generator": {"kind": "bm", "a": 0.0, "b": 1.0, "J": 8, "seed": 1, **generator},
        "p": 2.0, "alpha_grid": [0.3, 0.5], "n_levels": 8, "replicates": 3,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))  # an infinite float is written as Infinity
    return cfg


# a martingale of weight 1e200 at J = 8: its squared increments overflow
HUGE_MARTINGALE = {"kind": "martingale", "weight": "constant:1e200"}


@pytest.mark.parametrize("command", ["sweep", "dyadic", "besov", "statistic", "probe"])
def test_overflow_is_one_numeric_failure_in_every_command(tmp_path, capsys, command):
    # README: a non-finite result exits 4, prints nothing on stdout and one line on stderr
    config = write_sweep_config(tmp_path, **HUGE_MARTINGALE)
    csv_path = write_overflowing_csv(tmp_path)
    argv = {
        "sweep": ["sweep", "--config", str(config), "--out-dir", str(tmp_path / "out")],
        "dyadic": ["dyadic", "--input", str(csv_path), "--alpha", "0.4"],
        "besov": ["besov", "--input", str(csv_path), "--alpha", "0.4"],
        "statistic": ["lemma", "--statistic", "--process", "martingale",
                      "--weight", HUGE_MARTINGALE["weight"], "--J", "8", "--N", "8"],
        "probe": ["lemma", "--probe", "--process", "martingale", "--weight", "constant:1.7e308",
                  "--J", "6", "--sizes", "2,4", "--replicates", "20"],
    }[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_NUMERIC, "")
    assert err.startswith("numeric failure: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("command", ["generate", "sweep", "probe"])
def test_interval_of_infinite_length_is_a_usage_error(tmp_path, capsys, command):
    argv = {
        "generate": ["generate", "--process", "bm", "--b", "inf",
                     "--out", str(tmp_path / "bm.csv")],
        "sweep": ["sweep", "--config", str(write_sweep_config(tmp_path, b=math.inf)),
                  "--out-dir", str(tmp_path / "out")],
        "probe": ["lemma", "--probe", "--b", "inf", "--J", "6", "--sizes", "2",
                  "--replicates", "5"],
    }[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: need b > a with b - a finite, got [")
    assert err.count("\n") == 1
    assert not (tmp_path / "bm.csv").exists() and not (tmp_path / "out").exists()


WIDE_TIMES = [-1e308, -5e307, 0.0, 5e307, 1e308]  # t spans more than the double range


@pytest.mark.parametrize("command", ["dyadic", "besov"])
def test_csv_span_wider_than_doubles_is_a_data_error(tmp_path, capsys, command):
    wide = tmp_path / "wide.csv"  # every value finite: the span is the input's fault
    wide.write_text("t,value\n" + "".join(f"{t!r},0.0\n" for t in WIDE_TIMES))
    code, out, err = run(capsys, command, "--input", str(wide), "--alpha", "0.4")
    assert (code, out) == (EXIT_DATA, "")
    assert err == "error: times span [-1e+308, 1e+308], wider than the double range\n"


class TestParser:
    ARGV = [
        [], ["-h"], ["frobnicate"], ["gen"],
        *([command, "-h"] for command in ("generate", "dyadic", "besov", "sweep", "lemma")),
        ["generate", "--out", "x.csv"],  # --process is required
        ["dyadic", "--alpha", "0.5"],  # --input is required
        ["generate", "--process", "brownian", "--out", "x.csv"],
        ["dyadic", "--input", "x.csv", "--alpha", "0.5", "--format", "xml"],
        ["generate", "--process", "bm", "--out", "x.csv", "--bogus"],  # the top level's error
        ["lemma", "--seed", "one"],
        ["lemma", "--pz-exact", "-1,1"],  # a number: the flag's value
        ["-h", "sweep"],
    ]

    @pytest.mark.parametrize("argv", ARGV, ids=" ".join)
    def test_one_subcommand_parses_as_the_full_tree(self, capsys, monkeypatch, argv):
        # main builds only the subcommand argv names; help, usage errors and exit
        # codes are byte for byte those of the parser of every subcommand
        got = run(capsys, *argv)
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
        assert got == run(capsys, *argv)
        assert got[0] in (EXIT_OK, EXIT_USAGE) and (got[1] or got[2])


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(after: str, fence: str) -> str:
    """The first code block opened by `fence` after the line `after` in README.md."""
    text = README.read_text()
    start = text.index(fence + "\n", text.index(after + "\n")) + len(fence) + 1
    return text[start : text.index("```", start)]


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    # every line of the README's CLI block, in order, with its sweep config
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(readme_block("A sweep config is JSON:", "```json"))
    lines = readme_block("## CLI", "```").splitlines()
    assert lines
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "besovlab"
        code, _, err = run(capsys, *argv)
        assert code == EXIT_OK, (line, err)


IMPORT_CHECK = """
import os
import sys

import numpy
import besovlab.cli
from besovlab import ExperimentConfig, GeneratorSpec, Grid, run_alpha_sweep


def loaded():
    return [m for m in ("concurrent.futures", "numpy.polynomial") if m in sys.modules]


def sweep(workers):
    spec = GeneratorSpec("bm", Grid(0.0, 1.0, 8))
    run_alpha_sweep(ExperimentConfig(spec, 2.0, (0.5,), 6, 4, workers))


at_import = loaded()
sweep(1)
one_block = loaded()
os.cpu_count = lambda: 2
sweep(2)
print(at_import, one_block, loaded())
"""


def test_import_loads_neither_thread_pool_nor_polynomial():
    # a fresh process pays for what `import besovlab.cli` loads: the thread pool
    # waits for a sweep of two blocks or more, and numpy.polynomial is never needed
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", IMPORT_CHECK], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[] [] ['concurrent.futures']\n"


def reference_read(source: Path) -> tuple[np.ndarray, np.ndarray]:
    """The row reader `read_series_csv` replaced: csv.reader and float() per field."""
    with source.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [(float(row[0]), float(row[1])) for row in reader if row]
    times, values = zip(*rows)
    return np.array(times), np.array(values)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def csv_texts(draw):
    """A 't,value' file of finite doubles with blank lines, padding, quotes and extra columns."""
    times = sorted(draw(st.lists(FINITE, min_size=2, max_size=30, unique=True)))
    values = draw(st.lists(FINITE, min_size=len(times), max_size=len(times)))
    fmt = draw(st.sampled_from([repr, "%.17g".__mod__]))
    pad = st.text(" \t", max_size=2)
    lines = ["t,value"]
    for t, v in zip(times, values):
        lines += [""] * draw(st.integers(0, 2))
        fields = [fmt(t), fmt(v)]
        style = draw(st.sampled_from(["plain", "padded", "quoted"]))
        if style == "padded":
            fields = [draw(pad) + f + draw(pad) for f in fields]
        elif style == "quoted":
            fields = [f'"{f}"' for f in fields]
        fields += [fmt(x) for x in draw(st.lists(FINITE, max_size=2))]
        lines.append(",".join(fields))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + eol * draw(st.integers(0, 2))


class TestReadSeriesCsv:
    @given(csv_texts())
    @example(text="t,value\n-2.99e292,0.0\n1.7976931348623157e308,0.0\n")  # t2 - t1 overflows
    @settings(max_examples=200, deadline=None)
    def test_matches_csv_reader_bit_for_bit(self, tmp_path_factory, text):
        f = tmp_path_factory.mktemp("csv") / "path.csv"
        f.write_bytes(text.encode())
        got, want = read_series_csv(f), reference_read(f)
        for g, w in zip(got, want):
            assert g.flags.c_contiguous
            np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=5),
        st.sampled_from(["0.5", "0.5,", "0.5,abc", "abc,1", ",1"]),
        st.sampled_from(["\n", "\r\n"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_bad_row_names_its_line(self, tmp_path_factory, blanks, bad, eol):
        # blank lines before and between the good rows: loadtxt's row numbers skip them
        lines = ["t,value"]
        for k, n_blank in enumerate(blanks):
            lines += [""] * n_blank + [f"{k},{k}"]
        lines += ["", bad, "9,9"]
        f = tmp_path_factory.mktemp("csv") / "bad.csv"
        f.write_bytes(eol.join(lines).encode())
        with pytest.raises(DataError) as info:
            read_series_csv(f)
        assert re.search(r"line (\d+)", str(info.value))[1] == str(len(lines) - 1)


    def test_bad_row_line_does_not_rest_on_loadtxt_wording(self, tmp_path, monkeypatch):
        # the line comes from re-reading the file, whatever loadtxt's message says
        def reworded(*args, **kwargs):
            raise ValueError("reworded message")

        monkeypatch.setattr(np, "loadtxt", reworded)
        f = tmp_path / "x.csv"
        f.write_text("t,value\n0,0\n\n0.5,abc\n1,1\n")
        with pytest.raises(DataError, match=r"x\.csv: line 4, column 2: cannot parse 'abc'"):
            read_series_csv(f)
        # no row at fault: loadtxt's own message is the report
        f.write_text("t,value\n0,0\n1,1\n")
        with pytest.raises(DataError, match=r"^cannot read .*x\.csv: reworded message$"):
            read_series_csv(f)

    @pytest.mark.parametrize(
        "rows, named",
        [
            (["1_0,1"], "line 3, column 1: cannot parse '1_0'"),
            (["\u0661,1"], "line 3, column 1: cannot parse '\u0661'"),
            # loadtxt reads a trailing no-break space, so the row below it is at fault
            (["1\xa0,1", "2,abc"], "line 4, column 2: cannot parse 'abc'"),
        ],
    )
    def test_bad_row_refuses_what_loadtxt_refuses(self, tmp_path, rows, named):
        # float() reads underscores and non-ASCII digits; loadtxt refuses both
        f = tmp_path / "u.csv"
        f.write_text("t,value\n0,0\n" + "\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"u.csv: {named} as a number")):
            read_series_csv(f)


    @pytest.mark.parametrize("command, row", [("dyadic", "0.5,abc"), ("besov", "0.5,inf")])
    def test_bad_row_from_a_named_pipe(self, tmp_path, command, row):
        # re-opening a named pipe for the bad row's line would wait for a new
        # writer forever; the message comes without a line instead
        fifo = tmp_path / "path.fifo"
        os.mkfifo(fifo)

        def feed():
            with fifo.open("w") as fh:
                fh.write(f"t,value\n0.0,1.0\n{row}\n1.0,2.0\n")

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "besovlab.cli", command, "--input", str(fifo),
                 "--alpha", "0.4"],
                capture_output=True, text=True, timeout=20, env=env,
            )
        finally:
            # a writer still waiting for a reader gets one, fills the pipe's buffer and closes
            reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
            writer.join(timeout=20)
            os.close(reader)
        assert not writer.is_alive()
        assert (done.returncode, done.stdout) == (EXIT_DATA, "")
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert str(fifo) in done.stderr and ": line " not in done.stderr


class TestIngest:
    def test_non_dyadic_resampled(self):
        times = np.linspace(0.0, 1.0, 100)
        values = times**2
        path, resampled = ingest_series(times, values)
        assert resampled
        assert path.grid.n_points == 2**7 + 1
        np.testing.assert_allclose(
            path.values, path.grid.points() ** 2, atol=1e-3
        )

    def test_two_points_resampled_onto_one_level(self):
        # one cell is a power of two, but a grid has J >= 1
        path, resampled = ingest_series(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert resampled and path.grid == Grid(0.0, 1.0, 1)
        assert path.values.tolist() == [0.0, 1.0, 2.0]

    def test_dyadic_passthrough(self):
        g = Grid(0.0, 2.0, 6)
        path, resampled = ingest_series(g.points(), np.cos(g.points()))
        assert not resampled
        assert path.grid == g

    @pytest.mark.parametrize("n_points, resampled", [(17, False), (33, True), (34, True)])
    def test_input_finer_than_the_cap_resampled_onto_it(self, monkeypatch, n_points,
                                                        resampled):
        monkeypatch.setattr(cli, "MAX_RESOLUTION", 4)
        monkeypatch.setattr(paths, "MAX_RESOLUTION", 4)
        times = np.linspace(0.0, 1.0, n_points)
        path, got = ingest_series(times, np.sin(times))
        assert (path.grid, got) == (Grid(0.0, 1.0, 4), resampled)

    @given(st.integers(1, 70))
    @settings(max_examples=70, deadline=None)
    def test_one_grid_per_input(self, n):
        times = np.linspace(-1.0, 2.0, n + 1)
        values = np.cos(7.0 * times)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "MAX_RESOLUTION", 4)
            mp.setattr(paths, "MAX_RESOLUTION", 4)
            path, resampled = ingest_series(times, values)
        J = min(max(1, math.ceil(math.log2(n))), 4)
        assert path.grid == Grid(-1.0, 2.0, J)
        assert resampled == (n != 2**J)
        if not resampled:
            assert path.values.tobytes() == values.tobytes()

    def test_span_wider_than_doubles_is_a_data_error(self):
        times = np.array(WIDE_TIMES)
        with pytest.raises(DataError, match=r"\[-1e\+308, 1e\+308\]"):
            ingest_series(times, np.zeros_like(times))


def test_emit_refuses_a_non_finite_entry_of_a_tuple(capsys):
    with pytest.raises(FloatingPointError, match="'terms'"):
        cli._emit({"terms": (1.0, math.inf)}, None)
    assert capsys.readouterr().out == ""
