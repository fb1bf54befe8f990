import csv
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besovlab import (
    DisjointFamily,
    GeneratorSpec,
    Grid,
    SampledPath,
    kamont_series,
    path_of,
)
from besovlab import cli, generators
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

    def test_csv_format_output(self, tmp_path, capsys):
        f = self.write_ramp(tmp_path)
        code, out, _ = run(
            capsys, "dyadic", "--input", str(f), "--alpha", "0.3", "--format", "csv",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "n,term,partial_sum"

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

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "dyadic", "--input", "/no/such.csv", "--alpha", "0.4")
        assert code == EXIT_DATA
        assert "error" in err

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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_result(self, tmp_path, capsys, fmt):
        # the suite turns RuntimeWarnings into errors: the overflow warns nowhere
        f = write_overflowing_csv(tmp_path)
        code, out, err = run(
            capsys, "dyadic", "--input", str(f), "--alpha", "0.4", "--format", fmt
        )
        assert code == EXIT_NUMERIC
        assert out == ""
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
        # `besov` has only a JSON report; --format csv printed JSON anyway
        g = Grid(0.0, 1.0, 8)
        f = tmp_path / "c.csv"
        f.write_text("t,value\n" + "".join(f"{float(t)!r},1.5\n" for t in g.points()))
        code, out, err = run(
            capsys, "besov", "--input", str(f), "--alpha", "0.3", "--format", "csv"
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

    def test_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{}")
        code, _, _ = run(capsys, "sweep", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == EXIT_USAGE

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

    def test_workers_flag_overrides_config(self, tmp_path, capsys):
        config = {
            "generator": {"kind": "bm", "a": 0.0, "b": 1.0, "J": 8, "seed": 3},
            "p": 2.0, "alpha_grid": [0.3, 0.5], "n_levels": 8, "replicates": 3, "workers": 1,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        code, _, _ = run(capsys, "sweep", "--config", str(cfg), "--out-dir", str(tmp_path),
                         "--workers", "2")
        assert code == EXIT_OK
        assert json.loads((tmp_path / "report.json").read_text())["config"]["workers"] == 2
        code, _, err = run(capsys, "sweep", "--config", str(cfg), "--out-dir", str(tmp_path),
                           "--workers", "0")
        assert code == EXIT_USAGE and "workers" in err


class TestLemmaCmd:
    def test_pz_exact_single(self, capsys):
        code, out, _ = run(capsys, "lemma", "--pz-exact", "1")
        assert code == EXIT_OK
        assert "probability 1.0" in out and "PASS" in out

    def test_pz_exact_pair(self, capsys):
        code, out, _ = run(capsys, "lemma", "--pz-exact", "1,1")
        assert code == EXIT_OK
        assert "probability 0.5" in out and "PASS" in out

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
        ],
    )
    def test_bad_input_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, "lemma", "--J", "8", *argv)
        assert code == EXIT_USAGE
        assert out == "" and message in err

    def test_statistic_checks_depth_before_building_family(self, capsys, monkeypatch):
        # N = 24 would allocate 2^25 labels before the resolution check
        def unreachable(depth):
            raise AssertionError("full_dyadic was called")

        monkeypatch.setattr(DisjointFamily, "full_dyadic", unreachable)
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

    def test_dyadic_passthrough(self):
        g = Grid(0.0, 2.0, 6)
        path, resampled = ingest_series(g.points(), np.cos(g.points()))
        assert not resampled
        assert path.grid == g
