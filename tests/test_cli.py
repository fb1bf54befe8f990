import csv
import json
from pathlib import Path

import numpy as np
import pytest

from besovlab import Grid, SampledPath, generate_bm, kamont_series, path_of
from besovlab.cli import (
    CSV_CHUNK_ROWS,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    _write_path_csv,
    ingest_series,
    main,
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
        values = path_of(generate_bm(grid, 9)).values.copy()
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

    def test_wfbm_low_hurst_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "generate", "--process", "wfbm", "--H", "0.4", "--J", "8",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == EXIT_USAGE
        assert "error" in err

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "generate", "--process", "nope", "--out", "x")
        assert code == EXIT_USAGE


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
            path_of(generate_bm(Grid(0.0, 1.0, 10), 5)), 10, 0.4, 2.0
        )
        assert tuple(payload["terms"]) == direct.terms
        assert payload["fitted_log2_slope"] == direct.fitted_log2_slope

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "dyadic", "--input", "/no/such.csv", "--alpha", "0.4")
        assert code == EXIT_DATA
        assert "error" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_result(self, tmp_path, capsys, fmt):
        f = write_overflowing_csv(tmp_path)
        code, out, err = run(
            capsys, "dyadic", "--input", str(f), "--alpha", "0.4", "--format", fmt
        )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "non-finite" in err


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_result(self, tmp_path, capsys):
        f = write_overflowing_csv(tmp_path)
        out_file = tmp_path / "report.json"
        code, out, err = run(
            capsys, "besov", "--input", str(f), "--alpha", "0.4", "--out", str(out_file)
        )
        assert code == EXIT_NUMERIC
        assert out == "" and not out_file.exists()
        assert "non-finite" in err

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
