import importlib.util
import json
from pathlib import Path

import pytest

from besovlab.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bm_phase_transition_writes_report(tmp_path):
    config = SCRIPTS / "bm_phase_transition.json"
    assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert 0.45 <= report["critical_alpha"] <= 0.55  # acceptance 03's window
    assert (tmp_path / "report.csv").read_text().startswith("alpha,median_slope,")


def test_bm_exponent_spread_prints_measured_and_predicted(capsys):
    load_script("bm_exponent_spread").main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("n_levels")
    rows = [[float(x) for x in line.split()] for line in lines[1:]]
    assert [int(row[0]) for row in rows] == list(range(8, 21))
    for _, _, _, sd, predicted_sd in rows:
        # at 4000 replicates the sample sd has a relative standard error of 1.1 %
        assert sd == pytest.approx(predicted_sd, rel=0.05)


def test_besov_oracle_matches_committed_fixture():
    got = load_script("make_besov_oracle").oracle()
    frozen = json.loads((FIXTURES / "besov_ramp_oracle.json").read_text())
    for key in ("alpha", "p", "q", "truncation_floor"):
        assert got[key] == frozen[key]
    for key in ("seminorm_truncated", "lp_norm"):
        assert got[key] == pytest.approx(frozen[key], rel=1e-12, abs=0.0)
    assert got["quadrature_error_bound"] < 1e-12


def promised_exit(name):
    """The exit code README promises for an output-digest case, read from its name."""
    if "overflow" in name:
        return EXIT_NUMERIC
    if "wide-interval" in name:
        return EXIT_DATA
    if any(word in name for word in ("infinite-b", "nothing-to-do", "empty-entry")):
        return EXIT_USAGE
    return EXIT_OK


def test_output_digests_are_reproducible():
    digests = load_script("output_digests")
    first, second = digests.digest_lines(), digests.digest_lines()
    assert first == second
    names = [line.split()[0] for line in first]
    assert len(names) == len(set(names)) == len(first)
    for line in first:
        name, code = line.split()[:2]
        assert code == f"exit={promised_exit(name)}", line
