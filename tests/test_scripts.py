import importlib.util
import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bm_phase_transition_writes_report(tmp_path, monkeypatch, capsys):
    script = load_script("run_bm_phase_transition")
    monkeypatch.setattr(sys, "argv", ["run_bm_phase_transition.py", str(tmp_path)])
    script.main()
    report = json.loads((tmp_path / "report.json").read_text())
    assert 0.45 <= report["critical_alpha"] <= 0.55  # acceptance 03's window
    assert (tmp_path / "report.csv").read_text().startswith("alpha,median_slope,")
    assert "estimated critical alpha" in capsys.readouterr().out
