"""Every operation of the benchmark's workloads runs once and passes its check.

`benchmark/workloads.py` drives the package through its public names and
`cli.main`; running each operation here, in process and writing only to a
temporary directory, shows a name it still uses that the package lost
before the benchmark itself is run.  A short traced run of each workload
shows that `benchmark/tracer.py` can still wrap every class of the package.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import besovlab
import besovlab.cli  # the workloads call `besovlab.cli.main`

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.mark.parametrize("name", ["sweep", "commands"])
def test_every_op_passes_its_check(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    workloads = importlib.import_module("workloads")
    ops = workloads.WORKLOADS[name](besovlab, 1, tmp_path).ops
    assert ops
    for op in ops:
        assert op.check(op.call()) == [], op.name


@pytest.mark.parametrize("name", ["sweep", "commands"])
def test_traced_run_is_correct(name):
    done = subprocess.run(
        [sys.executable, str(BENCHMARK / "run.py"), "--workload", name, "--seed", "1",
         "--seconds", "0.2", "--trace", "1"],
        cwd=BENCHMARK.parent, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
