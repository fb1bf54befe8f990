"""Every operation of the benchmark's workloads runs once and passes its check.

`benchmark/workloads.py` drives the package through its public names and
`cli.main`; running each operation here, in process and writing only to a
temporary directory, shows a name it still uses that the package lost
before the benchmark itself is run.
"""

import importlib
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
