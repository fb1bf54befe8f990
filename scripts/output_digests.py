#!/usr/bin/env python3
"""Digests of every command's output, for checking that a change keeps them byte for byte.

Runs a fixed list of `besovlab` command lines in-process through `cli.main`,
at small sizes, in a fresh temporary directory, each case writing into its
own subdirectory.  For each case it prints one line: the case name, the exit
code, and SHA-256 prefixes of stdout, stderr and every file the case wrote.
The temporary directory's path is replaced by a token before hashing, and
`meta.wall_time` is masked in a sweep's `report.json`, so the lines depend on
the code alone.  Run it on two trees and diff the output:

Usage: PYTHONPATH=src python3 scripts/output_digests.py
"""

import contextlib
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

from besovlab import Grid
from besovlab.cli import main

TOKEN = b"<tmp>"
WALL_TIME = re.compile(rb'"wall_time": [^,\n}]+')


def _sweep_config(kind="bm", p=2.0, replicates=40, **generator):
    return {
        "generator": {"kind": kind, "a": 0.0, "b": 1.0, "J": 10, "seed": 5, **generator},
        "p": p, "alpha_grid": [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
        "n_levels": 8, "replicates": replicates,
    }


# a sweep whose weighted measure overflows when squared, also run as `lemma --statistic`
OVERFLOW_WEIGHT = "constant:1e200"
SWEEP_CONFIGS = {
    "bm-p2": _sweep_config(),
    "bm-p3": _sweep_config(p=3.0),
    "fbm": _sweep_config("fbm", H=0.75, replicates=20),
    "martingale": _sweep_config("martingale", weight="sine:1.0,2.0,0.5", replicates=20),
    "wfbm": _sweep_config("wfbm", H=0.7, weight="affine:1.0,0.5", replicates=20),
    "linear": _sweep_config("linear", replicates=3),
    "overflow": _sweep_config("martingale", weight=OVERFLOW_WEIGHT, replicates=3, J=8),
    "infinite-b": _sweep_config(b=float("inf"), replicates=3),
}

# (config name, the config's workers): bm-p2 also runs on two threads
SWEEP_CASES = [(name, workers) for name in SWEEP_CONFIGS
               for workers in ((1, 2) if name == "bm-p2" else (1,))]

SHORT_PATHS = (2, 3, 5, 9, 17)


def _write_csv(path: Path, times, values):
    rows = "".join(f"{t!r},{v!r}\n" for t, v in zip(times, values))
    path.write_text("t,value\n" + rows)


def _inputs(root: Path):
    """Write the sweep configs and the hand-made CSV paths under `root/inputs`."""
    inputs = root / "inputs"
    inputs.mkdir()
    for name, workers in SWEEP_CASES:
        config = {**SWEEP_CONFIGS[name], "workers": workers}
        (inputs / f"{name}-w{workers}.json").write_text(json.dumps(config))
    grid = Grid(0.0, 1.0, 8)  # increments of 1e200: their squares overflow
    _write_csv(inputs / "overflow.csv", grid.points().tolist(),
               [k * 1e200 for k in range(grid.n_points)])
    # every value finite, but t spans more than the double range
    _write_csv(inputs / "wide.csv", [-1e308, -5e307, 0.0, 5e307, 1e308], [0.0] * 5)
    for n in SHORT_PATHS:  # dyadic (n - 1 a power of two) or not, resampled or not
        _write_csv(inputs / f"short-{n}.csv", [k / (n - 1) for k in range(n)],
                   [(-1.0) ** k * k for k in range(n)])
    return inputs


def cases(root: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every case; `{out}` in argv is the case's own directory."""
    inputs = _inputs(root)
    bm = str(root / "generate-bm" / "path.csv")
    overflow = str(inputs / "overflow.csv")
    generate = [
        ("generate-bm", ["--process", "bm"]),
        ("generate-fbm", ["--process", "fbm", "--H", "0.75"]),
        ("generate-linear", ["--process", "linear"]),
        ("generate-martingale", ["--process", "martingale", "--weight", "sine:1.0,2.0,0.5"]),
        ("generate-wfbm", ["--process", "wfbm", "--H", "0.7", "--weight", "affine:1.0,0.5"]),
        ("generate-infinite-b", ["--process", "bm", "--b", "inf"]),
    ]
    out = [(name, ["generate", *flags, "--J", "10", "--seed", "3", "--out", "{out}/path.csv"])
           for name, flags in generate]
    out += [
        ("dyadic-stdout", ["dyadic", "--input", bm, "--alpha", "0.4"]),
        ("dyadic-out", ["dyadic", "--input", bm, "--alpha", "0.4", "--p", "3", "--N", "10",
                        "--out", "{out}/report.json"]),
        ("dyadic-overflow", ["dyadic", "--input", overflow, "--alpha", "0.4"]),
        ("dyadic-wide-interval", ["dyadic", "--input", str(inputs / "wide.csv"),
                                  "--alpha", "0.4"]),
        ("besov-p2-extrapolate", ["besov", "--input", bm, "--alpha", "0.4", "--extrapolate"]),
        ("besov-p3", ["besov", "--input", bm, "--alpha", "0.3", "--p", "3", "--q", "1.5"]),
        ("besov-p1.5", ["besov", "--input", bm, "--alpha", "0.3", "--p", "1.5",
                        "--out", "{out}/report.json"]),
        ("besov-overflow", ["besov", "--input", overflow, "--alpha", "0.4"]),
        ("besov-wide-interval", ["besov", "--input", str(inputs / "wide.csv"), "--alpha", "0.4"]),
        *[(f"besov-{n}-points", ["besov", "--input", str(inputs / f"short-{n}.csv"),
                                 "--alpha", "0.4"]) for n in SHORT_PATHS],
        ("lemma-pz-exact", ["lemma", "--pz-exact", "1,2,3,0.5,-1e-3"]),
        ("lemma-pz-mc", ["lemma", "--pz-mc", "1,2,3,0.5", "--samples", "5000", "--seed", "4"]),
        ("lemma-pz-both", ["lemma", "--pz-mc", "1,1", "--pz-exact", "1,1", "--samples", "999"]),
        ("lemma-pz-exact-empty-entry", ["lemma", "--pz-exact", "1,,2"]),
        ("lemma-statistic", ["lemma", "--statistic", "--process", "fbm", "--H", "0.3",
                             "--J", "12", "--N", "12", "--seed", "8"]),
        ("lemma-probe", ["lemma", "--probe", "--J", "10", "--sizes", "2,8,32",
                         "--replicates", "30"]),
        ("lemma-all", ["lemma", "--pz-exact", "1,1,1", "--pz-mc", "1,2", "--samples", "100",
                       "--statistic", "--probe", "--J", "8", "--N", "6", "--sizes", "4",
                       "--replicates", "5"]),
        ("lemma-nothing-to-do", ["lemma", "--J", "8"]),
        ("lemma-statistic-overflow", ["lemma", "--statistic", "--process", "martingale",
                                      "--weight", OVERFLOW_WEIGHT, "--J", "8", "--N", "8"]),
        ("lemma-probe-overflow", ["lemma", "--probe", "--process", "martingale",
                                  "--weight", "constant:1.7e308", "--J", "6",
                                  "--sizes", "2,4", "--replicates", "20"]),
        ("lemma-probe-infinite-b", ["lemma", "--probe", "--b", "inf", "--J", "6",
                                    "--sizes", "2", "--replicates", "5"]),
    ]
    out += [(f"sweep-{name}-w{workers}",
             ["sweep", "--config", str(inputs / f"{name}-w{workers}.json"), "--out-dir", "{out}"])
            for name, workers in SWEEP_CASES]
    return out


def _digest(data: bytes, root: bytes) -> str:
    return hashlib.sha256(data.replace(root, TOKEN)).hexdigest()[:12]


def digest_lines() -> list[str]:
    """One line per case, run in a temporary directory removed afterwards."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        token = str(root).encode()
        for name, argv in cases(root):
            case_dir = root / name
            case_dir.mkdir()
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([arg.replace("{out}", str(case_dir)) for arg in argv])
            files = []
            for f in sorted(case_dir.iterdir()):
                data = f.read_bytes()
                if f.name == "report.json" and argv[0] == "sweep":
                    data = WALL_TIME.sub(b'"wall_time": "<masked>"', data)
                files.append(f"{f.name}:{_digest(data, token)}")
            lines.append(
                f"{name} exit={code} stdout={_digest(stdout.getvalue().encode(), token)} "
                f"stderr={_digest(stderr.getvalue().encode(), token)} "
                f"files={','.join(files) or '-'}"
            )
    return lines


if __name__ == "__main__":
    print("\n".join(digest_lines()))
