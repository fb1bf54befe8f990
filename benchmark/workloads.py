"""The benchmark's workloads: inputs made from the seed, operations, checks.

Every operation goes through besovlab's public API or `besovlab.cli.main`
in-process.  An operation is one timed call; its check then inspects the
output and returns a list of failure messages (empty when correct).  Checks
run untimed and untraced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from reference import besov_reference, pz_equal_probability

BM_ALPHAS = tuple(round(0.30 + 0.05 * i, 2) for i in range(9))
FBM_ALPHAS = tuple(round(0.55 + 0.05 * i, 2) for i in range(9))
FBM_H = 0.75
CRITICAL_TOLERANCE = 0.02
BESOV_RTOL = 1e-10


@dataclass
class Op:
    """One timed program call and the check of its output."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], list]
    limit_s: float  # past this the call is interrupted and counts as failed
    replicates: int = 0  # sweeps report replicates per second
    # False for work in worker processes: their spans are not collected, and on a
    # shared 2-core machine their times are too unsteady for the end-to-end metrics
    in_process: bool = True


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(bl, argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bl.cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


def _exit_failures(res: CliResult) -> list:
    return [] if res.code == 0 else [f"exit code {res.code}: {res.err.strip()}"]


def _rel_close(x, ref, rtol) -> bool:
    return x is not None and math.isfinite(x) and abs(x - ref) <= rtol * abs(ref)


class Sweep:
    """`run_alpha_sweep` for BM (workers 1 and 2) and fBm, 12 levels at J = 14."""

    def __init__(self, bl, seed: int, workdir: Path):
        bm_seed, fbm_seed = _seeds(seed, 2)
        grid = bl.Grid(0.0, 1.0, 14)
        bm = bl.GeneratorSpec("bm", grid, seed=bm_seed)
        fbm = bl.GeneratorSpec("fbm", grid, seed=fbm_seed, H=FBM_H)
        configs = {
            "sweep_bm": bl.ExperimentConfig(bm, 2.0, BM_ALPHAS, 12, 1000, workers=1),
            "sweep_bm_w2": bl.ExperimentConfig(bm, 2.0, BM_ALPHAS, 12, 1000, workers=2),
            "sweep_fbm": bl.ExperimentConfig(fbm, 2.0, FBM_ALPHAS, 12, 200, workers=1),
        }
        self._w1_rows = None

        def sweep(name):
            return lambda: bl.run_alpha_sweep(configs[name])

        self.ops = [
            Op("sweep_bm", sweep("sweep_bm"), self._check_w1, 20.0, replicates=1000),
            Op("sweep_bm_w2", sweep("sweep_bm_w2"), self._check_w2, 20.0,
               replicates=1000, in_process=False),
            Op("sweep_fbm", sweep("sweep_fbm"), lambda r: _critical(r, FBM_H), 20.0,
               replicates=200),
        ]

    def _check_w1(self, report) -> list:
        self._w1_rows = report.to_csv()
        return _critical(report, 0.5)

    def _check_w2(self, report) -> list:
        failures = _critical(report, 0.5)
        if report.to_csv() != self._w1_rows:
            failures.append("workers=2 rows are not bit-identical to the workers=1 rows")
        return failures


def _critical(report, target: float) -> list:
    c = report.critical_alpha
    if c is None or abs(c - target) > CRITICAL_TOLERANCE:
        return [f"critical alpha {c} is not within {CRITICAL_TOLERANCE} of {target}"]
    return []


class Analyze:
    """Single-path CLI commands: besov at p = 2 and 3, lemma statistic, probe, PZ."""

    J_CSV = 12
    PZ_M = 20

    def __init__(self, bl, seed: int, workdir: Path):
        self.bl = bl
        rng = np.random.default_rng(seed)
        n = 1 << self.J_CSV
        self.values = np.concatenate([[0.0], np.cumsum(rng.standard_normal(n) * math.sqrt(1.0 / n))])
        csv_path = workdir / "bm.csv"
        with csv_path.open("w") as fh:
            fh.write("t,value\n")
            fh.writelines(
                f"{t!r},{v!r}\n" for t, v in zip(np.linspace(0.0, 1.0, n + 1).tolist(), self.values.tolist())
            )
        self.stat_seed, probe_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
        lam = repr(float(rng.uniform(0.5, 2.0)))
        self._references = {}
        self._first_out = {}

        def cli(argv):
            return lambda: run_cli(bl, argv)

        pz_argv = ["lemma", "--pz-exact", ",".join([lam] * self.PZ_M)]

        def pz_exact():
            # Each `besovlab lemma` command runs in a new process, which starts with
            # an empty sign-matrix cache; without this every round after the first
            # would time only the cached product.
            cache = getattr(bl.lemma, "_sign_matrix_cache", None)
            if cache is not None:
                cache.clear()
            return run_cli(bl, pz_argv)

        besov = ["besov", "--input", str(csv_path)]
        self.ops = [
            Op("besov_p2", cli(besov + ["--alpha", "0.4", "--p", "2", "--q", "2", "--extrapolate"]),
               self._besov_check("besov_p2", 0.4, 2.0, True), 10.0),
            Op("besov_p3", cli(besov + ["--alpha", "0.2", "--p", "3", "--q", "2"]),
               self._besov_check("besov_p3", 0.2, 3.0, False), 10.0),
            Op("lemma_statistic",
               cli(["lemma", "--statistic", "--N", "12", "--J", "14", "--seed", str(self.stat_seed)]),
               self._check_statistic, 5.0),
            Op("lemma_probe",
               cli(["lemma", "--probe", "--J", "12", "--sizes", "4,16,64,256",
                    "--replicates", "500", "--seed", str(probe_seed)]),
               self._check_probe, 5.0),
            Op("pz_exact", pz_exact, self._check_pz, 10.0),
        ]

    def _repeatable(self, name: str, res: CliResult) -> list:
        first = self._first_out.setdefault(name, res.out)
        return [] if res.out == first else ["output differs from the first round's"]

    def _besov_check(self, name, alpha, p, extrapolate):
        def check(res):
            failures = _exit_failures(res)
            if failures:
                return failures
            report = json.loads(res.out)
            key = (alpha, p, extrapolate)
            if key not in self._references:
                self._references[key] = besov_reference(self.values, alpha, p, 2.0, extrapolate)
            for field, ref in self._references[key].items():
                got = report.get(field)
                same = got == ref if ref is None or isinstance(ref, bool) else _rel_close(got, ref, BESOV_RTOL)
                if not same:
                    failures.append(f"{field} = {got!r}, reference {ref!r}")
            if report.get("resampled") is not False:
                failures.append("input was resampled")
            return failures + self._repeatable(name, res)

        return check

    def _check_statistic(self, res) -> list:
        failures = _exit_failures(res)
        if failures:
            return failures
        rows = res.out.split()
        if rows[0] != "n,partial_sum" or len(rows) != 13:
            return [f"expected 12 partial sums, got {rows!r}"]
        if "kamont" not in self._references:
            bl = self.bl
            sample = bl.GeneratorSpec("bm", bl.Grid(0.0, 1.0, 14), seed=self.stat_seed).sample()
            self._references["kamont"] = bl.kamont_series(bl.path_of(sample), 12, 0.4, 2.0).partial_sums[-1]
        last, ref = float(rows[-1].split(",")[1]), self._references["kamont"]
        if not _rel_close(last, ref, 1e-9):
            failures.append(f"last partial sum {last!r} != Kamont p=2 partial sum {ref!r}")
        return failures + self._repeatable("lemma_statistic", res)

    def _check_probe(self, res) -> list:
        failures = _exit_failures(res)
        if failures:
            return failures
        rows = [line.split(",") for line in res.out.split()[1:]]
        if [int(r[0]) for r in rows] != [4, 16, 64, 256]:
            return [f"unexpected family sizes {rows!r}"]
        if not all(0.0 < float(r[1]) <= 3.0 for r in rows):
            failures.append(f"quantiles not in (0, 3]: {rows!r}")
        return failures + self._repeatable("lemma_probe", res)

    def _check_pz(self, res) -> list:
        failures = _exit_failures(res)
        if failures:
            return failures
        words = res.out.split()
        if Fraction(float(words[2])) != pz_equal_probability(self.PZ_M) or words[-1] != "PASS":
            failures.append(f"{res.out.strip()!r} disagrees with the binomial closed form")
        return failures + self._repeatable("pz_exact", res)


class LargeGrid:
    """`generate` BM and fBm at J = 18, then `dyadic` at N = 18 on the BM file.

    At J = 20 the times on a shared 2-core machine were bimodal from run to run
    (`generate` BM at 3.8 s or 5.0 s), too unsteady for a regression bound.
    """

    J = 18
    ALPHA = 0.4

    def __init__(self, bl, seed: int, workdir: Path):
        self.bl = bl
        bm_seed, fbm_seed = _seeds(seed, 2)
        grid = bl.Grid(0.0, 1.0, self.J)
        self.specs = {
            "generate_bm": bl.GeneratorSpec("bm", grid, seed=bm_seed),
            "generate_fbm": bl.GeneratorSpec("fbm", grid, seed=fbm_seed, H=FBM_H),
        }
        self.outs = {name: workdir / f"{name}.csv" for name in self.specs}
        self._verified = {}  # op name -> digest of the bytes checked bit for bit

        def cli(argv):
            return lambda: run_cli(bl, argv)

        def generate(name, *flags):
            spec = self.specs[name]
            argv = ["generate", "--process", spec.kind, *flags, "--J", str(self.J),
                    "--seed", str(spec.seed), "--out", str(self.outs[name])]
            return Op(name, cli(argv), lambda res: self._check_generate(name, res), 15.0)

        self.ops = [
            generate("generate_bm"),
            generate("generate_fbm", "--H", repr(FBM_H)),
            Op("dyadic",
               cli(["dyadic", "--input", str(self.outs["generate_bm"]), "--alpha", repr(self.ALPHA),
                    "--N", str(self.J)]),
               self._check_dyadic, 10.0),
        ]

    def _check_generate(self, name: str, res) -> list:
        failures = _exit_failures(res)
        if failures:
            return failures
        out = self.outs[name]
        if res.out.strip() != str(out):
            return [f"printed {res.out.strip()!r}, not the output path"]
        digest = hashlib.blake2b(out.read_bytes()).digest()
        if self._verified.get(name) == digest:
            return []
        with out.open() as fh:
            header = fh.readline().strip()
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        spec = self.specs[name]
        expected = self.bl.path_of(spec.sample())
        if header != "t,value" or table.shape != (expected.grid.n_points, 2):
            return [f"unexpected CSV layout: header {header!r}, shape {table.shape}"]
        if not np.array_equal(table[:, 0], expected.grid.points()):
            failures.append("t column differs from the grid points")
        if not np.array_equal(table[:, 1].view(np.int64), expected.values.view(np.int64)):
            failures.append("values differ from path_of(spec.sample()) bit for bit")
        sidecar = out.with_suffix(out.suffix + ".meta.json")
        if json.loads(sidecar.read_text()) != spec.to_dict():
            failures.append("sidecar spec differs from the generator spec")
        if not failures:
            self._verified[name] = digest
        return failures

    def _check_dyadic(self, res) -> list:
        failures = _exit_failures(res)
        if failures:
            return failures
        report = json.loads(res.out)
        slope, target = report.get("fitted_log2_slope"), 2 * self.ALPHA - 1
        if report.get("verdict") != "converges":
            failures.append(f"verdict {report.get('verdict')!r}, expected 'converges'")
        if slope is None or abs(slope - target) > 0.05:
            failures.append(f"slope {slope!r} not within 0.05 of {target}")
        if report.get("levels") != list(range(1, self.J + 1)) or report.get("resampled") is not False:
            failures.append("unexpected levels or resampling")
        return failures


class Commands:
    """Every single-path CLI command: the `Analyze` group, then the `LargeGrid` group.

    One workload rather than two, so that each run can be twice as long: on a
    shared 2-core machine the host's speed drifts by 10-20 % between 30 s
    windows, and only longer runs average that out.
    """

    def __init__(self, bl, seed: int, workdir: Path):
        analyze_seed, grid_seed = _seeds(seed, 2)
        self.ops = Analyze(bl, analyze_seed, workdir).ops + LargeGrid(bl, grid_seed, workdir).ops


WORKLOADS = {"sweep": Sweep, "commands": Commands}
