"""besovlab benchmark: one workload per process, metrics as one JSON line.

    python3 benchmark/run.py --workload sweep --seed 1 --seconds 55 --trace 0

Run from the repository root; the package is imported from `src/`.  With
`--trace 0` the workload's operations run in rounds for `--seconds` seconds
and the end-to-end metrics are printed.  With `--trace 1` the first half of
the time runs untraced (per-operation times, the tracing baseline) and the
second half with every public besovlab function wrapped in spans; the
per-layer metrics are printed.  Metric names and units come from
BENCHMARK.json at the repository root.  The last line of standard output is
`{"correct", "attempted", "failed", "metrics"}`; the lines above it give the
environment, the per-operation medians and any failures.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import LAYERS, Tracer, summarize
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
HARD_LIMIT_S = 150.0  # no operation starts or runs past this, so a run ends in time


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


def timed_call(fn, limit_s: float):
    """(result, seconds); raises OpTimeout once `limit_s` has passed."""
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        t0 = perf_counter()
        result = fn()
        return result, perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def fresh_import():
    """Import besovlab and its seven modules from scratch; return the package."""
    for name in [m for m in sys.modules if m == "besovlab" or m.startswith("besovlab.")]:
        del sys.modules[name]
    package = importlib.import_module("besovlab")
    importlib.import_module("besovlab.cli")
    return package


class Runner:
    """Runs rounds of a workload's operations, counting attempts and failures."""

    def __init__(self, ops, hard_deadline: float):
        self.ops = ops
        self.hard_deadline = hard_deadline
        self.attempted = 0
        self.failed = 0

    def rounds(self, seconds: float, tracer: Tracer | None = None) -> list:
        """Each round maps op name -> (seconds, span summary or None)."""
        ops = [op for op in self.ops if tracer is None or op.in_process]
        end = perf_counter() + seconds
        out = []
        while not out or perf_counter() < end:
            record = {}
            for op in ops:
                remaining = self.hard_deadline - perf_counter()
                if remaining <= 0:
                    return out
                record[op.name] = self._attempt(op, min(op.limit_s, remaining), tracer)
            out.append(record)
        return out

    def _attempt(self, op, limit_s: float, tracer: Tracer | None):
        self.attempted += 1
        if tracer is not None:
            tracer.reset()
            tracer.recording = True
        try:
            result, seconds = timed_call(op.call, limit_s)
            failures = []
        except OpTimeout:
            result, seconds = None, limit_s
            failures = [f"ran past its {limit_s:.1f} s limit"]
        except Exception:  # a failing operation is counted, and the run goes on
            result, seconds = None, math.nan
            failures = [traceback.format_exc()]
        finally:
            if tracer is not None:
                tracer.recording = False
        summary = None
        if not failures:
            try:
                failures = op.check(result)
            except Exception:
                failures = ["check raised " + traceback.format_exc()]
        if tracer is not None and not failures:
            summary = summarize(tracer.spans)
            summary["counts"] = dict(tracer.counts)
            if summary["root"] < 0.9 * seconds:
                failures = [f"spans cover {summary['root']:.4f} s of {seconds:.4f} s"]
        if failures:
            self.failed += 1
            print(f"FAILED {op.name}: " + "; ".join(failures), file=sys.stderr)
        return seconds, summary


def _median(values) -> float:
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else math.nan


def _op_medians(rounds) -> dict:
    names = {name for r in rounds for name in r}
    return {name: _median([r[name][0] for r in rounds if name in r]) for name in names}


def end_to_end(setup_times, rounds, ops) -> dict:
    """Setup, the in-process operations' round time and geometric mean, peak RSS."""
    names = [op.name for op in ops if op.in_process]
    medians = _op_medians(rounds)
    complete = [r for r in rounds if all(n in r for n in names)] or rounds
    return {
        "setup_s": statistics.median(setup_times),
        "round_s": _median([sum(r[n][0] for n in names if n in r) for r in complete]),
        "op_geomean_s": math.exp(statistics.fmean(math.log(medians[n]) for n in names)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


OP_METRICS = {
    "sweep_bm": "sweep_bm_reps_per_s",
    "sweep_bm_w2": "sweep_bm_w2_reps_per_s",
    "sweep_fbm": "sweep_fbm_reps_per_s",
    "besov_p2": "besov_p2_s",
    "besov_p3": "besov_p3_s",
    "lemma_statistic": "lemma_statistic_s",
    "lemma_probe": "lemma_probe_s",
    "pz_exact": "pz_exact_s",
    "generate_bm": "generate_bm_s",
    "generate_fbm": "generate_fbm_s",
    "dyadic": "dyadic_s",
}

# per-layer metric -> span name whose inclusive time per round it reports
INCLUSIVE = {
    "generators.generate_bm_s": "generators.generate_bm",
    "generators.generate_fgn_s": "generators.generate_fgn",
    "criterion.raw_level_sum_s": "criterion.raw_level_sum",
    "criterion.series_from_raw_s": "criterion.series_from_raw",
    "besov.shift_norms_s": "besov.shift_norms",
    "besov.lp_norm_s": "besov.lp_norm",
    "lemma.full_dyadic_s": "lemma.full_dyadic",
    "lemma.lemma_statistic_s": "lemma.lemma_statistic",
    "lemma.paley_zygmund_s": "lemma.paley_zygmund_check",
    "lemma.boundedness_probe_s": "lemma.boundedness_probe",
    "paths.measure_of_s": "paths.measure_of",
    "paths.path_of_s": "paths.path_of",
    "cli.read_series_csv_s": "cli.read_series_csv",
    "cli.ingest_series_s": "cli.ingest_series",
}
SELF = {
    "harness.run_alpha_sweep_self_s": "harness.run_alpha_sweep",
    "besov.besov_norm_self_s": "besov.besov_norm",
}
CALLS = {
    "criterion.raw_level_sum_calls": "criterion.raw_level_sum",
    "criterion.series_from_raw_calls": "criterion.series_from_raw",
    "paths.measure_of_calls": "paths.measure_of",
}
COUNTS = ("besov.cell_integrals", "lemma.sign_patterns", "cli.csv_bytes_written", "cli.csv_bytes_read")


def _round_totals(record) -> dict:
    """Sum one traced round's per-operation span summaries."""
    tot = {"inclusive": {}, "self": {}, "calls": {}, "counts": {}, "root": 0.0, "wall": 0.0,
           "spans": 0, "write_self": 0.0}
    for name, (seconds, s) in record.items():
        tot["wall"] += seconds
        if s is None:
            continue
        for key in ("inclusive", "self", "calls", "counts"):
            for k, v in s[key].items():
                tot[key][k] = tot[key].get(k, 0) + v
        tot["root"] += s["root"]
        tot["spans"] += s["spans"]
        if name.startswith("generate"):
            tot["write_self"] += s["self"].get("cli.main", 0.0)
    return tot


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer(untraced, traced, ops) -> dict:
    medians = _op_medians(untraced)
    by_name = {op.name: op for op in ops}
    out = {}
    for name, metric in OP_METRICS.items():
        op, t = by_name.get(name), medians.get(name, 0.0)
        out[metric] = (_rate(op.replicates, t) if op.replicates else t) if op else 0.0
    pairs = [r["sweep_bm"][0] / r["sweep_bm_w2"][0] for r in untraced if "sweep_bm_w2" in r]
    out["harness.parallel_speedup"] = _median(pairs) if pairs else 0.0

    rounds = [_round_totals(r) for r in traced]

    def med(f):
        return _median([f(r) for r in rounds])

    def total(f):
        return sum(f(r) for r in rounds)

    for metric, span in INCLUSIVE.items():
        out[metric] = med(lambda r: r["inclusive"].get(span, 0.0))
    for metric, span in SELF.items():
        out[metric] = med(lambda r: r["self"].get(span, 0.0))
    for metric, span in CALLS.items():
        out[metric] = med(lambda r: r["calls"].get(span, 0))
    for counter in COUNTS:
        out[counter] = med(lambda r: r["counts"].get(counter, 0))
    out["cli.write_self_s"] = med(lambda r: r["write_self"])
    gen_s = total(lambda r: r["inclusive"].get("generators.generate_bm", 0.0)
                  + r["inclusive"].get("generators.generate_fgn", 0.0))
    out["generators.cells_per_s"] = _rate(total(lambda r: r["counts"].get("generators.cells", 0)), gen_s)
    out["besov.cell_integrals_per_s"] = _rate(
        total(lambda r: r["counts"].get("besov.cell_integrals", 0)),
        total(lambda r: r["inclusive"].get("besov.shift_norms", 0.0)))
    out["cli.csv_read_mb_per_s"] = _rate(
        total(lambda r: r["counts"].get("cli.csv_bytes_read", 0)) / 1e6,
        total(lambda r: r["inclusive"].get("cli.read_series_csv", 0.0)))
    out["cli.csv_write_mb_per_s"] = _rate(
        total(lambda r: r["counts"].get("cli.csv_bytes_written", 0)) / 1e6,
        total(lambda r: r["write_self"]))

    for layer in LAYERS:
        out[f"self.{layer}_s"] = med(
            lambda r: sum(v for k, v in r["self"].items() if k.split(".")[0] == layer))
    out["self.unaccounted_s"] = med(lambda r: r["wall"] - r["root"])
    out["trace.op_wall_s"] = med(lambda r: r["wall"])
    out["trace.accounted_frac"] = _rate(total(lambda r: r["root"]), total(lambda r: r["wall"]))
    traced_names = {op.name for op in ops if op.in_process}
    baseline = _median([sum(t for n, (t, _) in r.items() if n in traced_names) for r in untraced])
    out["trace.overhead_s"] = out["trace.op_wall_s"] - baseline
    out["trace.overhead_frac"] = _rate(out["trace.overhead_s"], baseline)
    out["trace.spans"] = med(lambda r: r["spans"])
    out["trace.rounds"] = len(rounds)
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (Path(index, f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return caches


def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def environment(workload: str, seed: int, why: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "why": why,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    if not (SRC / "besovlab" / "__init__.py").is_file():
        print(f"error: no besovlab package under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in declared[key]}
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            bl = fresh_import()
            workload = WORKLOADS[args.workload](bl, args.seed, workdir)
            setup_times.append(perf_counter() - t0)
        if not Path(bl.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported besovlab from {bl.__file__}, not {SRC}", file=sys.stderr)
            return 2

        ops = workload.ops
        runner = Runner(ops, started + HARD_LIMIT_S)
        if args.trace:
            untraced = runner.rounds(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            traced = runner.rounds(args.seconds / 2, tracer)
            metrics = per_layer(untraced, traced, ops)
            timed = untraced
        else:
            timed = runner.rounds(args.seconds)
            metrics = end_to_end(setup_times, timed, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    why = {w["name"]: w["why"] for w in declared["workloads"]}
    print("environment " + json.dumps(environment(args.workload, args.seed, why), sort_keys=True))
    for name, t in sorted(_op_medians(timed).items()):
        times = sorted(r[name][0] for r in timed if name in r)
        print(f"op {name}: median {t:.4f} s, min {times[0]:.4f}, max {times[-1]:.4f}, "
              f"over {len(times)} untraced rounds")
    frac = runner.failed / max(runner.attempted, 1)
    print(f"ops_failed_frac {frac:.4f} ({runner.failed} failed of {runner.attempted} attempted)")
    if args.trace:
        print("per-layer times are medians over traced rounds, rates are totals over them; "
              "besov.cell_integrals, lemma.sign_patterns, generators.cells_per_s's cell count "
              "and cli.csv_bytes_* are computed from input and file sizes, not measured")
    else:
        print(f"setup_s is the median of {SETUP_REPEATS} set-ups, round_s the median of "
              f"{len(timed)} rounds, op_geomean_s the geometric mean of per-op medians")
    expected = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != expected:
        print(f"error: metrics {sorted(set(metrics) ^ expected)} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 3
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
