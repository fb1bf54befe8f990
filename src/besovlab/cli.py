"""Command-line interface: generate, dyadic, besov, sweep, lemma.

Data goes to files or stdout; diagnostics go to stderr.  Exit codes:
0 success, 2 usage/parameter error, 3 data or resolution error,
4 internal numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .besov import besov_norm
from .criterion import kamont_series
from .errors import (
    BesovLabError,
    ConfigurationError,
    ParameterError,
    ResolutionError,
    SizeError,
)
from .generators import GeneratorSpec, WeightFn
from .harness import ExperimentConfig, run_alpha_sweep
from .lemma import (
    DisjointFamily,
    WeightSequence,
    boundedness_probe,
    lemma_statistic,
    paley_zygmund_check,
)
from .paths import BesovParams, Grid, SampledPath, path_of, MAX_RESOLUTION

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class DataError(BesovLabError):
    """Unparseable or inconsistent input data."""


CSV_CHUNK_ROWS = 1 << 16  # rows formatted per write: bounded memory at any J


def _write_path_csv(path: SampledPath, out: Path):
    times, values = path.grid.points(), path.values
    with out.open("w", newline="") as fh:
        fh.write("t,value\n")
        for lo in range(0, len(values), CSV_CHUNK_ROWS):
            hi = lo + CSV_CHUNK_ROWS
            rows = zip(times[lo:hi].tolist(), values[lo:hi].tolist())
            fh.write("".join(f"{t!r},{v!r}\n" for t, v in rows))


def read_series_csv(source: Path) -> tuple[np.ndarray, np.ndarray]:
    try:
        with source.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["t", "value"]:
                raise DataError(f"{source}: expected header 't,value'")
            t, v = [], []
            for row in reader:
                if not row:
                    continue
                t.append(float(row[0]))
                v.append(float(row[1]))
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {source}: {exc}") from exc
    except IndexError as exc:
        raise DataError(f"{source}: line {reader.line_num} has fewer than two fields") from exc
    times = np.asarray(t)
    values = np.asarray(v)
    if len(times) < 2:
        raise DataError(f"{source}: need at least two samples")
    if not np.all(np.diff(times) > 0):
        raise DataError(f"{source}: times must be strictly increasing")
    return times, values


def ingest_series(times: np.ndarray, values: np.ndarray) -> tuple[SampledPath, bool]:
    """Return a dyadic-grid path; resample by linear interpolation if needed.

    Non-dyadic input goes onto the nearest grid with 2^J + 1 >= len(input),
    J capped at the package-wide resolution bound.
    """
    n = len(times) - 1
    J = max(1, n.bit_length() - 1) if n & (n - 1) == 0 else None
    if J is not None and n == (1 << J):
        grid = Grid(float(times[0]), float(times[-1]), J)
        expected = grid.points()
        if np.allclose(times, expected, rtol=0.0, atol=1e-9 * (grid.b - grid.a)):
            return SampledPath(grid, values), False
    J = min(max(1, math.ceil(math.log2(len(times) - 1))), MAX_RESOLUTION)
    grid = Grid(float(times[0]), float(times[-1]), J)
    resampled = np.interp(grid.points(), times, values)
    return SampledPath(grid, resampled), True


def _generator_from_args(args) -> GeneratorSpec:
    grid = Grid(args.a, args.b, args.J)
    weight = WeightFn.from_descriptor(args.weight) if args.weight else None
    H = args.H
    if args.process in ("fbm", "wfbm") and H is None:
        raise ConfigurationError(f"--process {args.process} requires --H")
    return GeneratorSpec(
        kind=args.process, grid=grid, seed=args.seed, H=H, weight=weight
    )


def _cmd_generate(args) -> int:
    spec = _generator_from_args(args)
    sample = spec.sample()
    path = path_of(sample)
    out = Path(args.out)
    _write_path_csv(path, out)
    sidecar = out.with_suffix(out.suffix + ".meta.json")
    sidecar.write_text(json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n")
    print(str(out))
    return EXIT_OK


def _load_path(args) -> tuple[SampledPath, bool]:
    times, values = read_series_csv(Path(args.input))
    return ingest_series(times, values)


def _require_finite(payload: dict):
    """Refuse to report a non-finite number: NaN or inf means a numeric failure."""
    for key, value in payload.items():
        values = value if isinstance(value, list) else [value]
        if any(isinstance(x, float) and not math.isfinite(x) for x in values):
            raise FloatingPointError(f"non-finite value in report field {key!r}")


def _emit(args, payload: dict, csv_text: str | None):
    _require_finite(payload)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        out = Path(args.out)
        out.write_text(text)
        if csv_text is not None:
            out.with_suffix(".csv").write_text(csv_text)
        print(str(out))
    elif args.format == "csv" and csv_text is not None:
        sys.stdout.write(csv_text)
    else:
        sys.stdout.write(text)


def _cmd_dyadic(args) -> int:
    path, resampled = _load_path(args)
    N = args.N if args.N is not None else min(path.grid.J, 12)
    report = kamont_series(path, N, args.alpha, args.p)
    payload = report.to_dict()
    payload["resampled"] = resampled
    rows = ["n,term,partial_sum"]
    for n, t, s in zip(report.levels, report.terms, report.partial_sums):
        rows.append(f"{n},{t!r},{s!r}")
    _emit(args, payload, "\n".join(rows) + "\n")
    return EXIT_OK


def _cmd_besov(args) -> int:
    path, resampled = _load_path(args)
    params = BesovParams(args.alpha, args.p, args.q)
    report = besov_norm(path, params, extrapolate=args.extrapolate)
    payload = report.to_dict()
    payload["resampled"] = resampled
    _emit(args, payload, None)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise DataError(f"cannot read config: {exc}") from exc
    config = ExperimentConfig.from_json(text)
    if args.workers is not None:
        config = ExperimentConfig(
            generator=config.generator,
            p=config.p,
            alpha_grid=config.alpha_grid,
            n_levels=config.n_levels,
            replicates=config.replicates,
            workers=args.workers,
        )
    report = run_alpha_sweep(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json())
    (out_dir / "report.csv").write_text(report.to_csv())
    print(str(out_dir / "report.json"))
    return EXIT_OK


def _coefficients(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad coefficient list {text!r}") from exc


def _cmd_lemma(args) -> int:
    did_something = False
    if args.pz_exact is not None:
        res = paley_zygmund_check(_coefficients(args.pz_exact), mode="exact")
        status = "PASS" if res.passed else "FAIL"
        print(f"paley-zygmund probability {res.probability!r} bound {res.bound} {status}")
        did_something = True
    if args.pz_mc is not None:
        lam = _coefficients(args.pz_mc)
        res = paley_zygmund_check(
            lam, mode="monte-carlo", samples=args.samples, seed=args.seed
        )
        status = "PASS" if res.passed else "FAIL"
        print(
            f"paley-zygmund probability {res.probability!r} "
            f"stderr {res.stderr!r} bound {res.bound} {status}"
        )
        did_something = True
    if args.statistic:
        sample = _generator_from_args(args).sample()
        weights = WeightSequence.geometric(args.alpha, args.p, args.N)
        family = DisjointFamily.full_dyadic(args.N)
        partial = lemma_statistic(sample, weights, family)
        print("n,partial_sum")
        for n, s in enumerate(partial, start=1):
            print(f"{n},{float(s)!r}")
        did_something = True
    if args.probe:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
        rows = boundedness_probe(
            _generator_from_args(args), sizes, args.replicates, args.quantile
        )
        print("family_size,quantile")
        for row in rows:
            print(f"{row.family_size},{row.quantile!r}")
        did_something = True
    if not did_something:
        raise ConfigurationError(
            "lemma: nothing to do (use --pz-exact, --pz-mc, --statistic, or --probe)"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besovlab",
        description="Simulate stochastic-measure paths and test their Besov regularity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_flags(p):
        p.add_argument("--a", type=float, default=0.0)
        p.add_argument("--b", type=float, default=1.0)
        p.add_argument("--J", type=int, default=12)
        p.add_argument("--seed", type=int, default=0)

    gen = sub.add_parser("generate", help="generate a path as CSV plus sidecar JSON")
    gen.add_argument("--process", required=True, choices=GeneratorSpec.KINDS)
    add_grid_flags(gen)
    gen.add_argument("--H", type=float, default=None)
    gen.add_argument("--weight", type=str, default=None)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    dy = sub.add_parser("dyadic", help="dyadic level series and verdict for a CSV path")
    dy.add_argument("--input", required=True)
    dy.add_argument("--alpha", type=float, required=True)
    dy.add_argument("--p", type=float, default=2.0)
    dy.add_argument("--N", type=int, default=None)
    dy.add_argument("--out", default=None)
    dy.add_argument("--format", choices=["json", "csv"], default="json")
    dy.set_defaults(func=_cmd_dyadic)

    be = sub.add_parser("besov", help="Besov norm report for a CSV path")
    be.add_argument("--input", required=True)
    be.add_argument("--alpha", type=float, required=True)
    be.add_argument("--p", type=float, default=2.0)
    be.add_argument("--q", type=float, default=2.0)
    be.add_argument("--extrapolate", action="store_true")
    be.add_argument("--out", default=None)
    be.add_argument("--format", choices=["json", "csv"], default="json")
    be.set_defaults(func=_cmd_besov)

    sw = sub.add_parser("sweep", help="run an alpha sweep from a JSON config")
    sw.add_argument("--config", required=True)
    sw.add_argument("--out-dir", required=True)
    sw.add_argument("--workers", type=int, default=None)
    sw.set_defaults(func=_cmd_sweep)

    lm = sub.add_parser("lemma", help="Paley-Zygmund checks, lemma statistic, probe")
    lm.add_argument("--pz-exact", type=str, default=None)
    lm.add_argument("--pz-mc", type=str, default=None)
    lm.add_argument("--samples", type=int, default=100_000)
    lm.add_argument("--statistic", action="store_true")
    lm.add_argument("--probe", action="store_true")
    lm.add_argument("--process", choices=GeneratorSpec.KINDS, default="bm")
    add_grid_flags(lm)
    lm.add_argument("--H", type=float, default=None)
    lm.add_argument("--weight", type=str, default=None)
    lm.add_argument("--alpha", type=float, default=0.4)
    lm.add_argument("--p", type=float, default=2.0)
    lm.add_argument("--N", type=int, default=10)
    lm.add_argument("--sizes", type=str, default="4,16,64,256")
    lm.add_argument("--replicates", type=int, default=200)
    lm.add_argument("--quantile", type=float, default=0.99)
    lm.set_defaults(func=_cmd_lemma)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParameterError, ConfigurationError, SizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ResolutionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FloatingPointError, np.linalg.LinAlgError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
