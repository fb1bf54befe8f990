"""Command-line interface: generate, dyadic, besov, sweep, lemma.

Data goes to files or stdout; diagnostics go to stderr.  Exit codes:
0 success, 2 usage/parameter error, 3 data or resolution error,
4 internal numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import warnings
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


CSV_CHUNK_ROWS = 1 << 12  # rows formatted per write: bounded memory at any J


def _write_path_csv(path: SampledPath, out: Path):
    times, values = path.grid.points(), path.values
    with out.open("w", newline="") as fh:
        fh.write("t,value\n")
        for lo in range(0, len(values), CSV_CHUNK_ROWS):
            hi = lo + CSV_CHUNK_ROWS
            rows = zip(times[lo:hi].tolist(), values[lo:hi].tolist())
            fh.write("".join(f"{t!r},{v!r}\n" for t, v in rows))


def read_series_csv(source: Path) -> tuple[np.ndarray, np.ndarray]:
    """Times and values from the first two columns of a 't,value' CSV file.

    The data rows are parsed in C by `np.loadtxt`, which rounds correctly;
    blank lines, CRLF, spaces around fields, quoted fields and extra columns
    are accepted; a NaN or infinity is a DataError.  The rows are read in one
    pass over the open file, so a pipe works as input; only the message of a
    malformed row or a non-finite value re-reads it.
    """
    try:
        with source.open(newline="") as fh:
            header = next(csv.reader([fh.readline()]), [])
            if [h.strip() for h in header[:2]] != ["t", "value"]:
                raise DataError(f"{source}: expected header 't,value'")
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(
                    fh, delimiter=",", usecols=(0, 1), comments=None, quotechar='"', ndmin=2
                )
    except OSError as exc:
        raise DataError(f"cannot read {source}: {exc}") from exc
    except ValueError as exc:
        raise _bad_row(source, f"cannot read {source}: {exc}") from exc
    if not np.all(np.isfinite(table)):
        row, col = np.argwhere(~np.isfinite(table))[0]
        value = float(table[row, col])
        where = f"data row {row + 1}, column {col + 1}"
        raise _bad_row(source, f"{source}: {where}: {value!r} is not finite")
    times, values = table.T.copy()
    if len(times) < 2:
        raise DataError(f"{source}: need at least two samples")
    if not np.all(np.diff(times) > 0):
        raise DataError(f"{source}: times must be strictly increasing")
    return times, values


def _bad_row(source: Path, fallback: str) -> DataError:
    """A DataError naming the file line of the first short, unparsable or non-finite row.

    The file is re-read with csv.reader and float(), the row reader that
    `np.loadtxt` replaced, so the line does not rest on the wording of
    loadtxt's messages.  float() also reads underscores and non-ASCII digits,
    which loadtxt refuses, so a field holding either counts as unparsable.
    `fallback` is the message when the file cannot be re-read (a pipe, or a
    file that changed) or no row is at fault.
    """
    try:
        with source.open(newline="") as fh:
            reader = csv.reader(fh)
            next(reader, None)  # the header
            for row in filter(None, reader):  # blank lines are skipped, as loadtxt does
                at = f"{source}: line {reader.line_num}"
                for col, field in enumerate(row[:2], start=1):
                    text = field.strip()  # both readers skip surrounding whitespace, "\xa0" too
                    try:
                        if not text.isascii() or "_" in text:
                            raise ValueError(text)
                        value = float(text)
                    except ValueError:
                        return DataError(f"{at}, column {col}: cannot parse {field!r} as a number")
                    if not math.isfinite(value):
                        return DataError(f"{at}, column {col}: {value!r} is not finite")
                if len(row) < 2:
                    return DataError(f"{at} has fewer than two fields")
    except (OSError, ValueError, csv.Error):
        pass  # the error is reported without a line
    return DataError(fallback)


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
    return GeneratorSpec(args.process, grid, seed=args.seed, H=args.H, weight=weight)


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


def _emit(args, payload: dict, csv_text: str | None = None):
    """Write the JSON report to --out, with any CSV table beside it, or print one.

    Only `dyadic` has a CSV table, and only it has a --format option.
    """
    _require_finite(payload)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        out = Path(args.out)
        out.write_text(text)
        if csv_text is not None:
            out.with_suffix(".csv").write_text(csv_text)
        print(str(out))
    elif csv_text is not None and args.format == "csv":
        sys.stdout.write(csv_text)
    else:
        sys.stdout.write(text)


def _cmd_dyadic(args) -> int:
    if args.out and Path(args.out).suffix == ".csv":
        # the CSV table goes to out.with_suffix(".csv"): here the report itself
        raise ConfigurationError(
            f"--out {args.out} names the CSV table's own file; use another suffix"
        )
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
    _emit(args, payload)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise DataError(f"cannot read config: {exc}") from exc
    config = ExperimentConfig.from_json(text)
    if args.workers is not None:
        config = dataclasses.replace(config, workers=args.workers)
    report = run_alpha_sweep(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json())
    (out_dir / "report.csv").write_text(report.to_csv())
    print(str(out_dir / "report.json"))
    return EXIT_OK


def _number_list(text: str, kind: type, what: str) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad {what} list {text!r}") from exc


def _cmd_lemma(args) -> int:
    did_something = False
    if args.pz_exact is not None:
        res = paley_zygmund_check(
            _number_list(args.pz_exact, float, "coefficient"), mode="exact"
        )
        status = "PASS" if res.passed else "FAIL"
        print(f"paley-zygmund probability {res.probability!r} bound {res.bound} {status}")
        did_something = True
    if args.pz_mc is not None:
        lam = _number_list(args.pz_mc, float, "coefficient")
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
        if args.N > args.J:
            # checked before full_dyadic allocates its 2^(N+1) labels
            raise ResolutionError(
                f"family depth N={args.N} exceeds the sample's dyadic resolution J={args.J}"
            )
        sample = _generator_from_args(args).sample()
        weights = WeightSequence.geometric(args.alpha, args.p, args.N)
        family = DisjointFamily.full_dyadic(args.N)
        partial = lemma_statistic(sample, weights, family)
        print("n,partial_sum")
        for n, s in enumerate(partial, start=1):
            print(f"{n},{float(s)!r}")
        did_something = True
    if args.probe:
        sizes = _number_list(args.sizes, int, "family size")
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


def _generator_flags(p, **process):
    """The flags `_generator_from_args` reads; `process` is required= or default=."""
    p.add_argument("--process", choices=GeneratorSpec.KINDS, **process)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--J", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--H", type=float, default=None)
    p.add_argument("--weight", type=str, default=None)


def _generate_flags(gen):
    _generator_flags(gen, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)


def _dyadic_flags(dy):
    dy.add_argument("--input", required=True)
    dy.add_argument("--alpha", type=float, required=True)
    dy.add_argument("--p", type=float, default=2.0)
    dy.add_argument("--N", type=int, default=None)
    dy.add_argument("--out", default=None)
    dy.add_argument("--format", choices=["json", "csv"], default="json")
    dy.set_defaults(func=_cmd_dyadic)


def _besov_flags(be):
    be.add_argument("--input", required=True)
    be.add_argument("--alpha", type=float, required=True)
    be.add_argument("--p", type=float, default=2.0)
    be.add_argument("--q", type=float, default=2.0)
    be.add_argument("--extrapolate", action="store_true")
    be.add_argument("--out", default=None)
    be.set_defaults(func=_cmd_besov)


def _sweep_flags(sw):
    sw.add_argument("--config", required=True)
    sw.add_argument("--out-dir", required=True)
    sw.add_argument("--workers", type=int, default=None)
    sw.set_defaults(func=_cmd_sweep)


def _lemma_flags(lm):
    lm.add_argument("--pz-exact", type=str, default=None)
    lm.add_argument("--pz-mc", type=str, default=None)
    lm.add_argument("--samples", type=int, default=100_000)
    lm.add_argument("--statistic", action="store_true")
    lm.add_argument("--probe", action="store_true")
    _generator_flags(lm, default=GeneratorSpec.KINDS[0])
    lm.add_argument("--alpha", type=float, default=0.4)
    lm.add_argument("--p", type=float, default=2.0)
    lm.add_argument("--N", type=int, default=10)
    lm.add_argument("--sizes", type=str, default="4,16,64,256")
    lm.add_argument("--replicates", type=int, default=200)
    lm.add_argument("--quantile", type=float, default=0.99)
    lm.set_defaults(func=_cmd_lemma)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone if it names one.

    A command line that starts with a subcommand is parsed by it and the top
    level alone, so `main` builds that subcommand only: building every
    parser cost most of a short command.  Its metavar spells the usage line
    of the full tree, which the top level prints with an unrecognized
    argument; the full tree keeps argparse's own metavar, so that its errors
    name the `command` argument.
    """
    subcommands = {  # name -> (help, adds its flags to its parser)
        "generate": ("generate a path as CSV plus sidecar JSON", _generate_flags),
        "dyadic": ("dyadic level series and verdict for a CSV path", _dyadic_flags),
        "besov": ("Besov norm report for a CSV path", _besov_flags),
        "sweep": ("run an alpha sweep from a JSON config", _sweep_flags),
        "lemma": ("Paley-Zygmund checks, lemma statistic, probe", _lemma_flags),
    }
    parser = argparse.ArgumentParser(
        prog="besovlab",
        description="Simulate stochastic-measure paths and test their Besov regularity.",
    )
    if command in subcommands:
        names, metavar = [command], "{" + ",".join(subcommands) + "}"
    else:
        names, metavar = list(subcommands), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_flags = subcommands[name]
        add_flags(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # every non-finite result is refused below, so NumPy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
