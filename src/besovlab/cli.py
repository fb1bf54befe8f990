"""Command-line interface: generate, dyadic, besov, sweep, lemma.

Data goes to files or stdout; diagnostics go to stderr.  Exit codes:
0 success, 2 usage/parameter error (an allocation too large to fit
included), 3 data or resolution error, 4 internal numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from .besov import besov_norm
from .criterion import MIN_LEVELS, kamont_series
from .errors import (
    BesovLabError,
    ConfigurationError,
    ParameterError,
    ResolutionError,
    SizeError,
)
from .generators import GeneratorSpec, WeightFn
from .harness import ExperimentConfig, _csv_table, run_alpha_sweep
from .lemma import (
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
    if not np.all(times[1:] > times[:-1]):  # read_series_csv would refuse the file
        g = path.grid
        raise ParameterError(f"[{g.a!r}, {g.b!r}] at J={g.J} has grid points that are "
                             "equal in double precision")
    with out.open("w", newline="") as fh:
        fh.write("t,value\n")
        for lo in range(0, len(values), CSV_CHUNK_ROWS):
            hi = lo + CSV_CHUNK_ROWS
            rows = zip(times[lo:hi].tolist(), values[lo:hi].tolist())
            fh.write("".join(f"{t!r},{v!r}\n" for t, v in rows))


def read_series_csv(source: Path) -> tuple[np.ndarray, np.ndarray]:
    """Times and values from the first two columns of a 't,value' CSV file.

    The data rows are parsed in C by `np.loadtxt`, which rounds correctly;
    a UTF-8 byte-order mark, blank lines, CRLF, spaces around fields, quoted
    fields and extra columns are accepted; a NaN or infinity is a DataError.
    The rows are read in one pass over the open file, so a pipe works as
    input; only the message of a malformed row or a non-finite value
    re-reads a regular file.
    """
    try:
        with source.open(newline="", encoding="utf-8-sig") as fh:
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
    if not np.all(times[1:] > times[:-1]):  # no difference, which overflows past the double range
        raise DataError(f"{source}: times must be strictly increasing")
    return times, values


def _bad_row(source: Path, fallback: str) -> DataError:
    """A DataError naming the file line of the first short, unparsable or non-finite row.

    The file is re-read with csv.reader and float(), the row reader that
    `np.loadtxt` replaced, so the line does not rest on the wording of
    loadtxt's messages.  float() also reads underscores and non-ASCII digits,
    which loadtxt refuses, so a field holding either counts as unparsable.
    `fallback` is the message when the source is not a regular file (re-opening
    a named pipe waits for a new writer), the file changed, or no row is at fault.
    """
    if not source.is_file():
        return DataError(fallback)
    try:
        with source.open(newline="", encoding="utf-8-sig") as fh:
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
    """Return the path on one dyadic grid, resampled by linear interpolation if needed.

    The grid spans the input's times with J = ceil(log2 n) for n intervals,
    at least 1 and capped at the package-wide resolution bound.  The values
    are kept as they are when the input's times are that grid's points, and
    interpolated onto it otherwise.  A span wider than the double range is a
    DataError, like every other fault in the input.
    """
    a, b = float(times[0]), float(times[-1])
    if not math.isfinite(b - a):
        raise DataError(f"times span [{a!r}, {b!r}], wider than the double range")
    n = len(times) - 1
    grid = Grid(a, b, min(max(1, (n - 1).bit_length()), MAX_RESOLUTION))
    points = grid.points()
    if n == grid.n_cells and np.allclose(times, points, rtol=0.0, atol=1e-9 * (b - a)):
        return SampledPath(grid, values), False
    return SampledPath(grid, np.interp(points, times, values)), True


def _generator_from_args(args) -> GeneratorSpec:
    grid = Grid(args.a, args.b, args.J)
    weight = WeightFn.from_descriptor(args.weight) if args.weight else None
    return GeneratorSpec(args.process, grid, seed=args.seed, H=args.H, weight=weight)


def _cmd_generate(args) -> None:
    spec = _generator_from_args(args)
    sample = spec.sample()
    path = path_of(sample)
    out = Path(args.out)
    _write_path_csv(path, out)
    out.with_suffix(out.suffix + ".meta.json").write_text(_json_text(spec.to_dict()))
    print(str(out))


def _json_text(payload: dict) -> str:
    """Every JSON file's text; a non-finite number is refused as a numeric failure."""
    for key, value in payload.items():
        values = value if isinstance(value, (list, tuple)) else [value]
        if any(isinstance(x, float) and not math.isfinite(x) for x in values):
            raise FloatingPointError(f"non-finite value in report field {key!r}")
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(payload: dict, out: Path | None, csv_text: str | None = None):
    """Write every command's JSON report: to `out`, with any CSV table at
    out.with_suffix(".csv"), and print `out`; or, with `out` None, to stdout."""
    text = _json_text(payload)
    if out is None:
        sys.stdout.write(text)
        return
    out.write_text(text)
    if csv_text is not None:
        out.with_suffix(".csv").write_text(csv_text)
    print(str(out))


def _cmd_dyadic(args) -> None:
    out = Path(args.out) if args.out else None
    if out and out.suffix == ".csv":
        # the CSV table goes to out.with_suffix(".csv"): here the report itself
        raise ConfigurationError(
            f"--out {args.out} names the CSV table's own file; use another suffix"
        )
    path, resampled = ingest_series(*read_series_csv(Path(args.input)))
    # a path coarser than MIN_LEVELS fails on its resolution (exit 3), as with --N
    N = args.N if args.N is not None else max(MIN_LEVELS, min(path.grid.J, 12))
    report = kamont_series(path, N, args.alpha, args.p)
    payload = {**report.to_dict(), "resampled": resampled}
    table = zip(report.levels, report.terms, report.partial_sums)
    _emit(payload, out, _csv_table("n,term,partial_sum", table))


def _cmd_besov(args) -> None:
    path, resampled = ingest_series(*read_series_csv(Path(args.input)))
    params = BesovParams(args.alpha, args.p, args.q)
    report = besov_norm(path, params, extrapolate=args.extrapolate)
    payload = {**report.to_dict(), "resampled": resampled}
    _emit(payload, Path(args.out) if args.out else None)


def _cmd_sweep(args) -> None:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise DataError(f"cannot read config: {exc}") from exc
    config = ExperimentConfig.from_json(text)
    out_dir = Path(args.out_dir)
    # refused before the sweep runs, made only after it succeeds: a failed sweep leaves none
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir():
        raise DataError(f"cannot write to --out-dir {out_dir}: {nearest} is not a directory")
    report = run_alpha_sweep(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    _emit(report.to_dict(), out_dir / "report.json", report.to_csv())


def _number_list(text: str, kind: type, what: str) -> list:
    try:
        return [kind(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"bad {what} list {text!r}") from exc


def _cmd_lemma(args) -> None:
    if args.pz_exact is None and args.pz_mc is None and not (args.statistic or args.probe):
        raise ConfigurationError(
            "lemma: nothing to do (use --pz-exact, --pz-mc, --statistic, or --probe)"
        )
    for mode, text in (("exact", args.pz_exact), ("monte-carlo", args.pz_mc)):
        if text is not None:
            lam = _number_list(text, float, "coefficient")
            res = paley_zygmund_check(lam, mode=mode, samples=args.samples, seed=args.seed)
            stderr = "" if res.stderr is None else f"stderr {res.stderr!r} "
            status = "PASS" if res.passed else "FAIL"
            print(f"paley-zygmund probability {res.probability!r} {stderr}"
                  f"bound {res.bound} {status}")
    if args.statistic:
        if args.N > args.J:
            # checked before the sample's 2^J cells are drawn
            raise ResolutionError(
                f"family depth N={args.N} exceeds the sample's dyadic resolution J={args.J}"
            )
        weights = WeightSequence.geometric(args.alpha, args.p, args.N)
        partial = lemma_statistic(_generator_from_args(args).sample(), weights)
        sys.stdout.write(_csv_table("n,partial_sum", enumerate(partial.tolist(), start=1)))
    if args.probe:
        sizes = _number_list(args.sizes, int, "family size")
        rows = boundedness_probe(
            _generator_from_args(args), sizes, args.replicates, args.quantile
        )
        sys.stdout.write(_csv_table("family_size,quantile", rows))


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


def _dyadic_flags(dy):
    dy.add_argument("--input", required=True)
    dy.add_argument("--alpha", type=float, required=True)
    dy.add_argument("--p", type=float, default=2.0)
    dy.add_argument("--N", type=int, default=None)
    dy.add_argument("--out", default=None)


def _besov_flags(be):
    be.add_argument("--input", required=True)
    be.add_argument("--alpha", type=float, required=True)
    be.add_argument("--p", type=float, default=2.0)
    be.add_argument("--q", type=float, default=2.0)
    be.add_argument("--extrapolate", action="store_true")
    be.add_argument("--out", default=None)


def _sweep_flags(sw):
    sw.add_argument("--config", required=True)
    sw.add_argument("--out-dir", required=True)


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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone if it names one.

    A command line that starts with a subcommand is parsed by it and the top
    level alone, so `main` builds that subcommand only: building every
    parser cost most of a short command.  Its metavar spells the usage line
    of the full tree, which the top level prints with an unrecognized
    argument; the full tree keeps argparse's own metavar, so that its errors
    name the `command` argument.
    """
    subcommands = {  # name -> (help, adds its flags to its parser, runs it)
        "generate": ("generate a path as CSV plus sidecar JSON", _generate_flags, _cmd_generate),
        "dyadic": ("dyadic level series and verdict for a CSV path", _dyadic_flags, _cmd_dyadic),
        "besov": ("Besov norm report for a CSV path", _besov_flags, _cmd_besov),
        "sweep": ("run an alpha sweep from a JSON config", _sweep_flags, _cmd_sweep),
        "lemma": ("Paley-Zygmund checks, lemma statistic, probe", _lemma_flags, _cmd_lemma),
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
        help_text, add_flags, run = subcommands[name]
        command_parser = sub.add_parser(name, help=help_text)
        add_flags(command_parser)
        command_parser.set_defaults(func=run)
    for p in (parser, *sub.choices.values()):  # "-1,1" is a value, as in Python 3.13's argparse
        p._negative_number_matcher = re.compile(r"-\.?\d")
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
            args.func(args)
    except (ParameterError, ConfigurationError, SizeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ResolutionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FloatingPointError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
