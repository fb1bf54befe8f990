"""Span tracing of besovlab from outside the package.

`install` wraps every public module-level function and every public
classmethod of the seven besovlab modules, and rebinds each name wherever
a besovlab module holds the original object -- including the names that
`harness`, `cli` and the package `__init__` took with `from ... import`.
Nothing under `src/` is edited.

A span is `[name, start, end, parent]`, with `parent` the index of the span
that was open when this one started (-1 for a root).  Spans live in memory
for one operation at a time; `summarize` folds them into per-name
inclusive time, self time and call counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("paths", "generators", "besov", "criterion", "lemma", "harness", "cli")


def _cell_integrals(a, result):
    n = a["path"].grid.n_cells
    m = n if a.get("max_shift") is None else min(a["max_shift"], n)
    return m * n - m * (m + 1) // 2  # sum over shifts m of the N - m overlap cells


def _sign_patterns(a, result):
    return 1 << len(a["lambdas"]) if a.get("mode", "exact") == "exact" else 0


def _generated_csv_bytes(a, result):
    argv = list(a["argv"] or ())
    if not argv or argv[0] != "generate" or "--out" not in argv:
        return 0
    return os.path.getsize(argv[argv.index("--out") + 1])


# Work counts computed from each call's inputs (or the file it wrote), not
# measured: span name -> (counter name, function of bound arguments, result).
WORK_COUNTS = {
    "besov.shift_norms": ("besov.cell_integrals", _cell_integrals),
    "generators.generate_bm": ("generators.cells", lambda a, r: a["grid"].n_cells),
    "generators.generate_fgn": ("generators.cells", lambda a, r: a["grid"].n_cells),
    "lemma.paley_zygmund_check": ("lemma.sign_patterns", _sign_patterns),
    "cli.read_series_csv": ("cli.csv_bytes_read", lambda a, r: os.path.getsize(a["source"])),
    "cli.main": ("cli.csv_bytes_written", _generated_csv_bytes),
}


class Tracer:
    """Records spans while `recording` is true; otherwise wrappers pass through."""

    def __init__(self):
        self.recording = False
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def wrap(self, name: str, fn):
        counter = WORK_COUNTS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[counter[0]] += counter[1](bound.arguments, result)
            return result

        return traced

    def install(self):
        """Wrap the public functions of every layer and rebind all references."""
        package = importlib.import_module("besovlab")
        modules = {layer: importlib.import_module(f"besovlab.{layer}") for layer in LAYERS}
        holders = [package, *modules.values()]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped = self.wrap(f"{layer}.{name}", obj)
                    for holder in holders:
                        if vars(holder).get(name) is obj:
                            setattr(holder, name, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and isinstance(member, classmethod):
                            wrapped = self.wrap(f"{layer}.{attr}", member.__func__)
                            setattr(obj, attr, classmethod(wrapped))


def summarize(spans) -> dict:
    """Inclusive time, self time and calls per span name, plus root time."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    calls = Counter()
    root = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        inclusive[name] += end - start
        self_time[name] += end - start - child_time[i]
        calls[name] += 1
        if parent < 0:
            root += end - start
    return {
        "inclusive": dict(inclusive),
        "self": dict(self_time),
        "calls": dict(calls),
        "root": root,
        "spans": len(spans),
    }
