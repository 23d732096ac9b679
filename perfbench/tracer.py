#!/usr/bin/env python3
"""Traced in-process replay of one stackdet CLI command.

    python3 perfbench/tracer.py SPANS.jsonl <stackdet arguments...>

Imports ``stackdet`` from the checkout's ``src/``, wraps every public
function of ``data``, ``bank``, ``metrics`` and ``synth`` plus
``cli.load_bank``, ``cli.save_bank`` and ``cli.cmd_*`` in a pass-through
span recorder, runs ``stackdet.cli.main(argv)`` under a root span
``cli.main`` and writes the spans as JSON lines.  The exit code is the
command's.

Each wrapper forwards ``*args, **kwargs`` unchanged and is bound under every
name a ``stackdet`` module holds the function by (``synth`` imports
``score_all`` and ``sweep_both`` by name), so the trace keeps working when
signatures change.  A span holds its name, id, parent id, start and end
(``perf_counter``), process CPU seconds (all threads) and the process
high-water mark (``ru_maxrss``) at both ends.  A few spans carry a work
count in ``attrs``, read from arguments and results after the span closed;
a count that cannot be read is left out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import resource
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
LAYERS = ("data", "bank", "metrics", "synth")
CLI_FUNCTIONS = ("load_bank", "save_bank")


def _hwm_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _shape2(obj):
    """(rows, cols) of an array, a ScoreMatrix-like or an EmbeddingSet-like."""
    for candidate in (obj, getattr(obj, "scores", None), getattr(obj, "vectors", None)):
        shape = getattr(candidate, "shape", None)
        if shape is not None and len(shape) == 2:
            return int(shape[0]), int(shape[1])
    raise TypeError("no 2-D shape")


def _path_arg(args, kwargs, position):
    path = kwargs.get("path", args[position] if len(args) > position else None)
    return os.path.getsize(path)


def _score_flops(args, kwargs, result):
    trials, detectors = _shape2(result)
    dimension = _shape2(kwargs.get("trials", args[1] if len(args) > 1 else None))[1]
    return {"flop": 2 * trials * detectors * dimension}


# Work counts a span records, keyed by span name: f(args, kwargs, result) -> attrs.
COUNTERS = {
    "data.load_embeddings": lambda a, k, r: {"bytes": _path_arg(a, k, 0)},
    "data.save_scores": lambda a, k, r: {"bytes": _path_arg(a, k, 1)},
    "bank.score_all": _score_flops,
    "bank.apply_mnorm": lambda a, k, r: {"out_bytes": 8 * math.prod(_shape2(r))},
    "metrics.sweep_both": lambda a, k, r: {"thresholds": len(r[0].thetas)},
}


class SpanRecorder:
    """Collects spans in memory; ``dump`` writes them as JSON lines."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def run(self, name: str, fn, args=(), kwargs=None):
        kwargs = kwargs or {}
        stack = self._stack()
        with self._lock:
            span = {"name": name, "id": len(self.spans),
                    "parent": stack[-1]["id"] if stack else None}
            self.spans.append(span)
        stack.append(span)
        span["hwm_start_kb"] = _hwm_kb()
        span["cpu_start"] = time.process_time()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            span["cpu_s"] = time.process_time() - span.pop("cpu_start")
            span["hwm_end_kb"] = _hwm_kb()
            stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            try:
                span["attrs"] = counter(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, OSError, TypeError):
                pass
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.run(name, fn, args, kwargs)

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span, sort_keys=True) + "\n")


def install(recorder: SpanRecorder) -> None:
    """Replace every traced function under every name it is bound by."""
    names = {}
    for layer in LAYERS + ("cli",):
        module = importlib.import_module(f"stackdet.{layer}")
        for attr, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            if layer == "cli":
                traced = attr in CLI_FUNCTIONS or attr.startswith("cmd_")
            else:
                traced = not attr.startswith("_")
            if traced:
                names[obj] = f"{layer}.{attr}"
    wrappers = {fn: recorder.wrap(name, fn) for fn, name in names.items()}
    for modname, module in list(sys.modules.items()):
        if modname != "stackdet" and not modname.startswith("stackdet."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    sys.path.insert(0, str(SRC))
    from stackdet import cli

    recorder = SpanRecorder()
    install(recorder)
    try:
        code = recorder.run("cli.main", cli.main, (cli_argv,))
    except SystemExit as exc:  # argparse exits for --help and usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
