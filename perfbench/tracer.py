"""Span tracer installed from outside the program.

It replaces each traced library function with a wrapper at every binding
site inside the ``savanna`` package (``savanna.metrics.edit_distance``,
``savanna.evalharness.normalize``, ``savanna.cli.clean_document``, ...), so
calls made through module globals are seen too.  Spans (name, start, end,
parent) stay in memory until the run writes them out.  Functions that are
not traced count toward the self time of their nearest traced caller.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
import time
from collections import defaultdict


def _edit_distance(args, kwargs, result):
    a, b = args[0], args[1]
    return {"cells": len(a) * len(b)}


def _clean_document(args, kwargs, result):
    return {"lines": args[0].count("\n") + 1 if args[0] else 0,
            "artifacts_removed": result[1].artifacts_removed}


def _dedup(args, kwargs, yielded):
    docs = args[0]
    return {"docs_in": len(docs), "docs_out": yielded}


def _pack(args, kwargs, result):
    max_len = kwargs.get("max_len", args[1] if len(args) > 1 else 512)
    return {"chunks": sum(math.ceil(len(ids) / max_len) for _, ids in args[0]),
            "sequences": len(result),
            "tokens": sum(len(seq.token_ids) for seq in result),
            "capacity": len(result) * max_len}


# Traced functions by layer, with an optional hook that turns a call's
# arguments and result into work counts.
TRACED = {
    "metrics": {"edit_distance": _edit_distance, "chrf": None, "bleu": None,
                "cer": None, "wer": None},
    "textnorm": {"normalize": None, "clean_document": _clean_document},
    "corpus": {"dedup": _dedup, "assemble_pretraining": None,
               "read_documents_jsonl": None, "write_documents_jsonl": None},
    "instruct": {"build_instruction_dataset": None, "render_chat": None, "pack": _pack,
                 "write_packed_jsonl": None},
    "preference_loss": {"read_pair_logps_jsonl": None, "audit_pairs": None},
    "evalharness": {"run_translation_eval": None, "rescore_run_log": None, "load_suite": None},
    "leaderboard": {"add_run_report": None, "make_leaderboard": None},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
        stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def span(self, name: str, fn) -> None:
        """Call ``fn()`` inside a span called ``name``."""
        index = self._enter(name)
        try:
            fn()
        finally:
            self._exit(index)

    def _count(self, name: str, increments: dict) -> None:
        for key, value in increments.items():
            self.counts[f"{name}.{key}"] += value

    def _wrap(self, name: str, fn, hook):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # A generator does its work while the caller iterates, so every
            # resumption is its own span under whatever span is then open.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                inner = fn(*args, **kwargs)
                yielded = 0
                while True:
                    index = tracer._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        break
                    finally:
                        tracer._exit(index)
                    yielded += 1
                    yield item
                if hook:
                    tracer._count(name, hook(args, kwargs, yielded))
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index)
            if hook:
                tracer._count(name, hook(args, kwargs, result))
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "savanna" or n.startswith("savanna."))]
        for layer, functions in TRACED.items():
            home = sys.modules[f"savanna.{layer}"]
            for fname, hook in functions.items():
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, hook)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def self_times(spans: list[list]) -> tuple[list[float], list[int]]:
    """Self time of every span (its duration minus its children's) and the
    index of its root span."""
    child = [0.0] * len(spans)
    root = [0] * len(spans)
    for i, (_name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            root[i] = root[parent]
        else:
            root[i] = i
    return [end - start - child[i] for i, (_n, start, end, _p) in enumerate(spans)], root


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]
