"""Spans around calls into masshist's public functions, recorded from
outside the package.

The package calls most of these functions by the name it imported, so
a wrapper is installed under that name in every masshist module
namespace that holds the original object, and removed again afterwards.
Spans live in memory as [name, start, end, parent, op_id, counts] and
are written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """Trace the public function masshist.<module>.<name>.

    before(tracer, counts, args, kwargs) -> (args, kwargs) may swap
    arguments (for instance wrap a callable to count its calls);
    after(tracer, counts, args, kwargs, result) -> result records counts
    from what the call returned and may swap the result; label(args,
    kwargs) -> str names spans that are split by an argument.
    """

    module: str
    name: str
    before: Optional[Callable] = None
    after: Optional[Callable] = None
    label: Optional[Callable] = None


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[list] = []
        self.op_id: Optional[int] = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------

    def span(self, name: str, fn: Callable, args=(), kwargs=None,
             counts: Optional[dict] = None):
        """Run fn(*args, **kwargs) inside a span named `name`, keeping
        `counts` on the span record; returns fn's result."""
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.op_id,
               {} if counts is None else counts]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """fn with every call recorded as a span named `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs)

        return traced

    def _make_wrapper(self, tg: Target, original: Callable) -> Callable:
        name = f"{tg.module}.{tg.name}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            counts: dict = {}
            if tg.before is not None:
                args, kwargs = tg.before(self, counts, args, kwargs)
            label = name if tg.label is None else tg.label(args, kwargs)
            result = self.span(label, original, args, kwargs, counts)
            if tg.after is not None:
                result = tg.after(self, counts, args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        homes = [importlib.import_module(f"masshist.{tg.module}")
                 for tg in self.targets]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "masshist"
                                         or n.startswith("masshist."))]
        for tg, home in zip(self.targets, homes):
            original = getattr(home, tg.name)
            wrapper = self._make_wrapper(tg, original)
            for mod in modules:
                if vars(mod).get(tg.name) is original:
                    setattr(mod, tg.name, wrapper)
                    self._patched.append((mod, tg.name, original))

    def restore(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# ---------------------------------------------------------------------------
# span arithmetic


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    lo_run = hi_run = None
    for lo, hi in sorted(intervals):
        if hi_run is None or lo > hi_run:
            if hi_run is not None:
                total += hi_run - lo_run
            lo_run, hi_run = lo, hi
        elif hi > hi_run:
            hi_run = hi
    if hi_run is not None:
        total += hi_run - lo_run
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its child spans cover."""
    children = defaultdict(list)
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]].append((rec[1], rec[2]))
    return [(rec[2] - rec[1]) - covered(children.get(i, ()))
            for i, rec in enumerate(spans)]
