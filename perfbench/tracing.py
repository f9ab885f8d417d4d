"""Spans and work counts at the boundary between the glue modules and the
layer packages.

`Recorder.install()` replaces every layer-package function that
`fracspec.experiments` and `fracspec.acceptance` import into their module
namespace with a wrapper that records a span and counts work.  Calls made
inside a layer package are not seen: each span covers one call from the
glue into a layer.  Nothing under `src/` is changed; the benchmark imports
this module only in a traced child process.
"""

from __future__ import annotations

import importlib
import inspect
import os
from collections import defaultdict
from functools import wraps
from time import process_time

LAYERS = ("cantor", "geometry", "fourier", "tauberian")
GLUE_MODULES = ("fracspec.experiments", "fracspec.acceptance")
# Glue functions that get a span of their own, for the bytes they write.
GLUE_FUNCTIONS = {"fracspec.experiments": ("write_csv",)}


def _written_bytes(argument):
    def count(bound, result):
        return os.path.getsize(bound.arguments[argument])

    return count


# Work counts computed from a call's arguments and return value.
WORK = {
    "cantor.build_level": {"intervals": lambda bound, level: level.member_count},
    "cantor.natural_measure": {"atoms": lambda bound, measure: len(measure.atoms)},
    "cantor.write_level_csv": {"bytes": _written_bytes("path")},
    "geometry.minkowski_ratio_sweep": {"rows": lambda bound, sweep: len(sweep.rows)},
    "fourier.cantor_fourier_grid": {"xi": lambda bound, values: int(values[0].size)},
    "experiments.write_csv": {"bytes": _written_bytes("path")},
}


def span_name(module_name: str, obj) -> str | None:
    """`<layer>.<function>` for a layer-package function, else None."""
    if isinstance(obj, type) or not callable(obj):
        return None
    parts = getattr(obj, "__module__", "").split(".")
    if len(parts) >= 2 and parts[0] == "fracspec" and parts[1] in LAYERS:
        return f"{parts[1]}.{obj.__name__}"
    short = module_name.rsplit(".", 1)[-1]
    if getattr(obj, "__name__", None) in GLUE_FUNCTIONS.get(module_name, ()):
        return f"{short}.{obj.__name__}"
    return None


class Recorder:
    """Spans kept in memory as [name, start, end, parent index, step id].

    Times are read from `clock`, CPU seconds of the whole process; child.py
    passes the clock it times steps with, which leaves out its sampler.
    """

    def __init__(self, clock=process_time):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack = []
        self._step = None
        self._step_spans = set()
        self._patched = []

    def wrap(self, name: str, fn):
        work = WORK.get(name, {})
        signature = inspect.signature(fn) if work else None
        spans, stack, counts, clock = self.spans, self._stack, self.counts[name], self.clock

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self._step]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counts["calls"] += 1
            if work:
                bound = signature.bind(*args, **kwargs)
                for key, count in work.items():
                    counts[key] += count(bound, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name in GLUE_MODULES:
            module = importlib.import_module(module_name)
            for attr, obj in list(vars(module).items()):
                name = span_name(module_name, obj)
                if name is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, self.wrap(name, obj))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, obj = self._patched.pop()
            setattr(module, attr, obj)

    def begin_step(self, step_id: str) -> list:
        """Open the span of one CLI step; the caller sets its times."""
        span = [step_id, 0.0, 0.0, None, step_id]
        self._step = step_id
        self._step_spans.add(len(self.spans))
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end_step(self, span: list, start: float, end: float) -> None:
        span[1], span[2] = start, end
        self._stack.pop()
        self._step = None

    def summary(self) -> dict:
        """Per-name time and counts, and per-step self time.

        A span's self time is its duration minus that of its direct
        children, so a step's self time is the glue and CLI time not spent
        in any layer call.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        names = {}
        steps = {}
        for index, (name, start, end, parent, step) in enumerate(self.spans):
            duration = end - start
            if index in self._step_spans:
                steps[name] = {"s": duration, "self_s": duration - child_time[index]}
                continue
            entry = names.setdefault(name, {"s": 0.0, "self_s": 0.0})
            entry["s"] += duration
            entry["self_s"] += duration - child_time[index]
        for name, counts in self.counts.items():
            if counts:
                names.setdefault(name, {"s": 0.0, "self_s": 0.0}).update(counts)
        return {"names": names, "steps": steps}
