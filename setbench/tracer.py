"""A span recorder that wraps functions where their callers bound them.

``from .x import f`` copies the binding of ``f`` into the importing
module, so a call site is traced by replacing the attribute on the module
(or class) that the caller looks it up on.  Every wrapped call records a
span: name, start, end, parent span and problem id.  Spans are kept in
flat arrays in memory and written out once, when the run ends.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import update_wrapper
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("q")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._problem = array("q")
        self._stack: list[int] = []
        self.problem_id = -1
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.missing: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self._installed: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self._start)

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._problem.append(self.problem_id)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._stack.pop()

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name, on_result=None) -> None:
        """Replace ``owner.attr`` by a traced call; a missing attribute is noted.

        ``name`` is the span name, or a function of the call's positional
        arguments returning it.  ``on_result(tracer, args, result)`` runs
        after the span closes; an error in it is noted, never raised into
        the traced program.
        """
        original = None if owner is None else vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', '?')}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name(args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                try:
                    on_result(tracer, args, result)
                except Exception as exc:  # a stale hook must not fail the problem
                    tracer.hook_errors[attr] = repr(exc)
            return result

        update_wrapper(traced, original)
        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    @contextmanager
    def installed(self, wraps):
        """Wrap every ``(owner, attr, name, on_result)`` for the block, then restore."""
        try:
            for owner, attr, name, on_result in wraps:
                self.wrap(owner, attr, name, on_result)
            yield self
        finally:
            while self._installed:
                owner, attr, original = self._installed.pop()
                setattr(owner, attr, original)

    # -- analysis and output ---------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children.
        """
        count = len(self)
        if count == 0:
            return {}
        names = np.frombuffer(self._name, dtype=np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=count)
        slots = len(self.names)
        calls = np.bincount(names, minlength=slots)
        total = np.bincount(names, weights=dur, minlength=slots)
        own = np.bincount(names, weights=dur - child, minlength=slots)
        return {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """One JSON array per span: [id, name, start_s, end_s, parent, problem]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self)):
                fh.write(
                    f'[{i},"{self.names[self._name[i]]}",{self._start[i]!r},'
                    f"{self._end[i]!r},{self._parent[i]},{self._problem[i]}]\n"
                )
