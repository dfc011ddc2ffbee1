"""In-memory span tracer that wraps the program's layer functions from outside.

Nothing under ``src/`` is edited: :class:`Tracer` replaces a function or
method attribute at the site the caller looks it up (a module's imported
name, or a class attribute) with a wrapper that records a span, and
:meth:`Tracer.remove` puts every original back.

A span is ``[name, start, end, parent, request]``; ``parent`` is the index of
the enclosing open span (``-1`` at the request root).  Spans stay in memory
and are written out when the run ends.  A span's self time is its duration
minus the durations of its direct children, which nest strictly because the
program is single-threaded.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.request: int = -1
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        # per-request counters and the objects the program created, read
        # back after the request by the workload's count hooks
        self.counts: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.objects: Dict[str, list] = defaultdict(list)
        # per request: {span name: [self seconds, calls]} and root seconds
        self.selfs: Dict[int, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        self.roots: Dict[int, float] = defaultdict(float)
        self._first = 0

    # -- instrumentation ------------------------------------------------------

    def wrap(self, name: str, fn: Callable, on_return: Optional[Callable] = None) -> Callable:
        """``fn`` recording a ``name`` span per call; ``on_return(tracer,
        args, kwargs, result)`` runs inside the span after ``fn`` returns."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(self, args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[END] = perf_counter()

        traced.__wrapped__ = fn
        return traced

    def patch(
        self,
        owner,
        attr: str,
        name: str,
        on_return: Optional[Callable] = None,
        around: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by its traced wrapper until :meth:`remove`;
        ``around(tracer, original)``, when given, adapts the original first."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        fn = original if around is None else around(self, original)
        setattr(owner, attr, self.wrap(name, fn, on_return))

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def count(self, key: str, k: float = 1) -> None:
        self.counts[self.request][key] += k

    def keep(self, kind: str, obj) -> None:
        """Remember an object the program created during this request."""
        self.objects[kind].append(obj)

    # -- per request -----------------------------------------------------------

    def begin(self, request: int) -> None:
        self.request = request
        self._first = len(self.spans)

    def end(self, keep: bool) -> None:
        """Fold the request's spans into :attr:`selfs` and :attr:`roots`;
        drop them unless ``keep`` (a long run would otherwise hold millions)."""
        first = self._first
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= first:
                child[span[PARENT] - first] += span[END] - span[START]
        selfs = self.selfs[self.request]
        for span, covered in zip(spans, child):
            acc = selfs[span[NAME]]
            acc[0] += span[END] - span[START] - covered
            acc[1] += 1
            if span[PARENT] < 0:
                self.roots[self.request] += span[END] - span[START]
        if not keep:
            del self.spans[first:]

    def write(self, path: str) -> None:
        """Dump the kept spans as JSON lines ``[name, start, end, parent,
        request]``."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
