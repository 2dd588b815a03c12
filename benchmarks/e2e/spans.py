"""In-memory span recorder for the traced run.

The benchmark records spans *from outside the program*: it installs thin
wrappers on live objects at the public layer boundaries (instance
attributes shadow the bound methods, so every internal ``self.method()``
call goes through the wrapper) and removes them again for the untraced
blocks.  Nothing under ``src/`` knows about this file.

A span is ``(name, start, end, parent, step_id)``; ``parent`` is the index
of the enclosing span (-1 at the top) and ``step_id`` groups the spans of
one timed operation.  A span's *self time* is its duration minus the part
its direct children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

_MISSING = object()


class Tracer:
    """Records nested spans and owns the wrappers that produce them."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, step id] per span, in start order.
        self.spans: List[List[Any]] = []
        self.step_id = -1
        self._stack: List[int] = []
        self._installed: List[Tuple[Any, str, Any]] = []
        #: Seconds spent in the wrappers themselves, outside the wrapped
        #: calls: the direct cost of tracing.
        self.wrapper_s = 0.0

    def _open(self, name: str) -> List[Any]:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        record = [name, time.perf_counter(), 0.0, parent, self.step_id]
        self.spans.append(record)
        return record

    def _close(self, record: List[Any]) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Shadow ``owner.attr`` with a span-recording wrapper.

        ``owner`` may be an instance (the wrapper lands in its ``__dict__``
        and shadows the class's method), a class or a module.
        """
        inner: Callable = getattr(owner, attr)
        previous = vars(owner).get(attr, _MISSING)

        def traced(*args: Any, **kwargs: Any) -> Any:
            entered = time.perf_counter()
            record = self._open(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self._close(record)
                self.wrapper_s += (
                    time.perf_counter() - entered - (record[2] - record[1])
                )

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, previous))

    def unwrap_all(self) -> None:
        """Remove every wrapper, restoring what each attribute held."""
        while self._installed:
            owner, attr, previous = self._installed.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- analysis ------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total duration and total self time."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _step in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for (name, start, end, _parent, _step), child_s in zip(self.spans, covered):
            row = out[name]
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_s
        return dict(out)

    def write_chrome_trace(self, path, process_name: str) -> None:  # noqa: ANN001
        """Chrome / Perfetto ``traceEvents`` JSON (complete events, us)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events: List[Dict[str, Any]] = [
            {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
             "args": {"name": process_name}}
        ]
        for index, (name, start, end, parent, step) in enumerate(self.spans):
            events.append({
                "ph": "X", "pid": 0, "tid": 0, "name": name,
                "cat": name.split(".")[0],
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": index, "parent": parent, "step": step},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
