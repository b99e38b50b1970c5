"""In-memory span recording for the benchmark's traced run.

A :class:`Recorder` times calls into the program's layers from outside:
:func:`install` swaps a function or method for a wrapper that opens a
span on entry and closes it on return.  Nothing is written while the run
is measured; :meth:`Recorder.dump` writes everything at exit.

Each thread keeps a stack of open spans.  A span's *self time* is its
duration minus the time its child spans cover; children of one thread
never overlap, so that is the sum of the children's durations.  To keep
memory flat under millions of inner calls, per-call records are kept only
for *root* spans (the outermost span on a thread, e.g. one HTTP request)
and for names listed in ``detail``; every other span is folded into its
root as ``name -> [calls, total_ns, self_ns]``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional

#: A post-call hook: ``(recorder, args, kwargs, result) -> attrs or None``.
Post = Callable[["Recorder", tuple, dict, object], Optional[dict]]


class Recorder:
    """Span stacks per thread, closed spans in memory."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns, detail=()):
        self.clock = clock
        self.detail = frozenset(detail)
        self.roots: List[dict] = []
        self.spans: List[dict] = []
        self._local = threading.local()

    def reset(self) -> None:
        """Forget every closed span (a forked child starts clean)."""
        self.roots = []
        self.spans = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        """Open a span; returns the frame to pass to :meth:`exit`."""
        stack = self._stack()
        # [name, start, child_ns, per-name totals and keys seen (roots only)]
        frame = [name, self.clock(), 0, None, None] if stack else [
            name, self.clock(), 0, {}, set()
        ]
        stack.append(frame)
        return frame

    def exit(self, frame: list, attrs: Optional[dict] = None, calls: int = 1) -> int:
        """Close the innermost span; returns its duration in ns.

        ``calls=0`` adds time to a span already counted (an iterator's
        later resumptions).
        """
        end = self.clock()
        stack = self._stack()
        stack.pop()
        name, start, child_ns, totals, _ = frame
        duration = end - start
        self_ns = duration - child_ns
        if stack:
            stack[-1][2] += duration
            totals = stack[0][3]
        entry = totals.get(name)
        if entry is None:
            totals[name] = [calls, duration, self_ns]
        else:
            entry[0] += calls
            entry[1] += duration
            entry[2] += self_ns
        if not stack:
            self.roots.append(
                {"name": name, "start": start, "end": end, "totals": totals,
                 "attrs": attrs or {}}
            )
        elif name in self.detail and calls:
            self.spans.append(
                {"name": name, "start": start, "end": end, "self": self_ns,
                 "attrs": attrs or {}}
            )
        return duration

    def count(self, name: str, amount: int = 1) -> None:
        """Add a count (no time) under the current root, e.g. a cache hit."""
        stack = self._stack()
        if not stack:
            return
        totals = stack[0][3]
        entry = totals.get(name)
        if entry is None:
            totals[name] = [amount, 0, 0]
        else:
            entry[0] += amount

    def count_first(self, name: str, key) -> None:
        """Count ``key`` under the current root only the first time it is seen."""
        stack = self._stack()
        if not stack:
            return
        seen = stack[0][4]
        if key not in seen:
            seen.add(key)
            self.count(name)

    def dump(self, path: str, role: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(
                {"pid": os.getpid(), "role": role, "roots": self.roots,
                 "spans": self.spans},
                fh,
            )
        os.replace(tmp, path)


class _SpanIter:
    """Iterator whose every ``next`` runs inside the producing span."""

    __slots__ = ("_rec", "_name", "_it")

    def __init__(self, rec: Recorder, name: str, it):
        self._rec, self._name, self._it = rec, name, it

    def __iter__(self):
        return self

    def __next__(self):
        if not self._rec._stack():
            # Consumed outside any span: nothing to attribute it to.
            return next(self._it)
        frame = self._rec.enter(self._name)
        try:
            return next(self._it)
        finally:
            self._rec.exit(frame, calls=0)


def wrap(rec: Recorder, name: str, fn, post: Optional[Post] = None, lazy=False):
    """``fn`` inside a span called ``name``.

    With ``lazy`` the result is an iterator whose consumption is also
    timed under ``name`` (generators do their work when iterated).
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = rec.enter(name)
        attrs = None
        try:
            result = fn(*args, **kwargs)
            if post is not None:
                attrs = post(rec, args, kwargs, result)
        finally:
            rec.exit(frame, attrs)
        return _SpanIter(rec, name, iter(result)) if lazy else result

    return traced


def install(rec: Recorder, targets: Iterable[tuple]) -> None:
    """Wrap each ``(module, "Class.attr" or "func", span, post, lazy)``.

    Class attributes are replaced on the class itself, so every instance,
    including those a forked worker creates, goes through the wrapper.
    Static methods stay static.
    """
    for module_name, path, name, post, lazy in targets:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(wrap(rec, name, raw.__func__, post, lazy)))
        else:
            setattr(owner, attr, wrap(rec, name, raw, post, lazy))


def load(paths: Iterable[str]) -> List[Dict]:
    """Every dump among ``paths`` that exists (a killed process writes none)."""
    dumps = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                dumps.append(json.load(fh))
        except FileNotFoundError:
            continue
    return dumps
