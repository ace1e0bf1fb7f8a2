"""Outside-in tracer: spans and counts recorded around program functions.

The program is not edited.  Each traced function is replaced, for the
length of a traced run, at the name where its callers look it up (a
module global, a class attribute), by a wrapper that records a span or
bumps a counter.  ``Tracer.uninstall`` puts every original back.  A
name that no longer exists is recorded as missing, and the metrics that
depend on it are reported as unmeasured instead of failing the run.

A span holds a name, start, end, parent span and solve id.  Spans are
kept in flat in-memory arrays while the run lasts and summarized when
it ends.  A span's self time is its duration minus the part of it that
its child spans cover; children that ran in parallel threads count
once (the union of their intervals).
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Target", "Tracer", "resolve", "self_times", "union_length"]


@dataclass(frozen=True)
class Target:
    """One program attribute to wrap.

    ``path`` is ``"module:attr"`` or ``"module:Class.attr"``.  ``mode``
    is ``"span"`` (timed span plus call count) or ``"count"`` (call
    count only, for functions called millions of times).  ``keys``
    records each call's arguments, to detect cache keys shared between
    solves.  ``around(tracer, fn, args, kwargs)`` replaces the plain
    call inside the span, to observe arguments or fan out; ``after``
    (tracer, fn, args, kwargs, result) runs once the span has closed.
    A hook that finds the program changed under it marks
    ``<name>.after`` broken instead of failing the solve.
    """

    path: str
    name: str
    mode: str = "span"
    keys: bool = False
    around: Callable | None = None
    after: Callable | None = None


def resolve(path: str) -> tuple[Any, str]:
    """(owner, attribute) for a target path; raises LookupError if gone."""
    mod_name, _, attr_path = path.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError as exc:
        raise LookupError(path) from exc
    *owners, attr = attr_path.split(".")
    for part in owners:
        if not hasattr(owner, part):
            raise LookupError(path)
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise LookupError(path)
    return owner, attr


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        out[p] -= union_length(((starts[k], ends[k]) for k in kids),
                               starts[p], ends[p])
    return out


class Tracer:
    """Span and counter store plus the patching of program attributes.

    Wrapped functions may run in worker threads: each thread keeps its
    own stack of open spans, and one lock guards the stores.
    """

    def __init__(self):
        self.solve_id = -1
        self.missing: set[str] = set()
        self.broken: set[str] = set()
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._nid = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._solve = array("i")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._distinct: dict[int, dict[str, set]] = defaultdict(lambda: defaultdict(set))
        self._keys: dict[int, dict[str, set]] = defaultdict(lambda: defaultdict(set))
        self._patched: list[tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------ spans

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else -1

    def _open(self, name: str, parent: int) -> int:
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self._names)
                self._names.append(name)
            idx = len(self._start)
            self._nid.append(nid)
            self._parent.append(parent)
            self._solve.append(self.solve_id)
            self._end.append(0.0)
            self._start.append(time.perf_counter())
        return idx

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Span around a block; parent defaults to this thread's open span."""
        stack = self._stack()
        idx = self._open(name, self.current() if parent is None else parent)
        stack.append(idx)
        try:
            yield idx
        finally:
            self._end[idx] = time.perf_counter()
            stack.pop()

    def spans(self):
        """(names, starts, ends, parents, solves) as parallel lists."""
        names = [self._names[i] for i in self._nid]
        return (names, list(self._start), list(self._end),
                list(self._parent), list(self._solve))

    # --------------------------------------------------------- counters

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self._counts[self.solve_id][name] += value

    def distinct(self, name: str, value) -> None:
        with self._lock:
            self._distinct[self.solve_id][name].add(value)

    def counts(self, solve: int) -> dict[str, float]:
        out = dict(self._counts.get(solve, {}))
        for name, values in self._distinct.get(solve, {}).items():
            out[name] = float(len(values))
        return out

    def keys(self, solve: int) -> dict[str, set]:
        return self._keys.get(solve, {})

    # --------------------------------------------------------- patching

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer, name = self, target.name
        around, after = target.around, target.after
        keyed, calls = target.keys, name + ".calls"

        def call(args, kwargs):
            if keyed:
                with tracer._lock:
                    tracer._keys[tracer.solve_id][name].add(
                        args + tuple(sorted(kwargs.items())))
            if around is None:
                return fn(*args, **kwargs)
            return around(tracer, fn, args, kwargs)

        def finish(args, kwargs, result):
            if after is not None:
                try:
                    after(tracer, fn, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    tracer.broken.add(name + ".after")

        if target.mode == "count":
            def counted(*args, **kwargs):
                tracer.add(calls)
                result = call(args, kwargs)
                finish(args, kwargs, result)
                return result
            return counted

        def spanned(*args, **kwargs):
            stack = tracer._stack()
            idx = tracer._open(name, stack[-1] if stack else -1)
            stack.append(idx)
            try:
                result = call(args, kwargs)
            finally:
                tracer._end[idx] = time.perf_counter()
                stack.pop()
            finish(args, kwargs, result)
            return result
        return spanned

    def install(self, targets) -> None:
        """Wrap every target that resolves; record the ones that do not."""
        for target in targets:
            try:
                owner, attr = resolve(target.path)
            except LookupError:
                self.missing.add(target.name)
                continue
            raw = inspect.getattr_static(owner, attr)
            own = attr in vars(owner)
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, target))
            else:
                new = self._wrap(raw, target)
            setattr(owner, attr, new)
            self._patched.append((owner, attr, raw, own))

    def uninstall(self) -> None:
        """Put back every attribute ``install`` replaced, last first."""
        while self._patched:
            owner, attr, raw, own = self._patched.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
