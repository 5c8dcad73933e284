"""Outside-in tracing for the benchmark: timing shims around each layer.

Nothing here touches the program's source.  :class:`Shims` replaces public
functions and methods of the ``repro`` layers with wrappers that record a
span per call, and puts every original object back on removal.  Spans stay
in memory (one tuple each) and are written out once, after the run.

A span is ``(id, name, start, end, parent, request)``.  The parent and the
request id travel in context variables, so they follow a request across
threads when the benchmark (or a shim) carries the context along.

:func:`self_times` turns the span list into self time per span: the span's
duration minus the part of its interval its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import threading
import time

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)

#: span names the benchmark records itself (request roots); everything else
#: is a layer span named ``<layer>.<what>``
BENCH_PREFIX = "bench."

_INHERIT = object()


class Recorder:
    """Spans and wire counters of one traced phase, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._roots: dict[str, int] = {}
        self.counters: dict[str, float] = {}

    # -- spans -----------------------------------------------------------------

    def open(self, name: str, parent=_INHERIT, request=_INHERIT) -> tuple:
        """Start a span; parent and request default to the caller's context."""
        span_id = next(self._ids)
        if parent is _INHERIT:
            parent = _CURRENT.get()
        if request is _INHERIT:
            request = _REQUEST.get()
        token = _CURRENT.set(span_id)
        request_token = _REQUEST.set(request)
        return (span_id, name, time.perf_counter(), parent, request, token, request_token)

    def close(self, handle: tuple) -> None:
        end = time.perf_counter()
        span_id, name, start, parent, request, token, request_token = handle
        _REQUEST.reset(request_token)
        _CURRENT.reset(token)
        self.spans.append((span_id, name, start, end, parent, request))

    def request(self, name: str, request: str) -> "_RequestSpan":
        """A root span for one benchmark request (``with`` statement)."""
        return _RequestSpan(self, name, request)

    def root_of(self, request: str | None) -> int | None:
        """The root span id recorded for ``request`` (``None`` if unknown)."""
        if request is None:
            return None
        with self._lock:
            return self._roots.get(request)

    def _register_root(self, request: str, span_id: int) -> None:
        with self._lock:
            self._roots[request] = span_id

    # -- counters --------------------------------------------------------------

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        with self._lock:
            return self.counters.get(name, 0.0)

    def dump(self, path) -> None:
        """Write every span (and the counters) out as one JSON document."""
        keys = ("id", "name", "start", "end", "parent", "request")
        payload = {
            "spans": [dict(zip(keys, span)) for span in self.spans],
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class _RequestSpan:
    def __init__(self, recorder: Recorder, name: str, request: str) -> None:
        self._recorder = recorder
        self._name = name
        self._request = request
        self._handle = None

    def __enter__(self) -> "_RequestSpan":
        # a root has no parent even when opened inside another span
        self._handle = self._recorder.open(self._name, parent=None, request=self._request)
        self._recorder._register_root(self._request, self._handle[0])
        return self

    def __exit__(self, *exc_info) -> None:
        self._recorder.close(self._handle)


# -- self time -------------------------------------------------------------------


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Self seconds per span id: duration minus the union its children cover.

    Child intervals are clipped to the parent's interval, so a child that
    outlives its parent (a leaked thread, say) cannot drive self time below
    zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    bounds = {span[0]: (span[2], span[3]) for span in spans}
    for span_id, _, start, end, parent, _ in spans:
        if parent in bounds:
            low, high = bounds[parent]
            children.setdefault(parent, []).append((max(start, low), min(end, high)))
    result = {}
    for span_id, _, start, end, _, _ in spans:
        inner = [(lo, hi) for lo, hi in children.get(span_id, ()) if hi > lo]
        result[span_id] = (end - start) - covered(inner)
    return result


def trees(spans, root_prefix: str = BENCH_PREFIX) -> list[tuple]:
    """Spans reachable from the benchmark's request roots (roots included)."""
    by_parent: dict[int, list[tuple]] = {}
    for span in spans:
        by_parent.setdefault(span[4], []).append(span)
    stack = [span for span in spans if span[4] is None and span[1].startswith(root_prefix)]
    reached = []
    while stack:
        span = stack.pop()
        reached.append(span)
        stack.extend(by_parent.get(span[0], ()))
    return reached


# -- shims -----------------------------------------------------------------------


def _module_holders(original) -> list[tuple[object, str]]:
    """Every ``repro`` module attribute bound to ``original`` (import aliases)."""
    holders = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                holders.append((module, attr))
    return holders


class Shims:
    """Timing wrappers on layer functions; :meth:`remove` restores originals.

    :meth:`wrap` takes an owner — a class (the method is wrapped on the
    class) or a module (the function is rebound there and in every other
    ``repro`` module that imported it by name) — and the attribute to wrap.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, owner, attribute: str, kind=None) -> None:
        """Wrap ``owner.attribute`` in a span named ``name``.

        ``kind``, when given, is a factory ``(recorder, function) -> wrapper``
        used instead of the plain span wrapper.
        """
        original = inspect.getattr_static(owner, attribute)
        if kind is None:
            wrapper = _span_wrapper(self.recorder, name, original)
        else:
            wrapper = kind(self.recorder, original)
        holders = [(owner, attribute)]
        if inspect.ismodule(owner):
            holders += [h for h in _module_holders(original) if h != (owner, attribute)]
        for holder, attr in holders:
            self._saved.append((holder, attr, inspect.getattr_static(holder, attr)))
            setattr(holder, attr, wrapper)

    def wrap_async(self, name: str, owner, attribute: str, request_of) -> None:
        """Wrap a coroutine method; ``request_of(args)`` names its request."""
        original = inspect.getattr_static(owner, attribute)
        recorder = self.recorder

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            request = request_of(args)
            handle = recorder.open(name, parent=recorder.root_of(request), request=request)
            try:
                return await original(*args, **kwargs)
            finally:
                recorder.close(handle)

        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def remove(self) -> None:
        """Put every original object back, newest wrap first."""
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def originals(self) -> list[tuple[object, str, object]]:
        """``(holder, attribute, original)`` for every wrap in place."""
        return list(self._saved)


def _span_wrapper(recorder: Recorder, name: str, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        handle = recorder.open(name)
        try:
            return function(*args, **kwargs)
        finally:
            recorder.close(handle)

    return wrapper


def in_context_wrapper(span_name: str):
    """A wrapper factory for executor hand-offs (``obj.method(self, fn)``).

    The callable handed to the pool runs inside a copy of the caller's
    context, under a span named ``span_name``, so work on a pool thread
    links to the request that submitted it.
    """

    def factory(recorder: Recorder, function):
        @functools.wraps(function)
        def wrapper(self, fn, *args, **kwargs):
            context = contextvars.copy_context()
            traced = _span_wrapper(recorder, span_name, fn)
            return function(self, lambda: context.run(traced), *args, **kwargs)

        return wrapper

    return factory


def counting_wrapper(count):
    """A wrapper factory that calls ``count(recorder, args, kwargs, result)``."""

    def factory(recorder: Recorder, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            count(recorder, args, kwargs, result)
            return result

        return wrapper

    return factory
