"""Span tracing from outside the program.

`Tracer.patch_function` and `Tracer.patch_method` wrap rbainv's public
functions and methods so that each call records a span (name, start, end,
parent, thread, attributes) in memory; `Tracer.remove` puts every original
back.  Functions are patched
in every rbainv module that binds them, because a module that did
``from .shifted import solve_all_poles`` looks the name up in its own
namespace, not in ``rbainv.shifted``.

Pole workers run in threads that `PoleWorkerPool.map_poles` starts; the
map_poles wrapper hands its span id to the worker threads, so their spans
name it as parent.  Self time is a span's duration minus the union of its
children's intervals, since children on different threads overlap.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter

_WRAPPED = "__perfbench_wrapped__"


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        """Record the enclosed code as a span; yields (span id, attributes)."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        attrs = {}
        stack.append(sid)
        start = perf_counter()
        try:
            yield sid, attrs
        except BaseException:
            attrs["error"] = True
            raise
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident(), attrs))

    def call(self, name, fn, args, kwargs, prepare=None, finish=None):
        """Run fn(*args, **kwargs) inside a span named ``name``.

        ``prepare(sid, args, kwargs) -> (args, kwargs, attrs)`` may replace
        the arguments; ``finish(result, attrs)`` records what the result says.
        """
        with self.span(name) as (sid, attrs):
            if prepare is not None:
                args, kwargs, extra = prepare(sid, args, kwargs)
                attrs.update(extra)
            result = fn(*args, **kwargs)
            if finish is not None:
                finish(result, attrs)
            return result

    def adopt(self, parent_sid, fn):
        """fn wrapped to run with ``parent_sid`` as its thread's parent span."""
        tracer = self

        def run(*args, **kwargs):
            saved = getattr(tracer._local, "stack", None)
            tracer._local.stack = [parent_sid]
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._local.stack = saved

        return run

    # -- patching --------------------------------------------------------

    def _wrapper(self, name, fn, prepare, finish):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, prepare, finish)

        setattr(wrapper, _WRAPPED, True)
        return wrapper

    def patch_function(self, fn, name, prepare=None, finish=None, modules=()):
        """Replace ``fn`` under every name any rbainv module (and each of
        ``modules``) binds it to."""
        wrapper = self._wrapper(name, fn, prepare, finish)
        found = False
        for mod in _rbainv_modules() + list(modules):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{name}: no module binds {fn!r}")

    def patch_method(self, cls, attr, name, prepare=None, finish=None):
        fn = cls.__dict__[attr]
        self._patches.append((cls, attr, fn))
        setattr(cls, attr, self._wrapper(name, fn, prepare, finish))

    def remove(self):
        """Restore every patched binding and check that no wrapper is left."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        for mod in _rbainv_modules():
            for owner in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
                for attr, value in vars(owner).items():
                    if getattr(value, _WRAPPED, False):
                        raise RuntimeError(f"wrapper left on {owner!r}.{attr}")

    # -- analysis --------------------------------------------------------

    def self_ms(self) -> dict[int, float]:
        """Self time per span id: duration minus the union of its children."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            lo = hi = None
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                a, b = max(c.start, s.start), min(c.end, s.end)
                if b <= a:
                    continue
                if hi is None or a > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = a, b
                else:
                    hi = max(hi, b)
            if hi is not None:
                covered += hi - lo
            out[s.sid] = (s.end - s.start - covered) * 1e3
        return out


def _rbainv_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "rbainv" or n.startswith("rbainv."))]
