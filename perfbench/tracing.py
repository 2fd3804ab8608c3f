"""Runtime span tracing around the public functions of each layer.

Nothing in ``src/`` is edited: :meth:`Tracer.install` swaps each
target function for a timing wrapper in every loaded ``repro`` module
that binds it (so ``from x import f`` call sites are covered too), and
:meth:`Tracer.uninstall` puts the originals back.  Spans are kept in
memory and written out once, at exit (:meth:`Tracer.dump`).

A span records its name, start, end, parent span and request id.  The
parent is the innermost open span of the same thread, so a layer's
self time is its duration minus its children's durations.  Wrappers
called in a forked child process pass straight through.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    t0: float
    t1: float
    parent: int | None
    req: object
    thread: int
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Collects spans while ``enabled``; wrappers stay installed but
    pass through when it is off, so traced and untraced operations can
    alternate inside one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._local = threading.local()
        self._next = iter(range(1, 1 << 62)).__next__
        self._pid = os.getpid()
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str, req=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if req is None and parent is not None:
            req = parent.req
        span = Span(self._next(), name, layer, time.perf_counter(), 0.0,
                    parent.sid if parent else None, req,
                    threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def active(self) -> bool:
        return self.enabled and os.getpid() == self._pid

    @contextmanager
    def span(self, name: str, layer: str, req=None):
        """A span opened by the benchmark itself (``None`` when off)."""
        span = self._open(name, layer, req) if self.active() else None
        try:
            yield span
        finally:
            if span is not None:
                self._close(span)

    # -- installation --------------------------------------------------
    def wrap(self, fn, name: str, layer: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active():
                return fn(*args, **kwargs)
            span = tracer._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                hook(span, args, kwargs, out)
            return out

        return traced

    def install(self, targets) -> None:
        """Wrap every ``(owner, attr, name, layer, hook)`` target.

        ``owner`` is a module path (the function is replaced wherever a
        ``repro`` module binds that same object, as a global or as a
        value of a module-level registry dict) or a class (the method is
        replaced on the class).
        """
        for owner, attr, name, layer, hook in targets:
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                self._set(owner, attr, self.wrap(orig, name, layer, hook))
                continue
            orig = getattr(sys.modules[owner], attr)
            wrapped = self.wrap(orig, name, layer, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("repro"):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)
                    elif type(val) is dict:
                        for k, v in list(val.items()):
                            if v is orig:
                                self._restore.append((val, k, v))
                                val[k] = wrapped

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if type(owner) is dict:
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis ------------------------------------------------------
    def self_times(self, spans=None) -> dict[int, float]:
        """Span id -> duration minus the durations of its children."""
        spans = self.spans if spans is None else spans
        child = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child[s.parent] += s.dur
        return {s.sid: s.dur - child[s.sid] for s in spans}

    def under(self, root_ids) -> list[Span]:
        """Every span descending from (or equal to) one of ``root_ids``."""
        keep = set(root_ids)
        out = []
        for s in sorted(self.spans, key=lambda s: s.sid):
            if s.sid in keep or s.parent in keep:
                keep.add(s.sid)
                out.append(s)
        return out

    def layer_self(self, spans) -> dict[str, float]:
        """Layer -> summed self time (seconds) over ``spans``."""
        selfs = self.self_times(spans)
        out = defaultdict(float)
        for s in spans:
            out[s.layer] += selfs[s.sid]
        return dict(out)

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "layer": s.layer,
                    "start": s.t0, "end": s.t1, "parent": s.parent,
                    "req": s.req, "thread": s.thread, "info": s.info},
                    default=str) + "\n")
