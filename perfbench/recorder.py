"""In-memory span recorder that wraps the package's public callables.

A span is one call into a wrapped callable: its name (``<module>.<what>``),
the thread it ran on, start and end on the ``perf_counter`` clock, and the
span that caused it. Spans nest per thread. A span opened on a thread with
no open span takes the open fan-out span (``harness.run_seeds``) as its
parent, so the seed runs that the harness hands to its thread pool hang
under the call that started them.

A call into a callable whose span is already the innermost open span on the
thread (``Product.project`` calling ``Simplex.project``, the
``variance_reduced_estimate`` alias calling ``MatrixGameOracle.vr_estimate``)
opens no second span, so ``calls`` counts calls made from outside.

Nothing is written while spans are recorded; callers read ``spans`` after
``restore()``.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict, namedtuple

Span = namedtuple("Span", "sid parent name thread t0 t1 cpu note")

_MISSING = object()


class Recorder:
    """Patch callables at their lookup sites, record spans, restore them."""

    def __init__(self, fanout=(), cpu_names=()):
        self.spans = []
        self._fanout = frozenset(fanout)
        self._cpu_names = frozenset(cpu_names)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_fanout = None
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(self, name, fn, note=None):
        """``fn`` wrapped so that each outermost call records one span.

        ``note(args, kwargs, result)`` may return a value kept on the span.
        """
        fanout = name in self._fanout
        with_cpu = name in self._cpu_names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = next(self._ids)
            parent = stack[-1][0] if stack else self._open_fanout
            stack.append((sid, name))
            if fanout:
                outer_fanout, self._open_fanout = self._open_fanout, sid
            cpu0 = time.thread_time() if with_cpu else 0.0
            result = _MISSING
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                cpu = time.thread_time() - cpu0 if with_cpu else None
                stack.pop()
                if fanout:
                    self._open_fanout = outer_fanout
                kept = None
                if note is not None and result is not _MISSING:
                    kept = note(args, kwargs, result)
                self.spans.append(Span(sid, parent, name, threading.get_ident(),
                                       t0, t1, cpu, kept))

        return wrapper

    def patch(self, owner, attr, name, note=None):
        """Replace ``owner.attr`` (a module function, or a method or classmethod
        defined on the class ``owner`` itself) with a traced version.

        Returns False, patching nothing, when ``owner`` does not define ``attr``.
        """
        original = vars(owner).get(attr, _MISSING)
        if original is _MISSING:
            return False
        if isinstance(original, classmethod):
            replacement = classmethod(self.traced(name, original.__func__, note))
        else:
            replacement = self.traced(name, original, note)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)
        return True

    def restore(self):
        """Put every patched callable back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Per-span self time: duration minus the part of the span's interval
    that its child spans (on any thread) cover.

    Returns ``(self_by_sid, overlap)``, where ``overlap`` is the time counted
    twice because children of one span ran at the same time on different
    threads. For a complete tree, the self times sum to the root's duration
    plus ``overlap``.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    own, overlap = {}, 0.0
    for s in spans:
        kids = children.get(s.sid, ())
        cover = _covered(kids, s.t0, s.t1)
        own[s.sid] = (s.t1 - s.t0) - cover
        overlap += sum(max(0.0, min(b, s.t1) - max(a, s.t0)) for a, b in kids) - cover
    return own, overlap

