"""Span tracing from outside the program, by swapping module attributes.

liquidsim calls across modules through module attributes
(``erasure.decode``, ``gf256.matmul``, ``adv.generate_helpers``) and
through class attributes (``ClusterState.store_fragment``), so replacing
those attributes with timing wrappers traces every call without a source
edit.  ``Tracer.restore`` puts back the exact objects it replaced.

A span is ``[name, start, end, parent, trial]``: parent is the index of the
enclosing span (-1 for none) and trial counts ``run_trial`` entries.  Spans
stay in memory until the caller writes them out.
"""

from __future__ import annotations

import inspect
import math
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: dict = {}
        self.trial = -1
        self.per_trial: dict = {}   # hook state, reset when a trial starts
        self._stack: list = []
        self._saved: list = []   # (owner, attr, original raw attribute)

    def count(self, key: str, n=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace owner.attr by a wrapper that records a span per call.

        before(tracer, args, kwargs) runs ahead of the call and
        after(tracer, args, kwargs, result) after it returns; both run
        inside the enclosing span, outside the call's own.
        """
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind else raw
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trial]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", attr)
        traced.__wrapped__ = fn
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, kind(traced) if kind else traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        self._stack.clear()


def public_callables(module):
    """(owner, attr, name) for every public function of module and every
    public method of the classes it defines, names prefixed by the
    module's last dotted component."""
    short = module.__name__.rsplit(".", 1)[-1]
    found = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((module, attr, f"{short}.{attr}"))
        elif inspect.isclass(obj):
            for mname, raw in vars(obj).items():
                if mname.startswith("_"):
                    continue
                fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if inspect.isfunction(fn):
                    found.append((obj, mname, f"{short}.{attr}.{mname}"))
    return found


def self_times(spans) -> list:
    """Per span, its duration minus the part of it its child spans cover."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        lo = start
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][1]):
            c0, c1 = max(spans[c][1], lo), min(spans[c][2], end)
            if c1 > c0:
                covered += c1 - c0
                lo = c1
        out.append((end - start) - covered)
    return out


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]
