"""In-memory span tracer that instruments a program from outside.

A span records a call's name, start, end and the span that was open
when it began (its parent).  Spans are recorded by rebinding attributes
of the program's modules and classes to timing wrappers; ``uninstall``
puts every original back, so an untraced run executes the program's own
functions with no wrapper in the call path.
"""

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
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


def self_times(spans):
    """Map span id -> duration minus the time its children cover."""
    kids = {}
    for s in spans:
        kids.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(kids.get(s.id, ()), s.start, s.end)
            for s in spans}


class ModuleProxy:
    """Stands in for a module, overriding some of its attributes."""

    def __init__(self, module, overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans for wrapped callables; single-threaded."""

    ROOT = 0

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = [self.ROOT]
        self._patches = []

    def open(self, name):
        span = Span(len(self.spans) + 1, name, self.clock(), 0.0, self._stack[-1])
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span):
        span.end = self.clock()
        self._stack.pop()

    def wrap(self, fn, name, describe=None):
        """Return a wrapper of fn that records one span per call.

        describe(args, kwargs, result) may return a dict stored on the
        span; it runs after the span has closed, so its cost is not
        charged to fn.
        """
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if describe is not None:
                span.info = describe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, value):
        """Rebind owner.attr to value until uninstall()."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, owners, original, name, describe=None):
        """Wrap original wherever one of owners binds it, under any name."""
        wrapper = self.wrap(original, name, describe)
        hits = 0
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self.patch(owner, attr, wrapper)
                    hits += 1
        if not hits:
            raise LookupError(f"{name}: no owner binds {original!r}")
        return wrapper

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self):
        return bool(self._patches)
