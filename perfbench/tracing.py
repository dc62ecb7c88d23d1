"""Wall-clock spans around calls into the ``repro`` layers.

The program itself keeps wall clocks out of ``src/repro`` (its determinism
rule), so the benchmark does the timing from the outside: :class:`Tracer`
temporarily replaces selected public functions and methods with wrappers
that record a span per call — name, start, end, parent span and the op the
call ran under.  Functions imported *by name* into other modules (for
example ``render_service`` importing ``rasterize_mesh``) are replaced at
every import site, found by identity among the loaded ``repro`` modules.

Spans stay in memory until :meth:`Tracer.summary` folds them into totals:
per span name the call count, the summed duration and the summed *self*
time (duration minus the time covered by child spans), plus any counters
an ``observe`` hook derived from the call's arguments or result.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: span name of the harness's own op and phase spans; their self time is
#: the wall time no layer span covers
HARNESS_SPANS = ("harness.phase", "harness.op")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int | None
    #: True inside another span of the same name (excluded from totals,
    #: so a recursive or self-delegating call is not counted twice)
    nested: bool = False
    end: float = 0.0
    child_s: float = 0.0


@dataclass
class Target:
    """One function or method to wrap.

    ``where`` is ``"module:attr"`` or ``"module:Class.method"``.
    ``observe(args, kwargs, result) -> dict`` optionally turns a call
    into counter increments recorded under the span name.
    """

    where: str
    span: str
    observe: object = None


@dataclass
class Summary:
    calls: dict = field(default_factory=lambda: defaultdict(int))
    total_s: dict = field(default_factory=lambda: defaultdict(float))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    counters: dict = field(default_factory=lambda: defaultdict(float))


class Tracer:
    """Records nested spans; installs and removes the layer wrappers."""

    def __init__(self, targets: list[Target]) -> None:
        self.targets = targets
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        nested = self._depth[name] > 0
        self._depth[name] += 1
        self.spans.append(Span(name, time.perf_counter(), parent, self.op,
                               nested))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        self._depth[span.name] -= 1
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start

    def _wrap(self, fn, target: Target):
        tracer = self
        observe = target.observe
        name = target.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    tracer.counters[key] += value
            return result

        return traced

    # -- installation ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at its definition and at each import site."""
        for target in self.targets:
            module_name, attr = target.where.split(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._set(owner, meth, self._wrap(original, target))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, target)
            for mod_name, mod in list(sys.modules.items()):
                if not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)
                           if not isinstance(owner, type)
                           else owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- folding --------------------------------------------------------------------

    def summary(self) -> Summary:
        out = Summary()
        for span in self.spans:
            duration = span.end - span.start
            out.self_s[span.name] += duration - span.child_s
            if span.nested:
                continue
            out.calls[span.name] += 1
            out.total_s[span.name] += duration
        for key, value in self.counters.items():
            out.counters[key] += value
        return out

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()
        self._depth.clear()
        self.op = None
