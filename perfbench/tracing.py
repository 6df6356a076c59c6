"""Layer spans recorded from the benchmark's own code.

The traced run replaces a handful of the program's public entry points
with thin wrappers that record a span (name, start, end, parent) and,
where the call's arguments or result carry one, a work count.  Nothing
under ``src/`` is instrumented: the wrappers are installed by
:func:`install` at run time and removed again on exit.

A layer's self time is its span's duration minus the part covered by
its child spans, so nested calls (a level pass inside a session query)
are charged to the innermost layer.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    sid: int
    parent: int | None
    name: str
    phase: str
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """In-memory span recorder; one span stack per thread."""

    spans: list[Span] = field(default_factory=list)
    #: ``(time, phase, name, amount)`` work counts.
    events: list[tuple] = field(default_factory=list)
    phase: str = "setup"

    def __post_init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, start: float, parent: int | None) -> Span:
        with self._lock:
            self._next += 1
            span = Span(self._next, parent, name, self.phase, start)
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, start: float | None = None):
        """Record ``name`` around the body; ``start`` backdates it."""
        stack = self._stack()
        parent = stack[-1].sid if stack else None
        span = self._new(name, time.monotonic() if start is None else start,
                         parent)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.monotonic()
            stack.pop()

    def add(self, name: str, amount: float = 1,
            phase: str | None = None) -> None:
        event = (time.monotonic(), phase or self.phase, name, amount)
        with self._lock:
            self.events.append(event)

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a ``name`` span; ``count(args, result)`` tallies."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return traced

    def to_dict(self) -> dict:
        """Every span ``[id, parent, name, phase, start, end]`` and count."""
        return {"spans": [[s.sid, s.parent, s.name, s.phase, s.start, s.end]
                          for s in self.spans],
                "events": [list(e) for e in self.events]}


def self_times(spans: list[Span]) -> dict[tuple[str, str], float]:
    """Self seconds per ``(phase, name)``."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + (s.end - s.start)
    out: dict[tuple[str, str], float] = {}
    for s in spans:
        key = (s.phase, s.name)
        out[key] = out.get(key, 0.0) + (s.end - s.start) - child.get(s.sid,
                                                                    0.0)
    return out


def durations(spans: list[Span]) -> dict[tuple[str, str], float]:
    """Wall seconds per ``(phase, name)``, child spans included."""
    out: dict[tuple[str, str], float] = {}
    for s in spans:
        key = (s.phase, s.name)
        out[key] = out.get(key, 0.0) + (s.end - s.start)
    return out


def calls(spans: list[Span]) -> dict[tuple[str, str], int]:
    out: dict[tuple[str, str], int] = {}
    for s in spans:
        out[(s.phase, s.name)] = out.get((s.phase, s.name), 0) + 1
    return out


def totals(events: list[tuple]) -> dict[tuple[str, str], float]:
    """Summed work counts per ``(phase, name)``."""
    out: dict[tuple[str, str], float] = {}
    for _t, phase, name, amount in events:
        out[(phase, name)] = out.get((phase, name), 0) + amount
    return out


def from_dict(doc: dict, phase_of) -> tuple[list[Span], list[tuple]]:
    """Spans and counts written by another process, re-phased by time.

    ``phase_of(t)`` maps a ``time.monotonic()`` instant (one clock for
    every process on the machine) to this run's phase.  Foreign span ids
    are negated so they never collide with this process's positive ones.
    """
    spans = [Span(-sid, None if parent is None else -parent, name,
                  phase_of(start), start, end)
             for sid, parent, name, _phase, start, end in doc["spans"]]
    events = [(t, phase_of(t), name, amount)
              for t, _phase, name, amount in doc["events"]]
    return spans, events


# ----------------------------------------------------------------------
# The layer entry points
# ----------------------------------------------------------------------
def _count_select(tracer, args, kwargs, result):
    candidates = args[1] if len(args) > 1 else kwargs["candidates"]
    tracer.add("cppr.candidates", len(candidates))
    tracer.add("cppr.selected", len(result))


def _replace_everywhere(stack: ExitStack, original, replacement) -> None:
    """Rebind every ``repro.*`` module attribute that is ``original``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                stack.callback(setattr, module, attr, original)


def _patch_method(stack: ExitStack, cls, attr: str, replacement) -> None:
    original = cls.__dict__[attr]
    setattr(cls, attr, replacement)
    stack.callback(setattr, cls, attr, original)


@contextmanager
def install(tracer: Tracer):
    """Wrap each layer's public entry points for the ``with`` body.

    Layers are named after the modules: ``io`` (``load_design``),
    ``sta`` (``TimingAnalyzer`` and its ``arrivals``), ``core``
    (``get_core``, ``propagate_dual_batched_corners``), ``cppr`` (the
    family passes and ``select_top_paths``) and ``pipeline``
    (``CpprSession.update`` / ``.top_paths``).  The engine and the
    session look these functions up through module attributes at call
    time, so serial runs see every call.
    """
    import repro.core.arrays as arrays
    import repro.core.batched as batched
    import repro.cppr.level_paths as level_paths
    import repro.cppr.pi_paths as pi_paths
    import repro.cppr.select as select
    import repro.cppr.selfloop_paths as selfloop_paths
    import repro.io.frontend as frontend
    import repro.pipeline.session as session
    from repro.sta.timing import TimingAnalyzer

    with ExitStack() as stack:
        for original, name, count in (
                (frontend.load_design, "io.load", None),
                (arrays.get_core, "core.get_core", None),
                (batched.propagate_dual_batched_corners, "core.propagate",
                 None),
                (level_paths.paths_at_level, "cppr.level", None),
                (selfloop_paths.self_loop_paths, "cppr.selfloop", None),
                (pi_paths.primary_input_paths, "cppr.pi", None),
                (select.select_top_paths, "cppr.select", _count_select)):
            _replace_everywhere(stack, original,
                                tracer.wrap(name, original, count))

        init = TimingAnalyzer.__dict__["__init__"]
        _patch_method(stack, TimingAnalyzer, "__init__",
                      tracer.wrap("sta.build", init))
        arrivals = TimingAnalyzer.__dict__["arrivals"]
        traced = functools.cached_property(
            tracer.wrap("sta.build", arrivals.func))
        traced.__set_name__(TimingAnalyzer, "arrivals")
        _patch_method(stack, TimingAnalyzer, "arrivals", traced)

        for attr, name in (("update", "pipeline.update"),
                           ("top_paths", "pipeline.query")):
            _patch_method(stack, session.CpprSession, attr,
                          tracer.wrap(name,
                                      session.CpprSession.__dict__[attr]))
        yield tracer
