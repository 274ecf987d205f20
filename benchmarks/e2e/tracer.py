"""Spans and counters recorded from outside the program under test.

The benchmark owns its tracing: a :class:`Hook` names a public callable
of one layer, :meth:`Tracer.install` swaps a timing wrapper in for it and
:meth:`Tracer.remove` puts the original object back.  Nothing under
``src/`` knows it is being traced.

Only synchronous callables get spans.  In one thread synchronous calls
nest strictly, so a plain stack gives every span its parent, self times
(span minus children) never overlap, and they sum to the root span.  A
coroutine's duration is mostly time other tasks were running, so
coroutines are never wrapped.
"""

from __future__ import annotations

import contextvars
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple

# The round / job / cell the current task is working for.  A context
# variable, because serve_mix interleaves two client tasks with the
# server's own tasks on one thread.
UNIT: contextvars.ContextVar[str] = contextvars.ContextVar("e2e_unit", default="")

Counter = Callable[[dict, tuple, Any], None]


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point: ``module``.``path`` recorded as ``layer:op``.

    ``owner`` overrides where ``path`` is looked up (the class of the
    resolved kernel backend is only known at run time).  ``count`` runs
    after the call with ``(counters, args, result)``.
    """

    layer: str
    op: str
    module: str
    path: str
    count: Counter | None = None
    owner: Callable[[], object] | None = None

    @property
    def name(self) -> str:
        return f"{self.layer}:{self.op}"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    unit: str

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.partition(":")[0]


class Tracer:
    """In-memory span list, counters, and the hook installer."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = defaultdict(float)
        self.notes: list[str] = []
        self._records: list[list] = []  # [name, start, end, parent, unit]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self._records)
        parent = self._stack[-1] if self._stack else -1
        self._records.append([name, 0.0, 0.0, parent, UNIT.get()])
        self._stack.append(index)
        self._records[index][1] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self._records[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was innermost")

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    @property
    def spans(self) -> list[Span]:
        return [Span(*record) for record in self._records]

    # -- hooks ----------------------------------------------------------------

    def install(self, hooks: list[Hook]) -> None:
        """Wrap every hook whose target exists; note and skip the rest."""
        if self._patched:
            raise RuntimeError("hooks are already installed")
        for hook in hooks:
            try:
                owner, attr, original = resolve(hook)
            except (ImportError, AttributeError, TypeError) as exc:
                self.notes.append(f"hook {hook.name} skipped: {exc}")
                continue
            setattr(owner, attr, self._wrap(hook, original))
            self._patched.append((owner, attr, original))

    def remove(self) -> None:
        """Put back exactly the objects :meth:`install` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, hook: Hook, original: Callable[..., Any]) -> Callable[..., Any]:
        name, count, counters = hook.name, hook.count, self.counters

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                count(counters, args, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper


def resolve(hook: Hook) -> tuple[object, str, Callable[..., Any]]:
    """The object holding the hooked attribute, its name, and its value."""
    owner: object = importlib.import_module(hook.module)
    if hook.owner is not None:
        owner = hook.owner()
    *parents, attr = hook.path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if inspect.isclass(owner):
        # Patch the class that defines the method, so removal restores
        # an attribute that was really there.
        for klass in owner.__mro__:
            if attr in vars(klass):
                owner = klass
                break
    original = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
    if not inspect.isfunction(original):
        raise TypeError(f"{hook.module}.{hook.path} is not a plain function")
    if inspect.iscoroutinefunction(original):
        raise TypeError(f"{hook.module}.{hook.path} is a coroutine; only sync calls get spans")
    return owner, attr, original


# -- analysis -------------------------------------------------------------------


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0  # inclusive; nested spans of the same group count once
    self_s: float = 0.0


@dataclass
class Summary:
    """Self/total times of the spans under one root span."""

    wall_s: float
    root_self_s: float
    by_name: dict[str, Stat]
    by_layer: dict[str, Stat]
    spans: list[Span]
    self_s: list[float]

    def name(self, name: str) -> Stat:
        return self.by_name.get(name, Stat())

    def layer(self, layer: str) -> Stat:
        return self.by_layer.get(layer, Stat())

    def ancestors(self, index: int) -> Iterator[Span]:
        parent = self.spans[index].parent
        while parent >= 0:
            yield self.spans[parent]
            parent = self.spans[parent].parent


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.seconds
    return [span.seconds - inside for span, inside in zip(spans, covered)]


def summarize(spans: list[Span], root: int) -> Summary:
    """Aggregate the subtree of ``spans[root]`` by span name and by layer.

    Spans are appended when opened and a root closes after everything
    beneath it, so the subtree is the slice up to the next root.
    """
    stop = root + 1
    while stop < len(spans) and spans[stop].parent >= 0:
        stop += 1
    tree = [
        span._replace(parent=span.parent - root if span.parent >= 0 else -1)
        for span in spans[root:stop]
    ]
    own = self_times(tree)
    by_name: dict[str, Stat] = defaultdict(Stat)
    by_layer: dict[str, Stat] = defaultdict(Stat)
    summary = Summary(tree[0].seconds, own[0], by_name, by_layer, tree, own)
    for index, span in enumerate(tree[1:], start=1):
        for key, table in ((span.name, by_name), (span.layer, by_layer)):
            stat = table[key]
            stat.calls += 1
            stat.self_s += own[index]
        by_name[span.name].total_s += span.seconds
        if all(up.layer != span.layer for up in summary.ancestors(index)):
            by_layer[span.layer].total_s += span.seconds
    return summary
