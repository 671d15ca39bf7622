"""Tracing spans: nested, wall-clocked, and free when switched off.

A *span* is one timed region of engine work — a statement, an operator,
an evaluator build — with a name, a dict of attributes, and children.
Spans nest through a context-local active stack (:data:`contextvars`,
so concurrent sessions cannot interleave each other's trees) and are
used as context managers::

    with span("algebra.join", left=a.name, right=b.name) as sp:
        out = ...
        sp.annotate(tuples_out=len(out))

Tracing is **off by default** and gated by one module-level flag:
:func:`span` checks it before allocating anything and returns the
process-wide :data:`NOOP_SPAN` singleton, whose every method is a
no-op returning ``self``.  Instrumented hot paths therefore cost one
function call and one (immediately freed) keyword dict when tracing is
disabled — the property suite pins "no net allocation" and the
benchmark's ``trace.overhead_ratio`` records what enabling it costs.

Enable globally with :func:`enable`/:func:`disable`, or for one region
with :func:`force` (EXPLAIN ANALYZE uses this: tracing is switched on
for exactly one statement).  :func:`collect` combines :func:`force`
with a root span and is the usual entry point for tests and tools.

The rendered form (:func:`render_span_tree`) is what ``EXPLAIN
ANALYZE`` prints and what the slow-query log stores.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, List, Optional, Union

__all__ = [
    "NOOP_SPAN",
    "Span",
    "annotate",
    "collect",
    "current",
    "disable",
    "enable",
    "enabled",
    "force",
    "render_span_tree",
    "span",
]

#: The module-level enabled flag.  Read on every :func:`span` call
#: before any allocation; mutate only through :func:`enable` /
#: :func:`disable` / :func:`force`.
_enabled = False

#: The context-local stack of *open* spans (innermost last).  ``None``
#: until the first span opens in a context.
_stack: ContextVar[Optional[List["Span"]]] = ContextVar(
    "repro_obs_trace_stack", default=None
)


def enabled() -> bool:
    """True iff spans are currently being recorded."""
    return _enabled


def enable() -> None:
    """Switch tracing on process-wide."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Switch tracing off process-wide."""
    global _enabled
    _enabled = False


@contextmanager
def force(on: bool = True) -> Iterator[None]:
    """Temporarily set the enabled flag (restored on exit, always)."""
    global _enabled
    previous = _enabled
    _enabled = on
    try:
        yield
    finally:
        _enabled = previous


class Span:
    """One timed, attributed, nestable region of work.

    Entering pushes the span onto the context-local stack; exiting pops
    it, stamps ``elapsed_ms``, and attaches it to its parent's
    ``children`` (a parentless span is a root — the caller keeps the
    reference).  Exceptions unwind the stack like any ``with`` block,
    so an aborted transaction or a raising operator can never leak an
    open span.
    """

    __slots__ = ("name", "attrs", "children", "elapsed_ms", "_parent", "_started")

    def __init__(self, name: str, attrs: Optional[dict] = None) -> None:
        self.name = name
        self.attrs = attrs if attrs is not None else {}
        self.children: List["Span"] = []
        self.elapsed_ms: float = 0.0
        self._parent: Optional["Span"] = None
        self._started: float = 0.0

    # ------------------------------------------------------------------

    def annotate(self, **attrs) -> "Span":
        """Attach (or overwrite) attributes; chainable."""
        self.attrs.update(attrs)
        return self

    def add(self, counter: str, amount: Union[int, float] = 1) -> "Span":
        """Increment a numeric attribute (a per-span counter)."""
        self.attrs[counter] = self.attrs.get(counter, 0) + amount
        return self

    # ------------------------------------------------------------------

    def __enter__(self) -> "Span":
        stack = _stack.get()
        if stack is None:
            stack = []
            _stack.set(stack)
        if stack:
            self._parent = stack[-1]
        stack.append(self)
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed_ms = (time.perf_counter() - self._started) * 1e3
        stack = _stack.get()
        if stack and stack[-1] is self:
            stack.pop()
        elif stack and self in stack:  # defensive: unwind past us
            del stack[stack.index(self) :]
        if self._parent is not None:
            self._parent.children.append(self)
        return False

    # ------------------------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return "Span({!r}, {:.3f} ms, {} children)".format(
            self.name, self.elapsed_ms, len(self.children)
        )


class _NoopSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs) -> "_NoopSpan":
        return self

    def add(self, counter: str, amount: Union[int, float] = 1) -> "_NoopSpan":
        return self

    def __repr__(self) -> str:
        return "NOOP_SPAN"


NOOP_SPAN = _NoopSpan()

#: ``elapsed_ms``/``children``/``attrs`` on the noop read as empty so
#: callers can treat either span kind uniformly.
_NoopSpan.elapsed_ms = 0.0
_NoopSpan.children = ()
_NoopSpan.attrs = {}
_NoopSpan.name = ""


def span(name: str, **attrs) -> Union[Span, _NoopSpan]:
    """A new span (enabled) or :data:`NOOP_SPAN` (disabled).

    The flag is checked before anything is allocated; the disabled path
    is one global read and one return.
    """
    if not _enabled:
        return NOOP_SPAN
    return Span(name, attrs)


def current() -> Optional[Span]:
    """The innermost open span of this context, or ``None``."""
    if not _enabled:
        return None
    stack = _stack.get()
    return stack[-1] if stack else None


def annotate(**attrs) -> None:
    """Annotate the innermost open span; silently nothing when tracing
    is off or no span is open (so call sites need no guards)."""
    if not _enabled:
        return
    stack = _stack.get()
    if stack:
        stack[-1].attrs.update(attrs)


@contextmanager
def collect(name: str, **attrs) -> Iterator[Span]:
    """Force tracing on and open a root span — the one-call harness for
    EXPLAIN ANALYZE, the slow-query log, tests, and benchmarks."""
    with force(True):
        with span(name, **attrs) as root:
            yield root


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def _format_value(value: object) -> str:
    if value is True:
        return "yes"
    if value is False:
        return "no"
    if isinstance(value, float):
        return "{:.3f}".format(value)
    return str(value)


def render_span_tree(root: Union[Span, _NoopSpan], indent: str = "") -> List[str]:
    """One line per span, children indented below their parent:

    .. code-block:: text

        hql.statement (12.345 ms) kind=binaryop cache=miss
          algebra.union (11.203 ms) left=jack right=jill tuples_out=4
            algebra.pointwise (9.871 ms) candidates=57 fused=yes
    """
    if isinstance(root, _NoopSpan):
        return []
    lines: List[str] = []

    def emit(node: Span, depth: int) -> None:
        attrs = " ".join(
            "{}={}".format(key, _format_value(value))
            for key, value in node.attrs.items()
        )
        lines.append(
            "{}{} ({:.3f} ms){}".format(
                indent + "  " * depth, node.name, node.elapsed_ms,
                " " + attrs if attrs else "",
            )
        )
        for child in node.children:
            emit(child, depth + 1)

    emit(root, 0)
    return lines
