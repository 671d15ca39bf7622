"""Disabled-mode tracing must be free: no recorded entries and no net
allocation, whatever names and attributes are thrown at it.

The zero-overhead claim in :mod:`repro.obs.trace` rests on ``span()``
returning the shared noop singleton before allocating anything.  These
properties pin that contract: for arbitrary span names/attributes the
disabled path records nothing, leaves no context-local state behind,
and a tight loop of disabled spans leaves ``sys.getallocatedblocks()``
where it found it (the kwargs dict is freed immediately; nothing is
retained).
"""

from __future__ import annotations

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import trace
from repro.obs.trace import NOOP_SPAN, span

names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=30
)
values = st.one_of(st.integers(), st.booleans(), names)


@settings(max_examples=100, deadline=None)
@given(name=names, attrs=st.dictionaries(names.map(lambda s: "k" + s), values, max_size=4))
def test_disabled_span_is_always_the_noop_singleton(name, attrs):
    trace.disable()
    sp = span(name, **attrs)
    assert sp is NOOP_SPAN
    with sp as entered:
        assert entered is NOOP_SPAN
        assert trace.current() is None
        trace.annotate(ignored=True)
    assert NOOP_SPAN.attrs == {}
    assert list(NOOP_SPAN.children) == []


@settings(max_examples=25, deadline=None)
@given(name=names)
def test_disabled_spans_leave_no_trace_state(name):
    trace.disable()
    for _ in range(10):
        with span(name, relation="r", tuples=3):
            pass
    # Enabling afterwards starts from a clean stack: the first span is
    # a root, not a child of some leaked phantom parent.
    with trace.force(True):
        with span("probe") as probe:
            pass
    assert probe._parent is None


def test_disabled_spans_allocate_nothing_net():
    """A tight loop of disabled span calls must not grow the heap.

    ``sys.getallocatedblocks()`` counts live allocator blocks; the
    kwargs dict each call builds dies inside the call, so the count
    before and after a long loop must match exactly (a couple of
    blocks of slack tolerated for interpreter-internal churn such as
    lazily-created caches on the first iteration).
    """
    trace.disable()

    def burn(n):
        for i in range(n):
            with span("combine", relation="flies", tuples=i & 7):
                pass

    burn(1000)  # warmup: let any lazy interpreter caches materialise
    before = sys.getallocatedblocks()
    burn(10000)
    after = sys.getallocatedblocks()
    assert after - before <= 2, "disabled tracing leaked {} blocks".format(
        after - before
    )
