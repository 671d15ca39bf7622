"""Metrics: named counters, gauges, and histograms in a registry.

A :class:`MetricsRegistry` is a flat namespace of instruments with
get-or-create semantics — ``registry.counter("querycache.hits")``
returns the same :class:`Counter` every time, so call sites can either
cache the handle (hot paths) or look it up per use (cold paths).

Two registry scopes coexist:

* the **process-global default registry** (:func:`default_registry`)
  hosts core-layer metrics — ``bulk.*``, ``algebra.*``, ``views.*`` —
  where no database handle is in reach;
* each ``HierarchicalDatabase`` owns a **per-database registry**
  (``db.metrics``) for engine metrics — ``querycache.*``, ``txn.*``,
  ``hql.*`` — so independent databases (and independent tests) never
  share counts.

``STATS;`` renders both.  :meth:`MetricsRegistry.reset` zeroes
instruments *in place* rather than discarding them, so module-level
cached handles stay live across resets.

Export formats: :meth:`snapshot` (plain dict, JSON-safe — the
``STATS;`` payload),
:meth:`to_prometheus` (text exposition format: dots become
underscores, everything gains a ``repro_`` prefix), and :meth:`rows`
(aligned name/value pairs for ``STATS;`` and the REPL).

Naming convention (see docs/OBSERVABILITY.md): dotted lower-case
``layer.noun[.verb]`` — ``querycache.hits``, ``views.refresh.full``,
``hql.statement.ms``.  Histograms end in a unit suffix (``.ms``).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
]

Number = Union[int, float]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> Number:
        return self.value

    def __repr__(self) -> str:
        return "Counter({!r}, {})".format(self.name, self.value)


class Gauge:
    """A value that can go up and down (pool sizes, thresholds)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> Number:
        return self.value

    def __repr__(self) -> str:
        return "Gauge({!r}, {})".format(self.name, self.value)


#: Default histogram bucket upper bounds, in the instrument's unit
#: (milliseconds for ``.ms`` histograms): log-scaled 1-2-5 decades from
#: 10 µs to 10 s, plus the implicit +Inf bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0,
    10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0,
)


class Histogram:
    """Observation counts in log-scaled buckets, plus sum and count.

    Buckets hold *cumulative-style boundaries but non-cumulative
    counts*: ``counts[i]`` is the number of observations with
    ``value <= bounds[i]`` and greater than the previous bound; the
    final slot counts the overflow (+Inf).  The Prometheus exporter
    re-accumulates them into the cumulative form that format requires.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")
    kind = "histogram"

    def __init__(self, name: str, buckets: Optional[Tuple[float, ...]] = None) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(buckets) if buckets else DEFAULT_BUCKETS
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bucket bounds must be sorted")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total: float = 0.0
        self.count: int = 0

    def observe(self, value: Number) -> None:
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "buckets": {
                ("+Inf" if i == len(self.bounds) else repr(self.bounds[i])): n
                for i, n in enumerate(self.counts)
                if n
            },
        }

    def __repr__(self) -> str:
        return "Histogram({!r}, n={}, mean={:.3f})".format(
            self.name, self.count, self.mean
        )


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A named, thread-safe collection of instruments.

    >>> registry = MetricsRegistry()
    >>> registry.counter("demo.hits").inc()
    >>> registry.counter("demo.hits").value
    1
    >>> registry.gauge("demo.pool").set(4)
    >>> sorted(registry.snapshot())
    ['demo.hits', 'demo.pool']
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}
        self._lock = threading.Lock()

    # -- get-or-create -------------------------------------------------

    def _get(self, name: str, factory, *args) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = factory(name, *args)
                    self._instruments[name] = instrument
        if not isinstance(instrument, factory):
            raise TypeError(
                "metric {!r} is a {}, not a {}".format(
                    name, type(instrument).__name__, factory.__name__
                )
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, buckets: Optional[Tuple[float, ...]] = None
    ) -> Histogram:
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = Histogram(name, buckets)
                    self._instruments[name] = instrument
        if not isinstance(instrument, Histogram):
            raise TypeError(
                "metric {!r} is a {}, not a Histogram".format(
                    name, type(instrument).__name__
                )
            )
        return instrument

    # -- inspection ----------------------------------------------------

    def __iter__(self) -> Iterator[Instrument]:
        return iter(sorted(self._instruments.values(), key=lambda m: m.name))

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def reset(self) -> None:
        """Zero every instrument in place — cached handles stay valid."""
        for instrument in self._instruments.values():
            instrument.reset()

    # -- exporters -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """``{name: value}`` — ints/floats for counters and gauges, a
        ``{count, sum, mean, buckets}`` dict for histograms.  JSON-safe."""
        return {m.name: m.snapshot() for m in self}

    def rows(self) -> List[Tuple[str, str]]:
        """``(name, rendered value)`` pairs for table display."""
        out: List[Tuple[str, str]] = []
        for m in self:
            if isinstance(m, Histogram):
                out.append(
                    (m.name, "n={} mean={:.3f} sum={:.3f}".format(m.count, m.mean, m.total))
                )
            elif isinstance(m.value, float):
                out.append((m.name, "{:.3f}".format(m.value)))
            else:
                out.append((m.name, str(m.value)))
        return out

    def to_prometheus(self, prefix: str = "repro_") -> str:
        """The Prometheus text exposition format (0.0.4)."""
        lines: List[str] = []
        for m in self:
            flat = prefix + m.name.replace(".", "_").replace("-", "_")
            lines.append("# TYPE {} {}".format(flat, m.kind))
            if isinstance(m, Histogram):
                cumulative = 0
                for i, bound in enumerate(m.bounds):
                    cumulative += m.counts[i]
                    lines.append(
                        '{}_bucket{{le="{}"}} {}'.format(flat, bound, cumulative)
                    )
                lines.append(
                    '{}_bucket{{le="+Inf"}} {}'.format(flat, m.count)
                )
                lines.append("{}_sum {}".format(flat, m.total))
                lines.append("{}_count {}".format(flat, m.count))
            else:
                lines.append("{} {}".format(flat, m.value))
        return "\n".join(lines) + ("\n" if lines else "")


#: Process-global registry for core-layer metrics (bulk/algebra/views).
DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry hosting core-layer metrics."""
    return DEFAULT_REGISTRY
