"""The performance probe: hot-path counters and wall-clock spans.

``repro.obs`` sees *what the simulation did*; this module sees *where
the wall-clock time goes*.  A :class:`PerfProbe` is an
:class:`~repro.sim.observer.Observer`: it sits in the components'
``observer`` slots like every other instrument, each hook site makes a
single ``is None`` test, and an unobserved run executes the
uninstrumented code path, so profiling-off runs stay bit-identical
(regression-tested against the recorded goldens).

Two kinds of instrument:

- **Hot-path counters** are plain integer attributes bumped by the
  lifecycle calls (``on_event_pop`` bumps ``events_popped``) — no dict
  lookup, no string formatting on the data path.  The catalogue:
  events popped off the wheel, cancelled events discarded, callbacks
  dispatched, packets enqueued/dequeued/dropped/delivered, result-cache
  hits/misses.  Everything else goes through :meth:`PerfProbe.count`,
  a named-counter dict for colder paths (TAQ evictions, per-benchmark
  phases, and the per-backend result-store split
  ``parallel.cache.<kind>.hits`` / ``.misses`` where ``<kind>`` is
  ``dir``, ``sqlite``, or ``http``).
- **Spans** measure wall time around coarse phases (``sim.run``,
  ``parallel.point``, benchmark build/run phases) via
  ``with probe.span("name"):`` — per-span call count, total and max
  seconds.

Because probes only *read* the wall clock, an armed run schedules and
fires exactly the same simulated event sequence as an unarmed one —
the bit-identity contract ``tests/perf/test_bit_identical.py`` pins.

Attach a probe explicitly (:func:`repro.sim.observer.attach`, or
:func:`repro.build.observe_scenario` for a whole built scenario) or
ambiently: ``with profiled() as probe:`` pushes *probe* onto the
ambient observer stack and :func:`repro.build.build_simulation`
attaches it to everything it constructs, so whole experiments can be
profiled without touching their code.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Any, ContextManager, Dict, Iterator, List, Optional

from repro.sim.observer import Observer, innermost, observing

__all__ = [
    "PerfProbe",
    "SpanStats",
    "active_probe",
    "peak_rss_bytes",
    "profiled",
]


class SpanStats:
    """Aggregate wall-clock statistics for one named span."""

    __slots__ = ("name", "calls", "total_s", "max_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def add(self, seconds: float) -> None:
        self.calls += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds

    def summary(self) -> Dict[str, float]:
        return {"calls": self.calls, "total_s": self.total_s, "max_s": self.max_s}


class _SpanTimer:
    """Context manager feeding one :class:`SpanStats` (re-entrant safe:
    each ``with`` gets its own timer)."""

    __slots__ = ("_stats", "_t0")

    def __init__(self, stats: SpanStats) -> None:
        self._stats = stats
        self._t0 = 0.0

    def __enter__(self) -> "_SpanTimer":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stats.add(perf_counter() - self._t0)


class PerfProbe(Observer):
    """Hot-path counters plus named wall-clock spans for one run.

    The integer attributes are the hot counters — the lifecycle calls
    bump them directly.  :meth:`summary` folds them into the named-counter dict
    under their dotted catalogue names (``sim.events_popped``,
    ``net.packets_dropped``, ...) so consumers see one flat namespace.
    """

    __slots__ = (
        "events_popped",
        "heap_discards",
        "callbacks_dispatched",
        "packets_enqueued",
        "packets_dequeued",
        "packets_dropped",
        "packets_delivered",
        "cache_hits",
        "cache_misses",
        "counters",
        "spans",
        "_run_started",
    )

    #: attribute -> catalogue name used by :meth:`summary`.
    HOT_COUNTERS = {
        "events_popped": "sim.events_popped",
        "heap_discards": "sim.heap_discards",
        "callbacks_dispatched": "sim.callbacks_dispatched",
        "packets_enqueued": "net.packets_enqueued",
        "packets_dequeued": "net.packets_dequeued",
        "packets_dropped": "net.packets_dropped",
        "packets_delivered": "net.packets_delivered",
        "cache_hits": "parallel.cache_hits",
        "cache_misses": "parallel.cache_misses",
    }

    def __init__(self) -> None:
        self.events_popped = 0
        self.heap_discards = 0
        self.callbacks_dispatched = 0
        self.packets_enqueued = 0
        self.packets_dequeued = 0
        self.packets_dropped = 0
        self.packets_delivered = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.counters: Dict[str, int] = {}
        self.spans: Dict[str, SpanStats] = {}
        self._run_started: List[float] = []

    # -- observer calls -------------------------------------------------
    def on_event_pop(self, event) -> None:
        # The run loop dispatches every event it pops.
        self.events_popped += 1
        self.callbacks_dispatched += 1

    def on_event_cancel(self, event) -> None:
        self.heap_discards += 1

    def on_run_start(self, now: float) -> None:
        self._run_started.append(perf_counter())

    def on_run_end(self, now: float) -> None:
        self._stats("sim.run").add(perf_counter() - self._run_started.pop())

    def on_enqueue(self, link, packet, now: float) -> None:
        self.packets_enqueued += 1

    def on_tx_start(self, link, packet, now: float) -> None:
        self.packets_dequeued += 1

    def on_deliver(self, link, packet, now: float) -> None:
        self.packets_delivered += 1

    def on_drop(self, packet, now: float) -> None:
        self.packets_dropped += 1

    def on_evict(self, evicted, packet, now: float) -> None:
        self.count("taq.evictions")

    # -- cold-path counters --------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        """Bump the named counter (get-or-create)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- spans ----------------------------------------------------------
    def span(self, name: str) -> _SpanTimer:
        """``with probe.span("phase"):`` — time one occurrence of *phase*."""
        return _SpanTimer(self._stats(name))

    def _stats(self, name: str) -> SpanStats:
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats(name)
        return stats

    # -- roll-up ---------------------------------------------------------
    def counter_summary(self) -> Dict[str, int]:
        """Hot + named counters as one sorted flat dict."""
        merged = dict(self.counters)
        for attr, name in self.HOT_COUNTERS.items():
            value = getattr(self, attr)
            if value:
                merged[name] = merged.get(name, 0) + value
        return {name: merged[name] for name in sorted(merged)}

    def summary(self) -> Dict[str, Any]:
        return {
            "counters": self.counter_summary(),
            "spans": {
                name: self.spans[name].summary() for name in sorted(self.spans)
            },
        }

    def render(self) -> str:
        """Plain-text roll-up (the ``taq-perf`` narrow-format report)."""
        lines = ["counters:"]
        for name, value in self.counter_summary().items():
            lines.append(f"  {name} = {value}")
        if self.spans:
            lines.append("spans:")
            for name in sorted(self.spans):
                stats = self.spans[name]
                lines.append(
                    f"  {name}: calls={stats.calls} "
                    f"total={stats.total_s:.3f}s max={stats.max_s:.3f}s"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Peak RSS
# ----------------------------------------------------------------------
def peak_rss_bytes() -> int:
    """Lifetime peak resident set size of this process, in bytes.

    Uses ``resource.getrusage`` (kilobytes on Linux, bytes on macOS);
    returns 0 where the module is unavailable (non-POSIX platforms) so
    callers can treat the value as best-effort.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        return int(usage)
    return int(usage) * 1024


# ----------------------------------------------------------------------
# The ambient probe (what build_simulation attaches)
# ----------------------------------------------------------------------
def active_probe() -> Optional[PerfProbe]:
    """The probe pushed by the innermost :func:`profiled`, or None."""
    return innermost(PerfProbe)


def profiled(probe: Optional[PerfProbe] = None) -> ContextManager[PerfProbe]:
    """``with profiled() as probe:`` — every simulation built inside the
    block (via :func:`repro.build.build_simulation`) is observed by
    *probe*, no experiment-code changes needed."""
    return observing(probe if probe is not None else PerfProbe())


def iter_span_names(probe: PerfProbe) -> Iterator[str]:
    """Span names in sorted order (test/report convenience)."""
    return iter(sorted(probe.spans))
