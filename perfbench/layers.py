"""Which calls the traced run wraps, and the per-layer metrics it
reduces them to.

Each wrapped call is a public entry point of one layer (subpackage of
``repro``).  Span names are ``<layer>.<call>``; several methods may
share a name (the four ``FlowTracker`` observers are one
``core.tracker`` span), and the benchmark's own call sites add the
``build.*``, ``sim.run`` and ``parallel.sweep`` spans.  ``sim.run`` is
the root of every packet-moving span, so its self time is the run loop
itself: event dispatch plus the private callbacks no wrapper covers
(link wakeups and deliveries, RTO timers, web session refills).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from perfbench.spans import LayerTotals, Target
from perfbench.workloads import Op

#: Spans whose every duration is kept, for medians.  (Cache reads are
#: timed by the runner itself: ``PointResult.lookup_time`` of each hit.)
KEPT_DURATIONS = ("parallel.cache.put",)


def targets() -> List[Target]:
    """Every (class, method, span name) the traced run wraps."""
    from repro.core.admission import AdmissionController
    from repro.core.taq import TAQQueue
    from repro.core.tracker import FlowTracker
    from repro.metrics.fairness import SliceGoodputCollector
    from repro.net.link import Link
    from repro.parallel.cache import ResultCache
    from repro.queues import DropTailQueue, REDQueue, SFQQueue
    from repro.queues.favorqueue import FavorQueue
    from repro.tcp.receiver import TCPReceiver
    from repro.tcp.sender import TCPSender

    wrapped: List[Target] = [(Link, "send", "net.send")]
    for baseline in (DropTailQueue, REDQueue, SFQQueue, FavorQueue):
        wrapped += [
            (baseline, "enqueue", "queues.enqueue"),
            (baseline, "dequeue", "queues.dequeue"),
        ]
    wrapped += [
        (TAQQueue, "enqueue", "core.enqueue"),
        (TAQQueue, "dequeue", "core.dequeue"),
        (TAQQueue, "observe_reverse", "core.reverse_tap"),
        (FlowTracker, "record_for", "core.tracker"),
        (FlowTracker, "observe_arrival", "core.tracker"),
        (FlowTracker, "observe_drop", "core.tracker"),
        (FlowTracker, "observe_ack", "core.tracker"),
        (AdmissionController, "admits", "core.admission.admits"),
        (TCPSender, "receive", "tcp.sender.receive"),
        (TCPReceiver, "receive", "tcp.receiver.receive"),
        (SliceGoodputCollector, "observe", "metrics.observe"),
        (ResultCache, "get", "parallel.cache.get"),
        (ResultCache, "put", "parallel.cache.put"),
    ]
    return wrapped


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def pkts_per_s(ops: Sequence[Op]) -> float:
    """Bottleneck packets per host second over *ops*."""
    return _ratio(sum(op.packets for op in ops), sum(op.host_s for op in ops))


def per_layer(totals: LayerTotals, traced: Sequence[Op],
              untraced: Sequence[Op]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    Times and call counts are per operation (the pass's mean), except
    the ``build.*`` times, which are per set-up (an operation sets up
    several times); the ``*_frac`` and ``*_per_pkt`` metrics are ratios
    of sums.  A layer the workload never enters reads 0.
    """
    n = len(traced)

    def per_op_self(name: str) -> float:
        return totals.self_s.get(name, 0.0) / n

    def per_op_calls(name: str) -> float:
        return totals.calls.get(name, 0) / n

    def per_call_self(name: str) -> float:
        return _ratio(totals.self_s.get(name, 0.0), totals.calls.get(name, 0))

    def count(key: str) -> int:
        return sum(op.counts.get(key, 0) for op in traced)

    sweeps = [op.sweep for op in traced if op.sweep]
    durations = totals.durations
    metrics = {
        "build.spec_s": per_call_self("build.spec"),
        "build.assemble_s": per_call_self("build.assemble"),
        "sim.events": count("events") / n,
        "sim.events_per_pkt": _ratio(count("events"), count("offered")),
        "sim.residual_s": per_op_self("sim.run"),
        "net.send.calls": per_op_calls("net.send"),
        "net.send.self_s": per_op_self("net.send"),
        "queues.enqueue.self_s": per_op_self("queues.enqueue"),
        "queues.dequeue.self_s": per_op_self("queues.dequeue"),
        "queues.drop_frac": _ratio(count("baseline_dropped"),
                                   count("baseline_offered")),
        "core.enqueue.calls": per_op_calls("core.enqueue"),
        "core.enqueue.self_s": per_op_self("core.enqueue"),
        "core.dequeue.self_s": per_op_self("core.dequeue"),
        "core.tracker.self_s": per_op_self("core.tracker"),
        "core.reverse_tap.self_s": per_op_self("core.reverse_tap"),
        "core.evictions": count("evictions") / n,
        "core.admission.admits.calls": per_op_calls("core.admission.admits"),
        "core.admission.refusal_frac": _ratio(
            count("refusals"), totals.calls.get("core.admission.admits", 0)),
        "tcp.sender.receive.self_s": per_op_self("tcp.sender.receive"),
        "tcp.receiver.receive.self_s": per_op_self("tcp.receiver.receive"),
        "tcp.flows_opened": count("flows") / n,
        "tcp.retransmit_frac": _ratio(count("retransmits"), count("segments")),
        "metrics.observe.self_s": per_op_self("metrics.observe"),
        "parallel.cache.get_ms.p50": 1e3 * _median(
            [s for w in sweeps for s in w["warm_lookup_s"]]),
        "parallel.cache.put_ms.p50": 1e3 * _median(durations["parallel.cache.put"]),
        "parallel.hit_ratio": _ratio(count("hits"), count("points")),
        "parallel.point_s.p50": _median([s for w in sweeps for s in w["point_s"]]),
        "parallel.overhead_s": _ratio(sum(w["overhead_s"] for w in sweeps), len(sweeps)),
        "parallel.warm_s": _ratio(sum(w["warm_s"] for w in sweeps), len(sweeps)),
        "trace.overhead_frac": _ratio(pkts_per_s(untraced), pkts_per_s(traced)) - 1.0,
    }
    return metrics
