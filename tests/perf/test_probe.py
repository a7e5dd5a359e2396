"""PerfProbe mechanics: counters, spans, arming, ambient activation."""

from __future__ import annotations

from repro.build import ScenarioSpec, build_simulation
from repro.perf import PerfProbe, active_probe, peak_rss_bytes, profiled
from repro.sim.observer import attach
from repro.sim.simulator import Simulator

SCENARIO = {
    "name": "probe-smoke",
    "seed": 3,
    "duration": 15.0,
    "topology": {"capacity_bps": 400_000, "rtt": 0.1, "pkt_size": 300},
    "queue": {"kind": "droptail"},
    "workloads": [{"type": "bulk", "n_flows": 4}],
}


def test_simulator_counters():
    sim = Simulator(seed=1)
    probe = PerfProbe()
    attach(sim, probe)
    attach(sim.events, probe)
    fired = []
    events = [sim.schedule(0.01 * i, fired.append, (i,)) for i in range(10)]
    events[3].cancel()
    events[7].cancel()
    sim.run()
    assert fired == [0, 1, 2, 4, 5, 6, 8, 9]
    assert probe.callbacks_dispatched == 8
    # events_popped counts live dispatches; the two cancelled events are
    # reaped as tombstones (by peek or pop, whichever sees them first).
    assert probe.events_popped == 8
    assert probe.heap_discards == 2
    # The whole run sits inside one sim.run span.
    assert probe.spans["sim.run"].calls == 1
    assert probe.spans["sim.run"].total_s > 0


def test_event_queue_pop_counts_discards():
    from repro.sim.events import EventQueue

    probe = PerfProbe()
    queue = EventQueue()
    attach(queue, probe)
    first = queue.push(1.0, lambda: None)
    second = queue.push(2.0, lambda: None)
    first.cancel()
    assert queue.pop() is second
    assert probe.events_popped == 1
    assert probe.heap_discards == 1


def test_counter_summary_merges_hot_and_named():
    probe = PerfProbe()
    probe.events_popped = 5
    probe.count("taq.evictions")
    probe.count("taq.evictions", 2)
    summary = probe.counter_summary()
    assert summary == {"sim.events_popped": 5, "taq.evictions": 3}
    # Zero-valued hot counters stay out of the roll-up.
    assert "net.packets_dropped" not in summary


def test_span_aggregation():
    probe = PerfProbe()
    for _ in range(3):
        with probe.span("phase"):
            pass
    stats = probe.spans["phase"]
    assert stats.calls == 3
    assert stats.total_s >= stats.max_s > 0
    rendered = probe.render()
    assert "phase: calls=3" in rendered


def test_profiled_arms_built_scenarios():
    assert active_probe() is None
    with profiled() as probe:
        assert active_probe() is probe
        built = build_simulation(ScenarioSpec.from_document(SCENARIO))
        built.run()
    assert active_probe() is None
    # The run flowed through every instrumented layer.
    assert probe.events_popped > 0
    assert probe.callbacks_dispatched > 0
    assert probe.packets_enqueued > 0
    assert probe.packets_dequeued > 0
    assert probe.packets_delivered > 0
    assert probe.spans["sim.run"].calls == 1


def test_profiled_nesting_restores_outer_probe():
    with profiled() as outer:
        with profiled() as inner:
            assert active_probe() is inner
        assert active_probe() is outer
    assert active_probe() is None


def test_unarmed_components_stay_unarmed():
    built = build_simulation(ScenarioSpec.from_document(SCENARIO))
    assert built.sim.observer is None
    assert built.sim.events.observer is None
    assert built.queue.observer is None


def test_peak_rss_is_positive_on_posix():
    assert peak_rss_bytes() > 0
