"""MonitorSuite wiring: attachment, fan-out, and zero-overhead-when-off.

The equivalence tests are the heart of the "passive observer" contract:
an armed run must pop exactly the same events and produce bit-identical
metrics as an unarmed one, and a run without monitors must carry no
instrumentation at all (``sim.events.observer is None``).
"""

import pytest

from repro.build import build_simulation
from repro.check.suite import attach_monitors, run_checked
from repro.sim.observer import observers_of

from tests.check.conftest import make_spec


def metrics_fingerprint(built):
    collector = built.collector
    return {
        "processed": built.sim.processed,
        "now": built.sim.now,
        "goodputs": [collector.slice_goodputs(i) for i in collector.slice_indices()],
        "queue": (built.queue.enqueued, built.queue.dropped),
        "timeouts": sorted(
            (f.flow_id, f.sender.stats.timeouts, f.sender.stats.retransmits)
            for f in built.all_flows()
        ),
    }


def test_attach_covers_both_dumbbell_links():
    built = build_simulation(make_spec())
    suite = attach_monitors(built)
    names = [m.name for m in suite.monitors]
    assert names.count("conservation") == 2  # forward + reverse
    assert names.count("occupancy") == 2
    assert "clock" in names and "tcp" in names
    assert "taq" not in names  # droptail has no TAQ ledgers
    assert built.sim.events.observer is suite


def test_attach_adds_taq_monitor_for_taq_queues():
    built = build_simulation(make_spec(queue={"kind": "taq"}))
    names = [m.name for m in attach_monitors(built).monitors]
    assert "taq" in names


def test_monitor_families_can_be_switched_off():
    built = build_simulation(make_spec())
    suite = attach_monitors(built, tcp=False, occupancy=False, clock=False)
    names = {m.name for m in suite.monitors}
    assert names == {"conservation"}


def test_by_name_and_missing_name():
    built = build_simulation(make_spec())
    suite = attach_monitors(built)
    assert suite.by_name("clock").name == "clock"
    with pytest.raises(KeyError):
        suite.by_name("no-such-monitor")


def test_finalize_is_idempotent_and_detach_unhooks():
    built = build_simulation(make_spec())
    suite = run_checked(built)
    before = len(suite.violations)
    suite.finalize()  # second call must not re-run end checks
    assert len(suite.violations) == before
    suite.detach()
    assert built.sim.events.observer is None


def test_detached_suite_stops_observing_while_the_run_continues():
    built = build_simulation(make_spec())
    suite = attach_monitors(built)
    built.run(until=3.0)
    conservation = [m for m in suite.monitors if m.name == "conservation"]
    ledgers = [(m.arrived, m.dropped, m.transmitted, m.delivered) for m in conservation]
    assert all(ledger[0] > 0 for ledger in ledgers)
    suite.detach()
    for link in built.topology.links:
        assert not set(observers_of(link)) & set(suite.monitors)
        assert link.queue.observer is None
    arrived_before = [link.stats.arrived for link in built.topology.links]
    built.run()
    arrived_after = [link.stats.arrived for link in built.topology.links]
    assert all(after > before for after, before in zip(arrived_after, arrived_before))
    assert [(m.arrived, m.dropped, m.transmitted, m.delivered)
            for m in conservation] == ledgers


def test_unarmed_run_carries_no_instrumentation():
    built = build_simulation(make_spec())
    assert built.sim.events.observer is None
    built.run()
    assert built.sim.events.observer is None


def test_armed_run_is_bit_identical_to_unarmed():
    bare = build_simulation(make_spec())
    bare.run()

    armed = build_simulation(make_spec())
    suite = run_checked(armed, mode="collect")
    assert suite.violations == []
    assert metrics_fingerprint(armed) == metrics_fingerprint(bare)


def test_armed_run_is_bit_identical_under_taq_too():
    queue = {"kind": "taq+ac"}
    bare = build_simulation(make_spec(queue=queue))
    bare.run()
    armed = build_simulation(make_spec(queue=queue))
    suite = run_checked(armed, mode="collect")
    assert suite.violations == []
    assert metrics_fingerprint(armed) == metrics_fingerprint(bare)


def test_violation_documents_round_trip():
    built = build_simulation(make_spec())
    suite = run_checked(built, mode="collect")
    suite.by_name("clock").violate("synthetic", time=1.0)
    documents = suite.violation_documents()
    assert documents == [
        {"monitor": "clock", "message": "synthetic", "time": 1.0, "context": {}}
    ]
