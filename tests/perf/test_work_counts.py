"""Work counts read from component totals: ``repro.build.work_counts``.

The pinned numbers are the per-packet counts an observer tallied on the
same scenarios (one bump per event popped or cancelled, per packet
enqueued, dequeued, dropped, delivered and per TAQ push-out); reading
the totals the simulator, links and queues keep must give them exactly.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.build import ScenarioSpec, build_simulation, work_counts
from repro.obs.manifest import peak_rss_bytes
from repro.sim.simulator import Simulator

SCENARIO = {
    "name": "probe-smoke",
    "seed": 3,
    "duration": 15.0,
    "topology": {"capacity_bps": 400_000, "rtt": 0.1, "pkt_size": 300},
    "queue": {"kind": "droptail"},
    "workloads": [{"type": "bulk", "n_flows": 4}],
}


def test_simulator_counts():
    sim = Simulator(seed=1)
    fired = []
    events = [sim.schedule(0.01 * i, fired.append, (i,)) for i in range(10)]
    events[3].cancel()
    events[7].cancel()
    sim.run()
    assert fired == [0, 1, 2, 4, 5, 6, 8, 9]
    counts = work_counts(SimpleNamespace(sim=sim, topology=SimpleNamespace(links=())))
    assert counts["sim.events_popped"] == 8
    assert counts["sim.heap_discards"] == 2


def test_pending_events_are_not_discards():
    sim = Simulator(seed=1)
    for i in range(10):
        sim.schedule(0.01 * i, lambda: None)
    sim.run(until=0.045)
    counts = work_counts(SimpleNamespace(sim=sim, topology=SimpleNamespace(links=())))
    assert counts["sim.events_popped"] == 5
    assert counts["sim.heap_discards"] == 0


def _dumbbell(kind):
    return {
        "name": f"wc-{kind}",
        "seed": 5,
        "duration": 30.0,
        "topology": {"capacity_bps": 600_000, "rtt": 0.2, "pkt_size": 200},
        "queue": {"kind": kind},
        "workloads": [{"type": "bulk", "n_flows": 20}],
    }


#: name -> (scenario document, expected work counts).
PINNED = {
    "droptail": (_dumbbell("droptail"), {
        "net.packets_delivered": 21695, "net.packets_dequeued": 21789,
        "net.packets_dropped": 478, "net.packets_enqueued": 21835,
        "sim.events_popped": 44116, "sim.heap_discards": 7469,
    }),
    "red": (_dumbbell("red"), {
        "net.packets_delivered": 20773, "net.packets_dequeued": 20865,
        "net.packets_dropped": 358, "net.packets_enqueued": 20883,
        "sim.events_popped": 41871, "sim.heap_discards": 7256,
    }),
    # SFQ and FavorQueue push packets out too; those are drops, not
    # taq.evictions.
    "sfq": (_dumbbell("sfq"), {
        "net.packets_delivered": 21690, "net.packets_dequeued": 21780,
        "net.packets_dropped": 480, "net.packets_enqueued": 22328,
        "sim.events_popped": 44082, "sim.heap_discards": 7850,
    }),
    "favorqueue": (_dumbbell("favorqueue"), {
        "net.packets_delivered": 21690, "net.packets_dequeued": 21781,
        "net.packets_dropped": 354, "net.packets_enqueued": 21840,
        "sim.events_popped": 43972, "sim.heap_discards": 7666,
    }),
    "taq": (_dumbbell("taq"), {
        "net.packets_delivered": 21715, "net.packets_dequeued": 21807,
        "net.packets_dropped": 212, "net.packets_enqueued": 22026,
        "sim.events_popped": 43896, "sim.heap_discards": 8367,
        "taq.evictions": 160,
    }),
    # Admission control only refuses once web sessions keep arriving
    # into a loaded queue (a bulk start is admitted whole).
    "taq+ac": ({
        "name": "wc-taq-ac",
        "seed": 1,
        "duration": 60.0,
        "topology": {"capacity_bps": 600_000, "rtt": 0.2},
        "queue": {"kind": "taq+ac", "p_thresh": 0.1, "t_wait": 3.0},
        "workloads": [{
            "type": "web-bands", "n_users": 30, "objects_per_user": 10,
            "large_fraction": 0.25, "connections": 4, "arrival_window": 30.0,
            "rng_name": "fig12-objects", "first_flow_id": 0,
        }],
    }, {
        "net.packets_delivered": 18140, "net.packets_dequeued": 18176,
        "net.packets_dropped": 3505, "net.packets_enqueued": 19582,
        "sim.events_popped": 42809, "sim.heap_discards": 7411,
        "taq.evictions": 1376,
    }),
    # Three links: the LAN ingress feeds the bottleneck.
    "testbed": ({
        "name": "wc-testbed",
        "seed": 1,
        "duration": 20.0,
        "topology": {"type": "testbed", "capacity_bps": 600_000, "rtt": 0.2},
        "queue": {"kind": "taq"},
        "workloads": [{"type": "bulk", "n_flows": 6}],
    }, {
        "net.packets_delivered": 7830, "net.packets_dequeued": 7857,
        "net.packets_dropped": 27, "net.packets_enqueued": 7881,
        "sim.events_popped": 18299, "sim.heap_discards": 1914,
        "taq.evictions": 24,
    }),
    # Four links, two of them the lossy underlay.
    "overlay": ({
        "name": "wc-overlay",
        "seed": 7,
        "duration": 20.0,
        "topology": {"type": "overlay", "capacity_bps": 600_000, "rtt": 0.2,
                     "mode": "overlay", "underlay_loss": 0.1},
        "queue": {"kind": "taq"},
        "workloads": [{"type": "bulk", "n_flows": 20}],
    }, {
        "net.packets_delivered": 10805, "net.packets_dequeued": 11443,
        "net.packets_dropped": 63, "net.packets_enqueued": 11509,
        "sim.events_popped": 19959, "sim.heap_discards": 4434,
        "taq.evictions": 39,
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_work_counts(name):
    document, expected = PINNED[name]
    built = build_simulation(ScenarioSpec.from_document(document))
    built.run()
    assert work_counts(built) == expected


def test_unarmed_components_stay_unarmed():
    built = build_simulation(ScenarioSpec.from_document(SCENARIO))
    assert built.sim.observer is None
    assert built.sim.events.observer is None
    assert built.queue.observer is None


def test_peak_rss_is_positive_on_posix():
    assert peak_rss_bytes() > 0
