#!/usr/bin/env python3
"""Quickstart: DropTail vs TAQ on a pathologically shared link.

Builds the paper's canonical scenario — many long-running TCP flows
squeezed through a low-bandwidth bottleneck (a *small packet regime*) —
once with a plain tail-drop queue and once with Timeout Aware Queuing,
and prints the fairness / timeout numbers side by side.

Run:  python examples/quickstart.py
"""

from repro import Simulator, Dumbbell, DropTailQueue, TcpFlow
from repro.core import TAQQueue
from repro.metrics import SliceGoodputCollector
from repro.net.topology import rtt_buffer_pkts
from repro.sim.observer import attach

CAPACITY = 600_000       # 600 Kbps bottleneck
RTT = 0.2                # 200 ms propagation RTT
N_FLOWS = 100            # fair share: 6 Kbps ~ 0.3 packets per RTT
DURATION = 120.0


def run(queue_kind: str) -> dict:
    sim = Simulator(seed=42)
    if queue_kind == "taq":
        queue = TAQQueue.for_link(CAPACITY, rtt=RTT)
    else:
        queue = DropTailQueue(rtt_buffer_pkts(CAPACITY, RTT, 500))
    bell = Dumbbell(sim, CAPACITY, RTT, queue=queue)
    if isinstance(queue, TAQQueue):
        queue.install_reverse_tap(bell.reverse)  # two-way epoch estimation

    collector = SliceGoodputCollector(slice_seconds=20.0)
    attach(bell.forward, collector)  # count every delivery

    starts = sim.rng.stream("starts")
    flows = [
        TcpFlow(
            bell,
            flow_id,
            size_segments=None,                  # long-running
            start_time=starts.uniform(0.0, 5.0),
            extra_rtt=starts.uniform(0.0, 0.1),  # per-flow access delay
        )
        for flow_id in range(N_FLOWS)
    ]
    sim.run(until=DURATION)

    flow_ids = [f.flow_id for f in flows]
    steady_slice = collector.slice_indices()[-2]
    return {
        "short-term Jain fairness (20s)": collector.mean_short_term_jain(flow_ids),
        "long-term Jain fairness": collector.long_term_jain(flow_ids),
        "link utilization": bell.forward.stats.utilization(CAPACITY, DURATION),
        "bottleneck loss rate": queue.loss_rate(),
        "TCP timeouts": sum(f.sender.stats.timeouts for f in flows),
        "repetitive timeouts": sum(f.sender.stats.repetitive_timeouts for f in flows),
        "flows shut out of a steady slice": collector.shut_out_fraction(
            steady_slice, flow_ids
        ),
    }


def main() -> None:
    print(f"{N_FLOWS} long-running flows over {CAPACITY//1000} Kbps "
          f"(fair share {CAPACITY/N_FLOWS/1000:.1f} Kbps, sub-packet regime)\n")
    droptail = run("droptail")
    taq = run("taq")
    width = max(len(k) for k in droptail)
    print(f"{'metric'.ljust(width)}  {'DropTail':>10}  {'TAQ':>10}")
    for key in droptail:
        dt, tq = droptail[key], taq[key]
        print(f"{key.ljust(width)}  {dt:>10.3f}  {tq:>10.3f}")
    print("\nTAQ keeps utilization while fixing short-term fairness and")
    print("eliminating shut-out flows — the paper's headline result.")


if __name__ == "__main__":
    main()
