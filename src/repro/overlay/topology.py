"""The overlay dumbbell: TAQ in front of a (possibly lossy) underlay.

Three modes, matching §4.4's deployment discussion:

- ``"clean"`` — the middlebox queue feeds a loss-free constrained link
  (the router-level deployment; equivalent to the plain dumbbell);
- ``"raw"`` — the constrained underlay loses packets to cross traffic
  *after* the middlebox queue: TAQ no longer controls which packets
  die;
- ``"overlay"`` — the same lossy underlay, but wrapped in an
  :class:`~repro.overlay.tunnel.ArqTunnel` providing the controlled-
  loss virtual link, restoring TAQ's control.

The middlebox queue (any :class:`~repro.queues.base.QueueDiscipline`)
sits on a full-capacity link chained into the underlay, so the
scheduling decisions happen before the underlay exactly as the paper's
"transparent proxies at either end of a constrained link" would.
"""

from __future__ import annotations

from typing import Optional

from repro.net.link import Link
from repro.net.node import Host
from repro.net.topology import rtt_buffer_pkts
from repro.overlay.lossy import LossyLink
from repro.overlay.tunnel import ArqTunnel
from repro.queues.base import QueueDiscipline
from repro.queues.droptail import DropTailQueue
from repro.sim.simulator import Simulator

MODES = ("clean", "raw", "overlay")


class _TunnelAdapter:
    """Makes an ArqTunnel look like a Link for ``next_link`` chaining."""

    def __init__(self, tunnel: ArqTunnel) -> None:
        self.tunnel = tunnel

    def send(self, packet) -> bool:
        return self.tunnel.send(packet)


class OverlayDumbbell:
    """A dumbbell whose bottleneck crosses an overlay underlay.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity_bps, rtt, queue, pkt_size:
        As for :class:`~repro.net.topology.Dumbbell`; *queue* is the
        middlebox discipline (TAQ in the experiments).
    mode:
        One of :data:`MODES`.
    underlay_loss:
        Cross-traffic loss probability of the underlay (ignored in
        ``"clean"`` mode).
    underlay_headroom:
        Underlay capacity as a multiple of the constrained rate — the
        underlay path is provisioned, the *middlebox link* is the
        bottleneck, so tunnel retransmissions have room to flow.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity_bps: float,
        rtt: float,
        queue: Optional[QueueDiscipline] = None,
        pkt_size: int = 500,
        mode: str = "clean",
        underlay_loss: float = 0.05,
        underlay_headroom: float = 1.5,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        self.sim = sim
        self.capacity_bps = capacity_bps
        self.base_rtt = rtt
        self.pkt_size = pkt_size
        self.mode = mode
        if queue is None:
            queue = DropTailQueue(rtt_buffer_pkts(capacity_bps, rtt, pkt_size))
        self.queue = queue
        self.sender_host = Host("overlay-senders")
        self.receiver_host = Host("overlay-receivers")

        one_way = rtt / 2.0
        loss = 0.0 if mode == "clean" else underlay_loss
        rng = sim.rng.stream("underlay-loss")
        underlay_capacity = underlay_headroom * capacity_bps
        self.underlay = LossyLink(
            sim,
            underlay_capacity,
            one_way,
            DropTailQueue(10_000),
            loss_rate=loss,
            rng=rng,
            name="underlay",
        )
        # Tunnel-ack return path shares the underlay's fate.
        self.underlay_reverse = LossyLink(
            sim,
            underlay_capacity,
            one_way / 4.0,
            DropTailQueue(10_000),
            loss_rate=loss,
            rng=rng,
            name="underlay-ack",
        )
        self.tunnel: Optional[ArqTunnel] = None
        if mode == "overlay":
            # The timeout must comfortably exceed the tunnel's own round
            # trip (forward + ack propagation plus serialization slack),
            # or every packet is retransmitted spuriously and the
            # duplicates congest the underlay.
            tunnel_rtt = one_way + one_way / 4.0
            self.tunnel = ArqTunnel(
                sim,
                self.underlay,
                self.underlay_reverse,
                retransmit_timeout=max(0.1, 2.5 * tunnel_rtt),
            )
            next_hop = _TunnelAdapter(self.tunnel)
        else:
            next_hop = self.underlay
        # The middlebox link: the actual bottleneck, owning the queue.
        self.forward = Link(
            sim, capacity_bps, 0.0, queue, name="middlebox", next_link=next_hop
        )
        # TCP ACK path: clean and fast (the regime is about forward data).
        self.reverse = Link(
            sim,
            100.0 * capacity_bps,
            one_way,
            DropTailQueue(100_000),
            name="overlay-ack-path",
        )
        self.data_entry = self.forward
        self.ack_entry = self.reverse
        #: Every link this topology owns (what observers walk).
        self.links = (self.forward, self.underlay, self.underlay_reverse, self.reverse)

    # -- Dumbbell-compatible surface -----------------------------------
    def fair_share_bps(self, n_flows: int) -> float:
        if n_flows < 1:
            raise ValueError("n_flows must be >= 1")
        return self.capacity_bps / n_flows

    def packets_per_rtt(self, n_flows: int, pkt_size: Optional[int] = None) -> float:
        size = pkt_size if pkt_size is not None else self.pkt_size
        return self.fair_share_bps(n_flows) * self.base_rtt / (8.0 * size)

    def end_to_end_loss_rate(self) -> float:
        """Loss seen by flows *after* the middlebox queue."""
        sent = self.underlay.stats.arrived
        if self.mode == "overlay" and self.tunnel is not None:
            lost = self.tunnel.given_up
            offered = max(1, self.forward.stats.delivered)
            return lost / offered
        if sent == 0:
            return 0.0
        return self.underlay.cross_traffic_losses / sent
