"""Built-in topologies, registered with :data:`repro.build.TOPOLOGIES`.

Each builder takes a :class:`repro.build.harness.TopologyContext`
(simulator + the already-built queue + the link parameters) and returns
an object with the dumbbell interface (``forward``/``reverse`` links,
a ``links`` tuple of every link it owns, ``pkt_size``, fair-share
helpers).  Testbed and overlay are imported
lazily so a plain dumbbell run never pays for them.
"""

from __future__ import annotations

from typing import Optional

from repro.build.harness import TopologyContext
from repro.build.registries import TOPOLOGIES


@TOPOLOGIES.register("dumbbell")
def build_dumbbell_topology(
    ctx: TopologyContext, reverse_capacity_bps: Optional[float] = None
):
    """The paper's single-bottleneck dumbbell."""
    from repro.net.topology import Dumbbell

    return Dumbbell(
        ctx.sim,
        ctx.capacity_bps,
        ctx.rtt,
        queue=ctx.queue,
        pkt_size=ctx.pkt_size,
        reverse_capacity_bps=reverse_capacity_bps,
    )


@TOPOLOGIES.register("testbed")
def build_testbed_topology(ctx: TopologyContext, lan_bps: float = 100_000_000.0):
    """The §5.4 emulated hardware testbed (LAN hop + jittered links)."""
    from repro.testbed import TestbedDumbbell

    return TestbedDumbbell(
        ctx.sim,
        ctx.capacity_bps,
        ctx.rtt,
        queue=ctx.queue,
        pkt_size=ctx.pkt_size,
        lan_bps=lan_bps,
    )


@TOPOLOGIES.register("overlay")
def build_overlay_topology(
    ctx: TopologyContext,
    mode: str = "overlay",
    underlay_loss: float = 0.1,
    underlay_headroom: float = 1.5,
):
    """The §4.4 overlay deployment: middlebox above a lossy underlay."""
    from repro.overlay import OverlayDumbbell

    return OverlayDumbbell(
        ctx.sim,
        ctx.capacity_bps,
        ctx.rtt,
        queue=ctx.queue,
        pkt_size=ctx.pkt_size,
        mode=mode,
        underlay_loss=underlay_loss,
        underlay_headroom=underlay_headroom,
    )
