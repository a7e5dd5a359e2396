"""``build_simulation(spec) -> BuiltScenario`` — the one construction path.

Every experiment, the JSON scenario runner and the parallel sweep
points all assemble their runs here: simulator, queue discipline (via
the queue registry), topology (via the topology registry), TAQ reverse
tap, goodput collector, and workloads (via the workload registry), in
exactly that order.  The builders receive small context objects so a
registered component never needs to know how the rest of the run is
wired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.build.registries import (
    BACKENDS,
    QUEUES,
    TOPOLOGIES,
    WORKLOADS,
    load_builtins,
    load_plugins,
)
from repro.build.spec import ScenarioSpec, TopologySpec
from repro.metrics import SliceGoodputCollector
from repro.net.topology import rtt_buffer_pkts
from repro.sim.observer import Observer, ambient, attach
from repro.sim.simulator import Simulator
from repro.tcp.sender import TCPSender


@dataclass
class QueueContext:
    """What a queue-discipline builder may depend on."""

    sim: Simulator
    capacity_bps: float
    rtt: float
    pkt_size: int = 500
    buffer_rtts: float = 1.0

    @property
    def buffer_pkts(self) -> int:
        """Paper-style buffer sizing: ``buffer_rtts`` RTTs of packets."""
        return rtt_buffer_pkts(self.capacity_bps, self.rtt, self.pkt_size,
                               self.buffer_rtts)


@dataclass
class TopologyContext:
    """What a topology builder may depend on."""

    sim: Simulator
    queue: Any
    spec: TopologySpec

    @property
    def capacity_bps(self) -> float:
        return self.spec.capacity_bps

    @property
    def rtt(self) -> float:
        return self.spec.rtt

    @property
    def pkt_size(self) -> int:
        return self.spec.pkt_size


@dataclass
class WorkloadGroup:
    """What one workload generator produced."""

    kind: str
    #: Individually spawned flows (bulk, short, tfrc, pools flattened).
    flows: List[Any] = field(default_factory=list)
    #: Session objects owning their flows (web users, trace replays).
    users: List[Any] = field(default_factory=list)
    #: Per-user flow groupings, for pool-granularity workloads.
    pools: List[List[Any]] = field(default_factory=list)
    #: Generator-specific extra artifact (e.g. the synthesized trace).
    trace: Any = None


@dataclass
class WorkloadContext:
    """What a workload builder may depend on."""

    sim: Simulator
    topology: Any
    scenario: ScenarioSpec
    #: Position of this workload in the scenario's workload list.
    index: int
    #: Flows spawned by earlier (non-session) workloads — the historic
    #: scenario-runner default for ``first_flow_id`` of bulk workloads.
    flows_spawned: int = 0

    def default_rng_name(self, prefix: str) -> str:
        return f"{prefix}-{self.index}"


@dataclass
class BuiltScenario:
    """A fully wired run, ready for ``sim.run``."""

    spec: ScenarioSpec
    sim: Simulator
    topology: Any
    queue: Any
    collector: SliceGoodputCollector
    groups: List[WorkloadGroup] = field(default_factory=list)

    # -- convenience accessors -----------------------------------------
    @property
    def bell(self) -> Any:
        """Alias for :attr:`topology` (the historic ``Bench`` name)."""
        return self.topology

    @property
    def flows(self) -> List[Any]:
        """All individually spawned flows, in spawn order."""
        return [flow for group in self.groups for flow in group.flows]

    @property
    def users(self) -> List[Any]:
        """All session objects, in spawn order."""
        return [user for group in self.groups for user in group.users]

    def all_flows(self) -> List[Any]:
        """Spawned flows plus every session's flows."""
        return self.flows + [f for user in self.users for f in user.flows]

    @property
    def delivery_link(self) -> Any:
        """The link where receivers actually get data."""
        if hasattr(self.topology, "underlay"):
            return self.topology.underlay
        return self.topology.forward

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation to *until* (default: the spec duration)."""
        self.sim.run(until=self.spec.duration if until is None else until)


def build_queue(
    kind: str,
    sim: Simulator,
    capacity_bps: float,
    rtt: float,
    pkt_size: int = 500,
    buffer_rtts: float = 1.0,
    **params: Any,
):
    """Build a queue discipline by registered kind."""
    load_builtins()
    context = QueueContext(
        sim=sim,
        capacity_bps=capacity_bps,
        rtt=rtt,
        pkt_size=pkt_size,
        buffer_rtts=buffer_rtts,
    )
    return QUEUES.create(kind, context, **params)


def build_simulation(spec: ScenarioSpec):
    """Construct everything a :class:`ScenarioSpec` describes.

    Dispatches on the spec's backend: ``packet`` (the default) runs the
    historical assembly below and returns a :class:`BuiltScenario`;
    other kinds go through the backend registry (``fluid`` returns a
    :class:`repro.fluid.BuiltFluid`).  Both expose ``spec`` and
    ``run()``; callers needing packet-only internals should branch on
    the type.
    """
    load_builtins()
    load_plugins(spec.plugins)
    if spec.backend.kind != "packet":
        return BACKENDS.create(spec.backend.kind, spec, **spec.backend.params)
    return _assemble_packet(spec)


def _assemble_packet(spec: ScenarioSpec) -> BuiltScenario:
    """The packet backend's assembly — the historical construction path.

    The assembly order is part of the contract (it fixes the RNG and
    event-scheduling order, which is what makes runs reproducible):
    simulator, queue, topology, TAQ reverse tap, collector, workloads
    in list order, then the ambient observers.
    """
    load_builtins()
    load_plugins(spec.plugins)
    from repro.core import TAQQueue

    sim = Simulator(seed=spec.seed)
    queue = build_queue(
        spec.queue.kind,
        sim,
        spec.topology.capacity_bps,
        spec.topology.rtt,
        spec.topology.pkt_size,
        spec.queue.buffer_rtts,
        **spec.queue.params,
    )
    topology = TOPOLOGIES.create(
        spec.topology.kind,
        TopologyContext(sim=sim, queue=queue, spec=spec.topology),
        **spec.topology.params,
    )
    if (
        isinstance(queue, TAQQueue)
        and spec.queue.reverse_tap
        and hasattr(topology, "reverse")
    ):
        queue.install_reverse_tap(topology.reverse)
    collector = SliceGoodputCollector(spec.metrics.slice_seconds)
    built = BuiltScenario(
        spec=spec, sim=sim, topology=topology, queue=queue, collector=collector
    )
    attach(built.delivery_link, collector)
    flows_spawned = 0
    for index, workload in enumerate(spec.workloads):
        context = WorkloadContext(
            sim=sim,
            topology=topology,
            scenario=spec,
            index=index,
            flows_spawned=flows_spawned,
        )
        group = WORKLOADS.create(workload.kind, context, **workload.params)
        built.groups.append(group)
        flows_spawned += len(group.flows)
    # Ambient observers (``recording()``): observers never touch what
    # they watch, so the run stays bit-identical.
    for observer in ambient():
        observe_scenario(built, observer)
    return built


def observe_scenario(built: BuiltScenario, observer: Observer) -> None:
    """Attach *observer* to every packet-path component of *built*: the
    simulator and its event queue, every link the topology owns with its
    queue (and TAQ's flow tracker), and the senders of all TCP flows
    spawned so far — senders created later inherit the simulator's
    observer."""
    attach(built.sim, observer)
    attach(built.sim.events, observer)
    for link in built.topology.links:
        attach(link, observer)
        attach(link.queue, observer)
        tracker = getattr(link.queue, "tracker", None)
        if tracker is not None:
            attach(tracker, observer)
    for flow in built.all_flows():
        if isinstance(flow.sender, TCPSender):
            attach(flow.sender, observer)


def work_counts(built: BuiltScenario) -> Dict[str, int]:
    """What the run did, read from the totals its components keep.

    Events popped and cancelled come from the simulator and its event
    queue; packet counts are summed over every link the topology owns.
    ``taq.evictions`` (push-outs at TAQ queues, which drop without the
    link seeing a rejection) is present only when non-zero.  Reading
    totals needs no observer, so any built scenario can be counted
    after (or during) its run.
    """
    from repro.core import TAQQueue

    sim = built.sim
    enqueued = dropped = dequeued = delivered = evictions = 0
    for link in built.topology.links:
        queue, stats = link.queue, link.stats
        enqueued += stats.arrived - stats.dropped
        dropped += queue.dropped
        dequeued += stats.arrived - queue.dropped - len(queue)
        delivered += stats.delivered
        if isinstance(queue, TAQQueue):
            evictions += queue.dropped - stats.dropped
    counts = {
        "net.packets_delivered": delivered,
        "net.packets_dequeued": dequeued,
        "net.packets_dropped": dropped,
        "net.packets_enqueued": enqueued,
        "sim.events_popped": sim.processed,
        "sim.heap_discards": sim.events.scheduled - sim.processed - len(sim.events),
    }
    if evictions:
        counts["taq.evictions"] = evictions
    return counts


def manifest_payloads(spec: ScenarioSpec) -> Dict[str, Dict[str, Any]]:
    """``topology``/``qdisc``/``scenario``/``backend`` dictionaries for
    a manifest."""
    document = spec.canonical()
    return {
        "topology": document["topology"],
        "qdisc": document["queue"],
        "scenario": document,
        "backend": document.get("backend", {"kind": "packet"}),
    }
