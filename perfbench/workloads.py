"""The benchmark's workloads: what one operation runs and how its
outputs are checked.

Every workload is a closed loop: an operation starts when the previous
one has finished.  Packet operations run single-threaded in this
process; the sweep runs its points through ``ParallelRunner`` with at
most two worker processes (never more than the host's CPUs).

An operation returns an :class:`Op`: its timings, its deterministic
counts and outcome digest, its simulated quality figures, and the list
of checks it failed (empty when its outputs are correct).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.build import ScenarioSpec, build_simulation
from repro.core import TAQQueue
from repro.experiments import fig02_fairness_droptail as fig02
from repro.experiments import fig12_admission_cdf as fig12
from repro.experiments.scenario import _packet_outcome
from repro.experiments.sweeps import sweep_point_scenario, sweep_specs
from repro.parallel import ParallelRunner, ResultCache

#: Simulated seconds covered by one ``slice_s`` sample.
SLICE_SIM_S = 10.0

#: Set-ups per operation; the operation reports their median and runs
#: the last.  One set-up takes about a millisecond, too short to time
#: steadily once.
SETUPS = 5

#: The fig08/fig02 point: 60 bulk flows sharing 600 kbps (10 kbps each).
BULK_CAPACITY_BPS = 600_000.0
BULK_FAIR_SHARE_BPS = 10_000.0


@dataclass
class Op:
    """What one operation produced."""

    seed: int
    setup_s: float
    #: Host seconds spent simulating (packet workloads) or the cold
    #: sweep's wall time (sweep).
    host_s: float
    #: Bottleneck packets: offered (packet workloads) or served by the
    #: sweep's points (recovered from each point's utilization).
    packets: int
    #: Host seconds per SLICE_SIM_S simulated seconds.
    slices: List[float]
    #: Deterministic counts (same seed, same code: same values).
    counts: Dict[str, int]
    #: SHA-256 over the run's outcome and counts.
    digest: str
    #: Simulated figures: timeouts_per_flow, jain_short, shutout_frac.
    quality: Dict[str, float]
    #: Simulated object download times (web sessions only).
    downloads: List[float] = field(default_factory=list)
    #: Sweep-only timings (warm_s, overhead_s, point_s, warm_lookup_s).
    sweep: Dict[str, Any] = field(default_factory=dict)
    #: Failed output checks; empty when the operation is correct.
    problems: List[str] = field(default_factory=list)


def _untraced(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    return fn


def _digest(*parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Packet operations
# ----------------------------------------------------------------------
def conservation_problems(link: Any, queue: Any) -> List[str]:
    """Packet conservation at one link, from ``LinkStats`` and the
    discipline's counters.  A push-out eviction moves an accepted packet
    from the queue's ``enqueued`` to its ``dropped`` column without a
    link-level drop, so evictions are ``queue.dropped - link drops``."""
    stats = link.stats
    transmitted = stats.queue_delay_samples  # one sample per dequeue
    problems = []
    if stats.arrived != queue.enqueued + queue.dropped:
        problems.append(
            f"{link.name}: arrived {stats.arrived} != accepted {queue.enqueued}"
            f" + dropped {queue.dropped}"
        )
    if queue.enqueued != transmitted + len(queue):
        problems.append(
            f"{link.name}: accepted {queue.enqueued} != transmitted {transmitted}"
            f" + buffered {len(queue)}"
        )
    if stats.delivered > transmitted:
        problems.append(
            f"{link.name}: delivered {stats.delivered} > transmitted {transmitted}"
        )
    evictions = queue.dropped - stats.dropped
    if evictions < 0 or (evictions and not isinstance(queue, TAQQueue)):
        problems.append(f"{link.name}: impossible eviction count {evictions}")
    return problems


def transfer_problems(spec: ScenarioSpec, built: Any) -> List[str]:
    """Every requested object is completed, in flight or still queued,
    and every completed flow produced exactly one download sample."""
    requested = sum(
        w.params["n_users"] * w.params["objects_per_user"]
        for w in spec.workloads
        if w.kind == "web-bands"
    )
    users = built.users
    completed = sum(len(user.samples) for user in users)
    in_flight = sum(1 for user in users for f in user.flows if not f.done)
    queued = sum(len(user.pending) for user in users)
    problems = []
    if completed + in_flight + queued != requested:
        problems.append(
            f"objects: completed {completed} + in flight {in_flight} + queued"
            f" {queued} != requested {requested}"
        )
    done_flows = sum(1 for user in users for f in user.flows if f.done)
    if done_flows != completed:
        problems.append(f"{done_flows} finished flows but {completed} samples")
    if any(s.duration <= 0 for user in users for s in user.samples):
        problems.append("non-positive download time")
    return problems


def run_packet_op(spec: ScenarioSpec, tracer: Any = None) -> Op:
    """Build *spec* from its canonical document (SETUPS times) and run
    the last build in SLICE_SIM_S chunks, timing each chunk."""
    call = tracer.wrap if tracer is not None else _untraced
    document = spec.canonical()
    setups = []
    for _ in range(SETUPS):
        # A discarded build is cyclic garbage: collect it untimed, so
        # neither the next set-up nor the run pays for it.
        built = None
        gc.collect()
        start = time.perf_counter()
        parsed = call("build.spec", ScenarioSpec.from_document)(document)
        built = call("build.assemble", build_simulation)(parsed)
        setups.append(time.perf_counter() - start)
    slices = []
    now = 0.0
    while now < parsed.duration:
        until = min(now + SLICE_SIM_S, parsed.duration)
        chunk_start = time.perf_counter()
        call("sim.run", built.run)(until=until)
        slices.append(time.perf_counter() - chunk_start)
        now = until

    outcome = _packet_outcome(parsed, built)
    link = built.topology.forward
    queue = built.queue
    flows = built.all_flows()
    baseline = [
        q for q in (link.queue, built.topology.reverse.queue)
        if not isinstance(q, TAQQueue)
    ]
    admission = getattr(queue, "admission", None)
    counts = dict(
        events=built.sim.processed,
        offered=link.stats.arrived,
        drops=queue.dropped,
        evictions=queue.dropped - link.stats.dropped,
        flows=len(flows),
        retransmits=sum(f.sender.stats.retransmits for f in flows),
        segments=sum(f.sender.stats.data_sent + f.sender.stats.retransmits
                     for f in flows),
        baseline_dropped=sum(q.dropped for q in baseline),
        baseline_offered=sum(q.enqueued + q.dropped for q in baseline),
        refusals=admission.refused if admission is not None else 0,
    )
    flow_ids = [f.flow_id for f in flows]
    steady = [i for i in built.collector.slice_indices()[:-1] if i >= 1]
    shutout = (
        statistics.fmean(built.collector.shut_out_fraction(i, flow_ids) for i in steady)
        if steady else 0.0
    )
    problems = conservation_problems(link, queue)
    problems += conservation_problems(built.topology.reverse,
                                      built.topology.reverse.queue)
    problems += transfer_problems(parsed, built)
    return Op(
        seed=parsed.seed,
        setup_s=statistics.median(setups),
        host_s=sum(slices),
        packets=link.stats.arrived,
        slices=slices,
        counts=counts,
        digest=_digest(dataclasses.asdict(outcome), sorted(counts.items())),
        quality=dict(
            timeouts_per_flow=outcome.timeouts / len(flows),
            jain_short=outcome.short_term_jain,
            shutout_frac=shutout,
        ),
        downloads=[s.duration for user in built.users for s in user.samples],
        problems=problems,
    )


# ----------------------------------------------------------------------
# Sweep operations
# ----------------------------------------------------------------------
def sweep_workers() -> int:
    """Worker processes for the sweep: two, or fewer on a smaller host."""
    return min(2, os.cpu_count() or 1)


def _fields_differ(a: Any, b: Any) -> Optional[str]:
    """The first dataclass field whose values differ (NaN-safe), or None."""
    for f in dataclasses.fields(a):
        if repr(getattr(a, f.name)) != repr(getattr(b, f.name)):
            return f.name
    return None


def run_sweep_op(seed: int, scratch: str, scale: float = 1.0,
                 tracer: Any = None) -> Op:
    """The default fig02 grid, cold into a fresh dir-backend cache, then
    warm from it (every point a hit)."""
    call = tracer.wrap if tracer is not None else _untraced
    config = fig02.Config(seed=seed, duration=fig02.Config.duration * scale)
    jobs = sweep_workers()
    setups = []
    root = None
    for _ in range(SETUPS):
        if root is not None:
            shutil.rmtree(root)
        start = time.perf_counter()
        specs = sweep_specs(
            config.queue_kind, config.capacities_bps, config.fair_shares_bps,
            duration=config.duration, rtt=config.rtt,
            slice_seconds=config.slice_seconds, seed=config.seed,
        )
        root = tempfile.mkdtemp(prefix="cache-", dir=scratch)
        cache = ResultCache(root)
        setups.append(time.perf_counter() - start)
    try:
        start = time.perf_counter()
        cold = call("parallel.sweep", ParallelRunner(jobs=jobs, cache=cache).run)(specs)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = call("parallel.sweep", ParallelRunner(jobs=jobs, cache=cache).run)(specs)
        warm_s = time.perf_counter() - start
    finally:
        shutil.rmtree(root)

    problems = []
    if len(cold) != len(specs) or any(r.cached for r in cold):
        problems.append(f"cold sweep: {len(cold)} results for {len(specs)} points")
    hits = sum(1 for r in warm if r.cached)
    if hits != len(specs) or cache.hits != len(specs):
        problems.append(
            f"warm sweep: {hits} hits ({cache.hits} counted) for {len(specs)} points"
        )
    for c, w in zip(cold, warm):
        name = _fields_differ(c.value, w.value)
        if name is not None:
            problems.append(f"{c.spec.describe()}: warm {name} differs from cold")

    points = [r.value for r in cold]
    served = [
        round(p.utilization * config.duration * p.capacity_bps
              / (8 * r.spec.scenario["topology"]["pkt_size"]))
        for p, r in zip(points, cold)
    ]
    point_s = [r.wall_time for r in cold]
    counts = dict(
        points=len(points),
        served=sum(served),
        timeouts=sum(p.timeouts for p in points),
        flows=sum(p.n_flows for p in points),
        hits=hits,
    )
    return Op(
        seed=seed,
        setup_s=statistics.median(setups),
        host_s=cold_s,
        packets=sum(served),
        slices=[s * SLICE_SIM_S / config.duration for s in point_s],
        counts=counts,
        digest=_digest([dataclasses.asdict(p) for p in points]),
        quality=dict(
            timeouts_per_flow=counts["timeouts"] / counts["flows"],
            jain_short=statistics.fmean(p.short_term_jain for p in points),
            shutout_frac=statistics.fmean(p.shut_out_fraction for p in points),
        ),
        sweep=dict(
            warm_s=warm_s,
            overhead_s=cold_s - sum(point_s) / jobs,
            point_s=point_s,
            warm_lookup_s=[r.lookup_time for r in warm],
        ),
        problems=problems,
    )


# ----------------------------------------------------------------------
# The workload table
# ----------------------------------------------------------------------
def bulk_spec(kind: str, seed: int, scale: float = 1.0) -> ScenarioSpec:
    """The fig08 (``taq``) / fig02 (``droptail``) 60-flow point."""
    return sweep_point_scenario(
        kind, BULK_CAPACITY_BPS, BULK_FAIR_SHARE_BPS,
        duration=120.0 * scale, seed=seed,
    )


def web_spec(seed: int, scale: float = 1.0) -> ScenarioSpec:
    """Fig 12's admission-controlled web sessions: 30 users, 4-connection
    pools, 240 simulated seconds."""
    config = fig12.Config(
        n_users=30, duration=240.0 * scale,
        arrival_window=fig12.Config.arrival_window * scale, seed=seed,
    )
    return fig12.scenario_for(config, "taq+ac")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: Distinct seeds one run cycles through; the simulated figures are
    #: means over exactly these, so they do not depend on host speed.
    seeds_per_run: int
    #: ``run(seed, scratch, scale, tracer) -> Op``
    run: Callable[..., Op]
    #: Same documents under another discipline, for the cost ratio.
    twin: Optional[str] = None

    def seeds(self, seed: int) -> List[int]:
        """The operation seeds of a run with workload seed *seed*."""
        return [seed * self.seeds_per_run + j for j in range(self.seeds_per_run)]


def _bulk(kind: str) -> Callable[..., Op]:
    def run(seed: int, scratch: str, scale: float = 1.0, tracer: Any = None) -> Op:
        return run_packet_op(bulk_spec(kind, seed, scale), tracer)
    return run


def _web(seed: int, scratch: str, scale: float = 1.0, tracer: Any = None) -> Op:
    return run_packet_op(web_spec(seed, scale), tracer)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("taq_bulk", 6, _bulk("taq"), twin="droptail_bulk"),
        Workload("droptail_bulk", 12, _bulk("droptail"), twin="taq_bulk"),
        Workload("web_admission", 5, _web),
        Workload("sweep_cached", 2, run_sweep_op),
    )
}
