"""The declarative build plane: typed specs + pluggable registries.

One simulation run is described by a :class:`ScenarioSpec` (topology +
queue + workloads + metrics) and constructed by
:func:`build_simulation`.  The components behind the spec's short kind
strings live in three decorator-populated registries — adding a queue
discipline, topology, or workload generator never means editing an
if/elif chain:

>>> from repro.build import QUEUES
>>> @QUEUES.register("myqueue")
... def _build(ctx):
...     return MyQueue(ctx.buffer_pkts)

Out-of-tree modules register the same way and enter JSON scenarios via
the document's ``"plugins"`` list (see :func:`load_plugins`).
"""

from repro.build.errors import (
    DuplicateKindError,
    RegistryError,
    SpecError,
    UnknownKindError,
)
from repro.build.harness import (
    BuiltScenario,
    QueueContext,
    TopologyContext,
    WorkloadContext,
    WorkloadGroup,
    build_queue,
    build_simulation,
    manifest_payloads,
    observe_scenario,
    work_counts,
)
from repro.build.registries import (
    BACKENDS,
    QUEUES,
    TOPOLOGIES,
    WORKLOADS,
    load_builtins,
    load_plugins,
)
from repro.build.registry import Registry
from repro.build.spec import (
    BackendSpec,
    MetricsSpec,
    QueueSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

load_builtins()

__all__ = [
    "BACKENDS",
    "BackendSpec",
    "BuiltScenario",
    "DuplicateKindError",
    "MetricsSpec",
    "QUEUES",
    "QueueContext",
    "QueueSpec",
    "Registry",
    "RegistryError",
    "ScenarioSpec",
    "SpecError",
    "TOPOLOGIES",
    "TopologyContext",
    "TopologySpec",
    "UnknownKindError",
    "WORKLOADS",
    "WorkloadContext",
    "WorkloadGroup",
    "WorkloadSpec",
    "build_queue",
    "build_simulation",
    "load_builtins",
    "load_plugins",
    "manifest_payloads",
    "observe_scenario",
    "work_counts",
]
