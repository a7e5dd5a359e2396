"""The run manifest: what produced this result, exactly.

A manifest is a small JSON document emitted next to every telemetry
bundle (and usable standalone) answering the questions a reader of a
months-old ``results/`` directory asks: which seed, which topology and
queue parameters, which *source code* (content hash of every ``.py``
file in the package — the same hash that keys the result cache), how
long it ran and how much work that was.

Two manifests with equal ``source_hash``, ``seed`` and parameters
describe bit-identical runs; diffing manifests is therefore the first
step of diffing two runs (see ``docs/observability.md``).
"""

from __future__ import annotations

import json
import sys
import time as _time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

#: Bump when manifest fields change incompatibly.
#: v2: added ``scenario`` (full canonical ScenarioSpec document).
#: v3: added ``peak_rss_bytes`` (process peak RSS at manifest build).
#: v4: added ``backend`` (which engine ran the scenario; packet/fluid).
MANIFEST_SCHEMA_VERSION = 4


@dataclass
class RunManifest:
    """Provenance record for one simulation run."""

    run_id: str
    seed: int
    #: Topology parameters (capacity_bps, rtt, pkt_size, ...).
    topology: Dict[str, Any] = field(default_factory=dict)
    #: Queue discipline: at least {"kind": ...}; knobs alongside.
    qdisc: Dict[str, Any] = field(default_factory=dict)
    #: Full canonical scenario document (``ScenarioSpec.canonical()``)
    #: when the run was built declaratively; empty for ad-hoc runs.
    scenario: Dict[str, Any] = field(default_factory=dict)
    #: Which engine produced the numbers: at least {"kind": "packet"}
    #: or {"kind": "fluid", ...params}.  Pre-v4 manifests load with the
    #: packet default (the only engine that existed).
    backend: Dict[str, Any] = field(default_factory=lambda: {"kind": "packet"})
    #: Sim-clock duration of the run, seconds.
    duration: float = 0.0
    #: Wall-clock seconds the run took (not deterministic!).
    wall_time_s: float = 0.0
    #: Peak resident set size of the producing process in bytes, read
    #: at manifest build time (not deterministic; 0 where unavailable).
    peak_rss_bytes: int = 0
    #: Simulator events processed.
    event_count: int = 0
    #: Structured trace events recorded.
    trace_events: int = 0
    #: Gauge sampling interval, seconds (0 = sampling disabled).
    sample_interval: float = 0.0
    #: Content hash of the repro package source (see
    #: :func:`repro.parallel.cache.code_version`).
    source_hash: str = ""
    #: Unix timestamp of manifest creation (not deterministic).
    created_unix: float = 0.0
    schema_version: int = MANIFEST_SCHEMA_VERSION

    def to_json(self) -> str:
        payload = {"schema": "repro.obs.manifest"}
        payload.update(asdict(self))
        return json.dumps(payload, indent=2, sort_keys=True)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")


def peak_rss_bytes() -> int:
    """Lifetime peak resident set size of this process, in bytes.

    Uses ``resource.getrusage`` (kilobytes on Linux, bytes on macOS);
    returns 0 where the module is unavailable (non-POSIX platforms) so
    callers can treat the value as best-effort.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        return int(usage)
    return int(usage) * 1024


#: :func:`build_manifest`'s parameter of the same name shadows it.
_peak_rss = peak_rss_bytes


def build_manifest(
    run_id: str,
    seed: int,
    *,
    topology: Optional[Dict[str, Any]] = None,
    qdisc: Optional[Dict[str, Any]] = None,
    scenario: Optional[Dict[str, Any]] = None,
    backend: Optional[Dict[str, Any]] = None,
    duration: float = 0.0,
    wall_time_s: float = 0.0,
    peak_rss_bytes: Optional[int] = None,
    event_count: int = 0,
    trace_events: int = 0,
    sample_interval: float = 0.0,
) -> RunManifest:
    """Assemble a manifest, filling in source hash and timestamp.

    ``peak_rss_bytes`` defaults to the producing process's own peak RSS
    (:func:`peak_rss_bytes`), so every bundle records its memory
    footprint without callers having to thread it through.
    """
    from repro.parallel.cache import code_version

    return RunManifest(
        run_id=run_id,
        seed=seed,
        topology=dict(topology or {}),
        qdisc=dict(qdisc or {}),
        scenario=dict(scenario or {}),
        backend=dict(backend or {"kind": "packet"}),
        duration=duration,
        wall_time_s=wall_time_s,
        peak_rss_bytes=_peak_rss() if peak_rss_bytes is None else peak_rss_bytes,
        event_count=event_count,
        trace_events=trace_events,
        sample_interval=sample_interval,
        source_hash=code_version(),
        created_unix=_time.time(),
    )


def load_manifest(path: str) -> RunManifest:
    """Read a manifest written by :meth:`RunManifest.write`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.pop("schema", "repro.obs.manifest") != "repro.obs.manifest":
        raise ValueError(f"not a run manifest: {path}")
    version = payload.get("schema_version", MANIFEST_SCHEMA_VERSION)
    if version > MANIFEST_SCHEMA_VERSION:
        raise ValueError(
            f"manifest schema v{version} is newer than supported "
            f"v{MANIFEST_SCHEMA_VERSION}"
        )
    known = {f for f in RunManifest.__dataclass_fields__}
    return RunManifest(**{k: v for k, v in payload.items() if k in known})


#: Placeholder for "this side has no value at all" in
#: :func:`diff_manifests` output — distinct from an explicit ``None``.
MISSING = "<missing>"


def _diff_nested(prefix: str, va: Any, vb: Any, out: Dict[str, Any]) -> None:
    if isinstance(va, dict) and isinstance(vb, dict):
        for key in sorted(set(va) | set(vb)):
            _diff_nested(
                f"{prefix}.{key}",
                va.get(key, MISSING),
                vb.get(key, MISSING),
                out,
            )
        return
    if va != vb:
        out[prefix] = (va, vb)


def diff_manifests(a: RunManifest, b: RunManifest) -> Dict[str, Any]:
    """Field-by-field differences between two manifests.

    Non-deterministic fields (wall time, peak RSS, creation timestamp)
    are ignored, as is ``schema_version`` (a v3-era bundle against a
    fresh one should diff on *content*, not on the format revision).
    Dict-valued fields (topology, qdisc, scenario, backend) are diffed
    recursively with dotted paths, so a packet-vs-fluid pair reports
    ``{"backend.kind": ("packet", "fluid")}`` rather than the two whole
    backend documents; a key present on only one side pairs with
    :data:`MISSING`.  An empty dict means the two runs were produced by
    the same code, seed and parameters.
    """
    skip = {"wall_time_s", "peak_rss_bytes", "created_unix", "run_id",
            "schema_version"}
    out: Dict[str, Any] = {}
    for name in RunManifest.__dataclass_fields__:
        if name in skip:
            continue
        _diff_nested(name, getattr(a, name), getattr(b, name), out)
    return out
