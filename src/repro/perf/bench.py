"""The benchmark registry, runner, and the ``BENCH_*.json`` schema.

A benchmark is a named, deterministic unit of simulator work: the
function builds everything it needs from fixed seeds, runs it, and
returns how much work that was (events processed, packets handled).
The runner times it (best-of-``repeats`` wall time), derives the
throughput rates, and snapshots the process's peak RSS; the whole
suite serializes to a schema-versioned BENCH document committed at the
repo root (``BENCH_6.json`` since the event-core rearchitecture;
``BENCH_5.json`` is kept as the heap-era reference point) so every
future change can be compared against a recorded baseline with
``taq-perf compare``.

A ``scale`` knob multiplies each benchmark's problem size so tests can
run the full suite in milliseconds (``scale=0.02``) while CI and the
committed baseline use the default size; rates (events/sec) remain
comparable across scales, which is what ``compare`` thresholds on.

Benchmarks register via the :func:`benchmark` decorator and live in
:mod:`repro.perf.suite`; :func:`load_suite` imports that module so the
registry fills on demand (the same lazy pattern as
``repro.build.load_builtins``).
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.manifest import peak_rss_bytes

#: Bump when the BENCH document layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1
BENCH_SCHEMA = "repro.perf.bench"
#: The trajectory file this PR emits at the repo root.
DEFAULT_BENCH_NAME = "BENCH_6.json"


@dataclass
class BenchCounts:
    """How much simulated work one benchmark run performed."""

    events: int = 0
    packets: int = 0


#: A benchmark body: ``fn(scale) -> BenchCounts``.  Must be
#: deterministic for a given scale (fixed seeds, no wall-clock reads
#: that influence behaviour).
BenchFn = Callable[[float], BenchCounts]


@dataclass(frozen=True)
class Benchmark:
    """One registered benchmark."""

    name: str
    fn: BenchFn
    group: str
    description: str


#: name -> benchmark, filled by :func:`benchmark` at suite import.
BENCHMARKS: Dict[str, Benchmark] = {}


def benchmark(name: str, group: str = "misc", description: str = ""):
    """Register the decorated function as benchmark *name*."""

    def decorate(fn: BenchFn) -> BenchFn:
        if name in BENCHMARKS:
            raise ValueError(f"duplicate benchmark {name!r}")
        doc = description or (fn.__doc__ or "").strip().splitlines()[0:1]
        BENCHMARKS[name] = Benchmark(
            name=name,
            fn=fn,
            group=group,
            description=doc if isinstance(doc, str) else (doc[0] if doc else ""),
        )
        return fn

    return decorate


def load_suite() -> Dict[str, Benchmark]:
    """Import the shipped suite so :data:`BENCHMARKS` is populated."""
    import repro.perf.suite  # noqa: F401  (registration side effect)

    return BENCHMARKS


def get_benchmark(name: str) -> Benchmark:
    registry = load_suite()
    try:
        return registry[name]
    except KeyError:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown benchmark {name!r} (known: {known})") from None


@dataclass
class BenchResult:
    """Measured outcome of one benchmark at one scale."""

    name: str
    group: str
    wall_time_s: float
    events: int
    packets: int
    events_per_sec: float
    packets_per_sec: float
    #: The process's lifetime peak RSS when the benchmark finished, not
    #: this benchmark's own footprint: monotone across a suite run (run
    #: one benchmark alone with ``--only NAME`` for its own figure).
    peak_rss_bytes: int
    repeats: int
    scale: float


def run_benchmark(bench: Benchmark, scale: float = 1.0, repeats: int = 1) -> BenchResult:
    """Time *bench*: best-of-*repeats* wall time at *scale*.

    Event/packet counts are deterministic per scale, so the counts from
    the final repeat stand for all of them; wall time takes the best
    (least-noise) repeat, the standard microbenchmark convention.
    """
    repeats = max(1, repeats)
    best = float("inf")
    counts = BenchCounts()
    for _ in range(repeats):
        start = time.perf_counter()
        counts = bench.fn(scale)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    def rate(n: int) -> float:
        return n / best if best > 0 else 0.0

    return BenchResult(
        name=bench.name,
        group=bench.group,
        wall_time_s=best,
        events=counts.events,
        packets=counts.packets,
        events_per_sec=rate(counts.events),
        packets_per_sec=rate(counts.packets),
        peak_rss_bytes=peak_rss_bytes(),
        repeats=repeats,
        scale=scale,
    )


def run_suite(
    names: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    repeats: int = 1,
    log: Optional[Callable[[str], None]] = None,
) -> List[BenchResult]:
    """Run the named benchmarks (default: all) in sorted name order."""
    registry = load_suite()
    selected = sorted(registry) if not names else list(names)
    results: List[BenchResult] = []
    for name in selected:
        bench = get_benchmark(name)
        if log is not None:
            log(f"[bench] {name} (scale={scale:g}) ...")
        result = run_benchmark(bench, scale=scale, repeats=repeats)
        if log is not None:
            log(
                f"[bench] {name}: {result.wall_time_s:.3f}s, "
                f"{result.events_per_sec:,.0f} events/s, "
                f"{result.packets_per_sec:,.0f} packets/s"
            )
        results.append(result)
    return results


# ----------------------------------------------------------------------
# BENCH document io
# ----------------------------------------------------------------------
def bench_document(results: Sequence[BenchResult]) -> Dict:
    """Assemble the schema-versioned BENCH document."""
    from repro.parallel.cache import code_version

    return {
        "schema": BENCH_SCHEMA,
        "schema_version": BENCH_SCHEMA_VERSION,
        "created_unix": time.time(),
        "source_hash": code_version(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "benchmarks": {result.name: asdict(result) for result in results},
    }


def write_bench(document: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench(path: str) -> Dict:
    """Load and validate a BENCH document written by :func:`write_bench`."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"not a BENCH document: {path}")
    version = document.get("schema_version", 0)
    if version > BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"BENCH schema v{version} is newer than supported v{BENCH_SCHEMA_VERSION}"
        )
    if not isinstance(document.get("benchmarks"), dict):
        raise ValueError(f"BENCH document without a benchmarks table: {path}")
    return document
