"""repro.perf — performance observability for the simulator.

Two layers:

- :mod:`repro.perf.bench` / :mod:`repro.perf.suite` — the deterministic
  benchmark suite and the schema-versioned ``BENCH_*.json`` document it
  emits; :mod:`repro.perf.compare` diffs two BENCH files with
  per-benchmark regression thresholds and an exact gate on work counts.
- :mod:`repro.perf.cli` — the ``taq-perf`` command (``run`` /
  ``compare`` / ``profile``); :mod:`repro.perf.flamestack` provides the
  collapsed-stack sampler behind ``profile``.

Work counts (events popped, packets enqueued/dropped/...) are not kept
here: :func:`repro.build.work_counts` reads them from the totals the
simulator, links and queues already keep.  See ``docs/performance.md``
for the counter catalogue and the BENCH schema.
"""

from repro.perf.bench import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_VERSION,
    DEFAULT_BENCH_NAME,
    BenchCounts,
    Benchmark,
    BenchResult,
    bench_document,
    benchmark,
    get_benchmark,
    load_bench,
    load_suite,
    run_benchmark,
    run_suite,
    write_bench,
)

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_BENCH_NAME",
    "BenchCounts",
    "Benchmark",
    "BenchResult",
    "bench_document",
    "benchmark",
    "get_benchmark",
    "load_bench",
    "load_suite",
    "run_benchmark",
    "run_suite",
    "write_bench",
]
