"""Run one benchmark workload and print its metrics.

Untraced (the end-to-end metrics)::

    python3 perfbench/run.py --workload taq_bulk --seed 1 --seconds 25 --trace 0

Traced (the per-layer metrics)::

    python3 perfbench/run.py --workload taq_bulk --seed 1 --seconds 25 --trace 1

Run from the repository root; the benchmark imports ``repro`` from
``src/``.  Every metric is printed on its own line with its unit and
direction, followed by the correctness summary and, as the last line,
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Figures printed for a reader but kept out of the JSON result.  The
#: result carries exactly the metrics BENCHMARK.json declares: each is
#: reported by every workload, never reads 0 and is steady across
#: seeds.  These fail one of the three (see perfbench/README.md).
REPORT_ONLY: Dict[str, Tuple[str, str]] = {
    "error_rate": ("1", "lower"),
    "timeouts_per_flow": ("count", "lower"),
    "jain_short": ("1", "higher"),
    "shutout_frac": ("1", "lower"),
    "download_p50_s": ("s", "lower"),
    "download_spread": ("1", "lower"),
    "sweep_s": ("s", "lower"),
    "taq_dt_cost_ratio": ("1", "lower"),
}


#: Seeds a traced run passes over (fewer when the workload has fewer),
#: which keeps a traced run under a minute on a 2-vCPU VM.
TRACE_SEEDS = 3


@dataclass
class Batch:
    """Operations of one phase, and the failures among them."""

    ops: List[Any] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def distinct(self) -> List[Any]:
        """The first operation of every seed, in seed order."""
        seen: Dict[int, Any] = {}
        for op in self.ops:
            seen.setdefault(op.seed, op)
        return [seen[s] for s in sorted(seen)]


def run_ops(workload: Any, seeds: Sequence[int], scratch: str, scale: float,
            seconds: float = 0.0, tracer: Any = None,
            on_op: Any = None) -> Batch:
    """Closed loop over *seeds*: every seed once, then round again until
    *seconds* have passed.  A repeated seed must reproduce its first
    digest and counts exactly."""
    batch = Batch()
    first: Dict[int, Any] = {}
    start = time.perf_counter()
    index = 0
    while index < len(seeds) or time.perf_counter() - start < seconds:
        seed = seeds[index % len(seeds)]
        index += 1
        batch.attempted += 1
        try:
            op = workload.run(seed, scratch, scale, tracer)
        except Exception as exc:  # a failed operation is counted, not fatal
            batch.failures.append(f"{workload.name} seed {seed}: {exc!r}")
            continue
        if on_op is not None:
            on_op(op)
        problems = list(op.problems)
        reference = first.setdefault(seed, op)
        if reference is not op and (reference.digest, reference.counts) != (
            op.digest, op.counts
        ):
            problems.append("repeat of the seed changed its outcome")
        if problems:
            batch.failures.append(f"{workload.name} seed {seed}: " + "; ".join(problems))
        batch.ops.append(op)
    return batch


def peak_rss_mb() -> float:
    """Peak resident set of this process or any finished child, MiB."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def end_to_end(batch: Batch) -> Dict[str, float]:
    """The end-to-end metrics of an untraced batch."""
    from perfbench.layers import pkts_per_s

    ops = batch.ops
    slices = [s for op in ops for s in op.slices]
    return {
        "setup_s": statistics.median(op.setup_s for op in ops),
        "peak_rss_mb": peak_rss_mb(),
        "pkts_per_s": pkts_per_s(ops),
        "slice_s.p50": statistics.median(slices),
        "slice_s.p90": statistics.quantiles(slices, n=10)[8],
    }


def report_only(batch: Batch) -> Dict[str, float]:
    """The figures of an untraced batch that stay out of the JSON."""
    distinct = batch.distinct()
    figures = {"error_rate": len(batch.failures) / batch.attempted}
    for name in ("timeouts_per_flow", "jain_short", "shutout_frac"):
        figures[name] = statistics.fmean(op.quality[name] for op in distinct)
    downloads = [d for op in distinct for d in op.downloads]
    if len(downloads) >= 2:
        median = statistics.median(downloads)
        figures["download_p50_s"] = median
        figures["download_spread"] = statistics.quantiles(downloads, n=10)[8] / median
    if any(op.sweep for op in batch.ops):
        figures["sweep_s"] = statistics.median(op.host_s for op in batch.ops)
    return figures


def host_s_per_pkt(ops: Sequence[Any]) -> float:
    return sum(op.host_s for op in ops) / sum(op.packets for op in ops)


def determinism_lines(batch: Batch) -> List[str]:
    """Deterministic counts and outcome digest per distinct seed, and a
    digest over all of them."""
    lines = []
    combined = hashlib.sha256()
    for op in batch.distinct():
        counts = " ".join(f"{k}={v}" for k, v in sorted(op.counts.items()))
        lines.append(f"seed {op.seed}: {counts} digest={op.digest[:16]}")
        combined.update(op.digest.encode("ascii"))
    lines.append(f"outcome digest: {combined.hexdigest()[:16]}")
    return lines


def print_metrics(metrics: Dict[str, float], units: Dict[str, Tuple[str, str]]) -> None:
    for name, value in metrics.items():
        unit, better = units[name]
        print(f"{name:32s} {value:14.6g} {unit:6s} ({better} is better)")


def declared_metrics(section: str) -> Dict[str, Tuple[str, str]]:
    """``name -> (unit, better)`` of one BENCHMARK.json metric list."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"]) for m in document[section]}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float], section: str) -> str:
    """The final JSON line; its metrics must be exactly the declared ones."""
    declared = declared_metrics(section)
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"{section} metrics {sorted(metrics)} != declared {sorted(declared)}"
        )
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": declared[name][0]}
            for name in declared
        },
    })


def untraced_run(workload: Any, seed: int, seconds: float, scratch: str,
                 scale: float = 1.0) -> Tuple[Batch, Dict[str, float], Dict[str, float]]:
    """The measured closed loop: (batch, end-to-end, report-only)."""
    batch = run_ops(workload, workload.seeds(seed), scratch, scale, seconds)
    if not batch.ops:
        raise RuntimeError("every operation failed: " + "; ".join(batch.failures))
    return batch, end_to_end(batch), report_only(batch)


def traced_run(workload: Any, seed: int, scratch: str, scale: float = 1.0,
               spans_path: Optional[Path] = None
               ) -> Tuple[Batch, Dict[str, float], Dict[str, float]]:
    """One untraced pass over the first TRACE_SEEDS of the workload's
    seeds (and its twin's pass over them, for the cost ratio), then one
    traced pass over the same seeds.  The spans of the first traced
    operation are written to *spans_path* once it has finished.

    Returns (all operations, per-layer metrics, report-only figures).
    """
    from perfbench.layers import KEPT_DURATIONS, per_layer, targets
    from perfbench.spans import LayerTotals, Tracer, installed
    from perfbench.workloads import WORKLOADS

    seeds = workload.seeds(seed)[:TRACE_SEEDS]
    untraced = run_ops(workload, seeds, scratch, scale)
    figures: Dict[str, float] = {}
    twin_failures: List[str] = []
    twin_attempted = 0
    if workload.twin is not None:
        twin = run_ops(WORKLOADS[workload.twin], seeds, scratch, scale)
        twin_failures, twin_attempted = twin.failures, twin.attempted
        if twin.ops and untraced.ops:
            own, other = host_s_per_pkt(untraced.ops), host_s_per_pkt(twin.ops)
            taq, droptail = (own, other) if workload.name == "taq_bulk" else (other, own)
            figures["taq_dt_cost_ratio"] = taq / droptail

    tracer = Tracer()
    totals = LayerTotals(KEPT_DURATIONS)
    pending_spans = spans_path

    def fold(op: Any) -> None:
        nonlocal pending_spans
        tracer.fold_into(totals)
        if pending_spans is not None:
            pending_spans.parent.mkdir(parents=True, exist_ok=True)
            with gzip.open(pending_spans, "wt") as stream:
                tracer.write(stream, origin=tracer.starts[0])
            pending_spans = None
        tracer.clear()

    with installed(tracer, targets()):
        traced = run_ops(workload, seeds, scratch, scale, tracer=tracer, on_op=fold)
    failures = untraced.failures + twin_failures + traced.failures
    for plain, armed in zip(untraced.distinct(), traced.distinct()):
        if (plain.digest, plain.counts) != (armed.digest, armed.counts):
            failures.append(f"seed {plain.seed}: tracing changed the outcome")
    if not traced.ops or not untraced.ops:
        raise RuntimeError("every operation failed: " + "; ".join(failures))
    batch = Batch(ops=untraced.ops + traced.ops,
                  attempted=untraced.attempted + twin_attempted + traced.attempted,
                  failures=failures)
    return batch, per_layer(totals, traced.ops, untraced.ops), figures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    state = ROOT / ".perfbench"
    scratch = state / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)

    if args.trace:
        section = "per_layer"
        spans_path = state / "spans" / f"{workload.name}-seed{args.seed}.tsv.gz"
        batch, metrics, figures = traced_run(workload, args.seed, str(scratch),
                                             spans_path=spans_path)
        print(f"# {workload.name} seed {args.seed}: traced, "
              f"{len(batch.ops)} operations; spans of the first traced "
              f"operation in {spans_path.relative_to(ROOT)}")
    else:
        section = "end_to_end"
        batch, metrics, figures = untraced_run(workload, args.seed, args.seconds,
                                               str(scratch))
        print(f"# {workload.name} seed {args.seed}: {len(batch.ops)} operations "
              f"in a closed loop of {args.seconds:g} s")
        for line in determinism_lines(batch):
            print(f"# {line}")
    print_metrics(metrics, declared_metrics(section))
    print_metrics(figures, REPORT_ONLY)
    for failure in batch.failures:
        print(f"# FAILED {failure}")
    failed = len(batch.failures)
    print(result_line(failed == 0, batch.attempted, failed, metrics, section))
    return 0


if __name__ == "__main__":
    sys.exit(main())
