"""``taq-perf`` — the performance suite from the shell.

Subcommands::

    taq-perf run [--out BENCH_6.json] [--scale 1.0] [--repeats 1]
                 [--only NAME ...] [--list]
        Run the benchmark suite and write the schema-versioned BENCH
        document (per benchmark: wall time, events/sec, packets/sec,
        and the process's peak RSS so far — ``--only NAME`` for one
        benchmark's own figure).

    taq-perf compare baseline.json candidate.json
                 [--threshold PCT] [--threshold-for NAME=PCT ...]
                 [--markdown]
        Diff two BENCH documents; exit non-zero when any benchmark's
        wall time regressed beyond its threshold or, at equal scale,
        its event/packet counts changed.  ``--markdown``
        renders a GitHub table (CI pipes it to $GITHUB_STEP_SUMMARY).

    taq-perf profile (--bench NAME | --scenario FILE.json)
                 [--out PREFIX] [--scale 1.0] [--sample-interval 0.001]
        cProfile plus collapsed-stack sampling around one benchmark or
        one scenario run: writes ``PREFIX.pstats`` (for ``snakeviz`` /
        ``pstats``), ``PREFIX.folded`` (for ``flamegraph.pl`` /
        speedscope) and prints the top cumulative functions and the
        target's work counts.

See ``docs/performance.md`` for the BENCH schema and the counter
catalogue.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from typing import Optional, Sequence


def _cmd_run(args) -> int:
    from repro.perf.bench import (
        bench_document,
        load_suite,
        run_suite,
        write_bench,
    )

    if args.list:
        for name, bench in sorted(load_suite().items()):
            print(f"{name:<32} [{bench.group}] {bench.description}")
        return 0
    try:
        results = run_suite(
            names=args.only or None,
            scale=args.scale,
            repeats=args.repeats,
            log=lambda line: print(line, file=sys.stderr),
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    write_bench(bench_document(results), args.out)
    total = sum(result.wall_time_s for result in results)
    print(f"wrote {args.out}: {len(results)} benchmark(s), {total:.1f}s total")
    return 0


def _cmd_compare(args) -> int:
    from repro.perf.compare import compare_files, parse_threshold_overrides

    try:
        overrides = parse_threshold_overrides(args.threshold_for)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        comparison, text = compare_files(
            args.baseline,
            args.candidate,
            threshold_pct=args.threshold,
            per_benchmark_pct=overrides,
            markdown=args.markdown,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0 if comparison.ok else 1


#: BENCH ``events``/``packets`` under the counter catalogue's names.
BENCH_COUNTER_NAMES = (("events", "sim.events_popped"),
                       ("packets", "net.packets_offered"))


def _profile_target(args):
    """Resolve --bench/--scenario into a zero-argument callable that
    returns the target's work counts."""
    if args.bench:
        from repro.perf.bench import get_benchmark

        bench = get_benchmark(args.bench)

        def run_bench():
            counts = bench.fn(args.scale)
            return {name: getattr(counts, field)
                    for field, name in BENCH_COUNTER_NAMES
                    if getattr(counts, field)}

        return run_bench
    from repro.build import ScenarioSpec, build_simulation, work_counts

    spec = ScenarioSpec.from_file(args.scenario)

    def run_scenario():
        built = build_simulation(spec)
        built.run()
        return work_counts(built)

    return run_scenario


def _cmd_profile(args) -> int:
    from repro.perf.flamestack import StackSampler

    try:
        target = _profile_target(args)
    except Exception as exc:  # unknown bench, bad scenario JSON, missing file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    profiler = cProfile.Profile()
    sampler = StackSampler(interval=args.sample_interval)
    with sampler:
        profiler.enable()
        try:
            counts = target()
        finally:
            profiler.disable()
    pstats_path = f"{args.out}.pstats"
    folded_path = f"{args.out}.folded"
    profiler.dump_stats(pstats_path)
    sampler.write_collapsed(folded_path)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(args.top)
    print("counters:")
    for name in sorted(counts):
        print(f"  {name} = {counts[name]}")
    print(f"wrote {pstats_path} ({stats.total_calls} calls) and "
          f"{folded_path} ({sampler.samples} stack samples)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.perf.bench import DEFAULT_BENCH_NAME
    from repro.perf.compare import DEFAULT_THRESHOLD_PCT

    parser = argparse.ArgumentParser(
        prog="taq-perf",
        description="Benchmark suite, BENCH regression gate and profiler "
                    "(see docs/performance.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run benchmarks, write a BENCH document")
    run.add_argument("--out", default=DEFAULT_BENCH_NAME,
                     help=f"output path (default: {DEFAULT_BENCH_NAME})")
    run.add_argument("--scale", type=float, default=1.0,
                     help="problem-size multiplier (default: 1.0)")
    run.add_argument("--repeats", type=int, default=1,
                     help="timing repeats per benchmark; best is kept")
    run.add_argument("--only", action="append", metavar="NAME",
                     help="run only this benchmark (repeatable)")
    run.add_argument("--list", action="store_true",
                     help="list registered benchmarks and exit")
    run.set_defaults(func=_cmd_run)

    compare = sub.add_parser("compare", help="diff two BENCH documents")
    compare.add_argument("baseline")
    compare.add_argument("candidate")
    compare.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD_PCT,
                         help="wall-time regression threshold, percent "
                              f"(default: {DEFAULT_THRESHOLD_PCT:.0f})")
    compare.add_argument("--threshold-for", action="append", default=[],
                         metavar="NAME=PCT",
                         help="per-benchmark threshold override (repeatable)")
    compare.add_argument("--markdown", action="store_true",
                         help="render a GitHub-flavoured markdown table "
                              "(for $GITHUB_STEP_SUMMARY)")
    compare.set_defaults(func=_cmd_compare)

    profile = sub.add_parser(
        "profile", help="cProfile + collapsed stacks for one benchmark/scenario"
    )
    target = profile.add_mutually_exclusive_group(required=True)
    target.add_argument("--bench", metavar="NAME", help="registered benchmark name")
    target.add_argument("--scenario", metavar="FILE", help="scenario JSON to run")
    profile.add_argument("--out", default="profile",
                         help="output prefix for .pstats/.folded (default: profile)")
    profile.add_argument("--scale", type=float, default=1.0,
                         help="benchmark scale (ignored for --scenario)")
    profile.add_argument("--sample-interval", type=float, default=0.001,
                         help="stack sampling interval, seconds (default: 0.001)")
    profile.add_argument("--top", type=int, default=15,
                         help="cumulative-time rows to print (default: 15)")
    profile.set_defaults(func=_cmd_profile)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
