"""The executor: drive job-store points through a process pool.

The runner is deliberately thin.  Work identity and state live in the
:class:`~repro.parallel.jobs.JobStore` (pending/running/done/failed,
persisted when the store is durable), results live in the cache
backend (any :class:`~repro.parallel.cache.CacheBackend`), and this
module only moves jobs between those states: look each point up in the
cache, fan the cold ones out, record the outcomes.

``jobs=1`` runs every spec in-process, in order — the sequential
reference path.  ``jobs>1`` fans the uncached specs out over a
``ProcessPoolExecutor``; because every point builds its own simulator
from its own root seed (see :class:`repro.sim.rng.RngRegistry`), the
results are bit-identical to the sequential path regardless of worker
scheduling, and the runner returns them in spec order either way.
The choice of cache backend never affects results either: all
backends serve the same bytes under the same keys.

A durable store makes a sweep resumable: re-running the same command
re-submits the same specs (idempotent by id), the finished points come
back as cache hits, and only the cold remainder executes.  Arming is
explicit (``store=``) or ambient via the ``TAQ_JOB_STORE`` environment
variable (what ``taq-experiments --resume DIR`` sets), mirroring how
``TAQ_OBS_BUS`` arms the progress bus.
"""

from __future__ import annotations

import os
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, List, Optional, Sequence, TextIO

from repro.parallel.bus import Heartbeat, ProgressBus, point_key
from repro.parallel.cache import CacheBackend
from repro.parallel.jobs import JobStore

from repro.parallel.spec import PointResult, PointSpec

#: Progress callbacks receive (done_count, total_count, latest_result).
ProgressCallback = Callable[[int, int, PointResult], None]


def _execute(spec: PointSpec):
    """Worker entry point: run one spec, return (value, wall_time)."""
    start = time.perf_counter()
    value = spec.resolve()(**spec.kwargs)
    return value, time.perf_counter() - start


def _execute_traced(spec: PointSpec, bus_dir: str, key: str):
    """Worker entry point with live telemetry: same computation as
    :func:`_execute`, bracketed by start/heartbeat/done events on the
    sweep's progress bus (``taq-obs tail`` follows them).  A crashing
    point emits ``failed`` instead of ``done``, and the heartbeat
    thread is always stopped — no daemon thread outlives the point."""
    bus = ProgressBus(bus_dir)
    bus.emit(key, "start", pid=os.getpid(), label=spec.describe())
    try:
        with Heartbeat(bus, key):
            value, wall_time = _execute(spec)
    except BaseException as exc:
        bus.emit(key, "failed", error=repr(exc))
        raise
    bus.emit(key, "done", wall=wall_time)
    return value, wall_time


class ProgressPrinter:
    """Per-point progress lines with a completion ETA.

    Every line shows the point's wall time and whether it was computed
    or served from the result cache (cache hits report the wall time
    the original computation cost, i.e. the time the hit saved).
    Writes ``\\r``-refreshed lines on a TTY and one line per completed
    point otherwise (CI logs); the final line is followed by a batch
    summary that keeps cold-run compute time and cache-hit lookup time
    in separate columns, so a mostly-cached sweep never reads as if the
    computation itself got faster.

    The ETA is a rolling average over the last :attr:`ETA_WINDOW`
    completions rather than the whole-sweep mean: a sweep that opens
    with a burst of instant cache hits and then settles into cold
    points would otherwise promise an absurdly early finish for its
    entire duration.
    """

    #: Completions the rolling-average ETA looks back over.
    ETA_WINDOW = 8

    def __init__(self, label: str = "points", stream: Optional[TextIO] = None) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self._start: Optional[float] = None
        self._finish_times: deque = deque(maxlen=self.ETA_WINDOW + 1)
        self.computed = 0
        self.cache_hits = 0
        self.compute_time = 0.0
        self.lookup_time = 0.0
        self.saved_time = 0.0

    def eta(self, now: float, done: int, total: int) -> float:
        """Seconds to completion, from the recent per-point pace."""
        if not done:
            return 0.0
        if len(self._finish_times) >= 2:
            window = self._finish_times[-1] - self._finish_times[0]
            pace = window / (len(self._finish_times) - 1)
        else:
            assert self._start is not None
            pace = (now - self._start) / done
        return pace * (total - done)

    def __call__(self, done: int, total: int, result: PointResult) -> None:
        now = time.perf_counter()
        if self._start is None:
            self._start = now
        elapsed = now - self._start
        self._finish_times.append(now)
        eta = self.eta(now, done, total)
        if result.cached:
            self.cache_hits += 1
            self.saved_time += result.wall_time
            self.lookup_time += result.lookup_time
            origin = f"cache hit, saved {result.wall_time:.1f}s"
        else:
            self.computed += 1
            self.compute_time += result.wall_time
            origin = f"computed in {result.wall_time:.1f}s"
        line = (
            f"[{self.label} {done}/{total}] {result.spec.describe()} ({origin}) "
            f"elapsed {elapsed:.0f}s eta {eta:.0f}s"
        )
        if self.stream.isatty():
            end = "\n" if done == total else ""
            self.stream.write(f"\r\x1b[2K{line}{end}")
        else:
            self.stream.write(line + "\n")
        if done == total:
            self.stream.write(self.summary_line(total) + "\n")
        self.stream.flush()

    def summary_line(self, total: int) -> str:
        """The end-of-batch roll-up printed after the last point.

        Cold-run compute time and cache-hit lookup time are reported
        separately: ``compute`` is wall time actually spent simulating
        this batch, ``lookup`` is what serving the hits cost, ``saved``
        is the historical compute time the hits avoided.
        """
        return (
            f"[{self.label}] {total} point(s): {self.computed} computed "
            f"(compute {self.compute_time:.1f}s), {self.cache_hits} cache hit(s) "
            f"(lookup {self.lookup_time:.2f}s, saved {self.saved_time:.1f}s)"
        )


class ParallelRunner:
    """Execute point specs across a process pool, via the job store.

    Parameters
    ----------
    jobs:
        Worker process count; ``None`` means one per CPU.  ``1`` runs
        sequentially in-process (no pool, no pickling).
    cache:
        Optional :class:`~repro.parallel.cache.CacheBackend` (local
        dir, sqlite, or HTTP — see :mod:`repro.parallel.backends`);
        hits skip execution entirely and are reported with
        ``cached=True`` (and the measured lookup cost in
        ``lookup_time``).
    progress:
        Optional callback invoked after every completed point with
        ``(done, total, result)``; see :class:`ProgressPrinter`.
    bus_dir:
        Optional directory for the live progress bus
        (:mod:`repro.parallel.bus`): workers append start / heartbeat /
        done events per point for ``taq-obs tail`` to follow.  Defaults
        from the ``TAQ_OBS_BUS`` environment variable; None (and no env
        var) keeps the sweep bus-free.  The bus carries progress only,
        never results, so armed sweeps stay bit-identical.
    store:
        Optional :class:`~repro.parallel.jobs.JobStore` recording each
        point's pending/running/done/failed state.  Defaults from the
        ``TAQ_JOB_STORE`` environment variable (a store directory);
        with neither, an in-memory throwaway store is used — same
        executor path, nothing persisted.
    keep_going:
        When True, a point that raises is recorded as ``failed`` in
        the store and the sweep continues (its result is simply absent
        from the returned list).  The default False preserves the
        historical contract: the first failure propagates.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        cache: Optional[CacheBackend] = None,
        progress: Optional[ProgressCallback] = None,
        bus_dir: Optional[str] = None,
        store: Optional[JobStore] = None,
        keep_going: bool = False,
    ) -> None:
        self.jobs = max(1, jobs if jobs is not None else os.cpu_count() or 1)
        self.cache = cache
        self.progress = progress
        self.keep_going = keep_going
        if bus_dir is None:
            bus_dir = os.environ.get("TAQ_OBS_BUS") or None
        self.bus_dir = bus_dir
        if store is None:
            store_dir = os.environ.get("TAQ_JOB_STORE") or None
            if store_dir:
                store = JobStore(store_dir,
                                 version=getattr(cache, "version", None))
        self.store = store

    # -- the executor ----------------------------------------------------
    def run(self, specs: Sequence[PointSpec]) -> List[PointResult]:
        """Run *specs*, returning results in spec order.

        Every spec becomes a job in the store (idempotent by content
        id, so resubmitting a half-finished sweep is safe); cache hits
        complete immediately, the rest execute and transition through
        ``running`` to ``done`` (or ``failed``).
        """
        store = self.store if self.store is not None else JobStore(
            None, version=getattr(self.cache, "version", None)
        )
        jobs = store.submit(list(specs))
        total = len(specs)
        results: List[Optional[PointResult]] = [None] * total
        done = 0
        pending: List[int] = []
        bus: Optional[ProgressBus] = None
        if self.bus_dir is not None:
            bus = ProgressBus(self.bus_dir)
            bus.announce(total, getattr(self.progress, "label", "sweep"))
        for index, spec in enumerate(specs):
            if self.cache is not None:
                lookup_start = time.perf_counter()
                hit = self.cache.get(spec)
                lookup_time = time.perf_counter() - lookup_start
            else:
                hit, lookup_time = None, 0.0
            if hit is not None:
                value, wall_time = hit
                results[index] = PointResult(
                    spec, value, wall_time, cached=True, lookup_time=lookup_time
                )
                done += 1
                store.mark_done(jobs[index].job_id, wall_time, cached=True)
                if bus is not None:
                    bus.emit(point_key(index, spec.describe()), "done",
                             wall=wall_time, cached=True)
                self._report(done, total, results[index])
            else:
                pending.append(index)

        try:
            if self.jobs == 1 or len(pending) <= 1:
                for index in pending:
                    result = self._run_one(
                        specs[index], jobs[index].job_id, store, index,
                        done + 1, total,
                    )
                    if result is not None:
                        done += 1
                        results[index] = result
            else:
                done = self._run_pool(specs, jobs, store, pending, results,
                                      done, total)
        finally:
            store.maybe_compact()
        return [result for result in results if result is not None]

    def _execute_maybe_traced(self, spec: PointSpec, index: int):
        if self.bus_dir is not None:
            return _execute_traced(
                spec, self.bus_dir, point_key(index, spec.describe())
            )
        return _execute(spec)

    def _run_one(self, spec: PointSpec, job_id: str, store: JobStore,
                 index: int, done: int, total: int) -> Optional[PointResult]:
        store.mark_running(job_id, pid=os.getpid())
        try:
            value, wall_time = self._execute_maybe_traced(spec, index)
        except Exception as exc:
            store.mark_failed(job_id, repr(exc))
            if self.keep_going:
                return None
            raise
        result = PointResult(spec, value, wall_time)
        if self.cache is not None:
            self.cache.put(spec, value, wall_time)
        store.mark_done(job_id, wall_time)
        self._report(done, total, result)
        return result

    def _run_pool(
        self,
        specs: Sequence[PointSpec],
        jobs: Sequence,
        store: JobStore,
        pending: List[int],
        results: List[Optional[PointResult]],
        done: int,
        total: int,
    ) -> int:
        workers = min(self.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            if self.bus_dir is not None:
                futures = {
                    pool.submit(
                        _execute_traced, specs[index], self.bus_dir,
                        point_key(index, specs[index].describe()),
                    ): index
                    for index in pending
                }
            else:
                futures = {
                    pool.submit(_execute, specs[index]): index for index in pending
                }
            for index in pending:
                store.mark_running(jobs[index].job_id)
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in finished:
                    index = futures[future]
                    try:
                        value, wall_time = future.result()
                    except Exception as exc:
                        store.mark_failed(jobs[index].job_id, repr(exc))
                        if self.keep_going:
                            continue
                        raise
                    result = PointResult(specs[index], value, wall_time)
                    results[index] = result
                    if self.cache is not None:
                        self.cache.put(specs[index], value, wall_time)
                    store.mark_done(jobs[index].job_id, wall_time)
                    done += 1
                    self._report(done, total, result)
        return done

    def _report(self, done: int, total: int, result: Optional[PointResult]) -> None:
        if self.progress is not None and result is not None:
            self.progress(done, total, result)
