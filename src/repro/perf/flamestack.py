"""A sampling profiler that writes collapsed-stack (folded) output.

``cProfile`` answers "which function is hot" but its call-graph output
cannot be turned into a flamegraph without the full stack at each
sample.  This module adds that: a background thread wakes every
``interval`` seconds, reads the target thread's current Python stack
via ``sys._current_frames()``, and tallies the folded rendering
(``module:function;module:function;... count``) — exactly the format
``flamegraph.pl`` and speedscope ingest.

Sampling is *observational*: the profiled code runs unmodified (no
tracing hooks), so overhead stays low and the simulated event
sequence is untouched.  Stdlib-only by design
(``threading`` + frame introspection); no external profiler needed.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, List, Optional

#: Default sampling interval: 1 ms — ~1000 samples per profiled second.
DEFAULT_INTERVAL_S = 0.001


def _fold_frame(frame) -> str:
    code = frame.f_code
    module = frame.f_globals.get("__name__", code.co_filename)
    return f"{module}:{code.co_name}"


def _fold_stack(frame) -> str:
    """Render one frame chain outermost-first, the folded convention."""
    parts: List[str] = []
    while frame is not None:
        parts.append(_fold_frame(frame))
        frame = frame.f_back
    return ";".join(reversed(parts))


class StackSampler:
    """Sample one thread's Python stack into folded-stack counts.

    Use as a context manager around the code to profile::

        with StackSampler() as sampler:
            run_benchmark(...)
        sampler.write_collapsed("profile.folded")

    The target defaults to the thread that *creates* the sampler.
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL_S,
        target_thread_id: Optional[int] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be > 0")
        self.interval = interval
        self.target_thread_id = (
            threading.get_ident() if target_thread_id is None else target_thread_id
        )
        self.counts: Dict[str, int] = {}
        self.samples = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- sampling loop ---------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self.target_thread_id)
            if frame is None:
                continue
            folded = _fold_stack(frame)
            self.counts[folded] = self.counts.get(folded, 0) + 1
            self.samples += 1

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-perf-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "StackSampler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- output ----------------------------------------------------------
    def collapsed(self) -> str:
        """The folded-stack text: one ``stack count`` line per stack."""
        lines = [f"{stack} {count}" for stack, count in sorted(self.counts.items())]
        return "\n".join(lines)

    def write_collapsed(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            text = self.collapsed()
            if text:
                handle.write(text)
                handle.write("\n")
