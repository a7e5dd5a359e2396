"""In-memory span recording for the traced benchmark run.

A :class:`Tracer` records one span per wrapped call: its name, start
and end (``time.perf_counter``) and the index of the span that was open
when it started (its parent).  Calls in the simulator are strictly
nested on one thread, so a span's children never overlap and the
child coverage of a span is the sum of its children's durations;
*self time* is duration minus that coverage.

Wrappers are installed on classes, not instances, and must be in place
before ``build_simulation``: ``Link`` binds its discipline's
``enqueue``/``dequeue`` and the harness binds the collector's
``observe`` and TAQ's reverse tap when the run is assembled, so a patch
made after assembly is never called.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Sequence, TextIO, Tuple

#: (owner class, method name, span name)
Target = Tuple[Any, str, str]


class LayerTotals:
    """Calls and self seconds per span name, summed over operations,
    plus every single duration of the names in *keep_durations*."""

    def __init__(self, keep_durations: Sequence[str] = ()) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {name: [] for name in keep_durations}


class Tracer:
    """Flat span store: parallel lists indexed by span id."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        # Open spans, innermost last; -1 is the root sentinel.
        self._stack: List[int] = [-1]

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Return *fn* recording one span named *name* per call."""
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def self_times(self) -> List[float]:
        """Per-span duration minus the time its direct children cover."""
        count = len(self.names)
        covered = [0.0] * count
        durations = [self.ends[i] - self.starts[i] for i in range(count)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[index]
        return [durations[i] - covered[i] for i in range(count)]

    def fold_into(self, totals: LayerTotals) -> None:
        """Add this tracer's spans to *totals*, per span name."""
        for index, self_time in enumerate(self.self_times()):
            name = self.names[index]
            totals.calls[name] = totals.calls.get(name, 0) + 1
            totals.self_s[name] = totals.self_s.get(name, 0.0) + self_time
            if name in totals.durations:
                totals.durations[name].append(self.ends[index] - self.starts[index])

    def clear(self) -> None:
        """Forget every span (the wrappers keep appending to the same
        lists, so they are emptied in place)."""
        if len(self._stack) != 1:
            raise RuntimeError("cannot clear a tracer with open spans")
        del self.names[:], self.parents[:], self.starts[:], self.ends[:]

    def write(self, stream: TextIO, origin: float = 0.0) -> int:
        """Write every span as one tab-separated line:
        ``id parent name start_us duration_us self_us``."""
        selfs = self.self_times()
        stream.write("id\tparent\tname\tstart_us\tduration_us\tself_us\n")
        for index, name in enumerate(self.names):
            start = self.starts[index]
            stream.write(
                f"{index}\t{self.parents[index]}\t{name}\t"
                f"{(start - origin) * 1e6:.3f}\t"
                f"{(self.ends[index] - start) * 1e6:.3f}\t{selfs[index] * 1e6:.3f}\n"
            )
        return len(self.names)


@contextmanager
def installed(tracer: Tracer, targets: Sequence[Target]) -> Iterator[None]:
    """Replace each target attribute with a traced wrapper for the
    duration of the block, restoring the originals afterwards.

    Only attributes defined on the owner itself are wrapped: a subclass
    that inherits a method is covered through its base class.
    """
    originals: List[Tuple[Any, str, Any]] = []
    try:
        for owner, attr, name in targets:
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrap(name, original))
            originals.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
