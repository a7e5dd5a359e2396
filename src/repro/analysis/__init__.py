"""Post-run trace analysis.

The paper grounds several observations in packet traces ("upon closer
examination in the pcap traces for these simulations, we find that over
20-second time slices roughly 30% of the flows are completely shut
down...", §2.3).  This package provides the same workflow for the
simulator:

- :class:`~repro.analysis.trace.PacketTraceRecorder` — an observer that
  records a compact per-packet trace (time, flow, kind, seq, size,
  retransmit bit), with optional JSONL persistence;
- :mod:`~repro.analysis.flowview` — trace -> per-flow timelines:
  silence periods, inter-packet gaps, per-slice activity, and the §2.3
  shut-down / bandwidth-capture census.
"""

from repro.analysis.trace import PacketTraceRecorder, TraceRecord, load_trace, save_trace
from repro.analysis.flowview import (
    FlowTimeline,
    bandwidth_capture,
    build_timelines,
    shut_down_fraction,
    silence_periods,
    slice_census,
)

__all__ = [
    "PacketTraceRecorder",
    "TraceRecord",
    "load_trace",
    "save_trace",
    "FlowTimeline",
    "bandwidth_capture",
    "build_timelines",
    "shut_down_fraction",
    "silence_periods",
    "slice_census",
]
