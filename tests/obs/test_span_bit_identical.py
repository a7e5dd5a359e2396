"""An armed span recorder must not change what the simulation computes.

Same two-layer contract as ``tests/perf/test_bit_identical.py``, for
the tracing plane instead of the perf probe: the recorder only appends
to its own span list, so a run under ``recording()`` has to schedule
and fire exactly the same simulated event sequence as an unarmed one —
and the goldens CI pins byte-for-byte must still match their seed CSVs
when every component hook is live.  fig09 and pool run in the default
suite; the slower fast goldens ride behind ``--run-slow``.
"""

from __future__ import annotations

import importlib
import os

import pytest

from repro.build import ScenarioSpec, build_simulation
from repro.obs.spans import recording
from tests.experiments.test_goldens import EXPERIMENTS, GOLDEN_DIR

SCENARIO = {
    "name": "span-bitid",
    "seed": 11,
    "duration": 30.0,
    "topology": {"capacity_bps": 600_000, "rtt": 0.2, "pkt_size": 200},
    "queue": {"kind": "taq"},
    "workloads": [
        {"type": "bulk", "n_flows": 6},
        {"type": "short", "lengths": [5, 9, 13], "start_time": 10.0},
    ],
}


def _run(spec_document, armed):
    spec = ScenarioSpec.from_document(spec_document)
    if armed:
        with recording() as recorder:
            built = build_simulation(spec)
            built.run()
    else:
        recorder = None
        built = build_simulation(spec)
        built.run()
    return built, recorder


def test_armed_scenario_is_bit_identical():
    plain, _ = _run(SCENARIO, armed=False)
    armed, recorder = _run(SCENARIO, armed=True)
    assert recorder is not None and len(recorder.spans) > 0  # it saw the run
    assert armed.sim.processed == plain.sim.processed
    assert armed.sim.now == plain.sim.now
    assert armed.queue.enqueued == plain.queue.enqueued
    assert armed.queue.dropped == plain.queue.dropped
    assert armed.collector._slices == plain.collector._slices


def test_disarmed_components_carry_no_recorder():
    # The zero-overhead-when-off contract: every hook site is a
    # ``observer is None`` check on these attributes.
    built, _ = _run(SCENARIO, armed=False)
    assert built.sim.observer is None
    assert built.queue.observer is None
    assert built.topology.forward.observer is built.collector
    for flow in built.all_flows():
        assert flow.sender.observer is None


def test_armed_run_arms_every_layer():
    built, recorder = _run(SCENARIO, armed=True)
    # Every layer's slot holds the ambient recorder...
    assert built.sim.observer is recorder
    assert built.queue.observer is recorder
    assert recorder in built.topology.forward.observer.observers
    assert all(flow.sender.observer is recorder for flow in built.all_flows())
    # ... and the hooks demonstrably fired.
    kinds = recorder.counts_by_kind()
    assert kinds["run"] == 1            # simulator hook
    assert kinds["flow"] >= 6           # sender hooks
    assert kinds["pkt"] > 0             # link hooks


#: Same split as the perf bit-identity suite: the cheap goldens run by
#: default, the rest behind --run-slow.
TRACED_FAST = ("fig09", "pool")
TRACED_SLOW = ("fig10", "overlay", "rttf")


def _traced_golden_params():
    params = [pytest.param(name, id=name) for name in TRACED_FAST]
    params += [
        pytest.param(name, id=name, marks=pytest.mark.slow) for name in TRACED_SLOW
    ]
    return params


@pytest.mark.parametrize("name", _traced_golden_params())
def test_golden_experiment_unchanged_under_tracing(name):
    module = importlib.import_module(EXPERIMENTS[name])
    with recording() as recorder:
        result = module.run(module.Config())
    produced = result.table().to_csv().replace("\r\n", "\n")
    with open(os.path.join(GOLDEN_DIR, f"{name}.csv"), encoding="utf-8") as handle:
        golden = handle.read().replace("\r\n", "\n")
    assert produced == golden, (
        f"{name} diverged from its golden when run under an armed span "
        f"recorder — tracing must never alter the simulated event sequence"
    )
    # And the recorder really was armed on the experiment's simulations.
    assert len(recorder.spans) > 0
    assert recorder.counts_by_kind().get("run", 0) >= 1
