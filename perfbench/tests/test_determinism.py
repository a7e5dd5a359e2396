"""Same seed, same digests and counts; chunked runs equal single runs."""

import dataclasses

import pytest

from perfbench.run import determinism_lines, untraced_run
from perfbench.workloads import WORKLOADS, bulk_spec, web_spec
from repro.build import build_simulation
from repro.experiments.scenario import _packet_outcome, run_scenario

SCALE = 0.1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_two_runs_at_one_seed_print_identical_digests(name, tmp_path):
    first, _, _ = untraced_run(WORKLOADS[name], 3, 0.0, str(tmp_path), scale=SCALE)
    second, _, _ = untraced_run(WORKLOADS[name], 3, 0.0, str(tmp_path), scale=SCALE)
    assert determinism_lines(first) == determinism_lines(second)
    assert [op.counts for op in first.ops] == [op.counts for op in second.ops]


def test_another_seed_changes_the_digest(tmp_path):
    workload = WORKLOADS["droptail_bulk"]
    one, _, _ = untraced_run(workload, 1, 0.0, str(tmp_path), scale=SCALE)
    two, _, _ = untraced_run(workload, 2, 0.0, str(tmp_path), scale=SCALE)
    assert determinism_lines(one)[-1] != determinism_lines(two)[-1]


@pytest.mark.parametrize("spec", [
    bulk_spec("taq", 5, SCALE),
    bulk_spec("droptail", 5, SCALE),
    web_spec(5, 0.25),
], ids=["taq", "droptail", "web"])
def test_chunked_run_equals_single_run(spec):
    built = build_simulation(spec)
    now = 0.0
    while now < spec.duration:
        now = min(now + 1.5, spec.duration)
        built.run(until=now)
    chunked = _packet_outcome(spec, built)
    assert dataclasses.asdict(chunked) == dataclasses.asdict(run_scenario(spec))
