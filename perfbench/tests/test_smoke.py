"""A tiny-scale run of every workload, untraced and traced, end to end
through the same code the command line uses."""

import json

import pytest

from perfbench.run import (
    REPORT_ONLY,
    declared_metrics,
    result_line,
    traced_run,
    untraced_run,
)
from perfbench.workloads import WORKLOADS

#: Simulated durations shrink to this share (12 s bulk points, 24 s of
#: web sessions, 12 s sweep points).
SCALE = 0.1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    batch, metrics, figures = untraced_run(WORKLOADS[name], 1, 0.0, str(tmp_path),
                                           scale=SCALE)
    assert batch.failures == []
    assert batch.attempted == len(batch.ops) == WORKLOADS[name].seeds_per_run
    assert set(metrics) == set(declared_metrics("end_to_end"))
    assert all(value > 0 for value in metrics.values()), metrics
    assert set(figures) <= set(REPORT_ONLY)
    assert figures["error_rate"] == 0
    result = json.loads(result_line(True, batch.attempted, 0, metrics, "end_to_end"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(tmp_path.iterdir()) == []  # sweep caches are removed


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    spans = tmp_path / "spans" / "spans.tsv.gz"
    batch, metrics, figures = traced_run(WORKLOADS[name], 1, str(tmp_path),
                                         scale=SCALE, spans_path=spans)
    assert batch.failures == []
    assert set(metrics) == set(declared_metrics("per_layer"))
    assert spans.stat().st_size > 0
    in_process = name != "sweep_cached"  # sweep points run in workers
    if in_process:
        for layer in ("net.send.calls", "sim.events", "tcp.flows_opened"):
            assert metrics[layer] > 0, layer
        assert metrics["parallel.warm_s"] == 0
    else:
        assert metrics["parallel.hit_ratio"] == 1.0
        assert metrics["parallel.cache.put_ms.p50"] > 0
        assert metrics["net.send.calls"] == 0
    uses_core = name in ("taq_bulk", "web_admission")
    assert (metrics["core.enqueue.calls"] > 0) == uses_core
    assert (metrics["core.admission.admits.calls"] > 0) == (name == "web_admission")
    assert ("taq_dt_cost_ratio" in figures) == (WORKLOADS[name].twin is not None)


def test_missing_sources_fail_without_a_result(tmp_path, capsys, monkeypatch):
    import perfbench.run as run

    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "taq_bulk", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
