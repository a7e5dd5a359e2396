"""BENCHMARK.json declares every metric the benchmark emits, by a
valid name, with a unit and a direction."""

import json
import re
from pathlib import Path

import pytest

from perfbench.run import REPORT_ONLY, declared_metrics

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def document():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workload_names_are_the_benchmark_table(document):
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.fullmatch(workload["name"])
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_metric_names_units_and_directions(document, section):
    keys = {"name", "unit", "better", "bound"} if section == "end_to_end" else {
        "name", "unit", "better"}
    for metric in document[section]:
        assert set(metric) == keys, metric
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
        assert metric["better"] in ("higher", "lower")
        if section == "end_to_end":
            assert 0 < metric["bound"] <= 0.25


def test_names_are_unique_across_all_metrics(document):
    names = [m["name"] for s in ("end_to_end", "per_layer") for m in document[s]]
    names += list(REPORT_ONLY)
    assert len(names) == len(set(names))


def test_setup_time_is_declared_with_the_largest_bound(document):
    bounds = {m["name"]: m for m in document["end_to_end"]}
    assert bounds["setup_s"]["unit"] == "s"
    assert bounds["setup_s"]["better"] == "lower"
    assert bounds["setup_s"]["bound"] == max(m["bound"] for m in bounds.values())


def test_report_only_figures_have_valid_names_and_units():
    for name, (unit, better) in REPORT_ONLY.items():
        assert NAME.fullmatch(name) and UNIT.fullmatch(unit)
        assert better in ("higher", "lower")


def test_declared_metrics_reads_both_sections(document):
    for section in ("end_to_end", "per_layer"):
        assert list(declared_metrics(section)) == [m["name"] for m in document[section]]
