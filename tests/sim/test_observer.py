"""The observer seam: attach/detach, fan-out order, ambient stack, and
a live scenario that exercises every lifecycle call."""

from __future__ import annotations

import json
import os
from collections import Counter

import pytest

from repro.build import ScenarioSpec, TOPOLOGIES, build_simulation, observe_scenario
from repro.net.link import Link
from repro.sim.observer import (
    HOOKS,
    Fanout,
    Observer,
    ambient,
    attach,
    detach,
    innermost,
    observers_of,
    observing,
)

from tests.hooks import Hooks

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples", "scenarios")


class Slot:
    observer = None


class Counting(Observer):
    """Counts every lifecycle call it receives."""

    def __init__(self):
        self.calls = Counter()


def _count(name):
    def hook(self, *args):
        self.calls[name] += 1

    return hook


for _name in HOOKS:
    setattr(Counting, _name, _count(_name))


def test_attach_is_idempotent_and_fans_out_in_order():
    slot = Slot()
    calls = []
    first = Hooks(on_drop=lambda p, now: calls.append("first"))
    second = Hooks(on_drop=lambda p, now: calls.append("second"))
    attach(slot, first)
    assert slot.observer is first
    attach(slot, second)
    attach(slot, first)
    assert isinstance(slot.observer, Fanout)
    assert slot.observer.observers == (first, second)
    slot.observer.on_drop(None, 0.0)
    assert calls == ["first", "second"]


def test_detach_collapses_the_slot():
    slot = Slot()
    first, second = Observer(), Observer()
    attach(slot, first)
    attach(slot, second)
    detach(slot, first)
    assert slot.observer is second
    detach(slot, first)  # absent: no-op
    detach(slot, second)
    assert slot.observer is None


def test_ambient_stack_nests():
    outer, inner = Observer(), Counting()
    assert ambient() == ()
    with observing(outer):
        with observing(inner) as pushed:
            assert pushed is inner
            assert ambient() == (outer, inner)
            assert innermost(Counting) is inner
            assert innermost(Observer) is inner
        assert innermost(Counting) is None
    assert ambient() == ()


def _topology_cases():
    cases = []
    for kind in TOPOLOGIES.kinds():
        if kind == "overlay":
            cases += [pytest.param(kind, {"mode": mode}, id=f"overlay-{mode}")
                      for mode in ("clean", "overlay")]
        else:
            cases.append(pytest.param(kind, {}, id=kind))
    return cases


@pytest.mark.parametrize("kind,params", _topology_cases())
def test_observe_scenario_reaches_every_link(kind, params):
    spec = ScenarioSpec.from_document({
        "name": f"links-{kind}",
        "seed": 1,
        "duration": 1.0,
        "topology": {"type": kind, "capacity_bps": 600_000, "rtt": 0.2, **params},
        "queue": {"kind": "taq"},
        "workloads": [{"type": "bulk", "n_flows": 2}],
    })
    built = build_simulation(spec)
    owned = {id(v): v for v in vars(built.topology).values() if isinstance(v, Link)}
    assert {id(link) for link in built.topology.links} == set(owned)
    counting = Counting()
    observe_scenario(built, counting)
    for link in owned.values():
        assert counting in observers_of(link), link.name
        assert counting in observers_of(link.queue), link.name


def test_every_lifecycle_call_fires_on_fig12():
    with open(os.path.join(EXAMPLES, "fig12_admission_cdf.json"), encoding="utf-8") as f:
        built = build_simulation(ScenarioSpec.from_document(json.load(f)))
    counting = Counting()
    observe_scenario(built, counting)
    built.run()
    silent = [name for name in HOOKS if counting.calls[name] == 0]
    assert silent == []
