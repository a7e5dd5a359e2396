"""Self-time arithmetic and wrapper installation."""

import pytest

from perfbench.spans import LayerTotals, Tracer, installed


def synthetic_tree() -> Tracer:
    """root [0, 10] -> a [1, 4] -> leaf [2, 3]; root -> b [5, 9];
    a second root c [20, 21] (seconds)."""
    tracer = Tracer()
    spans = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("leaf", 1, 2.0, 3.0),
        ("b", 0, 5.0, 9.0),
        ("b", -1, 20.0, 21.0),
    ]
    for name, parent, start, end in spans:
        tracer.names.append(name)
        tracer.parents.append(parent)
        tracer.starts.append(start)
        tracer.ends.append(end)
    return tracer


def test_self_time_is_duration_minus_child_coverage():
    assert synthetic_tree().self_times() == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_fold_sums_calls_and_self_per_name():
    totals = LayerTotals(keep_durations=("b",))
    tracer = synthetic_tree()
    tracer.fold_into(totals)
    tracer.fold_into(totals)
    assert totals.calls == {"root": 2, "a": 2, "leaf": 2, "b": 4}
    assert totals.self_s == {"root": 6.0, "a": 4.0, "leaf": 2.0, "b": 10.0}
    assert totals.durations == {"b": [4.0, 1.0, 4.0, 1.0]}


def test_self_times_of_wrapped_calls_add_up_to_the_root():
    tracer = Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("inner", inner)

    def outer(x):
        return traced_inner(traced_inner(x))

    assert tracer.wrap("root", tracer.wrap("outer", outer))(1) == 3
    assert tracer.names == ["root", "outer", "inner", "inner"]
    assert tracer.parents == [-1, 0, 1, 1]
    selfs = tracer.self_times()
    assert all(s >= 0 for s in selfs)
    assert sum(selfs) == pytest.approx(tracer.ends[0] - tracer.starts[0])


def test_wrapped_exception_closes_its_span():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.ends[0] >= tracer.starts[0]
    tracer.clear()
    assert len(tracer) == 0


def test_installed_wraps_class_methods_and_restores_them():
    class Box:
        def get(self):
            return 7

    original = Box.__dict__["get"]
    tracer = Tracer()
    with installed(tracer, [(Box, "get", "box.get")]):
        assert Box().get() == 7
        assert Box.__dict__["get"] is not original
    assert Box.__dict__["get"] is original
    assert tracer.names == ["box.get"]


def test_write_emits_one_line_per_span():
    import io

    stream = io.StringIO()
    assert synthetic_tree().write(stream) == 5
    lines = stream.getvalue().splitlines()
    assert lines[0].split("\t") == [
        "id", "parent", "name", "start_us", "duration_us", "self_us"]
    assert lines[2].split("\t")[:3] == ["1", "0", "a"]
