"""The span registry: nesting, per-thread depth, and the disabled no-op."""

import threading

import pytest

from repro.utils import obs


@pytest.fixture(autouse=True)
def clean_registry():
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def test_disabled_spans_record_nothing_and_share_one_no_op():
    with obs.span("a", x=1) as first:
        with obs.span("b"):
            pass
    assert obs.registry.spans == []
    assert obs.span("c") is obs.span("d")
    assert first is None


def test_nested_spans_record_depth_in_closing_order():
    obs.enable()
    with obs.span("outer", workers=4):
        with obs.span("inner"):
            pass
        with obs.span("inner"):
            pass
    names = [(span.name, span.depth) for span in obs.registry.spans]
    assert names == [("inner", 1), ("inner", 1), ("outer", 0)]
    outer = obs.registry.spans[-1]
    assert outer.attrs == {"workers": 4}
    inner = sum(span.seconds for span in obs.registry.spans[:2])
    assert 0.0 <= inner <= outer.seconds
    assert set(obs.totals()) == {"inner", "outer"}


def test_a_raising_body_still_closes_its_span():
    obs.enable()
    with pytest.raises(ValueError):
        with obs.span("outer"):
            with obs.span("fails"):
                raise ValueError
    assert [span.depth for span in obs.registry.spans] == [1, 0]
    with obs.span("after"):
        pass
    assert obs.registry.spans[-1].depth == 0


def test_each_thread_nests_on_its_own():
    obs.enable()
    inside = threading.Event()

    def worker():
        with obs.span("thread"):
            inside.set()

    with obs.span("main"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert inside.is_set()
    depths = {span.name: span.depth for span in obs.registry.spans}
    assert depths == {"thread": 0, "main": 0}


def test_an_open_span_takes_counts_known_only_inside_it():
    with obs.span("rows") as disabled:
        pass
    assert disabled is None
    obs.enable()
    with obs.span("rows", computed=3) as open_span:
        open_span.attrs["cached"] = 5
    (span,) = obs.registry.spans
    assert span.attrs == {"computed": 3, "cached": 5}
    assert span.thread == threading.get_ident()


def test_trace_events_give_each_thread_a_tid():
    from repro.sim.trace import span_trace_events

    def worker():
        with obs.span("thread"):
            pass

    obs.enable()
    with obs.span("main", workers=2):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    events = span_trace_events(obs.registry.spans)
    assert [(e["name"], e["tid"], e["ph"]) for e in events] == [
        ("thread", 0, "X"), ("main", 1, "X")]
    main = events[1]
    assert main["args"] == {"depth": 0, "workers": 2}
    assert main["ts"] <= events[0]["ts"]
    assert events[0]["ts"] + events[0]["dur"] <= main["ts"] + main["dur"] + 1e-3
    assert min(e["ts"] for e in events) == 0.0
