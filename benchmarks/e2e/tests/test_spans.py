"""Span bookkeeping: parents, self times, the no-op recorder."""

import json

from benchmarks.e2e.spans import Recorder


def _busy(n):
    return sum(range(n))


def test_self_times_never_exceed_their_parent_and_add_up():
    recorder = Recorder()
    for request in range(20):
        with recorder.span("request", ("t", request)):
            with recorder.span("decode", ("t", request)):
                _busy(200)
            with recorder.span("execute", ("t", request)):
                with recorder.span("inner", ("t", request)):
                    _busy(500)
                _busy(100)
    selfs = recorder.self_times()
    spans = recorder.spans
    for span, self_time in zip(spans, selfs):
        assert 0.0 <= self_time <= span.duration
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert self_time <= parent.duration
            assert span.request == parent.request
    # A root's duration is exactly the self times of its subtree.
    for root in (s for s in spans if s.parent is None):
        subtree = [
            selfs[s.index] for s in spans if s.request == root.request
        ]
        assert abs(sum(subtree) - root.duration) < 1e-9


def test_durations_filter_by_name_tag_and_stream():
    recorder = Recorder()
    for stream, tag in (("a", "hit"), ("a", "miss"), ("b", "hit")):
        with recorder.span("execute", (stream, 0)) as span:
            pass
        span.tag = tag
    assert len(recorder.durations("execute")) == 3
    assert len(recorder.durations("execute", tag="hit")) == 2
    assert len(recorder.durations("execute", tag="hit", stream="a")) == 1


def test_disabled_recorder_records_nothing():
    recorder = Recorder(enabled=False)
    with recorder.span("request", ("t", 0)) as span:
        span.tag = "ignored"
    assert recorder.spans == []
    assert span.tag is None


def test_span_file_round_trips(tmp_path):
    recorder = Recorder()
    with recorder.span("request", ("t", 1)):
        with recorder.span("child", ("t", 1)):
            pass
    path = tmp_path / "trace.json"
    recorder.write(str(path), {"seed": 5})
    payload = json.loads(path.read_text())
    assert payload["seed"] == 5
    assert [s["name"] for s in payload["spans"]] == ["request", "child"]
    assert payload["spans"][1]["parent"] == 0
    assert payload["spans"][1]["request"] == ["t", 1]
