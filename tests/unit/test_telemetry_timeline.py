"""Chrome trace-event export (repro.telemetry.timeline).

Pins the contract the viewers rely on: complete ("X") events with
microsecond ``ts``/``dur`` and ``pid``/``tid``, monotonic ordering,
both clock domains as separate trace processes, and a document that
survives a JSON round trip through :func:`validate_timeline`.
"""

import json

import pytest

from repro.telemetry import (
    T_COMM,
    T_HOST,
    T_PIPE,
    SpanEvent,
    TimelineSink,
    Tracer,
    build_timeline,
    timeline_events,
    validate_timeline,
    write_timeline,
)
from repro.telemetry.timeline import VIRTUAL_PID, WALL_PID


def span(span_id, name, t0, dur, parent=None, depth=0, phase=None,
         v0=None, vdur=None, **attrs):
    return SpanEvent(
        name=name, span_id=span_id, parent_id=parent, depth=depth,
        t_start_us=t0, dur_us=dur, phase=phase,
        v_start_us=v0, v_dur_us=vdur, attrs=attrs,
    )


@pytest.fixture
def events():
    """A blockstep-shaped tree: root containing force + comm, with
    virtual timestamps on the comm side only."""
    return [
        span(2, "force", 10.0, 50.0, parent=1, depth=1, phase=T_PIPE, n=256),
        span(3, "net.exchange", 70.0, 20.0, parent=1, depth=1, phase=T_COMM,
             v0=0.0, vdur=35.0),
        span(1, "blockstep", 0.0, 100.0, phase=T_HOST, v0=0.0, vdur=40.0),
    ]


class TestTimelineEvents:
    def test_wall_events_are_sorted_complete_events(self, events):
        out = timeline_events(events, clock="wall")
        assert [e["ts"] for e in out] == sorted(e["ts"] for e in out)
        assert all(e["ph"] == "X" for e in out)
        assert all(e["pid"] == WALL_PID and e["tid"] == 1 for e in out)
        by_name = {e["name"]: e for e in out}
        assert by_name["force"]["dur"] == 50.0
        assert by_name["force"]["cat"] == T_PIPE
        assert by_name["force"]["args"]["n"] == 256

    def test_parent_sorts_before_equal_ts_child(self, events):
        """At equal ts the longer (enclosing) span must come first or
        the viewer nests them wrong."""
        out = timeline_events(events, clock="wall")
        names = [e["name"] for e in out]
        assert names.index("blockstep") < names.index("force")

    def test_virtual_domain_skips_wall_only_spans(self, events):
        out = timeline_events(events, clock="virtual")
        assert {e["name"] for e in out} == {"blockstep", "net.exchange"}
        assert all(e["pid"] == VIRTUAL_PID for e in out)
        by_name = {e["name"]: e for e in out}
        assert by_name["net.exchange"]["dur"] == 35.0

    def test_phase_inherited_from_ancestor(self):
        tree = [
            span(1, "blockstep", 0.0, 10.0, phase=T_HOST),
            span(2, "bookkeep", 1.0, 2.0, parent=1, depth=1),
        ]
        out = timeline_events(tree, clock="wall")
        assert {e["cat"] for e in out} == {T_HOST}

    def test_zero_duration_becomes_instant_event(self):
        out = timeline_events([span(1, "marker", 5.0, 0.0)], clock="wall")
        assert out[0]["ph"] == "i"
        assert "dur" not in out[0]

    def test_unknown_clock_raises(self, events):
        with pytest.raises(ValueError):
            timeline_events(events, clock="cpu")


class TestBuildAndValidate:
    def test_document_shape_and_both_domains(self, events):
        doc = build_timeline(events, metadata={"suite": "micro"})
        validate_timeline(doc)
        trace = doc["traceEvents"]
        pids = {e["pid"] for e in trace if e["ph"] != "M"}
        assert pids == {WALL_PID, VIRTUAL_PID}
        names = [e["args"]["name"] for e in trace if e["ph"] == "M"]
        assert "wall clock" in names[0]
        assert doc["otherData"] == {"suite": "micro"}

    def test_no_virtual_process_without_virtual_spans(self):
        doc = build_timeline([span(1, "force", 0.0, 5.0, phase=T_PIPE)])
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert VIRTUAL_PID not in pids

    def test_validate_rejects_broken_events(self):
        with pytest.raises(ValueError):
            validate_timeline({"traceEvents": [{"ph": "X", "ts": 0.0}]})
        with pytest.raises(ValueError):
            validate_timeline({"traceEvents": [{"ph": "Q", "ts": 0.0, "pid": 1, "tid": 1}]})
        with pytest.raises(ValueError):
            validate_timeline([])
        # an "X" event must carry a duration
        with pytest.raises(ValueError):
            validate_timeline(
                {"traceEvents": [{"ph": "X", "ts": 0.0, "pid": 1, "tid": 1}]}
            )

    def test_write_round_trip(self, events, tmp_path):
        path = tmp_path / "trace.json"
        write_timeline(path, events, metadata={"k": "v"})
        doc = validate_timeline(json.loads(path.read_text()))
        assert doc == build_timeline(events, metadata={"k": "v"})
        kinds = {e["ph"] for e in doc["traceEvents"]}
        assert kinds == {"M", "X"}


class TestTimelineSink:
    def test_tracer_to_file_via_sink(self, tmp_path):
        path = tmp_path / "trace.json"
        sink = TimelineSink(path, suite="unit")
        tracer = Tracer(enabled=True, sinks=[sink])
        with tracer.span("blockstep", phase=T_HOST):
            with tracer.span("force", phase=T_PIPE):
                pass
        tracer.close()
        doc = validate_timeline(json.loads(path.read_text()))
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert names == {"blockstep", "force"}
        assert doc["otherData"] == {"suite": "unit"}
        # real microsecond timestamps: child starts at or after parent
        by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert by_name["force"]["ts"] >= by_name["blockstep"]["ts"]
