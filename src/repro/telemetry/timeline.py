"""Chrome trace-event export of span trees (the flight recorder's film).

The paper's figs. 14/16/18 are *aggregate* budgets; finding the NIC
bottleneck of section 4.4 also needed the *sequence* — what ran when,
what waited on what, per blockstep.  This module renders a finished
span stream as Trace Event JSON loadable in ``chrome://tracing`` or
`Perfetto <https://ui.perfetto.dev>`_:

* every span becomes a complete ("X") event with microsecond ``ts``
  and ``dur``, categorised by its resolved paper phase, carrying its
  attributes in ``args``;
* both clock domains are exported side by side as separate trace
  processes — pid 1 is the wall clock, pid 2 the virtual (simulated
  machine) clock — so the same blockstep can be read in real time and
  in the time the paper's figures plot;
* sampler ticks (:mod:`repro.telemetry.sampler`) appear as instant
  ("i") events, so profiling samples are visually correlated with the
  spans they were attributed to.

The exporter consumes retained :class:`SpanEvent` lists (an
:class:`InMemorySink`, or :func:`read_spans` of a JSONL trace);
:class:`TimelineSink` streams into the same file shape directly from a
tracer for zero-ceremony capture.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..schema import check, list_of
from .phases import T_OTHER, resolve_phase
from .sampler import Sample
from .tracer import SpanEvent

#: Registry of Chrome-trace process ids — one lane group per
#: subsystem, assigned here so no exporter invents a colliding pid.
#: ``comm`` is a *base*: a run with several simulated networks renders
#: network ``i`` under ``TRACE_PIDS["comm"] + i`` (the range up to
#: ``regimes`` is reserved for it, which bounds a hybrid run at 37
#: fabrics — far beyond the paper's 4 clusters).
TRACE_PIDS: dict[str, int] = {
    "wall": 1,
    "virtual": 2,
    "comm": 3,
    "regimes": 40,
    "efficiency": 50,
    "ranks": 60,
}

if len(set(TRACE_PIDS.values())) != len(TRACE_PIDS):  # pragma: no cover
    raise ValueError(f"TRACE_PIDS assigns one pid twice: {TRACE_PIDS}")

#: Trace process ids for the two clock domains.
WALL_PID = TRACE_PIDS["wall"]
VIRTUAL_PID = TRACE_PIDS["virtual"]

#: displayTimeUnit for the JSON object format.
_DISPLAY_UNIT = "ms"


# -- the lane builder ---------------------------------------------------------


def process_name_event(pid: int, name: str) -> dict[str, Any]:
    """The metadata ("M") event naming trace process ``pid``."""
    return {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "args": {"name": name},
    }


def trace_event(name: str, cat: str, ts: float, dur: float, pid: int,
                tid: int, args: dict[str, Any]) -> dict[str, Any]:
    """One complete ("X") event — or, when there is no duration to
    draw, a thread-scoped instant ("i") instead of a zero-width
    rectangle."""
    event: dict[str, Any] = {
        "name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
        "pid": pid, "tid": tid, "args": args,
    }
    if dur <= 0.0:
        del event["dur"]
        event["ph"] = "i"
        event["s"] = "t"
    return event


def _by_ts(event: dict[str, Any]) -> tuple[float, float]:
    """Sort key: by timestamp, the longer (enclosing) event first."""
    return event["ts"], -event.get("dur", 0.0)


def trace_lane(pid: int, name: str,
               events: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
    """One lane group: its ``process_name`` metadata event first, then
    ``events`` in time order."""
    return [process_name_event(pid, name)] + sorted(events, key=_by_ts)


# -- span film ----------------------------------------------------------------


def _span_phase(event: SpanEvent, by_id: dict[int, SpanEvent]) -> str:
    """The ancestor rule on a retained list: the nearest span, from
    ``event`` outward, that resolves a phase."""
    for _ in range(10_000):  # a corrupt trace may loop; a real one is shallow
        phase = resolve_phase(event.name, event.phase)
        if phase is not None:
            return phase
        event = by_id.get(event.parent_id)
        if event is None:
            break
    return T_OTHER


def timeline_events(
    events: Sequence[SpanEvent],
    clock: str = "wall",
    pid: int | None = None,
    tid: int = 1,
) -> list[dict[str, Any]]:
    """Complete ("X") trace events for one clock domain, sorted by ts.

    ``clock`` is ``"wall"`` or ``"virtual"``; in the virtual domain,
    spans without virtual timestamps (tracer not wired to a simulated
    network) are skipped.  Zero-duration tracer events become instant
    ("i") events rather than zero-width rectangles.
    """
    if clock not in ("wall", "virtual"):
        raise ValueError(f"unknown clock {clock!r} (want 'wall' or 'virtual')")
    if pid is None:
        pid = WALL_PID if clock == "wall" else VIRTUAL_PID
    by_id = {e.span_id: e for e in events}
    out: list[dict[str, Any]] = []
    for e in events:
        if clock == "virtual":
            if e.v_start_us is None:
                continue
            ts, dur = e.v_start_us, e.v_dur_us or 0.0
        else:
            ts, dur = e.t_start_us, e.dur_us
        out.append(trace_event(
            e.name, _span_phase(e, by_id), ts, dur, pid, tid,
            {"span_id": e.span_id, "depth": e.depth, **e.attrs},
        ))
    out.sort(key=_by_ts)
    return out


def sample_events(
    samples: Iterable[Sample], pid: int = WALL_PID
) -> list[dict[str, Any]]:
    """Sampler ticks as thread-scoped instant ("i") events."""
    return [
        trace_event(
            f"sample:{s.phase}", "sampler", s.t_us, 0.0, pid, s.thread_id,
            {"phase": s.phase, "source": s.source, "label": s.label},
        )
        for s in samples
    ]


def build_timeline(
    events: Sequence[SpanEvent],
    samples: Iterable[Sample] | None = None,
    metadata: dict[str, Any] | None = None,
    extra_events: Iterable[dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """The full trace document: both clock domains plus sampler ticks.

    ``extra_events`` appends pre-built trace events verbatim — the hook
    the comm-ledger uses (:meth:`repro.parallel.CommLedger.trace_events`
    renders barrier/exchange lanes under its own pid) so network
    attribution lands in the same document as the span film.

    Returns the JSON object format (``traceEvents`` list wrapped with
    ``displayTimeUnit`` and free-form ``otherData``) — the shape both
    ``chrome://tracing`` and Perfetto load directly.
    """
    trace = [process_name_event(WALL_PID, "wall clock"),
             *timeline_events(events)]
    virtual = timeline_events(events, clock="virtual")
    if virtual:
        trace.append(process_name_event(
            VIRTUAL_PID, "virtual clock (simulated machine)"))
        trace += virtual
    if samples is not None:
        trace += sample_events(samples)
    if extra_events is not None:
        trace += list(extra_events)
    return {
        "traceEvents": trace,
        "displayTimeUnit": _DISPLAY_UNIT,
        "otherData": dict(metadata or {}),
    }


def write_timeline(
    path: str | Path,
    events: Sequence[SpanEvent],
    samples: Iterable[Sample] | None = None,
    metadata: dict[str, Any] | None = None,
    extra_events: Iterable[dict[str, Any]] | None = None,
) -> Path:
    """Build and write one trace document; returns the path."""
    doc = build_timeline(events, samples=samples, metadata=metadata,
                         extra_events=extra_events)
    path = Path(path)
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path


def _event_shape(ev: dict[str, Any]) -> str | None:
    ph = ev.get("ph")
    if ph not in ("X", "B", "E", "i", "M", "C"):
        return f"has unknown ph {ph!r}"
    if ph == "M":
        return None
    for key in ("ts", "pid", "tid"):
        if not isinstance(ev.get(key), (int, float)):
            return f"missing numeric {key!r}"
    if ph == "X" and not isinstance(ev.get("dur"), (int, float)):
        return "'X' event lacks 'dur'"


def _one_name_per_pid(doc: dict[str, Any]) -> str | None:
    pid_names: dict[Any, str] = {}
    for ev in doc["traceEvents"]:
        if ev["ph"] != "M" or ev.get("name") != "process_name":
            continue
        pid, name = ev.get("pid"), (ev.get("args") or {}).get("name")
        if name is None or pid is None:
            continue
        if pid_names.setdefault(pid, name) != name:
            return (
                f"pid {pid} claimed by two processes ({pid_names[pid]!r} "
                f"and {name!r}); assign lanes from "
                "telemetry.timeline.TRACE_PIDS"
            )


#: The Trace Event contract the viewers rely on.
TIMELINE_SPEC = {
    "what": "timeline",
    "fields": {"traceEvents": list_of({"rules": (_event_shape,)})},
    "rules": (_one_name_per_pid,),
}


def validate_timeline(doc: Any, source: str = "timeline") -> dict[str, Any]:
    """Cheap structural check (tests and the CLI run it after export).

    Asserts the Trace Event contract the viewers rely on: a
    ``traceEvents`` list whose duration events are "B"/"E"/"X" with
    numeric microsecond ``ts`` and ``pid``/``tid`` present — and that
    no pid is claimed by two differently-named trace processes (the
    collision a hand-assigned pid outside :data:`TRACE_PIDS` risks).
    """
    return check(doc, TIMELINE_SPEC, source, ValueError)


class TimelineSink:
    """Tracer sink that writes a trace document on :meth:`close`.

    Buffers span events (timeline files need global sorting and the
    virtual-domain scan, so streaming JSON incrementally buys nothing)
    and serialises them — plus any sampler attached via
    :meth:`attach_sampler` — when the tracer closes it.
    """

    def __init__(self, path: str | Path, **metadata: Any) -> None:
        self.path = Path(path)
        self.metadata = metadata
        self.events: list[SpanEvent] = []
        self._sampler = None

    def attach_sampler(self, sampler) -> None:
        """Include ``sampler.samples`` as instant events at close."""
        self._sampler = sampler

    def emit(self, event: SpanEvent) -> None:
        self.events.append(event)

    def close(self) -> None:
        samples = self._sampler.samples if self._sampler is not None else None
        write_timeline(self.path, self.events, samples=samples,
                       metadata=self.metadata)
