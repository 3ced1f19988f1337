"""Span tracing with wall- and virtual-clock timestamps.

The paper's methodology is instrumentation: every figure of section 4
comes from attributing wall-clock time to host computation, GRAPE
pipeline time, and communication, then tuning the dominant term.  The
:class:`Tracer` is the measurement substrate for that attribution in
the reproduction: code brackets its phases in spans ::

    with tracer.span("corrector", phase=T_HOST, n_active=k):
        ...

and every finished span becomes a :class:`SpanEvent` carrying

* wall-clock start/duration (``time.perf_counter``, microseconds),
* optional *virtual*-clock start/duration when the tracer is wired to
  a :class:`repro.parallel.virtualtime.VirtualClock` (the simulated
  machine's time — the quantity the paper's figures actually plot),
* nesting structure (id/parent/depth) so an aggregator can compute
  self-times without double counting,
* free-form attributes (block size, bytes, retry counts, ...).

Disabled tracing is the default and is engineered to be near-free: one
attribute test and the return of a shared no-op context manager per
span, no timestamps, no allocation.  The hot paths of the integrators
stay instrumented permanently, as in production GRAPE codes.

A process-wide default tracer (:func:`get_tracer` / :func:`set_tracer`
/ :func:`configure`) lets applications switch on telemetry without
threading a tracer handle through every constructor, mirroring the
``logging`` module's root-logger pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from threading import get_ident
from time import perf_counter
from typing import Any, Callable

from .metrics import Metrics


@dataclass
class SpanEvent:
    """One finished span.

    Times are microseconds.  ``v_start``/``v_dur_us`` are present only
    when the owning tracer has a virtual clock attached.
    """

    name: str
    span_id: int
    parent_id: int | None
    depth: int
    t_start_us: float
    dur_us: float
    phase: str | None = None
    v_start_us: float | None = None
    v_dur_us: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def as_record(self) -> dict[str, Any]:
        """Flat JSON-ready dict (for the JSONL sink / run logs)."""
        rec: dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "t_start_us": self.t_start_us,
            "dur_us": self.dur_us,
        }
        if self.phase is not None:
            rec["phase"] = self.phase
        if self.v_start_us is not None:
            rec["v_start_us"] = self.v_start_us
            rec["v_dur_us"] = self.v_dur_us
        if self.attrs:
            rec["attrs"] = self.attrs
        return rec

    @classmethod
    def from_record(cls, rec: dict[str, Any]) -> "SpanEvent":
        return cls(
            name=rec["name"],
            span_id=int(rec["span_id"]),
            parent_id=None if rec.get("parent_id") is None else int(rec["parent_id"]),
            depth=int(rec["depth"]),
            t_start_us=float(rec["t_start_us"]),
            dur_us=float(rec["dur_us"]),
            phase=rec.get("phase"),
            v_start_us=rec.get("v_start_us"),
            v_dur_us=rec.get("v_dur_us"),
            attrs=dict(rec.get("attrs", {})),
        )


class _NullSpan:
    """Shared no-op context manager returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _Span:
    """Live span: times itself and reports to its tracer on exit."""

    __slots__ = ("_tracer", "name", "phase", "attrs", "span_id", "parent_id",
                 "depth", "_t0", "_v0")

    def __init__(self, tracer: "Tracer", name: str, phase: str | None,
                 attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.phase = phase
        self.attrs = attrs

    def set(self, **attrs: Any) -> "_Span":
        """Attach attributes discovered mid-span (e.g. a result count)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        tr = self._tracer
        tr._serial += 1
        self.span_id = tr._serial
        stack = tr._stack
        if stack:
            self.parent_id = stack[-1].span_id
            self.depth = len(stack)
        else:
            # only a top-level span can be the first a thread opens:
            # the stack belongs to one thread while it is non-empty
            self.parent_id = None
            self.depth = 0
            tr._owner_thread = get_ident()
        stack.append(self)
        clock = tr.virtual_clock
        self._v0 = None if clock is None else float(clock())
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        t1 = perf_counter()
        tr = self._tracer
        clock = tr.virtual_clock
        v0 = self._v0
        tr._stack.pop()
        t0 = self._t0
        # positional, in SpanEvent's field order
        event = SpanEvent(
            self.name, self.span_id, self.parent_id, self.depth,
            (t0 - tr._epoch) * 1.0e6, (t1 - t0) * 1.0e6, self.phase,
            v0, None if clock is None else float(clock()) - (v0 or 0.0),
            self.attrs,
        )
        for sink in tr.sinks:
            sink.emit(event)
        return False


class Tracer:
    """Span source with pluggable sinks and an attached metrics registry.

    Parameters
    ----------
    enabled:
        Master switch.  When False, :meth:`span` returns a shared no-op
        context manager and the metric helpers return immediately.
    sinks:
        Objects with ``emit(event)`` (see :mod:`repro.telemetry.sinks`);
        every finished span is delivered to each in order.
    virtual_clock:
        Optional zero-argument callable returning the simulated
        machine's time in microseconds (typically
        ``network.clock.elapsed`` of a
        :class:`repro.parallel.simcomm.SimNetwork`).  When set, spans
        carry virtual timestamps alongside wall-clock ones.
    """

    def __init__(
        self,
        enabled: bool = True,
        sinks: list | None = None,
        virtual_clock: Callable[[], float] | None = None,
    ) -> None:
        self.enabled = bool(enabled)
        self.sinks: list = list(sinks) if sinks is not None else []
        self.virtual_clock = virtual_clock
        self.metrics = Metrics()
        self._stack: list[_Span] = []
        self._serial = 0
        self._epoch = perf_counter()
        self._owner_thread: int | None = None

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, phase: str | None = None, **attrs: Any):
        """Context manager timing one phase of work.

        The disabled fast path is a single attribute test plus the
        return of a module-level singleton — cheap enough to leave in
        per-blockstep (not per-particle) hot loops unconditionally.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, phase, attrs)

    def event(self, name: str, phase: str | None = None, **attrs: Any) -> None:
        """Record an instantaneous (zero-duration) event."""
        if not self.enabled:
            return
        t = perf_counter()
        self._serial += 1
        clock = self.virtual_clock
        event = SpanEvent(
            name=name,
            span_id=self._serial,
            parent_id=self._stack[-1].span_id if self._stack else None,
            depth=len(self._stack),
            t_start_us=(t - self._epoch) * 1.0e6,
            dur_us=0.0,
            phase=phase,
            v_start_us=None if clock is None else float(clock()),
            v_dur_us=None if clock is None else 0.0,
            attrs=dict(attrs),
        )
        for sink in self.sinks:
            sink.emit(event)

    # -- introspection (the sampling profiler's view) -------------------------

    def open_spans(self) -> tuple[tuple[str, str | None], ...]:
        """Snapshot of the currently-open span stack, outermost first.

        Each element is ``(name, phase)``; the phase is the span's
        explicit ``phase=`` argument or None (the consumer resolves
        unphased names through the span-name map).  Taking the snapshot
        copies the list under the GIL, so a background sampler thread
        may call this while the traced thread opens and closes spans;
        in the worst case a sample sees a stack that is one span stale,
        which is exactly the resolution a sampling profiler has anyway.
        """
        return tuple((s.name, s.phase) for s in self._stack)

    @property
    def owner_thread(self) -> int | None:
        """``threading.get_ident()`` of the last thread to open a span.

        The sampler uses this to correlate span attribution with the
        right thread's samples; None until the first span opens.
        """
        return self._owner_thread

    # -- metric helpers (no-ops when disabled) --------------------------------

    def count(self, name: str, n: int | float = 1) -> None:
        if self.enabled:
            self.metrics.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.histogram(name).observe(value)

    def observe_many(self, name: str, values) -> None:
        """Array form of :meth:`observe` (same histogram, same bits; no
        observations, no histogram)."""
        if self.enabled and len(values):
            self.metrics.histogram(name).observe_many(values)

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.gauge(name).set(value)

    # -- lifecycle ------------------------------------------------------------

    def flush(self) -> None:
        """Push the current metrics snapshot to sinks that accept one."""
        snapshot = self.metrics.snapshot()
        for sink in self.sinks:
            emit_metrics = getattr(sink, "emit_metrics", None)
            if emit_metrics is not None and snapshot:
                emit_metrics(snapshot)

    def close(self) -> None:
        """Flush metrics and close every sink."""
        self.flush()
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


#: Process-wide default tracer: disabled until an application opts in.
_default_tracer = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The current process-wide tracer (disabled by default)."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-wide default; returns the old one."""
    global _default_tracer
    old, _default_tracer = _default_tracer, tracer
    return old


def configure(
    sinks: list | None = None,
    virtual_clock: Callable[[], float] | None = None,
) -> Tracer:
    """Install and return an enabled default tracer (convenience)."""
    return_value = Tracer(enabled=True, sinks=sinks, virtual_clock=virtual_clock)
    set_tracer(return_value)
    return return_value
