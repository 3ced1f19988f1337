"""Span tracing with wall- and virtual-clock timestamps.

The paper's methodology is instrumentation: every figure of section 4
comes from attributing wall-clock time to host computation, GRAPE
pipeline time, and communication, then tuning the dominant term.  The
:class:`Tracer` is the measurement substrate for that attribution in
the reproduction: code brackets its phases in spans ::

    with tracer.span("corrector", phase=T_HOST, n_active=k):
        ...

and every finished span is described by

* wall-clock start/duration (``time.perf_counter``, microseconds),
* optional *virtual*-clock start/duration when the tracer is wired to
  a :class:`repro.parallel.virtualtime.VirtualClock` (the simulated
  machine's time — the quantity the paper's figures actually plot),
* nesting structure (id/parent/depth) so an aggregator can compute
  self-times without double counting,
* free-form attributes (block size, bytes, retry counts, ...).

A sink that folds spans (it has a ``span_step``: the span fold of
:mod:`repro.telemetry.phases` and the observatories that own one) is
handed those fields directly, one call a span; a :class:`SpanEvent`
is built once, and only when some sink keeps events (``emit``).

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
from time import perf_counter
from typing import Any, Callable


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
_new_span = object.__new__


class _Span:
    """Live span: times itself and reports to its tracer on exit.  Made
    only by :meth:`Tracer.span`, which fills its first four slots."""

    __slots__ = ("_tracer", "name", "phase", "attrs", "span_id", "parent_id",
                 "_t0", "_v0")

    def set(self, **attrs: Any) -> "_Span":
        """Attach attributes discovered mid-span (e.g. a result count)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        tr = self._tracer
        tr._serial += 1
        self.span_id = tr._serial
        stack = tr._stack
        self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        clock = tr.virtual_clock
        self._v0 = None if clock is None else float(clock())
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = perf_counter()
        tr = self._tracer
        clock = tr.virtual_clock
        v0 = self._v0
        tr._stack.pop()
        t0 = self._t0
        start, dur = (t0 - tr._epoch) * 1.0e6, (t1 - t0) * 1.0e6
        v_dur = None if clock is None else float(clock()) - (v0 or 0.0)
        for step in tr._steps:
            step(self.name, self.span_id, self.parent_id, self.phase, start,
                 dur, v_dur, self.attrs)
        if tr._emits:
            # positional, in SpanEvent's field order; spans close last
            # opened first, so the stack is back at this span's depth
            event = SpanEvent(self.name, self.span_id, self.parent_id,
                              len(tr._stack), start, dur, self.phase, v0,
                              v_dur, self.attrs)
            for emit in tr._emits:
                emit(event)
        return False


class Tracer:
    """Span source with pluggable sinks.

    A tracer records spans and nothing else: every run quantity
    (interactions, block sizes, messages, exponent retries) is counted
    once, by the stats object that owns it (``integ.stats``,
    ``emulator.stats``, ``network.stats`` / ``network.ledger``).

    Parameters
    ----------
    enabled:
        Master switch.  When False, :meth:`span` returns a shared no-op
        context manager.
    sinks:
        Objects with ``span_step(name, span_id, parent_id, phase,
        t_start_us, dur_us, v_dur_us, attrs)`` (a span fold) or with
        ``emit(event)`` (see :mod:`repro.telemetry.sinks`); every
        finished span is delivered to each: first to the folds, then
        as one :class:`SpanEvent` to the others, each group in order.
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
        self.sinks = sinks if sinks is not None else ()
        self.virtual_clock = virtual_clock
        self._stack: list[_Span] = []
        self._serial = 0
        self._epoch = perf_counter()

    # -- sinks ----------------------------------------------------------------

    @property
    def sinks(self) -> tuple:
        """The sinks, in the order given."""
        return self._sinks

    @sinks.setter
    def sinks(self, sinks) -> None:
        self._sinks = tuple(sinks)
        steps = [getattr(sink, "span_step", None) for sink in self._sinks]
        self._steps = tuple(step for step in steps if step is not None)
        self._emits = tuple(sink.emit for sink, step in zip(self._sinks, steps)
                            if step is None)

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, phase: str | None = None, **attrs: Any):
        """Context manager timing one phase of work.

        The disabled fast path is a single attribute test plus the
        return of a module-level singleton — cheap enough to leave in
        per-blockstep (not per-particle) hot loops unconditionally.
        """
        if not self.enabled:
            return _NULL_SPAN
        # allocated without an __init__ call: one Python call fewer a span
        span = _new_span(_Span)
        span._tracer, span.name, span.phase, span.attrs = self, name, phase, attrs
        return span

    # -- the per-blockstep hook -----------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Called once at the end of every
        :meth:`~repro.core.individual.BlockTimestepIntegrator.step`, with
        the block size, whether or not the tracer is enabled.  The base
        method does nothing (the size is in ``integ.stats``); it exists
        so a subclass handed in through the integrator's ``tracer=``
        argument can act per blockstep - a benchmark harness stamps the
        clock here - without a span or a sink."""

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Close every sink that has a ``close()``."""
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
