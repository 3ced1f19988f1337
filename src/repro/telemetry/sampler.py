"""Span-correlated sampling profiler (the flight recorder's sampler).

``repro.bench.profiling`` attributes cProfile self-time to the paper's
eq. 10 phases by *module path* — everything under ``repro/forces/`` is
pipeline time, everything under ``repro/core/`` is host time.  That
rule is wrong exactly where the paper's tuning story needs precision:
host-side bookkeeping executed *inside* ``forces/`` (packing i-particle
buffers, reshaping results) is host work the path rule books under
``T_pipe``, hiding it from the fig. 14 budget.

The sampler fixes this with span correlation.  A background thread
wakes every ``interval_s`` and snapshots, for every thread,

1. the tracer's currently-open span stack (:meth:`Tracer.open_spans`),
2. the thread's live Python frame stack (``sys._current_frames``).

Each sample is attributed **first** to the innermost open span with a
resolvable phase — the instrumentation says what the program is doing,
regardless of which file the interpreter happens to be executing — and
only falls back to the path rules (:data:`ATTRIBUTION_RULES`, which
``repro.bench.profiling`` shares) applied to the frame stack when no
span is open.  A sample therefore lands in ``T_host`` when taken inside
``with tracer.span("pack", phase=T_HOST)`` even if the executing frame
lives in ``repro/forces/direct.py``.

The live thread ticks only when it next holds the GIL.  At Python's
default 5 ms switch interval that is mostly at the next C call that
releases it (a compiled tile), so the host's ~15 us tile calls could be
missed altogether and a whole recording land in one phase.  While it
runs the sampler therefore lowers the interpreter's switch interval to
:data:`SWITCH_INTERVAL_S`, so the traced thread hands the GIL over
wherever it is, and restores the old value when it stops.

Determinism for tests: :meth:`SamplingProfiler.tick` is the whole
sampling step and takes injectable timestamps and frame stacks, so a
test can drive the sampler with a fake clock and synthetic frames —
no thread, no timing dependence.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..io.tables import format_table
from .phases import (
    PAPER_PHASE_NAMES,
    PHASES,
    T_BARRIER,
    T_COMM,
    T_HOST,
    T_OTHER,
    T_PIPE,
    resolve_phase,
)
from .tracer import Tracer

#: Attribution provenance of one sample.
SOURCE_SPAN = "span"            # an open tracer span decided the phase
SOURCE_FRAMES = "frames"        # no span open; path rules on the frames
SOURCE_NONE = "unattributed"    # neither view could place the sample

#: One extracted stack frame: (filename, function name), innermost first.
FrameRef = tuple[str, str]

#: GIL switch interval (s) while a sampler runs; a smaller one already
#: set is kept.
SWITCH_INTERVAL_S = 1e-4


#: Ordered direct-attribution rules by module path, shared by the
#: sampler's frame fallback and ``repro.bench.profiling``'s cProfile
#: attribution: (path fragment, function name or None for any, phase or
#: None for "as its callers").  First match wins; paths are
#: '/'-normalised.
ATTRIBUTION_RULES: list[tuple[str, str | None, str | None]] = [
    ("repro/parallel/simcomm.py", "barrier", T_BARRIER),
    ("repro/parallel/barrier.py", None, T_BARRIER),
    ("repro/parallel/simcomm.py", None, T_COMM),
    ("repro/parallel/virtualtime.py", None, T_COMM),
    ("repro/parallel/", None, T_COMM),
    ("repro/forces/compiled.py", None, None),
    ("repro/forces/", None, T_PIPE),
    ("repro/hardware/", None, T_PIPE),
    ("repro/telemetry/tracer.py", "span", None),
    ("repro/telemetry/tracer.py", "__enter__", None),
    ("repro/telemetry/tracer.py", "__exit__", None),
    ("repro/telemetry/", None, T_OTHER),
    ("repro/core/", None, T_HOST),
    ("repro/perfmodel/", None, T_HOST),
    ("repro/models/", None, T_HOST),
]


def frame_chain(frame, limit: int = 64) -> list[FrameRef]:
    """Extract ``(filename, funcname)`` pairs, innermost first."""
    out: list[FrameRef] = []
    while frame is not None and len(out) < limit:
        code = frame.f_code
        out.append((code.co_filename, code.co_name))
        frame = frame.f_back
    return out


@dataclass(frozen=True)
class Sample:
    """One profiler tick for one thread."""

    t_us: float
    thread_id: int
    phase: str
    source: str
    #: span name (span source) or "file:func" (frame source) that won.
    label: str


@dataclass
class SamplerReport:
    """Aggregated view of a finished sampling run."""

    n_samples: int
    interval_s: float
    phase_counts: dict[str, int] = field(default_factory=dict)
    source_counts: dict[str, int] = field(default_factory=dict)
    label_counts: dict[str, int] = field(default_factory=dict)

    @property
    def span_fraction(self) -> float:
        """Share of samples attributed via an open span — the
        acceptance bar for instrumentation coverage."""
        if self.n_samples == 0:
            return 0.0
        return self.source_counts.get(SOURCE_SPAN, 0) / self.n_samples

    @property
    def attributed_fraction(self) -> float:
        """Share of samples landing in a paper phase (not 'other')."""
        if self.n_samples == 0:
            return 0.0
        other = self.phase_counts.get(T_OTHER, 0)
        return (self.n_samples - other) / self.n_samples

    def phase_seconds(self, phase: str) -> float:
        """Estimated wall seconds in ``phase`` (count x interval)."""
        return self.phase_counts.get(phase, 0) * self.interval_s

    def as_dict(self) -> dict[str, Any]:
        return {
            "n_samples": self.n_samples,
            "interval_s": self.interval_s,
            "phase_counts": dict(self.phase_counts),
            "source_counts": dict(self.source_counts),
            "label_counts": dict(self.label_counts),
            "span_fraction": self.span_fraction,
            "attributed_fraction": self.attributed_fraction,
        }

    def render(self, title: str = "sampling profile (span-correlated)") -> str:
        n = self.n_samples
        phase_rows = [
            (
                PAPER_PHASE_NAMES.get(p, p),
                self.phase_counts.get(p, 0),
                f"{100.0 * self.phase_counts.get(p, 0) / n:.1f}%" if n else "-",
                self.phase_seconds(p),
            )
            for p in PHASES
            if self.phase_counts.get(p, 0) > 0
        ]
        label_rows = sorted(
            self.label_counts.items(), key=lambda kv: -kv[1]
        )[:15]
        lines = [
            f"# {title}",
            f"{n} samples @ {self.interval_s * 1e3:.3g} ms nominal interval; "
            f"{100.0 * self.span_fraction:.1f}% span-correlated, "
            f"{100.0 * self.attributed_fraction:.1f}% attributed to paper phases",
            "",
            format_table(("phase", "samples", "share", "est [s]"), phase_rows),
        ]
        if label_rows:
            lines += [
                "",
                "## where samples landed (top 15)",
                "",
                format_table(("span / frame", "samples"), label_rows),
            ]
        return "\n".join(lines)


def attribute_sample(
    open_spans: Sequence[tuple[str, str | None]],
    frames: Sequence[FrameRef],
    frame_rules: Sequence[tuple[str, str | None, str]] | None = None,
) -> tuple[str, str, str]:
    """Attribute one (span stack, frame stack) observation.

    Returns ``(phase, source, label)``.  Span correlation wins whenever
    any span is open: the innermost span with an explicit or mappable
    phase decides, and an open-but-unmappable stack still counts as
    span-attributed (phase 'other') — the instrumentation was present,
    it just declared no phase.  Only with *no* span open do the path
    rules inspect the frame stack, innermost frame first.
    """
    if open_spans:
        for name, phase in reversed(open_spans):  # innermost first
            resolved = resolve_phase(name, phase)
            if resolved is not None:
                return resolved, SOURCE_SPAN, name
        return T_OTHER, SOURCE_SPAN, open_spans[-1][0]
    rules = ATTRIBUTION_RULES if frame_rules is None else frame_rules
    for filename, funcname in frames:
        normalized = filename.replace("\\", "/")
        for fragment, wanted, phase in rules:
            if fragment in normalized and (wanted is None or funcname == wanted):
                return phase, SOURCE_FRAMES, f"{normalized.split('/')[-1]}:{funcname}"
    return T_OTHER, SOURCE_NONE, frames[0][1] if frames else "?"


class SamplingProfiler:
    """Background-thread sampler correlated with a tracer's open spans.

    Parameters
    ----------
    tracer:
        The tracer whose span stack attributes samples; its epoch is
        also the sampler's time origin, so sample timestamps line up
        with span timestamps in a timeline export.
    interval_s:
        Nominal seconds between ticks (default 2 ms — coarse enough
        that a blockstep run of tens of ms still collects tens of
        samples at ~1% overhead).
    clock:
        Seconds-returning callable for tests (default
        ``time.perf_counter``; a non-default clock re-anchors the epoch
        at construction so fake clocks can start at zero).
    max_samples:
        Retention cap; ticks beyond it are counted in ``n_dropped``
        instead of stored, bounding memory on long flights.

    Use as a context manager around the traced workload::

        with SamplingProfiler(tracer) as sampler:
            run_workload()
        print(sampler.report().render())
    """

    def __init__(
        self,
        tracer: Tracer,
        interval_s: float = 0.002,
        clock=None,
        frame_rules: Sequence[tuple[str, str | None, str]] | None = None,
        max_samples: int = 200_000,
    ) -> None:
        if interval_s <= 0.0:
            raise ValueError("interval_s must be positive")
        self.tracer = tracer
        self.interval_s = float(interval_s)
        self._clock = time.perf_counter if clock is None else clock
        self._epoch = tracer._epoch if clock is None else self._clock()
        self.frame_rules = frame_rules
        self.max_samples = int(max_samples)
        self.samples: list[Sample] = []
        self.n_dropped = 0
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()

    # -- sampling -------------------------------------------------------------

    def tick(
        self,
        now_us: float | None = None,
        frames_by_thread: dict[int, Sequence[FrameRef]] | None = None,
    ) -> list[Sample]:
        """Take one sample of every thread; returns the new samples.

        Both arguments exist for deterministic tests: a fake timestamp
        and synthetic frame stacks replace the live interpreter state.
        """
        if now_us is None:
            now_us = (self._clock() - self._epoch) * 1.0e6
        own = self._thread.ident if self._thread is not None else None
        if frames_by_thread is None:
            frames_by_thread = {
                tid: frame_chain(frame)
                for tid, frame in sys._current_frames().items()
                if tid != own
            }
        open_spans = self.tracer.open_spans()
        owner = self.tracer.owner_thread
        new: list[Sample] = []
        for tid, frames in frames_by_thread.items():
            if tid == own:
                continue
            # span correlation only applies to the thread driving the
            # tracer; other threads fall through to the path rules
            spans = open_spans if (owner is None or tid == owner) else ()
            phase, source, label = attribute_sample(
                spans, frames, self.frame_rules
            )
            new.append(Sample(now_us, tid, phase, source, label))
        room = self.max_samples - len(self.samples)
        if room >= len(new):
            self.samples.extend(new)
        else:
            self.samples.extend(new[:max(room, 0)])
            self.n_dropped += len(new) - max(room, 0)
        return new

    # -- thread lifecycle -----------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-sampler", daemon=True
        )
        self._thread.start()
        self._switch = sys.getswitchinterval()
        sys.setswitchinterval(min(self._switch, SWITCH_INTERVAL_S))
        return self

    def stop(self) -> "SamplingProfiler":
        if self._thread is not None:
            try:
                self._stop_event.set()
                self._thread.join()
            finally:
                self._thread = None
                sys.setswitchinterval(self._switch)
        return self

    def _run(self) -> None:
        # Event.wait doubles as an interruptible sleep, so stop() never
        # waits longer than one interval.
        while not self._stop_event.wait(self.interval_s):
            self.tick()

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # -- reporting ------------------------------------------------------------

    def report(self) -> SamplerReport:
        phase_counts: dict[str, int] = {}
        source_counts: dict[str, int] = {}
        label_counts: dict[str, int] = {}
        for s in self.samples:
            phase_counts[s.phase] = phase_counts.get(s.phase, 0) + 1
            source_counts[s.source] = source_counts.get(s.source, 0) + 1
            label_counts[s.label] = label_counts.get(s.label, 0) + 1
        return SamplerReport(
            n_samples=len(self.samples),
            interval_s=self.interval_s,
            phase_counts=phase_counts,
            source_counts=source_counts,
            label_counts=label_counts,
        )

