"""The paper's section-4 phase taxonomy and the one span fold.

Eq. (10) decomposes the time per blockstep as

    T = T_host + T_comm + T_GRAPE

and section 4.4 further isolates the synchronisation (barrier) term
that becomes the 1/N wall of figs. 16 and 18.  :class:`SpanFold` rolls
raw :class:`repro.telemetry.tracer.SpanEvent` streams up into exactly
that taxonomy:

* ``T_host``    — host arithmetic: prediction, correction, timestep
  selection, scheduling;
* ``T_pipe``    — the GRAPE pipelines (``T_GRAPE`` in eq. 10): force
  evaluation on the (emulated) hardware, j-memory DMA;
* ``T_comm``    — host-host point-to-point traffic;
* ``T_barrier`` — synchronisation rounds (butterfly barrier);
* ``other``     — anything unattributed (kept visible, never folded
  into a paper phase silently).

Attribution uses **self time**: a span's duration minus the durations
of its direct children, so nested instrumentation ("blockstep"
containing "predict"/"force"/"correct") never double-counts.  A span's
phase is its explicit tag, else the span-name map, else its nearest
resolvable ancestor's, else ``other`` (:func:`resolve_phase`).

The fold is the only code in the package that subtracts children from
a span.  Everything that reads self-time is a view of it: run totals
(:class:`PhaseBreakdown`, the service's ``phases`` record) and, per
closing ``blockstep`` span, one in-memory :class:`BlockstepRecord`
handed to the fold's consumers — the phase signature and the flops
account are pure projections of that record.  A tracer hands the fold
each span's fields directly (:meth:`SpanFold.span_step`); a retained
:class:`~repro.telemetry.tracer.SpanEvent` goes through the same step
(:meth:`SpanFold.emit`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable

from .tracer import SpanEvent

#: Phase labels (the paper's names, minus the math markup).
T_HOST = "host"
T_PIPE = "pipe"
T_COMM = "comm"
T_BARRIER = "barrier"
T_OTHER = "other"

#: All phases, report order.
PHASES: tuple[str, ...] = (T_HOST, T_PIPE, T_COMM, T_BARRIER, T_OTHER)

#: Paper-facing names for the report renderer.
PAPER_PHASE_NAMES: dict[str, str] = {
    T_HOST: "T_host",
    T_PIPE: "T_pipe",
    T_COMM: "T_comm",
    T_BARRIER: "T_barrier",
    T_OTHER: "other",
}

#: Span name that delimits one blockstep (the block-timestep
#: integrator's per-blockstep root span).
ROOT_SPAN = "blockstep"

#: Span name whose ``T_pipe`` self-time a blockstep record keeps apart
#: under the key :data:`JMEM` (the efficiency waterfall's j-memory
#: bucket; the phase view adds it back into ``T_pipe``).
JMEM_SPAN = "grape.jmem_load"
JMEM = "jmem"

#: Slot order of a blockstep record's phase vector
#: (:attr:`BlockstepRecord.wall_slots`): the phases, then :data:`JMEM`.
SLOTS: tuple[str, ...] = (*PHASES, JMEM)
_SLOT = {key: i for i, key in enumerate(SLOTS)}

#: Span-name -> phase map for the instrumented code paths.  Explicit
#: ``phase=`` arguments on spans always win over this table.
DEFAULT_SPAN_PHASES: dict[str, str] = {
    "predict": T_HOST,
    "correct": T_HOST,
    "timestep": T_HOST,
    "schedule": T_HOST,
    "force": T_PIPE,
    "grape.force": T_PIPE,
    JMEM_SPAN: T_PIPE,
    "net.send": T_COMM,
    "net.recv": T_COMM,
    "net.exchange": T_COMM,
    "net.barrier": T_BARRIER,
    # an untagged blockstep root never inherits: its record is cut the
    # moment it closes, before any ancestor has (the integrators tag it
    # T_host explicitly)
    ROOT_SPAN: T_OTHER,
}


def resolve_phase(name: str, phase: str | None) -> str | None:
    """A span's own phase: its explicit tag, else the span-name map.

    ``None`` means *inherit*: the nearest ancestor that resolves
    decides, and a span with no such ancestor is ``other``.  Every
    reader — the fold, the timeline's categories, the sampler — asks
    here, so they cannot disagree.
    """
    return phase or DEFAULT_SPAN_PHASES.get(name)


@dataclass
class PhaseTotals:
    """Accumulated self-times (microseconds) per phase in one domain
    (wall clock or virtual clock)."""

    totals: dict[str, float] = field(default_factory=lambda: {p: 0.0 for p in PHASES})

    @property
    def total_us(self) -> float:
        return sum(self.totals.values())

    def fraction(self, phase: str) -> float:
        t = self.total_us
        return self.totals.get(phase, 0.0) / t if t > 0 else 0.0


@dataclass
class SpanSummary:
    """Per-span-name aggregate for the detailed report table."""

    name: str
    phase: str
    count: int = 0
    self_us: float = 0.0
    total_us: float = 0.0

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0


@dataclass
class PhaseBreakdown:
    """The fig. 14/16/18-style attribution result.

    ``wall`` always holds wall-clock self-times; ``virtual`` is None
    unless the events carried virtual timestamps (i.e. the tracer was
    wired to a simulated network's clock), in which case it holds the
    simulated machine's attribution — the quantity the paper plots.
    """

    wall: PhaseTotals
    virtual: PhaseTotals | None
    spans: list[SpanSummary]
    n_events: int

    def as_dict(self) -> dict:
        out = {
            "n_events": self.n_events,
            "wall_us": dict(self.wall.totals),
            "wall_total_us": self.wall.total_us,
            "spans": [
                {
                    "name": s.name,
                    "phase": s.phase,
                    "count": s.count,
                    "self_us": s.self_us,
                    "total_us": s.total_us,
                }
                for s in self.spans
            ],
        }
        if self.virtual is not None:
            out["virtual_us"] = dict(self.virtual.totals)
            out["virtual_total_us"] = self.virtual.total_us
        return out


@dataclass(slots=True)
class BlockstepRecord:
    """One closed ``blockstep`` span as the fold hands it to its
    consumers.  In-memory only: it never leaves the process, so it has
    no schema tag and no validator."""

    index: int
    t: float | None
    n: int
    n_block: int
    t_start_us: float
    wall_us: float
    #: None unless the tracer was wired to a simulated network's clock.
    virtual_us: float | None
    #: Subtree self-times ``key -> [wall us, virtual us]``; the keys are
    #: the phases plus :data:`JMEM`, and each column sums to the root's
    #: duration in that clock.
    self_us: dict[str, list[float]]
    #: Block-exponent overflow retries anywhere in the subtree.
    retries: int
    #: j-memory load/elision counter deltas over the blockstep.
    jmem_loads: int
    jmem_elided: int
    #: The wall column of :attr:`self_us` in :data:`SLOTS` order (0.0
    #: where a key is absent), cut once by the fold for its consumers;
    #: None when a key outside :data:`SLOTS` is present or the record
    #: was built by hand.  A view of ``self_us``, so not compared.
    wall_slots: list[float] | None = field(default=None, compare=False)

    def phase_us(self, virtual: bool = False) -> dict[str, float]:
        """Self-times by *phase* in one clock (j-memory loads are
        ``T_pipe`` time)."""
        column = 1 if virtual else 0
        out = {key: pair[column] for key, pair in self.self_us.items()}
        jmem = out.pop(JMEM, None)
        if jmem is not None:
            out[T_PIPE] = out.get(T_PIPE, 0.0) + jmem
        return out


class SpanFold:
    """The streaming self-time fold: a tracer sink, O(tree depth) state.

    Spans close children-before-parents, so when a span arrives every
    child has already left its duration (to subtract) and its subtree's
    self-times (to carry upward) under the parent's id.  Self-time of a
    span that cannot resolve a phase itself rides up with its subtree
    until an ancestor resolves it, which is how the streaming fold gives
    the ancestor rule's answer without a retained tree.

    ``consumers`` are objects with ``on_blockstep(record)``; the fold
    sets ``consumer.fold`` so a consumer can read the run-level views
    (:attr:`outside_us`).  Used bare it is the service's O(1)-memory
    phase attribution (``StreamingPhaseSink``).
    """

    def __init__(self, consumers: Iterable[Any] = ()) -> None:
        self.consumers = list(consumers)
        for consumer in self.consumers:
            consumer.fold = self
        self.n_events = 0
        self.blocksteps = 0
        #: Run self-time by phase, wall clock.
        self.totals_us: dict[str, float] = defaultdict(float)
        #: Run self-time by phase, virtual clock (spans that carry one).
        self.virtual_totals_us: dict[str, float] = defaultdict(float)
        #: Self-time under top-level spans *outside* any blockstep
        #: (startup force, coherence exchange, barriers), by record key,
        #: each top-level span in its own best clock.
        self.outside_us: dict[str, float] = {}
        # (name, phase) -> [count, self wall us, total wall us]
        self._spans: dict[tuple[str, str], list] = defaultdict(
            lambda: [0, 0.0, 0.0])
        # (name, phase tag) -> (resolved phase or None to inherit, record
        # key, its per-name summary or None, whether it cuts a record,
        # whether a childless one takes the short path)
        self._plans: dict[tuple[str, str | None], tuple] = {}
        # open span id -> what its closed children left behind:
        # [their wall us, their virtual us, subtree retries, subtree
        #  self-times by key or None, subtree spans still waiting for a
        #  phase or None]
        self._open: dict[int, list] = {}

    def _plan(self, name: str, phase: str | None) -> tuple:
        """What a span of this name and tag does, resolved once."""
        resolved, cuts = resolve_phase(name, phase), name == ROOT_SPAN
        if resolved is None:
            plan = (None, None, None, cuts, False)
        else:
            key = JMEM if name == JMEM_SPAN and resolved == T_PIPE else resolved
            plan = (resolved, key, self._spans[name, resolved], cuts, not cuts)
        self._plans[name, phase] = plan
        return plan

    def emit(self, event: SpanEvent) -> None:
        """Fold one retained event (:func:`replay`, :class:`PhaseAggregator`)."""
        self.span_step(event.name, event.span_id, event.parent_id,
                       event.phase, event.t_start_us, event.dur_us,
                       event.v_dur_us, event.attrs)

    def span_step(self, name: str, span_id: int, parent: int | None,
                  phase: str | None, t_start_us: float, wall: float,
                  virt: float | None, attrs: dict[str, Any]) -> None:
        """Fold one closed span, given as its event's fields."""
        self.n_events += 1
        resolved, key, summary, cuts, short = (
            self._plans.get((name, phase)) or self._plan(name, phase))
        more = attrs.get("exponent_retries") if attrs else None
        retries = int(more) if more else 0
        below = self._open.pop(span_id, None)
        if below is None and short and parent is not None:
            # childless and resolved inside an open span, the common
            # case: nothing to subtract, and its self-time is booked
            # straight into the parent's subtree
            self_wall = 0.0 if wall < 0.0 else wall
            self.totals_us[resolved] += self_wall
            summary[0] += 1
            summary[1] += self_wall
            summary[2] += wall
            if virt is None:
                pair_virt = 0.0
            else:
                self_virt = 0.0 if virt < 0.0 else virt
                self.virtual_totals_us[resolved] += self_virt
                pair_virt = 0.0 + self_virt
            up = self._open.get(parent)
            if up is None:  # the first child to close donates its state
                self._open[parent] = [wall, virt or 0.0, retries,
                                      {key: [0.0 + self_wall, pair_virt]}, None]
                return
            up[0] += wall
            up[1] += virt or 0.0
            up[2] += retries
            mine = up[3]
            if mine is None:
                up[3] = {key: [0.0 + self_wall, pair_virt]}
            else:
                acc = mine.get(key)
                if acc is None:
                    mine[key] = [0.0 + self_wall, pair_virt]
                else:
                    acc[0] += 0.0 + self_wall
                    acc[1] += pair_virt
            return
        if key is None and parent is None:
            # inheriting with no ancestor: other, as if tagged so
            resolved, key, summary, cuts, _ = (
                self._plans.get((name, T_OTHER)) or self._plan(name, T_OTHER))
        if below is None:
            self_wall, self_virt, times, waiting = wall, virt, None, None
        else:
            self_wall = wall - below[0]
            self_virt = None if virt is None else virt - below[1]
            retries += below[2]
            times, waiting = below[3], below[4]
        # clamped as max(x, 0.0) does, NaN included
        if self_wall < 0.0:
            self_wall = 0.0
        if self_virt is not None and self_virt < 0.0:
            self_virt = 0.0
        if resolved is None:
            if waiting is None:
                waiting = [(name, wall, self_wall, self_virt)]
            else:
                waiting.append((name, wall, self_wall, self_virt))
        else:  # resolves itself and all that waits beneath it
            if times is None:
                acc = [0.0, 0.0]
                times = {key: acc}
            else:
                acc = times.get(key)
                if acc is None:
                    acc = times[key] = [0.0, 0.0]
            acc[0] += self_wall
            self.totals_us[resolved] += self_wall
            if self_virt is not None:
                acc[1] += self_virt
                self.virtual_totals_us[resolved] += self_virt
            summary[0] += 1
            summary[1] += self_wall
            summary[2] += wall
            if waiting is not None:
                for span in waiting:
                    self._book(resolved, acc, *span)
                waiting = None

        if cuts:
            # a blockstep's subtree is its record's, not its parent's
            self._cut(t_start_us, wall, virt, attrs, times, retries)
            retries, times = 0, None
        if parent is None:
            if times:
                outside, column = self.outside_us, 0 if virt is None else 1
                for key, pair in times.items():
                    outside[key] = outside.get(key, 0.0) + pair[column]
            return
        up = self._open.get(parent)
        if up is None:  # the first child to close donates its state
            self._open[parent] = [wall, virt or 0.0, retries, times, waiting]
            return
        up[0] += wall
        up[1] += virt or 0.0
        up[2] += retries
        if times is not None:
            mine = up[3]
            if mine is None:
                up[3] = times
            else:
                for key, pair in times.items():
                    if key in mine:
                        acc = mine[key]
                        acc[0] += pair[0]
                        acc[1] += pair[1]
                    else:  # 0.0 + x: the pair itself
                        mine[key] = pair
        if waiting is not None:
            if up[4] is None:
                up[4] = waiting
            else:
                up[4] += waiting

    def _book(self, phase: str, acc: list[float], name: str, dur: float,
              self_wall: float, self_virt: float | None) -> None:
        """Credit a span that waited for an ancestor's phase: the
        subtree accumulator of the span that resolved it, the run
        totals and the per-name summary (what :meth:`span_step` does
        inline for a span that resolves itself)."""
        acc[0] += self_wall
        self.totals_us[phase] += self_wall
        if self_virt is not None:
            acc[1] += self_virt
            self.virtual_totals_us[phase] += self_virt
        summary = self._spans[name, phase]
        summary[0] += 1
        summary[1] += self_wall
        summary[2] += dur

    def _cut(self, t_start_us: float, wall: float, virt: float | None,
             attrs: dict[str, Any], times: dict[str, list[float]] | None,
             retries: int) -> None:
        self.blocksteps += 1
        if not self.consumers:
            return
        if times is None:
            times = {}
        slots = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        for key, pair in times.items():
            slot = _SLOT.get(key)
            if slot is None:  # a phase tag outside the taxonomy
                slots = None
                break
            slots[slot] = pair[0]
        t = attrs.get("t")
        # positional, in BlockstepRecord's field order
        record = BlockstepRecord(
            self.blocksteps - 1,
            None if t is None else float(t),
            int(attrs.get("n", 0) or 0),
            int(attrs.get("n_block", 0) or 0),
            float(t_start_us),
            float(wall),
            virt,
            times,
            retries,
            int(attrs.get("jmem_loads", 0) or 0),
            int(attrs.get("jmem_elided", 0) or 0),
            slots,
        )
        for consumer in self.consumers:
            consumer.on_blockstep(record)

    # -- views ----------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Cumulative wall self-time by phase so far — cheap and safe at
        any cadence (the service's periodic ``phases`` bus record)."""
        return {"n_events": self.n_events, "wall_us": dict(self.totals_us)}

    def breakdown(self) -> PhaseBreakdown:
        """The run totals in both clocks plus the per-span-name table."""
        zero = dict.fromkeys(PHASES, 0.0)
        spans = [
            SpanSummary(name, phase, *summary)
            for (name, phase), summary in self._spans.items()
        ]
        spans.sort(key=lambda s: -s.self_us)
        return PhaseBreakdown(
            wall=PhaseTotals({**zero, **self.totals_us}),
            virtual=(
                PhaseTotals({**zero, **self.virtual_totals_us})
                if self.virtual_totals_us else None
            ),
            spans=spans,
            n_events=self.n_events,
        )


def replay(events: Iterable[SpanEvent], *consumers: Any) -> SpanFold:
    """Feed a retained, children-first event list (what a tracer
    delivers) through a fresh fold serving ``consumers``."""
    fold = SpanFold(consumers)
    for event in events:
        fold.emit(event)
    return fold


class PhaseAggregator:
    """Post-hoc roll-up of a retained span-event list.

    Usage::

        agg = PhaseAggregator()
        agg.consume(sink.events)
        breakdown = agg.breakdown()

    Events may arrive in any order: :meth:`breakdown` puts children
    before parents (a stable sort on depth) and feeds the fold.
    """

    def __init__(self) -> None:
        self._events: list[SpanEvent] = []

    def consume(self, events: Iterable[SpanEvent]) -> "PhaseAggregator":
        self._events.extend(events)
        return self

    def breakdown(self) -> PhaseBreakdown:
        """Compute self-times, attribute phases, and total per phase."""
        return replay(
            sorted(self._events, key=lambda e: -e.depth)
        ).breakdown()
