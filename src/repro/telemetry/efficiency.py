"""Top-down "real Tflops" accounting (the efficiency observatory).

The paper's title claim — *towards 40 "real" Tflops* — is an
efficiency statement: how much of peak pipeline throughput survives
host time, communication, barriers and under-populated pipelines
(§4-§6, figs. 13-19).  The phase observatory answers *where the time
went*; this module answers *where the flops went*.  Per blockstep the
:class:`FlopsLedger` computes the peak-available flops from the
hardware configuration (chips x pipelines x clock x 57
flops/interaction over the blockstep's duration) and attributes the
shortfall to named loss buckets:

``real``
    useful work actually retired: ``57 * n_block * N`` (eq. 9);
``pipeline_idle``
    under-populated pipelines — an i-block streams the j-memory in
    passes of ``lanes_per_chip`` (48) i-slots whether or not they are
    filled, the small-N wall of fig. 13;
``jmem``
    j-memory load time (the fingerprint cache makes elided reloads
    nearly free — the gap is visible here);
``retry``
    block-exponent overflow retries re-stream the whole block;
``host``
    predictor/corrector/scheduler self-time (eq. 10 ``T_host``);
``comm`` / ``barrier``
    communication and synchronisation (eq. 10 ``T_comm`` /
    ``T_barrier``), from span phases per blockstep and refined from the
    :class:`~repro.parallel.ledger.CommLedger` at summary time;
``other``
    the unattributed residual.  It absorbs estimation slack, so the
    identity ``real + sum(buckets) == peak`` holds *by construction*
    on every blockstep (property-pinned), and every degenerate input —
    zero-duration blocksteps, empty blocks, no hardware — yields plain
    zeros, never NaN (mirroring the phase-signature guards).

Like :class:`~repro.telemetry.signatures.SignatureRecorder`, the
ledger consumes the span fold's per-blockstep records
(:class:`~repro.telemetry.phases.BlockstepRecord`): one account per
closing ``blockstep`` span, O(tree depth) memory, safe always-on for
week-long runs.  Durations prefer the virtual clock (what the paper's
figures plot) and fall back to the wall clock when no simulated
network drives one.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Any, Callable, Iterable

from ..constants import FLOPS_PER_INTERACTION
from ..schema import FINITE, Column, Section, check, number, sums_to
from .phases import (
    JMEM,
    T_BARRIER,
    T_COMM,
    T_PIPE,
    BlockstepRecord,
    SpanFold,
    replay,
)
from .timeline import TRACE_PIDS, trace_event, trace_lane
from .tracer import SpanEvent

#: Bump on breaking efficiency-record/section layout changes.
EFFICIENCY_SCHEMA = "repro.efficiency/1"

#: Loss-bucket names, waterfall order.  ``other`` must stay last: it is
#: the residual that makes the buckets sum to peak exactly.
BUCKETS = (
    "pipeline_idle",
    "jmem",
    "retry",
    "host",
    "comm",
    "barrier",
    "other",
)

#: Trace process id of the efficiency lane (central registry).
EFFICIENCY_PID = TRACE_PIDS["efficiency"]


class EfficiencyError(ValueError):
    """Raised for malformed efficiency records and sections."""


# -- hardware profile --------------------------------------------------------


@dataclass(frozen=True)
class HardwareProfile:
    """The three numbers the flops accounting needs from the hardware."""

    n_chips: int
    lanes_per_chip: int
    #: Peak speed [flop/s] at the 57-op accounting convention.
    flops_per_s: float

    @property
    def flops_per_us(self) -> float:
        return self.flops_per_s / 1.0e6

    def as_dict(self) -> dict[str, Any]:
        return {
            "n_chips": self.n_chips,
            "lanes_per_chip": self.lanes_per_chip,
            "peak_flops_per_s": self.flops_per_s,
        }

    @classmethod
    def detect(cls, hardware: Any = None) -> "HardwareProfile":
        """Build a profile from whatever describes the machine.

        Accepts a :class:`HardwareProfile`, anything exposing the
        ``peak_flops()`` / ``lanes_per_chip`` introspection API
        (:class:`repro.hardware.Grape6Emulator`), or any of the
        :mod:`repro.config` hardware dataclasses (Machine/Node/Board/
        ChipConfig).  ``None`` defaults to the paper's single host
        (:class:`repro.config.NodeConfig`: 4 boards, 128 chips) so the
        ledger is meaningful always-on, without plumbing.
        """
        if isinstance(hardware, HardwareProfile):
            return hardware
        if hardware is None:
            from ..config import NodeConfig

            hardware = NodeConfig()
        lanes = getattr(hardware, "lanes_per_chip", None)
        if lanes is not None:
            peak = hardware.peak_flops
            return cls(
                n_chips=int(hardware.n_chips),
                lanes_per_chip=int(lanes),
                flops_per_s=float(peak() if callable(peak) else peak),
            )
        # config dataclasses: walk down to the chip for the lane count
        node = getattr(hardware, "node", hardware)
        board = getattr(node, "board", node)
        chip = getattr(board, "chip", board)
        iparallel = getattr(chip, "iparallel", None)
        peak = getattr(hardware, "peak_flops", None)
        if iparallel is None or peak is None:
            raise EfficiencyError(
                f"cannot derive a hardware profile from {type(hardware).__name__}"
            )
        return cls(
            n_chips=int(getattr(hardware, "chips", 1)),
            lanes_per_chip=int(iparallel),
            flops_per_s=float(peak),
        )


# -- per-blockstep record ----------------------------------------------------


def _account(
    record: BlockstepRecord, hw: HardwareProfile
) -> tuple[float, str, float, float, tuple[float, ...]]:
    """One blockstep priced on ``hw``: ``(duration us, clock, peak,
    real, losses)`` with the losses in :data:`BUCKETS` order.  The one
    statement of the account — the ledger's running totals and
    :class:`BlockstepEfficiency` both read it, so they agree to the
    bit."""
    block_size, n = record.n_block, record.n
    rate, lanes = hw.flops_per_us, hw.lanes_per_chip
    if record.virtual_us is not None:
        clock, column, dur = "virtual", 1, float(record.virtual_us)
    else:
        clock, column, dur = "wall", 0, float(record.wall_us)
    if dur < 0.0:
        dur = 0.0

    peak = rate * dur
    work = float(FLOPS_PER_INTERACTION) * block_size * n
    real = peak if peak < work else work

    # pipeline under-population: passes of `lanes` i-slots stream
    # the whole j-memory whether or not the slots are filled
    if block_size > 0 and lanes > 0:
        passes = -(-block_size // lanes)
        util = block_size / (passes * lanes)
    else:
        util = 1.0

    # self-time by loss category: everything that is not pipeline,
    # j-memory, communication or barrier time is the host's
    slots = record.wall_slots if column == 0 else None
    if slots is not None:  # the fold's phase vector, in SLOTS order
        host_us, pipe_us, comm_us, barrier_us, other_us, jmem_us = slots
        host_us += other_us
    else:
        pipe_us = jmem_us = comm_us = barrier_us = host_us = 0.0
        for key, pair in record.self_us.items():
            us = pair[column]
            if key == T_PIPE:
                pipe_us = us
            elif key == JMEM:
                jmem_us = us
            elif key == T_COMM:
                comm_us = us
            elif key == T_BARRIER:
                barrier_us = us
            else:
                host_us += us

    # pipeline idle: time the pipelines were busy beyond the work
    # they retired (empty lanes, streaming passes); when the span
    # stream carries no pipe spans (clock not advanced under them)
    # the lane-population lower bound of fig. 13 stands in
    idle = real * (1.0 / util - 1.0) if util > 0.0 else 0.0
    busy = rate * pipe_us - real
    if busy > idle:
        idle = busy

    # each loss takes what is left of the shortfall, waterfall order;
    # `other` is the remainder, so the buckets sum to peak exactly
    budget = peak - real
    if budget < 0.0:
        budget = 0.0
    losses = []
    for raw in (idle, rate * jmem_us, work * record.retries,
                rate * host_us, rate * comm_us, rate * barrier_us):
        if raw < 0.0:
            raw = 0.0
        take = budget if budget < raw else raw
        losses.append(take)
        budget -= take
    losses.append(0.0 if budget < 0.0 else budget)
    return dur, clock, peak, real, tuple(losses)


@dataclass(frozen=True)
class BlockstepEfficiency:
    """One blockstep's flops account.

    ``real_flops + sum(buckets.values()) == peak_flops`` exactly (the
    ``other`` bucket is defined as the remainder); every field is a
    finite float on any input, including zero-duration and zero-block
    degenerate blocksteps.
    """

    blockstep: int
    t: float | None
    n: int
    block_size: int
    #: Duration in the accounting clock domain [us].
    dur_us: float
    #: Wall-clock duration [us] (always available; the timeline lane).
    wall_us: float
    #: ``"virtual"`` or ``"wall"`` — which clock priced the peak.
    clock: str
    peak_flops: float
    real_flops: float
    buckets: dict[str, float]
    t_start_us: float = 0.0

    @property
    def fraction_of_peak(self) -> float:
        """Real/peak; 0.0 (never NaN) for degenerate blocksteps."""
        return self.real_flops / self.peak_flops if self.peak_flops > 0 else 0.0

    @classmethod
    def from_blockstep(
        cls, record: BlockstepRecord, hw: HardwareProfile
    ) -> "BlockstepEfficiency":
        """The flops account of one blockstep on ``hw``: a pure
        projection of the fold's record."""
        return cls._of(record, *_account(record, hw))

    @classmethod
    def _of(cls, record: BlockstepRecord, dur: float, clock: str, peak: float,
            real: float, losses: tuple[float, ...]) -> "BlockstepEfficiency":
        return cls(
            blockstep=record.index,
            t=record.t,
            n=record.n,
            block_size=record.n_block,
            dur_us=dur,
            wall_us=record.wall_us,
            clock=clock,
            peak_flops=peak,
            real_flops=real,
            buckets=dict(zip(BUCKETS, losses)),
            t_start_us=record.t_start_us,
        )

    def as_record(self) -> dict[str, Any]:
        rec: dict[str, Any] = {
            "schema": EFFICIENCY_SCHEMA,
            "kind": "blockstep",
            "blockstep": self.blockstep,
            "n": self.n,
            "block_size": self.block_size,
            "dur_us": self.dur_us,
            "clock": self.clock,
            "peak_flops": self.peak_flops,
            "real_flops": self.real_flops,
            "fraction_of_peak": self.fraction_of_peak,
            "buckets": {b: self.buckets.get(b, 0.0) for b in BUCKETS},
        }
        if self.t is not None:
            rec["t"] = self.t
        return rec


# -- the ledger --------------------------------------------------------------


class FlopsLedger:
    """Cuts one :class:`BlockstepEfficiency` per blockstep and keeps
    running totals for the run-level waterfall.

    A consumer of the span fold, like
    :class:`~repro.telemetry.signatures.SignatureRecorder`: given to a
    fold with other consumers it shares that fold's single pass; used
    directly as a tracer sink it owns a private one.

    Parameters
    ----------
    hardware:
        Anything :meth:`HardwareProfile.detect` accepts (an emulator
        backend, a config dataclass, a profile, or ``None`` for the
        paper's single host).
    callback:
        Optional ``f(record)`` invoked at each cut (service bus hook).
    keep:
        Retain records in :attr:`records` (default).  Turn off for
        unbounded runs where only the totals matter.
    """

    def __init__(
        self,
        hardware: Any = None,
        callback: Callable[[BlockstepEfficiency], None] | None = None,
        keep: bool = True,
    ) -> None:
        self.hardware = HardwareProfile.detect(hardware)
        self._callback = callback
        self._keep = bool(keep)
        self.records: list[BlockstepEfficiency] = []
        self.count = 0
        # run totals (accounting-clock domain of each record)
        self.peak_flops = 0.0
        self.real_flops = 0.0
        self._bucket_flops = [0.0] * len(BUCKETS)
        self.span_us = 0.0
        self._clocks: set[str] = set()
        self._latest: BlockstepRecord | None = None
        self.fold = SpanFold([self])

    def emit(self, event: SpanEvent) -> None:
        self.fold.emit(event)

    @property
    def span_step(self) -> Callable[..., None]:
        """The fold's step: a tracer hands it each span's fields."""
        return self.fold.span_step

    def on_blockstep(self, record: BlockstepRecord) -> None:
        account = _account(record, self.hardware)
        dur, clock, peak, real, losses = account
        self.count += 1
        self._latest = record
        self.peak_flops += peak
        self.real_flops += real
        self.span_us += dur
        self._bucket_flops = list(map(add, self._bucket_flops, losses))
        self._clocks.add(clock)
        # the frozen per-blockstep record is for whoever asks for it
        if self._keep or self._callback is not None:
            rec = BlockstepEfficiency._of(record, *account)
            if self._keep:
                self.records.append(rec)
            if self._callback is not None:
                self._callback(rec)

    # -- views ---------------------------------------------------------------

    @property
    def bucket_flops(self) -> dict[str, float]:
        """Run totals by loss bucket, in :data:`BUCKETS` order."""
        return dict(zip(BUCKETS, self._bucket_flops))

    @property
    def latest(self) -> BlockstepEfficiency | None:
        """The newest blockstep's account (None before the first)."""
        if self._latest is None:
            return None
        return BlockstepEfficiency.from_blockstep(self._latest, self.hardware)

    @property
    def clock(self) -> str:
        """Accounting clock of the run: ``virtual``, ``wall``,
        ``mixed`` (pathological) or ``none`` (no blocksteps yet)."""
        if not self._clocks:
            return "none"
        if len(self._clocks) == 1:
            return next(iter(self._clocks))
        return "mixed"

    def summary(self, comm: dict[str, Any] | None = None) -> dict[str, Any]:
        """The run-level ``repro.efficiency/1`` waterfall document.

        Time attributed to spans outside any blockstep (startup,
        coherence exchange, barriers) is priced at the hardware rate
        and added to both the peak and the matching bucket, so the
        run-level identity holds too.  With a comm-ledger summary (or
        :func:`~repro.parallel.ledger.merge_comm_summaries` rollup)
        given, the comm and barrier buckets are raised to at least the
        ledger's measured exchange/synchronisation cost by moving the
        deficit out of ``other`` — a pure reallocation, so the sum is
        preserved.  Single-rank runs with no ledger are a no-op.
        """
        hw = self.hardware
        rate = hw.flops_per_us
        buckets = self.bucket_flops
        peak = self.peak_flops
        real = self.real_flops
        span_us = self.span_us
        for key, us in sorted(self.fold.outside_us.items()):
            target = key if key in (T_COMM, T_BARRIER) else "other"
            flops = rate * max(us, 0.0)
            buckets[target] += flops
            peak += flops
            span_us += max(us, 0.0)
        if comm:
            exchange_us, barrier_us = _comm_ledger_times(comm)
            for target, ledger_us in (("comm", exchange_us), ("barrier", barrier_us)):
                deficit = max(rate * ledger_us - buckets[target], 0.0)
                move = min(deficit, buckets["other"])
                buckets[target] += move
                buckets["other"] -= move
        return {
            "schema": EFFICIENCY_SCHEMA,
            "kind": "summary",
            "blocksteps": self.count,
            "clock": self.clock,
            "hardware": hw.as_dict(),
            "span_us": span_us,
            "peak_flops": peak,
            "real_flops": real,
            "fraction_of_peak": real / peak if peak > 0 else 0.0,
            "real_gflops": real / span_us * 1.0e6 / 1.0e9 if span_us > 0 else 0.0,
            "buckets": {
                b: {
                    "flops": buckets[b],
                    "fraction": buckets[b] / peak if peak > 0 else 0.0,
                }
                for b in BUCKETS
            },
        }


def _comm_ledger_times(comm: dict[str, Any]) -> tuple[float, float]:
    """(exchange virtual us, barrier sync us) from a ledger summary or
    a :func:`merge_comm_summaries` rollup (tolerates either shape)."""
    networks = comm.get("networks")
    nets = networks if isinstance(networks, list) else [comm]
    exchange_us = 0.0
    for net in nets:
        exchanges = net.get("exchanges") if isinstance(net, dict) else None
        if isinstance(exchanges, dict):
            for agg in exchanges.values():
                if isinstance(agg, dict):
                    exchange_us += float(agg.get("virtual_us", 0.0) or 0.0)
    barrier_us = float(comm.get("barrier_sync_us", 0.0) or 0.0)
    return exchange_us, barrier_us


# -- validation --------------------------------------------------------------


def _sums_to_peak(obj: dict[str, Any]) -> str | None:
    total = obj["real_flops"] + sum(
        obj["buckets"][b]["flops"] for b in BUCKETS)
    if not sums_to(total, obj["peak_flops"], rel=1e-6, floor=1e-3):
        return (f"buckets + real = {total} do not sum to "
                f"peak = {obj['peak_flops']}")


#: A :meth:`FlopsLedger.summary` document.
EFFICIENCY_SPEC = {
    "what": "efficiency section",
    "schema": EFFICIENCY_SCHEMA,
    "fields": {
        "blocksteps": FINITE,
        "peak_flops": FINITE,
        "real_flops": FINITE,
        "fraction_of_peak": FINITE,
        "buckets": {"fields": {
            b: {"fields": {
                "flops": FINITE,
                "fraction": number(0.0, 1.0, slack=1e-9),
            }}
            for b in BUCKETS
        }},
    },
    "rules": (_sums_to_peak,),
}


def validate_efficiency(obj: Any, source: str = "efficiency") -> dict[str, Any]:
    """Structural + arithmetic check of a :meth:`FlopsLedger.summary`
    document: schema, all buckets present and finite, fractions within
    [0, 1], and ``real + sum(buckets) == peak`` within float tolerance.
    """
    return check(obj, EFFICIENCY_SPEC, source, EfficiencyError)


def _top_loss(doc: dict[str, Any]) -> str | None:
    """The bucket that lost the largest fraction of peak."""
    buckets = doc.get("buckets")
    if not buckets:
        return None
    fractions = {b: float(buckets.get(b, {}).get("fraction", 0.0))
                 for b in BUCKETS}
    return max(fractions, key=fractions.get)


#: Headline columns of a :meth:`FlopsLedger.summary` document.
EFFICIENCY_HEADLINE = Section(
    "efficiency", kind="efficiency",
    status=" eff={fraction_of_peak} ({real_gflops} Gflops)",
    report=("efficiency: {fraction_of_peak} of peak ({real_gflops} real "
            "Gflops) over {blocksteps} blocksteps, {clock} clock"),
    columns=(
        Column("fraction_of_peak", "{:.2%}", state=True),
        Column("real_gflops", "{:.4g}", state=True),
        Column("blocksteps"),
        Column("clock"),
        Column("top_loss", read=_top_loss),
    ),
)


# -- timeline lane -----------------------------------------------------------


def efficiency_trace_events(ledger: FlopsLedger) -> list[dict[str, Any]]:
    """The efficiency lane: one complete ("X") event per kept
    blockstep record in the wall-clock time base, labelled with its
    fraction of peak, under the registry's efficiency pid."""
    return trace_lane(EFFICIENCY_PID, "efficiency (fraction of peak)", [
        trace_event(
            f"eff {rec.fraction_of_peak:.0%}", "efficiency",
            rec.t_start_us, rec.wall_us, EFFICIENCY_PID, 1,
            {
                "blockstep": rec.blockstep,
                "block_size": rec.block_size,
                "fraction_of_peak": rec.fraction_of_peak,
                "clock": rec.clock,
            },
        )
        for rec in ledger.records
    ])


# -- convenience -------------------------------------------------------------


def efficiency_from_events(
    events: Iterable[SpanEvent], **ledger_kwargs: Any
) -> FlopsLedger:
    """Replay a retained event list through a fresh ledger."""
    ledger = FlopsLedger(**ledger_kwargs)
    replay(events, ledger)
    return ledger
