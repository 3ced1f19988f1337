"""Real-execution rank telemetry (the rank observatory).

Simulated ranks run on real cores (:mod:`repro.parallel.execution`),
but every other observatory watches the driver's *virtual* clocks: a
dispatch returns bare results, so real stragglers, GIL contention,
the per-worker message round trip of the process backend and
shared-memory publish costs are invisible to them.  This module closes
that gap, in the
measurement-first spirit of the paper's §4-§6 — you cannot tune what
you did not measure.

The pieces:

* **samples** — each instrumented tile returns a
  ``repro.rank_sample/1`` sidecar dict next to its rows: real wall and
  the calling thread's CPU time (``time.perf_counter`` /
  ``time.thread_time``), ``resource.getrusage`` deltas (per thread
  where the platform has ``RUSAGE_THREAD``: maxrss, voluntary/involuntary
  context switches, page faults) and arena-attach byte counts.  The kernels
  themselves are untouched — observability must not change a single
  output bit (property-pinned across backends).
* **dispatch reports** — the driver wraps each ``run_tasks`` call with
  its own wall span and the bytes published into the arena since the
  previous dispatch, and hands the bundle to an observer callback.
* :class:`RankLedger` — aggregates reports into per-blockstep
  :class:`RankBlockstep` records with an *exact* accounting identity:
  for every rank, ``busy_us[r] + idle_us[r] == span_wall_us`` by
  construction (idle is defined as the remainder).  Per-rank and
  per-backend histograms, real straggler skew per blockstep, and a
  cross-attribution against the *virtual* barrier skew already in
  :class:`repro.parallel.ledger.CommLedger`: the real-vs-virtual
  "placement gap", with a sum-preserving split of idle rank-time into
  ``imbalance`` (stragglers — the real analogue of barrier skew) and
  ``overhead`` (dispatch/IPC/GIL cost no virtual model predicts).

Degenerate inputs follow the house rule of the signature and
efficiency observatories: empty task lists, single-rank runs and
zero-duration dispatches yield plain zero-valued records, never NaN.

Timestamps are absolute ``CLOCK_MONOTONIC`` microseconds
(``time.perf_counter``), which POSIX shares across forked worker
processes — so per-rank lanes from different workers land on one
coherent real-time axis in the Chrome trace
(:func:`rank_trace_events`, pid ``TRACE_PIDS["ranks"]``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from ..schema import (
    FINITE,
    NONNEG,
    Column,
    Section,
    check,
    list_of,
    opt,
    sums_to,
)
from .metrics import Histogram
from .timeline import TRACE_PIDS, trace_event, trace_lane

#: Bump on breaking rank-sample/record/section layout changes.
RANK_SAMPLE_SCHEMA = "repro.rank_sample/1"

#: Trace process id of the per-rank real-clock lanes (central registry).
RANK_PID = TRACE_PIDS["ranks"]

#: Numeric per-task sample fields (all non-negative; zero when the
#: platform cannot measure them, e.g. no ``resource`` module).
SAMPLE_FIELDS = (
    "wall_us",
    "cpu_us",
    "maxrss_kb",
    "vol_ctx_switches",
    "invol_ctx_switches",
    "minor_faults",
    "major_faults",
    "attach_bytes",
)

#: Sum-preserving split of idle rank-time, waterfall order; ``overhead``
#: must stay last: it is the residual that makes the split exact.
IDLE_BUCKETS = ("imbalance", "overhead")


class RankError(ValueError):
    """Raised for malformed rank samples, records and sections."""


def _finite(value: Any, default: float = 0.0) -> float:
    """Coerce to a finite non-NaN float (degenerate inputs -> 0.0)."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        return default
    return v if math.isfinite(v) else default


# -- per-blockstep record ----------------------------------------------------


@dataclass(frozen=True)
class RankBlockstep:
    """One blockstep's real-execution account.

    ``busy_us[r] + idle_us[r] == span_wall_us`` exactly for every rank
    (idle is *defined* as the remainder, so the identity holds by
    construction; it can dip below zero only if one rank's tasks
    overlapped in real time across workers).  Every field is finite on
    any input, including blocksteps with no dispatches at all.
    """

    blockstep: int
    t: float | None
    n_block: int
    #: Backend that ran the dispatches (``"mixed"`` if several did).
    backend: str
    n_ranks: int
    dispatches: int
    tasks: int
    #: Absolute monotonic start [us] of the first dispatch (0 if none).
    t_start_us: float
    #: Summed driver-side wall of every dispatch in this blockstep [us].
    span_wall_us: float
    busy_us: tuple[float, ...]
    idle_us: tuple[float, ...]
    cpu_us: tuple[float, ...]
    publish_bytes: int
    attach_bytes: int
    maxrss_kb: float
    vol_ctx_switches: int
    invol_ctx_switches: int
    minor_faults: int
    major_faults: int
    #: Per-task ``(rank, pid, t_start_us, wall_us, cpu_us)`` tuples for
    #: the timeline lane (empty when the ledger runs with ``keep=False``).
    task_events: tuple[tuple[float, ...], ...] = ()

    @property
    def real_skew_us(self) -> float:
        """Real busy-time spread across ranks (the measured straggler
        skew — the wall-clock analogue of ``BarrierRecord.skew_us``)."""
        if len(self.busy_us) < 2:
            return 0.0
        return max(self.busy_us) - min(self.busy_us)

    @property
    def straggler(self) -> int:
        """Rank with the most real busy time (-1 if no ranks ran)."""
        if not self.busy_us:
            return -1
        return max(range(len(self.busy_us)), key=lambda r: self.busy_us[r])

    @property
    def total_idle_us(self) -> float:
        return sum(self.idle_us)

    def as_record(self) -> dict[str, Any]:
        rec: dict[str, Any] = {
            "schema": RANK_SAMPLE_SCHEMA,
            "kind": "blockstep",
            "blockstep": self.blockstep,
            "n_block": self.n_block,
            "backend": self.backend,
            "n_ranks": self.n_ranks,
            "dispatches": self.dispatches,
            "tasks": self.tasks,
            "span_wall_us": self.span_wall_us,
            "busy_us": list(self.busy_us),
            "idle_us": list(self.idle_us),
            "cpu_us": list(self.cpu_us),
            "real_skew_us": self.real_skew_us,
            "straggler": self.straggler,
            "publish_bytes": self.publish_bytes,
            "attach_bytes": self.attach_bytes,
            "maxrss_kb": self.maxrss_kb,
            "vol_ctx_switches": self.vol_ctx_switches,
            "invol_ctx_switches": self.invol_ctx_switches,
            "minor_faults": self.minor_faults,
            "major_faults": self.major_faults,
        }
        if self.t is not None:
            rec["t"] = self.t
        return rec


# -- the ledger --------------------------------------------------------------


class RankLedger:
    """Streaming aggregator of execution-backend dispatch reports.

    Attach :meth:`observe` to an execution backend
    (:meth:`repro.parallel.execution.ExecutionBackend.attach_observer`)
    and call :meth:`advance` once per blockstep (the parallel driver
    does both via ``observe_ranks``); dispatches seen between two
    advances fold into one :class:`RankBlockstep`.  O(ranks) state per
    blockstep, O(1) run totals — safe always-on for week-long runs with
    ``keep=False``.

    Parameters
    ----------
    callback:
        Optional ``f(record)`` invoked at each cut (service bus hook).
    keep:
        Retain records (and their per-task timeline events) in
        :attr:`records`.  Turn off for unbounded runs.
    """

    def __init__(
        self,
        callback: Callable[[RankBlockstep], None] | None = None,
        keep: bool = True,
    ) -> None:
        self._callback = callback
        self._keep = bool(keep)
        self._pending: list[dict[str, Any]] = []
        self.records: list[RankBlockstep] = []
        self.count = 0
        self.latest: RankBlockstep | None = None
        self.backends: set[str] = set()
        # run totals
        self.dispatches = 0
        self.tasks = 0
        self.n_ranks = 0
        self.span_wall_us = 0.0
        #: Σ over blocksteps of n_ranks x span_wall (the rank-time
        #: budget the busy/idle identity partitions).
        self.rank_span_us = 0.0
        self.busy_total_us = 0.0
        self.cpu_total_us = 0.0
        self.publish_bytes = 0
        self.attach_bytes = 0
        self.maxrss_kb = 0.0
        self.vol_ctx_switches = 0
        self.invol_ctx_switches = 0
        self.minor_faults = 0
        self.major_faults = 0
        self.skew_total_us = 0.0
        self.skew_max_us = 0.0
        self.straggler_counts: dict[int, int] = {}
        # per-rank aggregates: rank -> dict(tasks, busy_us, cpu_us, hist)
        self._ranks: dict[int, dict[str, Any]] = {}
        # per-backend task-wall histograms
        self._backend_hist: dict[str, Histogram] = {}

    # -- capture -------------------------------------------------------------

    def observe(self, report: dict[str, Any]) -> None:
        """Record one ``run_tasks`` dispatch report (observer hook)."""
        self._pending.append(report)

    def advance(
        self, t: float | None = None, n_block: int = 0
    ) -> RankBlockstep:
        """Close the current blockstep: fold every dispatch observed
        since the previous advance into one record (a zero-valued
        record if nothing ran — degenerate blocksteps stay finite)."""
        reports, self._pending = self._pending, []
        backends: list[str] = []
        busy: dict[int, float] = {}
        cpu: dict[int, float] = {}
        span_wall = 0.0
        t_starts: list[float] = []
        tasks = 0
        publish = attach = 0
        maxrss = 0.0
        vol = invol = minf = majf = 0
        task_events: list[tuple[float, ...]] = []
        for rep in reports:
            name = str(rep.get("backend", "?"))
            if name not in backends:
                backends.append(name)
            span_wall += _finite(rep.get("span_wall_us"))
            if rep.get("t_start_us") is not None:
                t_starts.append(_finite(rep.get("t_start_us")))
            publish += int(rep.get("publish_bytes", 0) or 0)
            hist = self._backend_hist.get(name)
            if hist is None:
                hist = self._backend_hist[name] = Histogram(
                    f"rank.task_wall_us[{name}]"
                )
            for sample in rep.get("samples", ()):
                tasks += 1
                rank = int(sample.get("rank", 0) or 0)
                wall = _finite(sample.get("wall_us"))
                cpu_us = _finite(sample.get("cpu_us"))
                busy[rank] = busy.get(rank, 0.0) + wall
                cpu[rank] = cpu.get(rank, 0.0) + cpu_us
                attach += int(sample.get("attach_bytes", 0) or 0)
                maxrss = max(maxrss, _finite(sample.get("maxrss_kb")))
                vol += int(sample.get("vol_ctx_switches", 0) or 0)
                invol += int(sample.get("invol_ctx_switches", 0) or 0)
                minf += int(sample.get("minor_faults", 0) or 0)
                majf += int(sample.get("major_faults", 0) or 0)
                hist.observe(wall)
                agg = self._ranks.get(rank)
                if agg is None:
                    agg = self._ranks[rank] = {
                        "tasks": 0,
                        "busy_us": 0.0,
                        "cpu_us": 0.0,
                        "hist": Histogram(f"rank[{rank}].task_wall_us"),
                    }
                agg["tasks"] += 1
                agg["busy_us"] += wall
                agg["cpu_us"] += cpu_us
                agg["hist"].observe(wall)
                if self._keep:
                    task_events.append((
                        float(rank),
                        _finite(sample.get("pid")),
                        _finite(sample.get("t_start_us")),
                        wall,
                        cpu_us,
                    ))

        n_ranks = (max(busy) + 1) if busy else 0
        busy_t = tuple(busy.get(r, 0.0) for r in range(n_ranks))
        cpu_t = tuple(cpu.get(r, 0.0) for r in range(n_ranks))
        # the identity: idle is *defined* as the remainder of the span
        idle_t = tuple(span_wall - b for b in busy_t)
        rec = RankBlockstep(
            blockstep=self.count,
            t=None if t is None else float(t),
            n_block=int(n_block or 0),
            backend=(
                backends[0] if len(backends) == 1
                else ("mixed" if backends else "none")
            ),
            n_ranks=n_ranks,
            dispatches=len(reports),
            tasks=tasks,
            t_start_us=min(t_starts) if t_starts else 0.0,
            span_wall_us=span_wall,
            busy_us=busy_t,
            idle_us=idle_t,
            cpu_us=cpu_t,
            publish_bytes=publish,
            attach_bytes=attach,
            maxrss_kb=maxrss,
            vol_ctx_switches=vol,
            invol_ctx_switches=invol,
            minor_faults=minf,
            major_faults=majf,
            task_events=tuple(task_events),
        )

        self.count += 1
        self.latest = rec
        self.backends.update(backends)
        self.dispatches += rec.dispatches
        self.tasks += rec.tasks
        self.n_ranks = max(self.n_ranks, n_ranks)
        self.span_wall_us += span_wall
        self.rank_span_us += n_ranks * span_wall
        self.busy_total_us += sum(busy_t)
        self.cpu_total_us += sum(cpu_t)
        self.publish_bytes += publish
        self.attach_bytes += attach
        self.maxrss_kb = max(self.maxrss_kb, maxrss)
        self.vol_ctx_switches += vol
        self.invol_ctx_switches += invol
        self.minor_faults += minf
        self.major_faults += majf
        skew = rec.real_skew_us
        self.skew_total_us += skew
        self.skew_max_us = max(self.skew_max_us, skew)
        if rec.straggler >= 0:
            self.straggler_counts[rec.straggler] = (
                self.straggler_counts.get(rec.straggler, 0) + 1
            )
        if self._keep:
            self.records.append(rec)
        if self._callback is not None:
            self._callback(rec)
        return rec

    # -- views ---------------------------------------------------------------

    @property
    def idle_total_us(self) -> float:
        """Total idle rank-time: the exact remainder of the budget."""
        return self.rank_span_us - self.busy_total_us

    def mean_real_skew_us(self) -> float:
        return self.skew_total_us / self.count if self.count else 0.0

    def summary(self, comm: Any = None) -> dict[str, Any]:
        """The run-level ``repro.rank_sample/1`` section.

        Dispatches not yet closed by an :meth:`advance` (e.g. the
        startup force evaluation) are folded into a final record first,
        so the section's totals always cover everything observed.  With
        ``comm`` given (a :class:`~repro.parallel.ledger.CommLedger`,
        its ``summary()``/``as_dict()`` export, or a
        ``merge_comm_summaries`` rollup), the section carries a
        ``placement`` block cross-attributing real vs virtual skew —
        see :meth:`placement`.
        """
        if self._pending:
            self.advance()
        ranks = []
        for rank in sorted(self._ranks):
            agg = self._ranks[rank]
            hist: Histogram = agg["hist"]
            ranks.append({
                "rank": rank,
                "tasks": agg["tasks"],
                "busy_us": agg["busy_us"],
                "cpu_us": agg["cpu_us"],
                "mean_task_us": hist.mean,
                "p50_task_us": hist.percentile(50.0),
                "max_task_us": hist.max if hist.count else 0.0,
            })
        # a span too short for its tasks' own clock readings (a denormal
        # against microseconds) overflows the ratio: nothing to report,
        # as for an empty span
        utilisation = (
            self.busy_total_us / self.rank_span_us if self.rank_span_us > 0 else 0.0
        )
        out: dict[str, Any] = {
            "schema": RANK_SAMPLE_SCHEMA,
            "kind": "summary",
            "backends": sorted(self.backends),
            "blocksteps": self.count,
            "dispatches": self.dispatches,
            "tasks": self.tasks,
            "n_ranks": self.n_ranks,
            "span_wall_us": self.span_wall_us,
            "rank_span_us": self.rank_span_us,
            "busy_us": self.busy_total_us,
            "idle_us": self.idle_total_us,
            "cpu_us": self.cpu_total_us,
            "utilisation": utilisation if math.isfinite(utilisation) else 0.0,
            "publish_bytes": self.publish_bytes,
            "attach_bytes": self.attach_bytes,
            "publish_bytes_per_step": (
                self.publish_bytes / self.count if self.count else 0.0
            ),
            "maxrss_kb": self.maxrss_kb,
            "ctx_switches": {
                "voluntary": self.vol_ctx_switches,
                "involuntary": self.invol_ctx_switches,
            },
            "page_faults": {
                "minor": self.minor_faults,
                "major": self.major_faults,
            },
            "real_skew_us": {
                "mean": self.mean_real_skew_us(),
                "max": self.skew_max_us,
                "total": self.skew_total_us,
            },
            "straggler_ranks": {
                str(r): c for r, c in sorted(self.straggler_counts.items())
            },
            "ranks": ranks,
            "backend_task_us": {
                name: {
                    "tasks": h.count,
                    "mean": h.mean,
                    "p50": h.percentile(50.0),
                    "max": h.max if h.count else 0.0,
                }
                for name, h in sorted(self._backend_hist.items())
            },
        }
        placement = self.placement(comm) if comm is not None else None
        if placement is not None:
            out["placement"] = placement
        return out

    def placement(self, comm: Any) -> dict[str, Any] | None:
        """Real-vs-virtual skew cross-attribution (the placement gap).

        Pairs each kept blockstep record with the matching virtual
        barrier skew from the comm ledger (per-barrier records when
        available, the ledger's mean skew otherwise) and decomposes
        total idle rank-time into two buckets that sum to it *exactly*
        (the efficiency-waterfall discipline):

        ``imbalance``
            idle explained by real straggling — Σ over ranks of
            ``max(busy) - busy[r]``, the rank-time the fastest ranks
            spent waiting for the real straggler;
        ``overhead``
            the residual: dispatch submission, IPC, GIL serialisation —
            cost no virtual machine model predicts.

        The headline ``gap_us`` is real minus virtual skew per paired
        blockstep: positive means the real machine is *less* balanced
        than the simulated one (placement/contention effects), negative
        means the virtual model over-predicts skew.  Returns ``None``
        when there are no kept records to attribute.
        """
        if not self.records:
            return None
        virtual = _virtual_skews(comm, len(self.records))
        paired = 0
        gap_total = 0.0
        vskew_total = 0.0
        vskew_max = 0.0
        imbalance = 0.0
        idle = 0.0
        for i, rec in enumerate(self.records):
            step_idle = rec.total_idle_us
            idle += step_idle
            if rec.busy_us:
                peak = max(rec.busy_us)
                step_imb = sum(peak - b for b in rec.busy_us)
                # cap at the idle budget: the split must stay exact
                if step_idle >= 0.0:
                    step_imb = min(max(step_imb, 0.0), step_idle)
                else:  # pathological overlap: all of it is "imbalance"
                    step_imb = step_idle
                imbalance += step_imb
            if i < len(virtual):
                paired += 1
                v = virtual[i]
                vskew_total += v
                vskew_max = max(vskew_max, v)
                gap_total += rec.real_skew_us - v
        overhead = idle - imbalance  # exact by construction
        frac = (lambda x: x / idle if idle > 0 else 0.0)
        return {
            "blocksteps": len(self.records),
            "paired": paired,
            "real_skew_us": {
                "mean": self.mean_real_skew_us(),
                "max": self.skew_max_us,
                "total": self.skew_total_us,
            },
            "virtual_skew_us": {
                "mean": vskew_total / paired if paired else 0.0,
                "max": vskew_max,
                "total": vskew_total,
            },
            "gap_us": {
                "mean": gap_total / paired if paired else 0.0,
                "total": gap_total,
            },
            "idle_us": idle,
            "buckets": {
                "imbalance": {"us": imbalance, "fraction": frac(imbalance)},
                "overhead": {"us": overhead, "fraction": frac(overhead)},
            },
        }


def _virtual_skews(comm: Any, count: int) -> list[float]:
    """Per-blockstep virtual barrier skews from whatever describes the
    comm side: a live CommLedger (``barrier_records`` attribute), its
    ``as_dict`` export (``barrier_records`` key), or a summary/rollup
    (``mean_barrier_skew_us``, possibly under ``networks``) — in the
    last case the mean stands in for every blockstep."""
    records = getattr(comm, "barrier_records", None)
    if records is None and isinstance(comm, dict):
        records = comm.get("barrier_records")
    if records:
        out: list[float] = []
        for rec in records[:count]:
            skew = getattr(rec, "skew_us", None)
            if skew is None and isinstance(rec, dict):
                skew = rec.get("skew_us")
            out.append(_finite(skew))
        return out
    mean = None
    if isinstance(comm, dict):
        mean = comm.get("mean_barrier_skew_us")
        if mean is None:
            nets = comm.get("networks")
            if isinstance(nets, list) and nets:
                vals = [
                    _finite(n.get("mean_barrier_skew_us"))
                    for n in nets if isinstance(n, dict)
                ]
                mean = sum(vals) / len(vals) if vals else None
    elif hasattr(comm, "mean_barrier_skew_us"):
        mean = comm.mean_barrier_skew_us()
    if mean is None:
        return []
    return [_finite(mean)] * count


# -- validation --------------------------------------------------------------


def _busy_plus_idle_is_span(rec: dict[str, Any]) -> str | None:
    busy, idle, span = rec["busy_us"], rec["idle_us"], rec["span_wall_us"]
    if len(busy) != len(idle):
        return (f"busy_us ({len(busy)}) and idle_us ({len(idle)}) "
                "must have one entry per rank")
    for r, (b, i) in enumerate(zip(busy, idle)):
        if not sums_to(b + i, span):
            return (f"rank {r} busy + idle = {b + i} "
                    f"does not equal span_wall_us = {span}")


def _busy_plus_idle_is_budget(doc: dict[str, Any]) -> str | None:
    total = doc["busy_us"] + doc["idle_us"]
    if not sums_to(total, doc["rank_span_us"]):
        return (f"busy + idle = {total} does not sum to "
                f"rank_span_us = {doc['rank_span_us']}")


def _placement_sums_to_idle(placement: dict[str, Any]) -> str | None:
    idle = _finite(placement.get("idle_us"))
    total = sum(placement["buckets"][name]["us"] for name in IDLE_BUCKETS)
    if not sums_to(total, idle):
        return f"buckets = {total} do not sum to idle_us = {idle}"


#: One :meth:`RankBlockstep.as_record` record.
RANK_RECORD_SPEC = {
    "what": "rank record",
    "schema": RANK_SAMPLE_SCHEMA,
    "fields": {
        **dict.fromkeys(
            ("blockstep", "n_ranks", "dispatches", "tasks", "span_wall_us",
             "real_skew_us", "publish_bytes"), FINITE),
        "busy_us": list_of(FINITE),
        "idle_us": list_of(FINITE),
    },
    "rules": (_busy_plus_idle_is_span,),
}

#: A :meth:`RankLedger.summary` section.
RANK_SECTION_SPEC = {
    "what": "rank section",
    "schema": RANK_SAMPLE_SCHEMA,
    "fields": {
        **dict.fromkeys(
            ("blocksteps", "dispatches", "tasks", "n_ranks", "span_wall_us",
             "rank_span_us", "busy_us", "idle_us", "cpu_us", "utilisation",
             "publish_bytes", "attach_bytes", "publish_bytes_per_step"),
            FINITE),
        "real_skew_us": {
            "fields": dict.fromkeys(("mean", "max", "total"), NONNEG)},
        "ranks": list_of({"fields": dict.fromkeys(
            ("rank", "tasks", "busy_us", "mean_task_us"), FINITE)}),
        "placement": opt({
            "fields": {"buckets": {"fields": {
                name: {"fields": {"us": FINITE}} for name in IDLE_BUCKETS
            }}},
            "rules": (_placement_sums_to_idle,),
        }),
    },
    "rules": (_busy_plus_idle_is_budget,),
}


def validate_rank_record(obj: Any, source: str = "rank") -> dict[str, Any]:
    """Structural + arithmetic check of one blockstep record: schema,
    finite numerics (zero-valued degenerates pass, NaN never does), and
    the per-rank identity ``busy[r] + idle[r] == span_wall_us``."""
    return check(obj, RANK_RECORD_SPEC, source, RankError)


def validate_rank_section(obj: Any, source: str = "rank") -> dict[str, Any]:
    """Check a :meth:`RankLedger.summary` section: schema, finite
    numerics, the run-level identity ``busy + idle == rank_span``, and
    (when present) that the placement buckets sum to idle exactly."""
    return check(obj, RANK_SECTION_SPEC, source, RankError)


#: Headline columns of a :meth:`RankLedger.summary` section.
RANK_HEADLINE = Section(
    "rank", kind="rank", state="rank",
    status=" ranks={n_ranks} util={utilisation} skew={real_skew_us_mean}us",
    report=("ranks: {n_ranks} on {backends} — utilisation {utilisation}, "
            "real skew mean {real_skew_us_mean} us (max {real_skew_us_max}),"
            " publish {publish_bytes_per_step} B/step"),
    columns=(
        Column("blocksteps"),
        Column("tasks"),
        Column("n_ranks", state=True),
        Column("utilisation", "{:.1%}", state=True),
        Column("real_skew_us_mean", "{:.0f}", ("real_skew_us", "mean"),
               state=True),
        Column("real_skew_us_max", "{:.0f}", ("real_skew_us", "max")),
        Column("publish_bytes_per_step", "{:.0f}", state=True),
        # read by the report's placement line and `exec_observatory`
        Column("placement_gap_us_mean", "{:+.0f}",
               ("placement", "gap_us", "mean"), bus=False),
        Column("backends", bus=False,
               read=lambda doc: "/".join(doc.get("backends") or ()) or None),
    ),
)


# -- timeline lane -----------------------------------------------------------


def rank_trace_events(ledger: RankLedger) -> list[dict[str, Any]]:
    """Per-rank real-clock lanes under the registry's ranks pid.

    One complete ("X") event per instrumented task on its rank's lane
    (tid = rank), plus one blockstep marker per kept record on the lane
    past the last rank, labelled with the real skew.  Timestamps are
    re-based to the earliest task start, so the lane group starts at
    zero like the span film.
    """
    t0_us = min(
        (task[2] for rec in ledger.records for task in rec.task_events
         if task[2] > 0.0),
        default=0.0,
    )
    marker_tid = max(ledger.n_ranks, 1)
    events: list[dict[str, Any]] = []
    for rec in ledger.records:
        for rank, worker_pid, ts, wall, cpu in rec.task_events:
            events.append(trace_event(
                "rank.task", "rank", max(ts - t0_us, 0.0), wall, RANK_PID,
                int(rank),
                {
                    "blockstep": rec.blockstep,
                    "rank": int(rank),
                    "backend": rec.backend,
                    "worker_pid": int(worker_pid),
                    "cpu_us": cpu,
                },
            ))
        events.append(trace_event(
            f"blockstep {rec.blockstep}", "rank",
            max(rec.t_start_us - t0_us, 0.0), rec.span_wall_us, RANK_PID,
            marker_tid,
            {
                "blockstep": rec.blockstep,
                "backend": rec.backend,
                "real_skew_us": rec.real_skew_us,
                "straggler": rec.straggler,
                "publish_bytes": rec.publish_bytes,
            },
        ))
    return trace_lane(RANK_PID, "ranks (real clock)", events)

