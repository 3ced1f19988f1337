"""Per-link communication ledger: the §4.4 measurement substrate.

The paper's decisive tuning move — swapping the NS 83820 NIC for the
Intel 82540EM — came from *measuring* per-message and per-barrier
costs, not from the aggregate counters the earlier code kept.  The
three global numbers of :class:`repro.parallel.simcomm.MessageStats`
(messages/bytes/barriers) cannot answer the questions that analysis
asks: which link carries the traffic, how large the messages are, how
long each flight takes, who arrives last at each barrier and how much
the other hosts wait for it.

:class:`CommLedger` answers them.  One ledger per
:class:`~repro.parallel.simcomm.SimNetwork` records

* a **link ledger** per (src, dst, kind): message count, byte volume,
  and size/flight-time histograms (kind separates point-to-point
  payload traffic from the 16-byte collective/barrier messages, so the
  latency/bandwidth structure stays fittable — mixing them would blur
  the two regimes the linear NIC model distinguishes).  Messages arrive
  a whole round, or a whole schedule of rounds, at a time
  (:meth:`CommLedger.record_round`) and live in
  one struct-of-arrays :class:`LinkStore`; :class:`LinkStats` is a
  projection of one of its rows;
* **barrier attribution** per barrier, in virtual time: every rank's
  arrival, the straggler (who arrived last), the arrival skew, the
  per-butterfly-round clock spread, and the pure synchronisation cost
  (release minus last arrival — the ``rounds x flight`` term of
  :func:`repro.parallel.barrier.butterfly_barrier_us`);
* **exchange records**: each coherence exchange (ring allgather,
  grid row/column broadcast, inter-cluster ring) as a timed, annotated
  event bracketing the messages it generated.

The export is schema-versioned (:data:`COMM_LEDGER_SCHEMA`) and feeds
three consumers: the ``comm`` section of ``BENCH_*.json`` artifacts
(:mod:`repro.bench.runner`), the NIC fit of
:mod:`repro.perfmodel.calibrate`, and the flight-recorder timeline
(:meth:`CommLedger.trace_events` renders barriers per rank lane and
exchanges as annotated Chrome-trace events in the virtual clock
domain).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from ..schema import check, list_of
from ..telemetry import Histogram
from ..telemetry.metrics import pow2_bins
from ..telemetry.timeline import TRACE_PIDS, trace_event, trace_lane

#: Bump on breaking layout changes of the ledger export; the bench
#: ``ledger`` CLI and the artifact checker refuse mismatches.
COMM_LEDGER_SCHEMA = "repro.comm_ledger/1"

#: Link kinds: payload point-to-point traffic vs the small collective
#: (barrier/broadcast bookkeeping) messages sent with negative tags.
KIND_P2P = "p2p"
KIND_COLLECTIVE = "collective"

#: Messages the round log holds before it is folded into the link
#: store: the log's memory is fixed whatever the run length.
ROUND_LOG_CAP = 4096

#: Base trace process id for ledger events, from the central registry
#: (:data:`repro.telemetry.timeline.TRACE_PIDS`): network ``i`` of a
#: multi-fabric run renders under ``COMM_PID + i`` so its per-rank comm
#: lanes never interleave with span rows or the regime/efficiency lanes.
COMM_PID = TRACE_PIDS["comm"]

#: A :meth:`CommLedger.as_dict` export (validation contract).
COMM_LEDGER_SPEC = {
    "what": "ledger root",
    "schema": COMM_LEDGER_SCHEMA,
    "fields": {
        **dict.fromkeys(
            ("nic", "n_ranks", "messages", "bytes", "barriers",
             "barrier_rounds", "barrier_sync_us", "barrier_wait_us")),
        "links": list_of({"fields": dict.fromkeys(
            ("src", "dst", "kind", "messages", "bytes", "mean_bytes",
             "mean_flight_us"))}),
        "exchanges": dict,
    },
}


class LedgerError(ValueError):
    """Raised for schema violations in ledger exports."""


@dataclass
class LinkStats:
    """Traffic ledger of one directed (src, dst) link, one kind (a
    snapshot of one :class:`LinkStore` row)."""

    src: int
    dst: int
    kind: str
    messages: int = 0
    bytes: int = 0
    size_hist: Histogram = field(
        default_factory=lambda: Histogram("link.bytes"))
    flight_hist: Histogram = field(
        default_factory=lambda: Histogram("link.flight_us"))

    @property
    def mean_bytes(self) -> float:
        return self.bytes / self.messages if self.messages else 0.0

    @property
    def mean_flight_us(self) -> float:
        return self.flight_hist.mean

    def as_dict(self) -> dict[str, Any]:
        return {
            "src": self.src,
            "dst": self.dst,
            "kind": self.kind,
            "messages": self.messages,
            "bytes": self.bytes,
            "mean_bytes": self.mean_bytes,
            "mean_flight_us": self.mean_flight_us,
            "p50_flight_us": self.flight_hist.percentile(50.0),
            "max_flight_us": self.flight_hist.max if self.messages else 0.0,
            "max_bytes": self.size_hist.max if self.messages else 0.0,
        }


def _spread(column: np.ndarray, old_rows: np.ndarray, n: int,
            empty: float = 0) -> np.ndarray:
    """``column`` laid over ``n`` rows, row ``i`` moved to
    ``old_rows[i]``; the other rows hold ``empty``."""
    out = np.full((n, *column.shape[1:]), empty, dtype=column.dtype)
    out[old_rows] = column
    return out


class _HistColumns:
    """The fields of one :class:`Histogram` per link row."""

    def __init__(self) -> None:
        self.total = np.zeros(0)
        self.sq_total = np.zeros(0)
        self.min = np.zeros(0)
        self.max = np.zeros(0)
        self.bins = np.zeros((0, 1), dtype=np.int64)

    def spread(self, old_rows: np.ndarray, n: int) -> None:
        """Lay the columns over ``n`` rows (:func:`_spread`)."""
        self.total, self.sq_total, self.bins = (
            _spread(c, old_rows, n) for c in (self.total, self.sq_total, self.bins))
        self.min = _spread(self.min, old_rows, n, np.inf)
        self.max = _spread(self.max, old_rows, n, -np.inf)

    def fold(self, rows: np.ndarray, values: np.ndarray) -> None:
        """``Histogram.observe(values[i])`` on row ``rows[i]``, in order:
        the float sums in message order (the numpy tier of the network
        tile's ``fold``, :mod:`repro.parallel.network_tile`), then
        :meth:`count`."""
        np.add.at(self.total, rows, values)
        np.add.at(self.sq_total, rows, values * values)
        np.minimum.at(self.min, rows, values)
        np.maximum.at(self.max, rows, values)
        self.count(rows, values)

    def count(self, rows: np.ndarray, values: np.ndarray) -> None:
        """The bin counts of ``values`` on ``rows``: integers, whose sum
        has no order, as one ``bincount``."""
        bins = pow2_bins(values)
        missing = int(bins.max()) + 1 - self.bins.shape[1]
        if missing > 0:
            self.bins = np.pad(self.bins, ((0, 0), (0, missing)))
        self.bins += np.bincount(
            rows * self.bins.shape[1] + bins, minlength=self.bins.size
        ).reshape(self.bins.shape)

    def histogram(self, row: int, name: str, count: int) -> Histogram:
        hist = Histogram(name)
        hist.count = count
        hist.total = float(self.total[row])
        hist.sq_total = float(self.sq_total[row])
        hist.min = float(self.min[row])
        hist.max = float(self.max[row])
        counts = self.bins[row]
        hist.bins = {int(b): int(counts[b]) for b in np.flatnonzero(counts)}
        return hist


class LinkStore:
    """Struct-of-arrays link ledger: one row per (src, dst, kind) link
    that has carried traffic, holding :class:`LinkStats`' fields.

    Rounds are appended to a fixed-size log (a schedule of shift rounds
    by the network tile's one call) and folded into the rows when it
    fills or when the store is read.  The fold adds bytes and the float
    sums and takes the extrema one message at a time in log order (the
    network tile's ``fold``, :mod:`repro.parallel.network_tile`: one
    compiled loop, or the unbuffered ``ufunc.at`` forms of
    ``_HistColumns.fold``), so the bits are those of one
    ``Histogram.observe`` per message; counts are
    integers, whose sums have no order, and are taken by ``bincount``.
    Rows stay sorted by link id (one ``searchsorted`` finds a message's
    row) and rows and bin columns are added as links and magnitudes
    first appear; nothing is sized by ``n_ranks**2``.
    """

    def __init__(self, n_ranks: int) -> None:
        self.n_ranks = n_ranks
        self._log: tuple[np.ndarray, ...] | None = None
        self.clear()

    def clear(self) -> None:
        self._pending = 0
        #: Link id per row, ascending, ``(src * n_ranks + dst) * 2 +
        #: (kind is p2p)``: ascending ids are ascending (src, dst, kind)
        #: triples.
        self.key = np.zeros(0, dtype=np.int64)
        self.messages = np.zeros(0, dtype=np.int64)
        self.bytes = np.zeros(0, dtype=np.int64)
        self.size = _HistColumns()
        self.flight = _HistColumns()

    def reserve(self, m: int) -> int | None:
        """Where the log takes ``m`` more messages - folding it first if
        they do not fit - or None if it never can."""
        if self._pending + m > ROUND_LOG_CAP:
            self.fold()
            if m > ROUND_LOG_CAP:
                return None
        if self._log is None:
            #: src, dst, nbytes, flight_us and the collective flag
            self._log = (
                np.empty(ROUND_LOG_CAP, dtype=np.int64),
                np.empty(ROUND_LOG_CAP, dtype=np.int64),
                np.empty(ROUND_LOG_CAP, dtype=np.int64),
                np.empty(ROUND_LOG_CAP),
                np.empty(ROUND_LOG_CAP, dtype=bool),
            )
        return self._pending

    def record(self, src: np.ndarray, dst: np.ndarray, nbytes: np.ndarray,
               flight_us: np.ndarray, collective: bool | np.ndarray) -> None:
        """Log messages in order; message ``i`` went ``src[i]`` ->
        ``dst[i]``, collective for all of them or per message.  (A
        schedule of shift rounds is logged by
        :mod:`repro.parallel.network_tile`.)"""
        m = len(src)
        offset = self.reserve(m)
        if offset is None:
            self._fold(src, dst, nbytes, flight_us, collective)
            return
        entry = slice(offset, offset + m)
        for column, values in zip(
                self._log, (src, dst, nbytes, flight_us, collective)):
            column[entry] = values
        self._pending = offset + m

    def fold(self) -> None:
        """Fold the logged rounds into the link rows and empty the log."""
        if self._pending:
            self._fold(*(column[:self._pending] for column in self._log))
            self._pending = 0

    def _fold(self, src, dst, nbytes, flight_us, collective) -> None:
        src = np.asarray(src, dtype=np.int64)
        keys = (src * self.n_ranks + dst) * 2 + np.logical_not(collective)
        rows = np.searchsorted(self.key, keys)
        if not (self.key.size and (self.key.take(rows, mode="clip") == keys).all()):
            self._add_links(keys)
            rows = np.searchsorted(self.key, keys)
        self.messages += np.bincount(rows, minlength=self.messages.size)
        # imported here: the tile's load-time self-check folds a LinkStore
        from . import network_tile

        network_tile._tile.fold(self, rows, nbytes, flight_us)

    def _add_links(self, keys: np.ndarray) -> None:
        """Rows for the links among ``keys`` that have none yet.  (Sorted
        by hand: ``np.union1d`` would import ``numpy.ma``, a MiB a
        process.)"""
        key = np.sort(np.concatenate((self.key, keys)))
        key = key[np.diff(key, prepend=-1) != 0]
        old_rows = np.searchsorted(key, self.key)
        self.messages, self.bytes = (
            _spread(c, old_rows, key.size) for c in (self.messages, self.bytes))
        self.size.spread(old_rows, key.size)
        self.flight.spread(old_rows, key.size)
        self.key = key

    def totals(self) -> tuple[int, int]:
        """Messages and bytes over all links."""
        self.fold()
        return int(self.messages.sum()), int(self.bytes.sum())

    def links(self) -> list[LinkStats]:
        """Every row as a :class:`LinkStats`, sorted by (src, dst, kind)."""
        self.fold()
        out = []
        for row, key in enumerate(self.key.tolist()):
            link, p2p = divmod(key, 2)
            src, dst = divmod(link, self.n_ranks)
            count = int(self.messages[row])
            out.append(LinkStats(
                src=src,
                dst=dst,
                kind=KIND_P2P if p2p else KIND_COLLECTIVE,
                messages=count,
                bytes=int(self.bytes[row]),
                size_hist=self.size.histogram(row, "link.bytes", count),
                flight_hist=self.flight.histogram(
                    row, "link.flight_us", count),
            ))
        return out


@dataclass(frozen=True)
class BarrierRecord:
    """One barrier's per-rank attribution, in virtual microseconds.

    ``arrivals_us[r]`` is rank r's clock when it entered the barrier;
    ``release_us`` is the common clock everyone leaves with.  The
    *straggler* is the last arriver — every other rank's wait includes
    the skew it caused; the *sync* cost is what even a perfectly
    balanced machine would pay (``release - max(arrivals)``, i.e.
    rounds x message flight — the 1/N wall of figs. 16/18).
    """

    index: int
    arrivals_us: tuple[float, ...]
    release_us: float
    rounds: int
    round_skew_us: tuple[float, ...]

    @property
    def straggler(self) -> int:
        return max(range(len(self.arrivals_us)),
                   key=lambda r: self.arrivals_us[r])

    @property
    def skew_us(self) -> float:
        """Arrival spread: how unbalanced the ranks were at entry."""
        return max(self.arrivals_us) - min(self.arrivals_us)

    @property
    def sync_us(self) -> float:
        """Pure synchronisation cost once everyone has arrived."""
        return self.release_us - max(self.arrivals_us)

    @property
    def wait_us(self) -> tuple[float, ...]:
        """Per-rank wait: release minus own arrival (straggler waits
        least, early arrivers pay its skew on top of the sync cost)."""
        return tuple(self.release_us - a for a in self.arrivals_us)

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "arrivals_us": list(self.arrivals_us),
            "release_us": self.release_us,
            "rounds": self.rounds,
            "round_skew_us": list(self.round_skew_us),
            "straggler": self.straggler,
            "skew_us": self.skew_us,
            "sync_us": self.sync_us,
        }


@dataclass(frozen=True)
class ExchangeRecord:
    """One coherence exchange (ring allgather, grid broadcast, ...)."""

    kind: str
    t_start_us: float
    t_end_us: float
    messages: int
    bytes: int
    n_particles: int = 0

    @property
    def dur_us(self) -> float:
        return self.t_end_us - self.t_start_us

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "t_start_us": self.t_start_us,
            "t_end_us": self.t_end_us,
            "dur_us": self.dur_us,
            "messages": self.messages,
            "bytes": self.bytes,
            "n_particles": self.n_particles,
        }


class CommLedger:
    """Message/barrier/exchange ledger of one simulated network."""

    def __init__(self, n_ranks: int, nic: str = "?") -> None:
        self.n_ranks = int(n_ranks)
        self.nic = str(nic)
        self._store = LinkStore(self.n_ranks)
        self.barrier_records: list[BarrierRecord] = []
        self.exchange_records: list[ExchangeRecord] = []

    # -- recording -------------------------------------------------------------

    def record_round(
        self, src: np.ndarray, dst: np.ndarray, nbytes: np.ndarray,
        flight_us: np.ndarray, collective: bool | np.ndarray = False,
    ) -> None:
        """Record message rounds (index arrays of equal length, in
        message order: a single message is a round of one, a schedule of
        rounds is their concatenation with one ``collective`` flag per
        message)."""
        self._store.record(src, dst, nbytes, flight_us, collective)

    def record_barrier(
        self,
        arrivals_us: Iterable[float],
        release_us: float,
        rounds: int,
        round_skew_us: Iterable[float] = (),
    ) -> BarrierRecord:
        rec = BarrierRecord(
            index=len(self.barrier_records),
            arrivals_us=tuple(np.asarray(arrivals_us, dtype=float).tolist()),
            release_us=float(release_us),
            rounds=int(rounds),
            round_skew_us=tuple(np.asarray(round_skew_us, dtype=float).tolist()),
        )
        self.barrier_records.append(rec)
        return rec

    def record_exchange(
        self, kind: str, t_start_us: float, t_end_us: float,
        messages: int, nbytes: int, n_particles: int = 0,
    ) -> ExchangeRecord:
        rec = ExchangeRecord(
            kind=kind,
            t_start_us=float(t_start_us),
            t_end_us=float(t_end_us),
            messages=int(messages),
            bytes=int(nbytes),
            n_particles=int(n_particles),
        )
        self.exchange_records.append(rec)
        return rec

    def reset(self) -> None:
        """Forget everything (fresh trial on a reused network)."""
        self._store.clear()
        self.barrier_records.clear()
        self.exchange_records.clear()

    # -- views -----------------------------------------------------------------

    @property
    def links(self) -> list[LinkStats]:
        return self._store.links()

    @property
    def messages(self) -> int:
        return self._store.totals()[0]

    @property
    def bytes(self) -> int:
        return self._store.totals()[1]

    @property
    def barrier_sync_us(self) -> float:
        return sum(b.sync_us for b in self.barrier_records)

    @property
    def barrier_wait_us(self) -> float:
        return sum(sum(b.wait_us) for b in self.barrier_records)

    @property
    def barrier_rounds(self) -> int:
        return sum(b.rounds for b in self.barrier_records)

    def straggler_counts(self) -> dict[int, int]:
        """How often each rank was the last barrier arriver."""
        out: dict[int, int] = {}
        for b in self.barrier_records:
            out[b.straggler] = out.get(b.straggler, 0) + 1
        return out

    def mean_barrier_skew_us(self) -> float:
        if not self.barrier_records:
            return 0.0
        return sum(b.skew_us for b in self.barrier_records) / len(
            self.barrier_records)

    def exchange_totals(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for rec in self.exchange_records:
            agg = out.setdefault(
                rec.kind,
                {"count": 0, "messages": 0, "bytes": 0, "virtual_us": 0.0},
            )
            agg["count"] += 1
            agg["messages"] += rec.messages
            agg["bytes"] += rec.bytes
            agg["virtual_us"] += rec.dur_us
        return out

    # -- export ----------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Compact JSON-ready rollup (the artifact's ``comm`` section)."""
        return {
            "nic": self.nic,
            "n_ranks": self.n_ranks,
            "messages": self.messages,
            "bytes": self.bytes,
            "barriers": len(self.barrier_records),
            "barrier_rounds": self.barrier_rounds,
            "barrier_sync_us": self.barrier_sync_us,
            "barrier_wait_us": self.barrier_wait_us,
            "mean_barrier_skew_us": self.mean_barrier_skew_us(),
            "straggler_ranks": {
                str(r): c for r, c in sorted(self.straggler_counts().items())
            },
            "exchanges": self.exchange_totals(),
            "links": [l.as_dict() for l in self.links],
        }

    def as_dict(self) -> dict[str, Any]:
        """Full schema-versioned export, including per-barrier and
        per-exchange records (the ``bench ledger`` CLI's output)."""
        return {
            "schema": COMM_LEDGER_SCHEMA,
            **self.summary(),
            "barrier_records": [b.as_dict() for b in self.barrier_records],
            "exchange_records": [e.as_dict() for e in self.exchange_records],
        }

    # -- timeline --------------------------------------------------------------

    def trace_events(self, pid: int = COMM_PID,
                     label: str | None = None) -> list[dict[str, Any]]:
        """Chrome trace events in the virtual-clock domain.

        Per barrier, one ``"X"`` event per rank lane (tid = rank)
        spanning arrival to release — the straggler's lane is the
        shortest bar, the wait it caused is everyone else's overhang;
        per exchange, one annotated ``"X"`` event on the lane past the
        last rank.  The output plugs straight into a ``traceEvents``
        list next to :func:`repro.telemetry.timeline.timeline_events`
        and passes :func:`repro.telemetry.timeline.validate_timeline`.
        """
        name = label or f"comm[{self.nic}]"
        out: list[dict[str, Any]] = []
        for b in self.barrier_records:
            for rank, (arrival, wait) in enumerate(
                    zip(b.arrivals_us, b.wait_us)):
                out.append(trace_event(
                    "net.barrier.wait", "barrier", arrival, wait, pid, rank,
                    {
                        "barrier": b.index,
                        "rank": rank,
                        "straggler": b.straggler,
                        "skew_us": b.skew_us,
                        "sync_us": b.sync_us,
                        "rounds": b.rounds,
                    },
                ))
        for e in self.exchange_records:
            out.append(trace_event(
                f"net.exchange.{e.kind}", "exchange", e.t_start_us, e.dur_us,
                pid, self.n_ranks,
                {
                    "kind": e.kind,
                    "messages": e.messages,
                    "bytes": e.bytes,
                    "n_particles": e.n_particles,
                },
            ))
        return trace_lane(pid, f"{name} ledger (virtual clock)", out)


def validate_comm_ledger(obj: Any, source: str = "ledger") -> dict[str, Any]:
    """Check a ledger export against its schema; returns it on success."""
    return check(obj, COMM_LEDGER_SPEC, source, LedgerError)


def merge_comm_summaries(
    summaries: Iterable[dict[str, Any]],
) -> dict[str, Any]:
    """Roll per-network ledger summaries into one artifact ``comm``
    section.

    Networks are kept individually under ``networks`` (they may model
    different NICs — a hybrid run has one network per cluster plus the
    inter-cluster links, and the NIC fit must not mix NIC
    regimes); the top-level counters are totals across all of them.
    """
    summaries = list(summaries)
    return {
        "schema": COMM_LEDGER_SCHEMA,
        "networks": summaries,
        "messages": sum(s.get("messages", 0) for s in summaries),
        "bytes": sum(s.get("bytes", 0) for s in summaries),
        "barriers": sum(s.get("barriers", 0) for s in summaries),
        "barrier_rounds": sum(s.get("barrier_rounds", 0) for s in summaries),
        "barrier_sync_us": sum(
            s.get("barrier_sync_us", 0.0) for s in summaries),
        "barrier_wait_us": sum(
            s.get("barrier_wait_us", 0.0) for s in summaries),
    }
