"""Virtual-time message-passing network.

A cost model, not a transport: the algorithms hold their own data and
post to the network only what their traffic costs.  The cost model is
the linear latency/bandwidth model of the paper's NICs: a message of
``nbytes`` costs ``latency + nbytes / bandwidth`` from post to arrival,
where latency is half the measured round trip (section 4.4: NS 83820
200 us RTT / 60 MB/s; Intel 82540EM 67 us RTT / 105 MB/s).

The paper's own synchronisation is "butterfly message exchange using
TCP/IP", which :meth:`SimNetwork.barrier` reproduces: log2(p) rounds of
pairwise exchanges, so a barrier costs ~log2(p) latencies — this is the
1/N wall of figs. 16 and 18.

The implementation executes rank programs step-by-step from a single
driver (BSP style).  Its one message mechanism is the *round*
(:meth:`SimNetwork.message_round`): a set of messages posted together
from the senders' current clocks, after which every receiver advances
to max(own, arrival).  A ring shift, a butterfly stage, the 2-D grid's
row reductions or its row and column broadcasts are one round each — a
handful of array operations whatever the rank count.  A schedule of
consecutive shift rounds (a ring allgather's ``p - 1`` shifts, a
barrier's butterfly stages) is one call, :meth:`SimNetwork.shift_rounds`,
served by :mod:`repro.parallel.network_tile`: every message's flight
time, the clock recurrence, the clock readings the barrier record and
the exchange bracket keep, and the ledger's log, in one compiled call
per schedule (a loop of numpy operations per round on the numpy tier).
The schedules are built once per network.

A message size that cannot be real - negative, not an integer, not
finite - is refused with
:class:`~repro.parallel.network_tile.MessageSizeError` on every posting
path, with nothing recorded.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ..config import NICConfig, NIC_NS83820
from ..telemetry import T_BARRIER, Tracer, get_tracer
from . import network_tile
from .barrier import butterfly_rounds, message_time_us
from .ledger import CommLedger
from .network_tile import Schedule, integral_sizes, refuse_negative
from .virtualtime import VirtualClock


@dataclass
class MessageStats:
    """Traffic counters for one network."""

    messages: int = 0
    bytes: int = 0
    barriers: int = 0

    def record(self, messages: int, nbytes: int) -> None:
        self.messages += messages
        self.bytes += nbytes

    def reset(self) -> None:
        """Zero all counters (fresh benchmark trial on a reused
        network — multi-trial comm counts must not accumulate)."""
        self.messages = 0
        self.bytes = 0
        self.barriers = 0


#: Bytes per particle for the paper's exchanges: position, velocity,
#: acceleration, jerk (4 x 3 doubles), mass, time, timestep, index —
#: ~112 bytes; we round to the conventional 128-byte particle record.
PARTICLE_BYTES: int = 128

#: Payload of one butterfly-barrier message.
BARRIER_BYTES: int = 16


class SimNetwork:
    """A set of ranks connected by a full crossbar of NIC links.

    Parameters
    ----------
    n_ranks:
        Number of hosts.
    nic:
        Latency/bandwidth model; defaults to the paper's original
        NS 83820 cards.
    per_message_overhead_us:
        Host-side protocol overhead charged to the sender per message
        (TCP/IP stack traversal), included in the latency figure by
        default.
    tracer:
        Telemetry tracer; defaults to the process-wide one.  Wire the
        tracer's ``virtual_clock`` to ``network.clock.elapsed`` (as
        :meth:`attach_tracer` does) to get virtual-time attribution of
        communication and barrier spans — the quantity figs. 16/18
        plot.
    """

    def __init__(
        self,
        n_ranks: int,
        nic: NICConfig = NIC_NS83820,
        per_message_overhead_us: float = 0.0,
        tracer: Tracer | None = None,
    ) -> None:
        self.clock = VirtualClock(n_ranks)
        self.nic = nic
        self.overhead_us = float(per_message_overhead_us)
        self.stats = MessageStats()
        self.ledger = CommLedger(n_ranks, nic=nic.name)
        self._tracer = tracer
        self._shifts: dict[tuple, Schedule] = {}

    def reset_stats(self) -> None:
        """Zero the traffic counters and the communication ledger
        without touching the clocks (used by the bench runner so
        per-trial counters never carry over)."""
        self.stats.reset()
        self.ledger.reset()

    @property
    def tracer(self) -> Tracer:
        return self._tracer if self._tracer is not None else get_tracer()

    def attach_tracer(self, tracer: Tracer) -> Tracer:
        """Bind a tracer to this network and point its virtual clock at
        the network's :class:`VirtualClock`; returns the tracer."""
        tracer.virtual_clock = lambda: self.clock.elapsed
        self._tracer = tracer
        return tracer

    @property
    def n_ranks(self) -> int:
        return self.clock.n_ranks

    # -- message rounds -------------------------------------------------------

    def message_time_us(self, nbytes):
        """Post-to-arrival time of one message (of each message, given
        an array of sizes)."""
        return message_time_us(self.nic, self.overhead_us, nbytes)

    def message_round(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        nbytes: np.ndarray,
        tag: int = 0,
    ) -> None:
        """One round of messages: ``src[i]`` sends ``nbytes[i]`` bytes
        to ``dst[i]``, all under one tag (negative: collective traffic).

        Every message is posted from its sender's clock as the round
        begins; then each receiver waits for its arrivals, in message
        order.  The clocks, counters, ledger and ``net.*`` metrics are
        bit for bit those of sending every message one at a time and
        then receiving every one.  A rank may send or receive several
        messages in one round; a message that must leave after another
        has arrived belongs in the next round.
        """
        src = np.asarray(src, dtype=np.intp)
        dst = np.asarray(dst, dtype=np.intp)
        nbytes = integral_sizes(nbytes).astype(np.int64)
        if src.ndim != 1 or not src.shape == dst.shape == nbytes.shape:
            raise ValueError("src, dst and nbytes must be 1-d and equally long")
        if (src == dst).any():
            raise ValueError("self-sends are not modelled")
        refuse_negative(nbytes)
        if src.size:
            tracer = self.tracer
            flight_us = self.message_time_us(nbytes)
            self.stats.record(src.size, int(nbytes.sum()))
            self.ledger.record_round(src, dst, nbytes, flight_us, collective=tag < 0)
            arrive = self.clock.now_many(src) + flight_us
            if tracer.enabled:
                self._observe(tracer, nbytes, flight_us,
                              self._recv_waits(dst, arrive))
            self.clock.wait_until_many(dst, arrive)

    def shift_rounds(
        self,
        shifts: Sequence[int],
        nbytes: np.ndarray,
        tags: Sequence[int],
    ) -> np.ndarray:
        """R consecutive shift rounds as one call: in round ``i`` every
        rank ``r`` sends ``nbytes[i, r]`` bytes to ``(r + shifts[i]) %
        p`` under ``tags[i]``, once the previous round has arrived.

        Clocks, counters, ledger and ``net.*`` metrics are bit for bit
        those of the R rounds posted one at a time, each sending in
        sender order and receiving in receiver order.  Returns the
        clocks before the first round and after each one, ``(R + 1, p)``.
        """
        shifts, tags = tuple(shifts), tuple(tags)
        if len(tags) != len(shifts):
            raise ValueError("need one row of n_ranks sizes and one tag per round")
        schedule = self._schedule(shifts, tags)
        nbytes = integral_sizes(nbytes)
        if nbytes.shape != schedule.nbytes.shape:
            raise ValueError("need one row of n_ranks sizes and one tag per round")
        schedule.nbytes[...] = nbytes
        tracer = self.tracer
        nbytes_total = network_tile._tile.shift_rounds(
            schedule, self.clock, self.ledger._store, self.nic, self.overhead_us)
        self.stats.record(schedule.m, nbytes_total)
        if tracer.enabled:
            for t, flight, nb, by in zip(schedule.history, schedule.flight,
                                         schedule.nbytes, schedule.by_receiver):
                self._observe(tracer, nb, flight, (t + flight)[by] - t)
        return schedule.history.copy()

    def _schedule(self, shifts: tuple[int, ...], tags: tuple[int, ...]) -> Schedule:
        """The schedule of consecutive shift rounds with these shifts and
        tags, built on first use (:class:`~repro.parallel.network_tile.Schedule`)."""
        schedule = self._shifts.get((shifts, tags))
        if schedule is None:
            schedule = self._shifts[shifts, tags] = Schedule(
                self.n_ranks, shifts, [tag < 0 for tag in tags])
        return schedule

    @staticmethod
    def _observe(tracer: Tracer, nbytes: np.ndarray, flight_us: np.ndarray,
                 waits: np.ndarray) -> None:
        """One round's ``net.*`` metrics, in the order its sends and then
        its receives (``waits``, in receive order) would record them."""
        tracer.count("net.messages", nbytes.size)
        tracer.count("net.bytes", int(nbytes.sum()))
        tracer.observe_many("net.message_bytes", nbytes)
        tracer.observe_many("net.message_us", flight_us)
        tracer.observe_many("net.recv_wait_us", waits[waits > 0])

    def _recv_waits(self, dst: np.ndarray, arrive: np.ndarray) -> np.ndarray:
        """How long each message's receive blocks when the receives run
        in message order: a rank's n-th arrival waits from the later of
        its clock and its earlier arrivals.  Each pass serves the first
        outstanding message of every receiver."""
        t = self.clock.snapshot()
        if len(set(dst.tolist())) == dst.size:  # nobody receives twice
            return arrive - t[dst]
        waits = np.empty_like(arrive)
        first = np.empty(self.n_ranks, dtype=np.intp)
        pending = np.arange(dst.size)
        while pending.size:
            # later writes win, so writing back to front leaves each
            # receiver's earliest outstanding message in its slot
            first[dst[pending[::-1]]] = pending[::-1]
            served = first[dst[pending]] == pending
            now = pending[served]
            waits[now] = arrive[now] - t[dst[now]]
            t[dst[now]] = np.maximum(t[dst[now]], arrive[now])
            pending = pending[~served]
        return waits

    # -- collectives ------------------------------------------------------------

    def barrier(self) -> None:
        """Butterfly barrier: log2(p) pairwise-exchange rounds.

        For non-power-of-two p, the standard dissemination variant is
        used (rank exchanges with (rank +/- 2^k) mod p), which has the
        same ceil(log2 p)-round cost
        (:func:`~repro.parallel.barrier.butterfly_rounds`).  The stages
        are one :meth:`shift_rounds` schedule; the arrivals, each stage's
        clock spread and the release are among the readings it leaves.
        """
        p = self.n_ranks
        if p == 1:
            return
        shifts, sizes, tags = self._barrier_schedule
        rounds = len(shifts)
        schedule = self._schedule(shifts, tags)
        tracer = self.tracer
        with tracer.span("net.barrier", phase=T_BARRIER, p=p) as span:
            clocks = self.shift_rounds(shifts, sizes, tags)
            release = self.clock.synchronize()
            record = self.ledger.record_barrier(
                clocks[0], release, rounds, schedule.readings[1:-1])
            if tracer.enabled:
                span.set(rounds=rounds, straggler=record.straggler,
                         skew_us=record.skew_us, sync_us=record.sync_us)
        self.stats.barriers += 1
        if tracer.enabled:
            tracer.count("net.barriers")
            tracer.count("net.barrier_rounds", rounds)
            tracer.observe("net.barrier_skew_us", record.skew_us)
            tracer.observe("net.barrier_sync_us", record.sync_us)

    @contextmanager
    def exchange_phase(self, kind: str, n_particles: int = 0):
        """Bracket one coherence exchange for the ledger.

        Snapshots the traffic counters and the virtual clock around the
        body; the delta becomes an annotated
        :class:`~repro.parallel.ledger.ExchangeRecord` (and an
        exchange event on the flight-recorder timeline).
        """
        t0 = self.clock.elapsed
        m0, b0 = self.stats.messages, self.stats.bytes
        yield
        self.ledger.record_exchange(
            kind,
            t0,
            self.clock.elapsed,
            messages=self.stats.messages - m0,
            nbytes=self.stats.bytes - b0,
            n_particles=n_particles,
        )

    def allgather(self, nbytes_each: int | np.ndarray, tag: int = -200) -> None:
        """Ring allgather: p-1 shifts after which every rank holds every
        rank's contribution, as one :meth:`shift_rounds` schedule.

        ``nbytes_each`` is the size of every rank's contribution, or one
        size per originating rank.  Only the traffic is simulated; the
        caller already holds the data.
        """
        shifts, origin = self._ring_schedule
        sizes = np.empty(self.n_ranks, dtype=np.int64)
        sizes[:] = integral_sizes(nbytes_each)
        self.shift_rounds(shifts, sizes[origin], (tag,) * len(shifts))

    @cached_property
    def _barrier_schedule(self) -> tuple:
        """The barrier's butterfly stages: shifts, ``(R, p)`` sizes, tags."""
        shifts = tuple(1 << stage for stage in range(butterfly_rounds(self.n_ranks)))
        sizes = np.full((len(shifts), self.n_ranks), BARRIER_BYTES)
        sizes.flags.writeable = False
        return shifts, sizes, tuple(-1 - k for k in shifts)

    @cached_property
    def _ring_schedule(self) -> tuple:
        """The ring allgather's p - 1 unit shifts, and per shift the rank
        whose contribution each rank forwards: at shift s it is the one
        that originated s - 1 hops upstream, what the rank received
        last."""
        ranks = np.arange(self.n_ranks)
        origin = (ranks - ranks[:-1, None]) % self.n_ranks
        origin.flags.writeable = False
        return (1,) * (self.n_ranks - 1), origin
