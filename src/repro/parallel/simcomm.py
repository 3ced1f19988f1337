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
barrier's butterfly stages) is one call, :meth:`SimNetwork.shift_rounds`:
one size table, one ledger record, and only the clock recurrence left
as a loop over rounds.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import NICConfig, NIC_NS83820
from ..telemetry import T_BARRIER, Tracer, get_tracer
from .barrier import butterfly_rounds, message_time_us
from .ledger import CommLedger
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
        self._shifts: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}

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
        nbytes = np.asarray(nbytes, dtype=np.int64)
        if src.ndim != 1 or not src.shape == dst.shape == nbytes.shape:
            raise ValueError("src, dst and nbytes must be 1-d and equally long")
        if (src == dst).any():
            raise ValueError("self-sends are not modelled")
        if src.size:
            tracer = self.tracer
            flight_us = self._post(src, dst, nbytes, tag < 0)
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
        src, dst, by_receiver = self._shift_table(tuple(shifts))
        nbytes = np.asarray(nbytes, dtype=np.int64)
        if nbytes.shape != by_receiver.shape or len(tags) != len(by_receiver):
            raise ValueError("need one row of n_ranks sizes and one tag per round")
        flight_us = self._post(
            src, dst, nbytes, np.repeat(np.asarray(tags) < 0, self.n_ranks))
        history = self.clock.shift_rounds(flight_us, by_receiver)
        tracer = self.tracer
        if tracer.enabled:
            for t, flight, nb, by in zip(history, flight_us, nbytes, by_receiver):
                self._observe(tracer, nb, flight, (t + flight)[by] - t)
        return history

    def _shift_table(self, shifts: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """Index tables of consecutive shift rounds, built on first use:
        every message's sender and receiver in round order, and per
        round the message each rank receives, ``(R, p)``."""
        table = self._shifts.get(shifts)
        if table is None:
            p = self.n_ranks
            k = np.array(shifts, dtype=np.intp)[:, None]
            if (k % p == 0).any():
                raise ValueError("self-sends are not modelled")
            ranks = np.arange(p)
            table = self._shifts[shifts] = (
                np.tile(ranks, k.size), ((ranks + k) % p).ravel(),
                (ranks - k) % p)
            for index in table:
                index.flags.writeable = False
        return table

    def _post(self, src: np.ndarray, dst: np.ndarray, nbytes: np.ndarray,
              collective: bool | np.ndarray) -> np.ndarray:
        """Count and ledger messages (``nbytes`` in the shape of their
        rounds, ``src``/``dst`` flat in the same order) and return their
        flight times in that shape — the one posting path of every round
        and schedule."""
        flight_us = self.message_time_us(nbytes)
        self.stats.record(src.size, int(nbytes.sum()))
        self.ledger.record_round(src, dst, nbytes.ravel(), flight_us.ravel(),
                                 collective=collective)
        return flight_us

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
        are one :meth:`shift_rounds` schedule; each stage's clock spread
        is read from the clocks it returns.
        """
        p = self.n_ranks
        if p == 1:
            return
        tracer = self.tracer
        rounds = butterfly_rounds(p)
        shifts = [1 << stage for stage in range(rounds)]
        with tracer.span("net.barrier", phase=T_BARRIER, p=p) as span:
            clocks = self.shift_rounds(
                shifts, np.full((rounds, p), BARRIER_BYTES),
                [-1 - k for k in shifts])
            after = clocks[1:]
            release = self.clock.synchronize()
            record = self.ledger.record_barrier(
                clocks[0], release, rounds,
                after.max(axis=1) - after.min(axis=1))
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
        p = self.n_ranks
        ranks = np.arange(p)
        # at shift s each rank forwards what it received last, the
        # contribution that originated s-1 hops upstream: row s-1 of the
        # size table holds those contributions' sizes
        sizes = np.empty(p, dtype=np.int64)
        sizes[:] = nbytes_each
        table = sizes[(ranks - ranks[:p - 1, None]) % p]
        self.shift_rounds([1] * (p - 1), table, [tag] * (p - 1))
