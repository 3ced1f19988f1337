"""Virtual-time message-passing network.

An mpi4py-flavoured interface (lower-case object send/recv plus
collectives, following the tutorial idioms) whose cost model is the
linear latency/bandwidth model of the paper's NICs: a message of
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
to max(own, arrival).  A ring shift or a butterfly stage is one round —
a handful of array operations whatever the rank count, where the same
traffic as ``p`` ``send``/``recv`` pairs costs ``p`` trips through the
interpreter for microseconds of virtual time.  A schedule of
consecutive shift rounds (a ring allgather's ``p - 1`` shifts, a
barrier's butterfly stages) is one call, :meth:`SimNetwork.shift_rounds`:
one size table, one ledger record, and only the clock recurrence left
as a loop over rounds.  Scalar ``send``/``recv``
remain for rank programs that talk one message at a time: ``send``
posts a round of one and parks the payload in a mailbox until ``recv``
advances the receiver.  The data really moves, so algorithms built on
top are checked for correctness, not just cost.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..config import NICConfig, NIC_NS83820
from ..telemetry import T_BARRIER, Tracer, get_tracer
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
        self._mailbox: dict[tuple[int, int, int], deque] = {}
        self._shifts: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}

    def reset_stats(self) -> None:
        """Zero the traffic counters and the communication ledger
        without touching the clocks or in-flight messages (used by the
        bench runner so per-trial counters never carry over)."""
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

    # -- point to point -------------------------------------------------------

    def message_time_us(self, nbytes):
        """Post-to-arrival time of one message (of each message, given
        an array of sizes)."""
        return (
            self.nic.rtt_latency_us / 2.0
            + self.overhead_us
            + nbytes / self.nic.bandwidth_mbs  # MB/s == bytes/us
        )

    def message_round(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        nbytes: np.ndarray,
        tag: int = 0,
        payloads: Sequence[Any] | None = None,
        recv_order: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """One round of messages: ``src[i]`` sends ``nbytes[i]`` bytes
        to ``dst[i]``, all under one tag (negative: collective traffic).

        Every message is posted from its sender's clock as the round
        begins; then each receiver waits for its arrivals.  That is
        what ``send`` for every message followed by ``recv`` for every
        message does, and the clocks, counters, ledger and ``net.*``
        metrics come out bit for bit the same.  A rank may send or
        receive several messages in one round; a message that must
        leave after another has arrived belongs in the next round.

        ``recv_order`` permutes the messages into the order their
        receivers call ``recv`` (default: the order given).  The clocks
        do not depend on it; the order ``net.recv_wait_us`` sees its
        observations in does.

        With ``payloads`` (one object per message) the data moves too:
        the result holds, per rank, the payload it received (``None``
        where it received nothing, the last one where several).
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
                order = slice(None) if recv_order is None else recv_order
                self._observe(tracer, nbytes, flight_us,
                              self._recv_waits(dst[order], arrive[order]))
            self.clock.wait_until_many(dst, arrive)
        if payloads is None:
            return None
        delivered = np.full(self.n_ranks, None, dtype=object)
        delivered[dst] = np.fromiter(payloads, dtype=object, count=src.size)
        return delivered

    def shift_round(
        self,
        k: int,
        nbytes: np.ndarray,
        tag: int = 0,
        payloads: Sequence[Any] | None = None,
    ) -> np.ndarray | None:
        """The round in which every rank ``r`` sends ``nbytes[r]`` bytes
        to rank ``(r + k) % p``: a ring shift (``k = 1``) or one
        butterfly stage (``k = 2**stage``); receives run in rank order."""
        src, dst, by_receiver = self._shift_table((k,))
        return self.message_round(
            src, dst, nbytes, tag, payloads, by_receiver[0])

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
        those of R :meth:`shift_round` calls.  Returns the clocks before
        the first round and after each one, ``(R + 1, p)``.
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

    def send(self, src: int, dst: int, payload: Any, nbytes: int, tag: int = 0) -> None:
        """Non-blocking send: a round of one message whose delivery
        waits in the mailbox for the matching :meth:`recv`."""
        if src == dst:
            raise ValueError("self-sends are not modelled")
        nbytes = np.array([nbytes])
        flight_us = self._post(np.array([src]), np.array([dst]), nbytes, tag < 0)
        tracer = self.tracer
        if tracer.enabled:
            self._observe(tracer, nbytes, flight_us)
        self._mailbox.setdefault((src, dst, tag), deque()).append(
            (self.clock.now(src) + float(flight_us[0]), payload))

    def recv(self, dst: int, src: int, tag: int = 0) -> Any:
        """Blocking receive: advances the receiver to the arrival time."""
        queue = self._mailbox.get((src, dst, tag))
        if not queue:
            raise RuntimeError(f"no message from {src} to {dst} with tag {tag}")
        t_arrive, payload = queue.popleft()
        wait_us = t_arrive - self.clock.now(dst)
        self.clock.wait_until(dst, t_arrive)
        tracer = self.tracer
        if tracer.enabled and wait_us > 0:
            tracer.observe("net.recv_wait_us", wait_us)
        return payload

    def _post(self, src: np.ndarray, dst: np.ndarray, nbytes: np.ndarray,
              collective: bool | np.ndarray) -> np.ndarray:
        """Count and ledger messages (``nbytes`` in the shape of their
        rounds, ``src``/``dst`` flat in the same order) and return their
        flight times in that shape — the one posting path of every round,
        schedule and scalar send."""
        flight_us = self.message_time_us(nbytes)
        self.stats.record(src.size, int(nbytes.sum()))
        self.ledger.record_round(src, dst, nbytes.ravel(), flight_us.ravel(),
                                 collective=collective)
        return flight_us

    @staticmethod
    def _observe(tracer: Tracer, nbytes: np.ndarray, flight_us: np.ndarray,
                 waits: np.ndarray | None = None) -> None:
        """One round's ``net.*`` metrics, in the order its sends and then
        its receives (``waits``, in receive order) would record them."""
        tracer.count("net.messages", nbytes.size)
        tracer.count("net.bytes", int(nbytes.sum()))
        tracer.observe_many("net.message_bytes", nbytes)
        tracer.observe_many("net.message_us", flight_us)
        if waits is not None:
            tracer.observe_many("net.recv_wait_us", waits[waits > 0])

    def _recv_waits(self, dst: np.ndarray, arrive: np.ndarray) -> np.ndarray:
        """How long each message's ``recv`` blocks when the receives run
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
        same ceil(log2 p)-round cost.  The stages are one
        :meth:`shift_rounds` schedule; each stage's clock spread is read
        from the clocks it returns.
        """
        p = self.n_ranks
        if p == 1:
            return
        tracer = self.tracer
        rounds = (p - 1).bit_length()
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

    def bcast(self, root: int, payload: Any, nbytes: int) -> list[Any]:
        """Binomial-tree broadcast (one round per tree level); returns
        the payload as seen by each rank."""
        p = self.n_ranks
        received = np.full(p, None, dtype=object)
        received[root] = payload
        reached = np.zeros(p, dtype=bool)
        reached[root] = True
        have = np.array([root])
        k = 1
        while have.size < p:
            dst = (have + k) % p
            fresh = ~reached[dst]
            src, dst = have[fresh], dst[fresh]
            delivered = self.message_round(
                src, dst, np.full(src.size, nbytes), tag=-100,
                payloads=received[src])
            received[dst] = delivered[dst]
            reached[dst] = True
            have = np.concatenate([have, dst])
            k *= 2
        return received.tolist()

    def allgather(
        self,
        payloads: Sequence[Any] | None,
        nbytes_each: int | np.ndarray,
        tag: int = -200,
    ) -> list[list[Any]] | None:
        """Ring allgather: p-1 shifts; every rank ends with all payloads.

        ``nbytes_each`` is the size of every rank's contribution, or one
        size per originating rank.  With ``payloads=None`` only the
        traffic is simulated (the caller already holds the data).  The
        p-1 shifts are one :meth:`shift_rounds` schedule either way:
        payloads do not change the timing, so they are forwarded round
        by round in memory.
        """
        p = self.n_ranks
        if payloads is not None and len(payloads) != p:
            raise ValueError("one payload per rank required")
        ranks = np.arange(p)
        # at shift s each rank forwards what it received last, the
        # contribution that originated s-1 hops upstream: row s-1 of the
        # size table holds those contributions' sizes
        sizes = np.empty(p, dtype=np.int64)
        sizes[:] = nbytes_each
        table = sizes[(ranks - ranks[:p - 1, None]) % p]
        self.shift_rounds([1] * (p - 1), table, [tag] * (p - 1))
        if payloads is None:
            return None
        # held[r, q]: rank r's copy of the payload that originated at q
        held = np.full((p, p), None, dtype=object)
        held[ranks, ranks] = np.fromiter(payloads, dtype=object, count=p)
        for shift in range(1, p):
            origin = (ranks - shift) % p
            held[ranks, origin] = held[(ranks - 1) % p, origin]
        return held.tolist()
