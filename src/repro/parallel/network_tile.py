"""The simulated network's bookkeeping, in two calls and two tiers.

A blockstep of the copy algorithm on p hosts posts two schedules of
shift rounds (:meth:`SimNetwork.shift_rounds
<repro.parallel.simcomm.SimNetwork.shift_rounds>`): the ring allgather's
p - 1 shifts and the butterfly barrier's log2 p stages.  What the host
does for each is bookkeeping, no physics: every message's flight time,
the clock recurrence ``t = max(t, (t + flight)[by_receiver])`` round by
round, the clock readings the barrier record and the exchange bracket
keep, and the append to the ledger's round log; and, every
:data:`~repro.parallel.ledger.ROUND_LOG_CAP` messages, the ledger's fold
of that log into its link rows.  The paper's section 4.4 found this
kind of fixed per-message host cost to dominate a small-N blockstep,
and it is the term this module takes out of Python.  Two functions
serve it,

* ``shift_rounds`` - one schedule (a :class:`Schedule`) run on a
  clock and a link store;
* ``fold`` - the float half of the link store's fold: bytes, and the
  sums, sums of squares and extrema of both histogram columns, in
  message order,

and like the other tiles (:mod:`repro.forces.kernels`,
:mod:`repro.hardware.pipeline`, :mod:`repro.core.hermite_tile`) each is
two tiers with one behaviour.  The numpy tier (:data:`NUMPY_TILE`) is
the reference and what runs without a compiler:
:meth:`VirtualClock.shift_rounds
<repro.parallel.virtualtime.VirtualClock.shift_rounds>` and
:meth:`LinkStore.record <repro.parallel.ledger.LinkStore.record>` for a
schedule, ``ufunc.at`` through ``_HistColumns.fold`` for the fold.
``network_tile.c`` computes the same bits in one call each: every step
is a sequential IEEE operation in a fixed order (argued at the top of
the C file), which is checked when the library is loaded
(:func:`_self_check`).  :data:`NETWORK_TIER` / :data:`NETWORK_TIER_REASON`
say which tier serves this process.  Nothing selects one.

What outlives a call is bound once (:class:`_Bound`): a schedule's
tables and buffers, the clock and the round log, addressed into the
``struct schedule`` the C entry point reads, and held.  A call re-checks
only that the clock, the log and the NIC are the bound ones.

A message size that cannot be real - negative, not an integer, not
finite - is refused with :class:`MessageSizeError` on every posting
path, before anything is written; the compiled tier finds a negative
size inside its loop and answers which message it was.
"""

from __future__ import annotations

from ctypes import Structure, addressof, byref, c_double, c_int64, c_ssize_t, c_void_p
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..config import NICConfig
from ..forces.compiled import TileUnavailable, address, entry_point, load_library
from .barrier import message_time_us


class MessageSizeError(ValueError):
    """A message size that cannot be real: negative, not an integer, or
    not finite."""


def integral_sizes(nbytes) -> np.ndarray:
    """``nbytes`` as an integer array, or :class:`MessageSizeError` if a
    size is not finite or not a whole number of bytes an int64 holds.
    (Negative sizes are refused where the sizes are read: the compiled
    tier does it inside its loop.)"""
    sizes = np.asarray(nbytes)
    if sizes.dtype.kind in "iub":
        return sizes
    with np.errstate(invalid="ignore"):
        real = np.abs(sizes) < 2.0**63
        whole = real & (sizes == np.trunc(sizes))
    if not whole.all():
        bad = sizes.ravel()[np.argmin(whole.ravel())].item()
        raise MessageSizeError(
            f"message size {bad!r} is not a finite whole number of bytes")
    return sizes


def negative_size(nbytes: np.ndarray, k: int) -> MessageSizeError:
    """The error for message ``k`` (in message order) of ``nbytes``."""
    return MessageSizeError(
        f"message {k} has a negative size ({int(nbytes.flat[k])} bytes)")


def refuse_negative(nbytes: np.ndarray) -> None:
    """:class:`MessageSizeError` for the first negative size, in message
    order."""
    negative = nbytes.ravel() < 0
    if negative.any():
        raise negative_size(nbytes, int(np.argmax(negative)))


class Schedule:
    """R consecutive shift rounds on p ranks, built once: in round ``i``
    rank ``r`` sends to ``(r + shifts[i]) % p``, collective or not per
    round.  A run reads :attr:`nbytes`, which the caller fills, and
    leaves each message's flight time, the clocks before the first round
    and after each one, and the readings - the slowest clock before,
    every round's spread after it, the slowest clock after."""

    def __init__(self, p: int, shifts: Sequence[int], collective: Sequence[bool]) -> None:
        if any(k % p == 0 for k in shifts):
            raise ValueError("self-sends are not modelled")
        # the tables in Python integers: built once, and an import-time
        # self-check that builds some need not page in numpy's integer
        # remainder loops for a process that never simulates a network
        self.rounds, self.p, self.m = len(shifts), p, len(shifts) * p
        self.src = np.tile(np.arange(p, dtype=np.int64), self.rounds)
        self.dst = np.array([(r + k) % p for k in shifts for r in range(p)], dtype=np.int64)
        #: per round, the message each rank receives, ``(R, p)``
        self.by_receiver = np.array(
            [(r - k) % p for k in shifts for r in range(p)], dtype=np.intp
        ).reshape(self.rounds, p)
        self.collective = np.repeat(np.array(collective, dtype=bool), p)
        for table in (self.src, self.dst, self.by_receiver, self.collective):
            table.flags.writeable = False
        self.nbytes = np.zeros((self.rounds, p), dtype=np.int64)
        self.flight = np.zeros((self.rounds, p))
        self.history = np.zeros((self.rounds + 1, p))
        self.readings = np.zeros(self.rounds + 2)
        #: the compiled tier's binding (:class:`_Bound`), made on first use
        self.bound = None


def numpy_shift_rounds(schedule: Schedule, clock, store, nic, overhead_us: float) -> int:
    """Run ``schedule`` on ``clock`` and the link store ``store`` with the
    flight times of ``nic`` and ``overhead_us``, and return the bytes of
    all its messages: the reference tier."""
    s = schedule
    refuse_negative(s.nbytes)
    flight = message_time_us(nic, overhead_us, s.nbytes)
    store.record(s.src, s.dst, s.nbytes.ravel(), flight.ravel(), s.collective)
    history = clock.shift_rounds(flight, s.by_receiver)
    after = history[1:]
    s.flight[...], s.history[...] = flight, history
    s.readings[0] = history[0].max()
    s.readings[1:-1] = after.max(axis=1) - after.min(axis=1)
    s.readings[-1] = history[-1].max()
    return int(s.nbytes.sum())


def numpy_fold(store, rows: np.ndarray, nbytes: np.ndarray, flight_us: np.ndarray) -> None:
    """Bytes and both histogram columns of ``rows`` of the link store
    ``store``, one message at a time in order: the reference tier."""
    np.add.at(store.bytes, rows, nbytes)
    store.size.fold(rows, np.asarray(nbytes, dtype=float))
    store.flight.fold(rows, flight_us)


class NetworkTile(NamedTuple):
    """One tier of the pair (:func:`numpy_shift_rounds` and
    :func:`numpy_fold` document the signatures)."""

    shift_rounds: Callable
    fold: Callable


#: The numpy tier: the reference, and what runs without a compiler.
NUMPY_TILE = NetworkTile(numpy_shift_rounds, numpy_fold)

_NO_ROOM = -1  # network_shift_rounds' answer when the log cannot take a run


class _Network(Structure):
    """``struct network`` of ``network_tile.c``."""

    _fields_ = [("p", c_ssize_t), ("base", c_double), ("bandwidth", c_double),
                ("t", c_void_p), ("capacity", c_ssize_t)] + [
        (name, c_void_p)
        for name in ("log_src", "log_dst", "log_nbytes", "log_flight", "log_collective")
    ]


class _Schedule(Structure):
    """``struct schedule`` of ``network_tile.c``."""

    _fields_ = [("net", c_void_p), ("rounds", c_ssize_t)] + [
        (name, c_void_p) for name in (
            "src", "dst", "by_receiver", "collective", "nbytes", "flight", "history",
            "readings")
    ] + [("total", c_int64), ("elapsed", c_double)]


#: The float fields of ``ledger._HistColumns`` the compiled fold writes.
_HIST_FIELDS = ("total", "sq_total", "min", "max")


class _HistColumns(Structure):
    """``struct hist_columns`` of ``network_tile.c``."""

    _fields_ = [(name, c_void_p) for name in _HIST_FIELDS]


class _Bound:
    """A schedule bound to one clock, round log and NIC: the structs the
    compiled entry point reads, and references to every array they point
    into, so that no pointer outlives its array.  Never changed; a call
    that meets another clock, log or NIC makes a new one."""

    __slots__ = ("t", "log", "nic", "overhead_us", "network", "schedule", "pointer")

    def __init__(self, s: Schedule, t: np.ndarray, log: tuple, nic, overhead_us: float):
        self.t, self.log, self.nic, self.overhead_us = t, log, nic, overhead_us
        self.network = _Network(
            s.p, nic.rtt_latency_us / 2.0 + overhead_us, nic.bandwidth_mbs, address(t),
            log[0].size, *map(address, log))
        self.schedule = _Schedule(addressof(self.network), s.rounds, *map(address, (
            s.src, s.dst, s.by_receiver, s.collective, s.nbytes, s.flight, s.history,
            s.readings)))
        self.pointer = byref(self.schedule)

    def holds(self, t: np.ndarray, log: tuple, nic, overhead_us: float) -> bool:
        return (self.t is t and self.log is log and self.nic is nic
                and self.overhead_us == overhead_us)


def _bind(library) -> NetworkTile:
    """``network_tile.c`` behind the numpy tier's two signatures."""
    shift = entry_point(library, "network_shift_rounds", [c_void_p, c_ssize_t], c_ssize_t)
    fold_sums = entry_point(library, "ledger_fold", [c_ssize_t] + [c_void_p] * 6)

    def shift_rounds(schedule, clock, store, nic, overhead_us):
        offset = store.reserve(schedule.m)
        if offset is None:  # more messages than the log holds: folded directly
            return numpy_shift_rounds(schedule, clock, store, nic, overhead_us)
        t, log = clock._t, store._log
        bound = schedule.bound
        if bound is None or not bound.holds(t, log, nic, overhead_us):
            bound = schedule.bound = _Bound(schedule, t, log, nic, overhead_us)
        answer = shift(bound.pointer, offset)
        if answer:
            if answer == _NO_ROOM:
                raise RuntimeError("the round log cannot take the schedule")
            raise negative_size(schedule.nbytes, answer - 1)
        store._pending = offset + schedule.m
        clock._elapsed = bound.schedule.elapsed
        return bound.schedule.total

    def fold(store, rows, nbytes, flight_us):
        rows = np.ascontiguousarray(rows, dtype=np.intp)
        nbytes = np.ascontiguousarray(nbytes, dtype=np.int64)
        flight_us = np.ascontiguousarray(flight_us, dtype=np.float64)
        if rows.size:
            size, flight = (
                _HistColumns(*(address(getattr(columns, name)) for name in _HIST_FIELDS))
                for columns in (store.size, store.flight))
            fold_sums(rows.size, address(rows), address(nbytes), address(flight_us),
                      address(store.bytes), byref(size), byref(flight))
        store.size.count(rows, nbytes.astype(float))
        store.flight.count(rows, flight_us)

    return NetworkTile(shift_rounds, fold)


#: Rank counts of the load-time self-check: around a power of two, and
#: the ``cluster_latency`` shape.
SELF_CHECK_RANKS = (2, 5, 16, 17)


#: A NIC whose flight times are inexact in every part, and the overhead.
SELF_CHECK_NIC = NICConfig("self-check", rtt_latency_us=67.0, bandwidth_mbs=105.0)
SELF_CHECK_OVERHEAD_US = 1.7


def _self_check_run(tile: NetworkTile, p: int, poison: bool) -> bytes:
    """Every array a program of schedules leaves on ``tile``: a ring
    allgather of uneven, zero, equal and 2^53 + 1 byte shares from uneven
    clocks, a barrier, the same allgather from the equal clocks the
    barrier's release leaves, and a size refused; with ``poison`` one
    clock is NaN."""
    from .ledger import LinkStore
    from .virtualtime import VirtualClock

    clock, store = VirtualClock(p), LinkStore(p)
    wave = np.sin(np.arange(1.0, p + 1) ** 2)  # irregular, no RNG (see forces.compiled)
    for rank, dt in enumerate(np.abs(wave) * 300.0):
        clock.advance(rank, dt)
    if poison:
        clock.advance(p // 2, np.nan)
    ring = Schedule(p, (1,) * (p - 1), (False,) * (p - 1))
    shares = (np.abs(wave) * 1e6).astype(np.int64)
    shares[::3], shares[1::4] = 2**53 + 1, 0
    ring.nbytes[...] = [[shares[(r - s) % p] for r in range(p)] for s in range(p - 1)]
    stages = (1 << np.arange((p - 1).bit_length())).tolist()
    barrier = Schedule(p, stages, (True,) * len(stages))
    barrier.nbytes[...] = 16
    out = []
    for schedule in (ring, barrier, ring):
        total = tile.shift_rounds(
            schedule, clock, store, SELF_CHECK_NIC, SELF_CHECK_OVERHEAD_US)
        out += [schedule.flight, schedule.history, schedule.readings, clock._t,
                np.array([clock.elapsed]), np.array([total])]
        if schedule is barrier:
            clock.synchronize()
    ring.nbytes[-1, -2] = -1
    try:
        tile.shift_rounds(ring, clock, store, SELF_CHECK_NIC, SELF_CHECK_OVERHEAD_US)
    except MessageSizeError as exc:
        out.append(np.frombuffer(str(exc).encode(), dtype=np.uint8))
    out += [clock._t, np.array([store._pending])] + [c[:store._pending] for c in store._log]
    return b"".join(a.tobytes() for a in out)


def _self_check_fold(tile: NetworkTile) -> bytes:
    """Every column of a link store three folds on ``tile`` leave: rows
    and bin columns that first appear between folds, sizes 0 .. 2^53 + 1,
    equal values, and NaN and infinite flight times.  (The rows are
    laid out by hand: finding them is the store's own business, the same
    on both tiers.)"""
    from .ledger import LinkStore

    store = LinkStore(4)
    wave = np.sin(np.arange(1.0, 40.0) ** 2)
    for n_links, n in ((2, 7), (5, 13), (8, 19)):
        old_rows = np.arange(store.bytes.size)
        store.bytes = np.concatenate((store.bytes, np.zeros(n_links - old_rows.size, np.int64)))
        store.size.spread(old_rows, n_links)
        store.flight.spread(old_rows, n_links)
        rows = np.resize(np.arange(n_links), n)
        nbytes = (np.abs(wave[:n]) * 10.0 ** n_links).astype(np.int64)
        nbytes[::5] = 2**53 + 1
        nbytes[1] = 0
        flight = wave[:n] * 1e3
        flight[2:4] = flight[1]
        if n_links == 5:
            flight[[4, 9]] = np.nan, -np.inf
        with np.errstate(invalid="ignore"):  # the NaN is deliberate
            tile.fold(store, rows, nbytes, flight)
    return b"".join(a.tobytes() for a in (
        store.bytes, *(getattr(columns, name) for columns in (store.size, store.flight)
                       for name in (*_HIST_FIELDS, "bins"))))


def _self_check(tile: NetworkTile) -> None:
    """Refuse ``tile`` unless it leaves every array as :data:`NUMPY_TILE`
    does, byte for byte: the schedules of :func:`_self_check_run` on
    :data:`SELF_CHECK_RANKS`, with and without a NaN clock, and the folds
    of :func:`_self_check_fold`."""
    for p in SELF_CHECK_RANKS:
        for poison in (False, True):
            if _self_check_run(tile, p, poison) != _self_check_run(NUMPY_TILE, p, poison):
                raise TileUnavailable(
                    f"self-check: compiled tile differs from the numpy code on "
                    f"{p} ranks, NaN clock: {poison}")
    if _self_check_fold(tile) != _self_check_fold(NUMPY_TILE):
        raise TileUnavailable("self-check: compiled fold differs from the numpy fold")


def resolve_network_tier() -> tuple[NetworkTile, str, str]:
    """``(tile, NETWORK_TIER, NETWORK_TIER_REASON)``: the compiled pair if
    it builds, loads and passes :func:`_self_check`, else the numpy pair
    and why.  As :func:`repro.forces.kernels.resolve_kernel_tier`: run
    once, at import, and nothing the loader meets may escape it."""
    try:
        library, built = load_library("network_tile")
        tile = _bind(library)
        _self_check(tile)
    except TileUnavailable as exc:
        return NUMPY_TILE, "numpy", str(exc)
    except Exception as exc:
        return NUMPY_TILE, "numpy", f"loader failed: {exc!r}"
    return tile, "c", built


#: The pair serving this process - :data:`NUMPY_TILE`, or
#: ``network_tile.c`` behind the same signatures - and which tier it is
#: (``"c"`` | ``"numpy"``) and why.  Resolved once, at import; the tiers
#: differ in speed only.  :class:`~repro.parallel.simcomm.SimNetwork` and
#: :class:`~repro.parallel.ledger.LinkStore` call through ``_tile``.
_tile, NETWORK_TIER, NETWORK_TIER_REASON = resolve_network_tier()
