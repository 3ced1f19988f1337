"""Execution backends: where the force tiles of a blockstep run.

The paper's parallel algorithms (section 3.2: copy, ring, 2-D grid) all
cut one computation — the O(n_b x N) force sum on a block — into tiles,
and the GRAPE-6 host library gives the host one force call.  This
module is that one call for the simulated ranks.  A blockstep is made
of two things:

* **rank compute** — the force tiles, pure array->array calls of
  :func:`repro.forces.kernels.acc_jerk_pot_on_targets` on uploaded
  j-sets, or of :func:`repro.forces.kernels.resident_forces` on the
  arena's resident j-set (:meth:`ExecutionBackend.resident`, which the
  copy algorithm predicts in place), so they can run anywhere: the
  driver thread, a thread pool, or real worker processes.
* **virtual-time accounting** — sends, recvs, barriers, clock
  advances, ledger records, tracer spans.  This is cheap and
  order-sensitive, so it is *always* replayed by the single driver in
  deterministic rank-major order, regardless of where the compute ran.

That split is the bit-identity argument: the kernel is deterministic
given identical inputs (same numpy, same process image), each output
row depends only on its target and the tile's j-set (on both kernel
tiers), the dispatch hands the rows back in tile order, and every
virtual clock/ledger operation happens in exactly the interleaving the
sequential loops use.  Virtual-time trajectories, blockstep schedules,
comm-ledger summaries and final particle state are therefore bitwise
equal across all three backends (property-pinned by the invariants
matrix, ``tests/property/test_prop_invariants.py``).

The one dispatch is :meth:`ExecutionBackend.run_tasks`: a list of
:class:`Tile` records over the published arrays, answered by one
:class:`~repro.forces.kernels.ForceJerkResult` holding every tile's rows
in tile order.  The tiles are cut into one contiguous run per worker.
Unobserved, adjacent tiles of a run that continue each other's i rows
over one j-set — the copy algorithm's contiguous rank shares, each the
resident set's force call on its rows of the block — are one kernel
call: one call inline, one per worker on ``thread:k`` and
``process:k``, each worker through its own binding of the set.  An
attached observer (the rank observatory, which measures each rank's
tile) gets one call per tile.  Ring and 2-D grid
tiles differ in their j-sets and are one call each.

Backends
--------
``inline``
    Sequential execution in the driver thread — the reference and the
    default.
``thread``
    A ``ThreadPoolExecutor`` running one run of calls per worker over
    the same arrays.  The compiled pairwise tile releases the GIL for
    the whole tile; the Python around it still serializes.
``process``
    Persistent worker processes, each on a private pipe, over one POSIX
    shared-memory arena that the driver owns: it holds every published
    array, the resident j-set and every tile's output rows.  A dispatch
    is ONE message per worker (its run of calls: row slices or index
    arrays, flags and output offsets) and ONE reply per worker (its interaction count,
    and samples when observed); the worker writes its rows into the
    arena in place and creates no segment, so its cost is per worker,
    not per rank.  Measured floors and the crossover N are in
    ``docs/benchmarking.md``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import re
import time
from multiprocessing import get_context, resource_tracker, shared_memory
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

try:  # POSIX only; samples carry zeros where rusage is unavailable
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

from ..forces.kernels import (
    ForceJerkResult,
    ResidentSet,
    acc_jerk_pot_on_targets,
    resident_forces,
)

#: The selectable backend names, in preference order for docs/CLIs.
EXEC_BACKENDS = ("inline", "thread", "process")

#: The output rows of a dispatch, in the order a call writes them.
_OUTPUTS = (("acc", 3), ("jerk", 3), ("pot", None))
_FLOAT64 = np.dtype(np.float64)
_INT64 = np.dtype(np.int64)

#: ``Tile.j_rows`` of a tile on the resident j-set whose targets are the
#: set's own particles ``block[i_rows]`` (the published int64 ``block``).
RESIDENT_BLOCK = "block"
#: ``Tile.j_rows`` of a tile on the resident j-set whose targets are the
#: rows ``i_rows`` of the published ``ix``/``iv``.
RESIDENT_ROWS = "ix"


class Tile(NamedTuple):
    """One force tile, computed for ``rank``: the targets ``i_rows`` of
    the published ``ix``/``iv`` against the sources ``j_rows`` of the
    uploaded ``jx``/``jv``/``jm``; or, with ``j_rows`` one of
    :data:`RESIDENT_BLOCK` and :data:`RESIDENT_ROWS`, targets ``i_rows``
    of what that names against the whole resident j-set
    (:meth:`ExecutionBackend.resident`).

    ``i_rows`` is a ``slice(lo, hi)`` (explicit bounds, unit step) or an
    integer index array.  With ``exclude_self`` the kernel drops
    coincident pairs — set it when targets are also sources.
    """

    rank: int
    i_rows: Any
    j_rows: slice | str
    exclude_self: bool


def _forces(arena: Mapping[str, np.ndarray], tile: Tile, i_rows: Any,
            eps2: float, j_set: ResidentSet | None) -> ForceJerkResult:
    """The one kernel call: rows ``i_rows`` against ``tile``'s j-set,
    the resident one through ``j_set`` (the calling worker's binding).

    ``acc_jerk_pot_on_targets`` and ``resident_forces`` are looked up
    when called, so a test can replace the module attribute (a slow,
    failing or counting kernel) before a pool's workers fork.
    """
    j = tile.j_rows
    if j == RESIDENT_BLOCK:
        return resident_forces(j_set, None, None, arena["block"][i_rows], eps2,
                               tile.exclude_self)
    if j == RESIDENT_ROWS:
        return resident_forces(j_set, arena["ix"][i_rows], arena["iv"][i_rows], None,
                               eps2, tile.exclude_self)
    return acc_jerk_pot_on_targets(
        arena["ix"][i_rows], arena["iv"][i_rows],
        arena["jx"][j], arena["jv"][j], arena["jm"][j],
        eps2, exclude_self=tile.exclude_self)


def _plan(tiles: Sequence[Tile], workers: int, merge: bool):
    """Cut ``tiles`` into at most ``workers`` contiguous runs of kernel
    calls ``[tile, i_rows, first output row]``, the rows laid out in
    tile order.  With ``merge``, a tile that continues the previous
    call's i slice over the same j-set joins that call (rows are
    independent, so how they are cut into calls never changes a bit).
    Returns the runs and the number of output rows."""
    n = len(tiles)
    k = min(workers, n)
    runs, row = [], 0
    for w in range(k):
        calls: list[list] = []
        end = j_rows = exclude = None  # the last call's i stop while it can grow
        for tile in tiles[n * w // k:n * (w + 1) // k]:
            _, i, j, exclude_self = tile
            if i.__class__ is not slice:
                calls.append([tile, i, row])
                row += len(i)
                end = None
                continue
            lo, hi = i.start, i.stop
            # the rows a slice reserves must be the rows the kernel writes
            if lo is None or hi is None or hi < lo or i.step not in (None, 1):
                raise ValueError(f"tile of rank {tile.rank}: i rows {i!r} are not "
                                 "a slice(lo, hi) with lo <= hi and unit step")
            if lo == end and exclude_self == exclude and j == j_rows:
                last = calls[-1]
                last[1] = slice(last[1].start, hi)
            else:
                calls.append([tile, i, row])
                j_rows, exclude = j, exclude_self
            if merge:
                end = hi
            row += hi - lo
        runs.append(calls)
    return runs, row


# -- rank-observatory instrumentation ---------------------------------------

#: Per-thread rusage where the platform has it (Linux), so a sample's
#: context switches and faults are its own thread's, not the process's.
_RUSAGE_WHO = getattr(resource, "RUSAGE_THREAD", getattr(resource, "RUSAGE_SELF", 0))


def _monotonic_us() -> float:
    """Absolute CLOCK_MONOTONIC microseconds — shared across forked
    workers, so driver- and worker-side stamps share one time base."""
    return time.perf_counter() * 1.0e6


def _run(arena, out, calls, eps2, observed, j_set, attach_bytes=0):
    """One worker's run of calls, each call's rows written into the
    ``out`` arrays (acc, jerk, pot) from its first output row on, the
    resident j-set's through the worker's own binding ``j_set``.
    Returns the interactions and, when observed, one
    ``repro.rank_sample/1`` sample per call, ``attach_bytes`` (the arena
    bytes the worker newly attached) charged to the first.

    An observed call is *exactly* the unobserved one — the clocks only
    surround it, which is the bit-identity argument for observatory-on
    vs observatory-off runs: real wall (``time.perf_counter``), this
    thread's CPU time (``time.thread_time``, a nanosecond clock that does
    not charge concurrent tiles on a pool each other's time) and
    ``getrusage`` deltas.
    """
    interactions, samples = 0, []
    for tile, i_rows, row in calls:
        if not observed:
            res = _forces(arena, tile, i_rows, eps2, j_set)
        else:
            ru0 = resource.getrusage(_RUSAGE_WHO) if resource else None
            t0 = _monotonic_us()
            cpu0 = time.thread_time()
            res = _forces(arena, tile, i_rows, eps2, j_set)
            cpu_us = (time.thread_time() - cpu0) * 1.0e6
            wall_us = _monotonic_us() - t0
            ru1 = resource.getrusage(_RUSAGE_WHO) if resource else None
            samples.append({
                "rank": int(tile.rank),
                "pid": os.getpid(),
                "t_start_us": t0,
                "wall_us": wall_us,
                "cpu_us": cpu_us,
                "maxrss_kb": float(ru1.ru_maxrss) if ru1 else 0.0,
                "vol_ctx_switches": int(ru1.ru_nvcsw - ru0.ru_nvcsw) if ru1 else 0,
                "invol_ctx_switches": int(ru1.ru_nivcsw - ru0.ru_nivcsw) if ru1 else 0,
                "minor_faults": int(ru1.ru_minflt - ru0.ru_minflt) if ru1 else 0,
                "major_faults": int(ru1.ru_majflt - ru0.ru_majflt) if ru1 else 0,
                "attach_bytes": int(attach_bytes),
            })
            attach_bytes = 0
        end = row + len(res.pot)
        out[0][row:end] = res.acc
        out[1][row:end] = res.jerk
        out[2][row:end] = res.pot
        interactions += res.interactions
    return interactions, samples


class ExecutionBackend:
    """Where the force tiles run; see the module docstring.

    The contract every implementation honours:

    * :meth:`publish` makes named arrays visible to the kernel (``ix``
      / ``iv`` the targets, ``jx`` / ``jv`` / ``jm`` the sources,
      ``block`` the resident set's targets); re-publishing a name
      replaces it.
    * :meth:`resident` is the arena's one resident j-set, written in
      place by its user (:meth:`load_j`, or a predictor) and read by
      every tile on it.
    * :meth:`run_tasks` evaluates a list of :class:`Tile` records and
      returns their rows **in tile order** — the deterministic merge
      the bit-identity pin relies on.
    * :meth:`close` releases workers and shared memory; calling
      :meth:`publish` or :meth:`run_tasks` after ``close`` is a
      ``RuntimeError`` for pooled backends.

    Observability (:mod:`repro.telemetry.ranks`) is opt-in: with an
    observer attached (:meth:`attach_observer`), every ``run_tasks``
    hands it one report dict — backend name, driver-side dispatch wall,
    bytes published into the arena since the previous dispatch, and one
    sample per tile, each tile its own timed call.  Only the cut into
    calls and the clocks around them change; results never do
    (property-pinned).
    """

    name: str = "?"
    workers: int = 1

    #: Dispatch-report callback; ``None`` keeps instrumentation off.
    _observer: "Callable[[dict[str, Any]], None] | None" = None
    #: Arena bytes published since the last dispatch report.
    _publish_pending: int = 0
    #: Arena bytes published over the backend's lifetime.
    publish_bytes: int = 0
    _closed: bool = False
    #: Cuts of tile tuples: ``(id, merge) -> (tiles, runs, rows)``.
    _cuts: "dict | None" = None

    def publish(self, **arrays: np.ndarray) -> None:
        raise NotImplementedError

    def resident(self, n: int) -> ResidentSet:
        """The resident j-set of ``n`` particles (made when ``n`` is new):
        a :class:`~repro.forces.kernels.ResidentSet` over the arena's
        ``cj`` (6, n) and ``gm`` (n,), the same object from call to call
        while ``n`` and the arena stay, so that a binding on its arrays
        (the host predictor's) holds."""
        raise NotImplementedError

    def load_j(self, x: np.ndarray, v: np.ndarray, m: np.ndarray) -> None:
        """Copy (n, 3) ``x``, ``v`` and the ``G m`` of (n,) ``m`` into the
        resident j-set of n particles; the bytes count as published."""
        x, v, m = np.asarray(x), np.asarray(v), np.asarray(m)
        self.resident(len(m)).load(x, v, m)
        self._note_publish({"x": x, "v": v, "m": m})

    def run_tasks(self, tiles: "Sequence[Tile]", eps2: float) -> ForceJerkResult:
        """Evaluate ``tiles`` with softening ``eps2``: one result whose
        acc/jerk/pot rows are every tile's rows, tile after tile, and
        whose ``interactions`` is their sum.

        Unobserved, a worker's run of tiles that continue each other's
        i slices over one j-set is one kernel call — one inline, ``k``
        on ``thread:k`` or ``process:k`` for a block's contiguous rank
        shares; with an observer attached every tile is its own call,
        so each rank's tile is timed.  A slice ``i_rows`` without
        explicit bounds and unit step is a ``ValueError``.  A tuple of
        tiles is cut into calls once and the cut kept beside it (the
        copy algorithm's shares are one tuple per block size).
        """
        if self._closed:
            raise RuntimeError("backend is closed")
        observed = self._observer is not None
        t0 = _monotonic_us() if observed else 0.0
        if tiles.__class__ is tuple:
            runs, rows = self._cut(tiles, not observed)
        else:
            runs, rows = _plan(tiles, self.workers, not observed)
        if runs:
            result, samples = self._dispatch(runs, rows, eps2, observed)
        else:
            result = ForceJerkResult(np.empty((0, 3)), np.empty((0, 3)), np.empty(0), 0)
            samples = []
        if observed:
            report = {
                "backend": self.name,
                "workers": self.workers,
                "n_tasks": len(samples),
                "t_start_us": t0,
                "span_wall_us": _monotonic_us() - t0,
                "publish_bytes": self._publish_pending,
                "samples": samples,
            }
            self._publish_pending = 0
            self._observer(report)
        return result

    def _cut(self, tiles: tuple, merge: bool):
        """:func:`_plan` of ``tiles``, kept while ``tiles`` is (at most
        256 cuts)."""
        cuts = self._cuts
        if cuts is None:
            cuts = self._cuts = {}
        cut = cuts.get((id(tiles), merge))
        if cut is None or cut[0] is not tiles:
            if len(cuts) == 256:
                cuts.clear()
            cut = cuts[id(tiles), merge] = (tiles, *_plan(tiles, self.workers, merge))
        return cut[1], cut[2]

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def attach_observer(
        self, observer: "Callable[[dict[str, Any]], None] | None"
    ) -> None:
        """Install (or with ``None`` remove) the dispatch observer —
        typically :meth:`repro.telemetry.ranks.RankLedger.observe`."""
        self._observer = observer

    def detach_observer(self) -> None:
        self._observer = None

    def _note_publish(self, arrays: Mapping[str, np.ndarray]) -> None:
        nbytes = sum(int(a.nbytes) for a in arrays.values())
        self.publish_bytes += nbytes
        self._publish_pending += nbytes


class InlineBackend(ExecutionBackend):
    """Sequential in-driver execution (the default and reference)."""

    name = "inline"

    def __init__(self) -> None:
        self._arena: dict[str, np.ndarray] = {}
        #: The resident j-set, one binding of it a worker: ``[0]`` is
        #: :meth:`resident`'s, the others are over its arrays.
        self._sets: list[ResidentSet | None] = [None]

    def publish(self, **arrays: np.ndarray) -> None:
        if self._closed:
            raise RuntimeError("backend is closed")
        self._arena.update(arrays)
        self._note_publish(arrays)

    def resident(self, n: int) -> ResidentSet:
        j_set = self._sets[0]
        if j_set is None or j_set.n != n:
            if self._closed:
                raise RuntimeError("backend is closed")
            j_set = ResidentSet(n)
            self._sets = [j_set, *(ResidentSet(n, j_set.cj, j_set.gm)
                                   for _ in range(self.workers - 1))]
        return j_set

    def _dispatch(self, runs, rows, eps2, observed):
        if len(runs) == 1 and len(runs[0]) == 1 and not observed:
            tile, i_rows, _ = runs[0][0]  # one call: its rows are the result
            return _forces(self._arena, tile, i_rows, eps2, self._sets[0]), []
        out = (np.empty((rows, 3)), np.empty((rows, 3)), np.empty(rows))
        parts = self._map(runs, out, eps2, observed)
        return (ForceJerkResult(*out, sum(n for n, _ in parts)),
                [s for _, run_samples in parts for s in run_samples])

    def _map(self, runs, out, eps2, observed):
        return [_run(self._arena, out, calls, eps2, observed, self._sets[0])
                for calls in runs]


class ThreadBackend(InlineBackend):
    """Thread-pool of rank workers over the driver's arrays (zero-copy):
    the inline backend with its runs spread over ``workers`` threads.
    Run ``w`` calls the resident j-set through binding ``w``: the runs of
    a dispatch run at once, and a binding's staging buffers serve one
    call at a time."""

    name = "thread"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__()
        self.workers = int(workers) if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("need at least one worker")
        self._sets = [None] * self.workers
        self._pool = None

    def _map(self, runs, out, eps2, observed):
        if len(runs) == 1:
            return super()._map(runs, out, eps2, observed)
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-rank")
        futures = [self._pool.submit(_run, self._arena, out, calls, eps2, observed, j_set)
                   for calls, j_set in zip(runs, self._sets)]
        return [f.result() for f in futures]

    def close(self) -> None:
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# -- process backend ---------------------------------------------------------


class WorkerLost(RuntimeError):
    """A process-backend worker died; the backend has closed itself."""


def _destroy(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink a segment this process created.  One already
    unlinked from outside is dropped from the resource tracker instead,
    which would otherwise report it as leaked at exit."""
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:
        resource_tracker.unregister(shm._name, "shared_memory")


class _Arena:
    """The driver's one shared-memory segment: named arrays at fixed
    offsets, ``layout`` mapping each name to ``(offset, dtype, shape)``.

    A name that outgrows its room moves the whole arena to a new, larger
    segment under a new name — a grown room at least doubles, so a
    creeping block size costs a logarithmic number of moves — and the
    workers re-attach by name at their next dispatch.
    """

    def __init__(self) -> None:
        self.shm: shared_memory.SharedMemory | None = None
        self.rooms: dict[str, tuple[int, int]] = {}  # name -> (offset, bytes)
        self.layout: dict[str, tuple[int, str, tuple[int, ...]]] = {}

    def reserve(self, specs: Mapping[str, tuple[tuple[int, ...], np.dtype]]) -> None:
        """Give every name of ``specs`` (its shape and dtype) room and
        a layout entry, in at most one move."""
        grow = {}
        for key, (shape, dtype) in specs.items():
            nbytes = math.prod(shape) * dtype.itemsize
            room = self.rooms.get(key, (0, -1))[1]
            if room < nbytes:
                grow[key] = max(nbytes, 2 * room)
        if grow or self.shm is None:
            self._move(grow)
        for key, (shape, dtype) in specs.items():
            self.layout[key] = (self.rooms[key][0], dtype.str, shape)

    def array(self, key: str) -> np.ndarray:
        offset, dtype, shape = self.layout[key]
        return np.ndarray(shape, dtype, self.shm.buf, offset)

    def _move(self, grow: dict[str, int]) -> None:
        sizes = {key: room for key, (_, room) in self.rooms.items()}
        sizes.update(grow)
        rooms, end = {}, 0
        for key, nbytes in sizes.items():
            rooms[key] = (end, nbytes)
            end += -(-nbytes // 64) * 64
        old, self.shm = self.shm, shared_memory.SharedMemory(create=True, size=max(end, 1))
        if old is not None:
            for key, (offset, dtype, shape) in self.layout.items():
                if key not in grow:  # a grown name is about to be rewritten
                    np.ndarray(shape, dtype, self.shm.buf, rooms[key][0])[...] = \
                        np.ndarray(shape, dtype, old.buf, offset)
            _destroy(old)
        self.rooms = rooms

    def close(self) -> None:
        if self.shm is not None:
            _destroy(self.shm)
            self.shm = None


def _attached_run(buf, layout, calls, eps2, observed, attach_bytes, j_set):
    """A worker's run over the arena views of ``layout`` in ``buf``; the
    views die with this frame, so the segment can be closed later."""
    arena = {key: np.ndarray(shape, dtype, buf, offset)
             for key, (offset, dtype, shape) in layout.items()}
    out = [arena[key] for key, _ in _OUTPUTS]
    return _run(arena, out, calls, eps2, observed, j_set, attach_bytes)


def _resident_view(buf, layout) -> ResidentSet | None:
    """The resident j-set of ``layout`` in ``buf`` (None without one): a
    worker's own binding of it, kept while the segment and the set's
    layout are."""
    if "cj" not in layout:
        return None
    (cj, dtype, shape), (gm, _, (n,)) = layout["cj"], layout["gm"]
    return ResidentSet(n, np.ndarray(shape, dtype, buf, cj), np.ndarray((n,), dtype, buf, gm))


def _worker_loop(conn, inherited) -> None:
    """Worker main: one message in, one reply out, until the sentinel.

    A message is ``(arena name, layout, eps2, observed, calls)``; the
    worker attaches the arena when its name is new (closing the one it
    held), writes every call's rows into it in place and replies
    ``(True, (interactions, samples))`` — ``samples`` empty unless
    observed, ``attach_bytes`` charged to the run's first call — or
    ``(False, exception)``.  A forked worker inherits the driver-side
    ends of every pipe opened before it and the driver's mapping of the
    arena, and closes them first: holding a pipe end, it would never
    read a killed driver as EOF and would outlive it; holding the
    mapping, it would keep that segment's memory alive after the arena
    moved.
    """
    for handle in inherited:
        handle.close()
    shm = None  # the attached arena; exiting unmaps it
    j_set, j_layout = None, None  # the resident set's binding here, over ``shm``
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # the driver is gone
            return
        if message is None:
            return
        name, layout, eps2, observed, calls = message
        try:
            attach_bytes = 0
            if shm is None or shm.name != name:
                # a view holds no export of the segment, so closing it
                # unmaps what the binding's views point into: drop it first
                # (a moved arena may keep the set's layout)
                j_set, j_layout = None, None
                if shm is not None:
                    shm.close()
                    shm = None
                shm = shared_memory.SharedMemory(name=name)
                attach_bytes = shm.size
            if (layout.get("cj"), layout.get("gm")) != j_layout:
                j_set = _resident_view(shm.buf, layout)
                j_layout = layout.get("cj"), layout.get("gm")
            reply = True, _attached_run(
                shm.buf, layout, calls, eps2, observed, attach_bytes, j_set)
        except Exception as exc:  # a kernel's own: the driver re-raises it
            reply = False, exc
        conn.send(reply)
        reply = None  # an error's traceback holds arena views


class ProcessBackend(ExecutionBackend):
    """Persistent worker processes on private pipes over one
    driver-owned shared-memory arena.

    Workers start lazily (``fork`` where available, so they inherit the
    loaded interpreter; ``spawn`` otherwise) and persist across
    blocksteps.  ``publish`` memcpys each array into the arena.  The
    resident j-set lives in the arena too, written in place by the
    driver: a copy-algorithm blockstep publishes only the block's
    indices, 8 bytes a block particle, where an uploaded j-side costs
    56 bytes a particle.  ``run_tasks`` sends each worker its
    contiguous run of calls (the algorithms emit near-equal tiles in
    rank order, so that balances to within a tile), reads the replies
    in worker order and copies the rows out of the arena once.

    A kernel's exception is re-raised here with its own type once every
    reply of the dispatch has been read, and the backend stays usable; a
    dead worker raises :class:`WorkerLost` and the backend closes itself.
    """

    name = "process"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = int(workers) if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("need at least one worker")
        self._arena = _Arena()
        self._procs: list = []
        self._conns: list = []
        self._j: ResidentSet | None = None  # the driver's view of the resident set
        self._j_shm = None  # the segment it is a view of

    def _ensure_pool(self) -> list:
        if not self._procs:
            methods = multiprocessing.get_all_start_methods()
            ctx = get_context("fork" if "fork" in methods else "spawn")
            for _ in range(self.workers):
                ours, theirs = ctx.Pipe()
                self._conns.append(ours)
                proc = ctx.Process(target=_worker_loop, daemon=True,
                                   args=(theirs, [*self._conns, self._arena.shm]))
                proc.start()
                theirs.close()  # held by its worker alone, its death is our EOF
                self._procs.append(proc)
        return self._conns

    def publish(self, **arrays: np.ndarray) -> None:
        if self._closed:
            raise RuntimeError("backend is closed")
        arrays = {key: np.asarray(value) for key, value in arrays.items()}
        self._arena.reserve({key: (a.shape, a.dtype) for key, a in arrays.items()})
        for key, arr in arrays.items():
            self._arena.array(key)[...] = arr
        self._note_publish(arrays)

    def resident(self, n: int) -> ResidentSet:
        j_set, arena = self._j, self._arena
        if j_set is None or j_set.n != n or self._j_shm is not arena.shm:
            if self._closed:
                raise RuntimeError("backend is closed")
            # the block's indices and the outputs get room for all n
            # particles with the set, so no later blockstep moves the arena
            arena.reserve({"cj": ((6, n), _FLOAT64), "gm": ((n,), _FLOAT64),
                           "block": ((n,), _INT64), "acc": ((n, 3), _FLOAT64),
                           "jerk": ((n, 3), _FLOAT64), "pot": ((n,), _FLOAT64)})
            j_set = self._j = ResidentSet(n, arena.array("cj"), arena.array("gm"))
            self._j_shm = arena.shm
        return j_set

    def _dispatch(self, runs, rows, eps2, observed):
        arena = self._arena
        # the arena exists before the first fork, so the workers share
        # the driver's resource tracker instead of starting their own
        arena.reserve({key: ((rows, 3) if width else (rows,), _FLOAT64)
                       for key, width in _OUTPUTS})
        conns = self._ensure_pool()
        message = arena.shm.name, arena.layout, eps2, observed
        try:
            for w, calls in enumerate(runs):
                conns[w].send((*message, calls))
            replies = []
            for w in range(len(runs)):  # a plain loop: ``w`` names the lost worker
                replies.append(conns[w].recv())
        except (EOFError, OSError) as exc:
            proc = self._procs[w]
            proc.join(1.0)  # reaped, so the exit code is known
            self.close()
            raise WorkerLost(
                f"process backend worker {w} (pid {proc.pid}) died "
                f"with exit code {proc.exitcode}"
            ) from exc
        for ok, payload in replies:
            if not ok:
                raise payload
        out = [arena.array(key).copy() for key, _ in _OUTPUTS]
        return (ForceJerkResult(*out, sum(n for _, (n, _) in replies)),
                [s for _, (_, run_samples) in replies for s in run_samples])

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:  # that worker is already gone
                pass
        for proc in self._procs:
            proc.join(1.0)
            if proc.is_alive():  # SIGKILL: a forked worker may have
                proc.kill()      # inherited a handler that ignores SIGTERM
                proc.join()
        for conn in self._conns:
            conn.close()
        self._procs.clear()
        self._conns.clear()
        self._j = self._j_shm = None
        self._arena.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def parse_backend_spec(spec: Any) -> tuple[str, int | None]:
    """Split a backend spec string into ``(name, workers | None)``.

    ``spec`` is a name from :data:`EXEC_BACKENDS` with an optional
    ``:N`` worker count, ``N`` a plain decimal integer >= 1
    (``"process:4"``).  Anything else — an unknown name, ``"thread:0"``,
    ``"thread:+2"``, ``"thread: 2"``, ``"thread:2_0"`` — is a
    ``ValueError`` naming the offending spec, raised before any pool or
    thread exists.  The one parser: :func:`resolve_backend` builds from
    its result and the job-spec validator only calls it.
    """
    if not isinstance(spec, str):
        raise ValueError(f"not an execution backend: {spec!r}")
    name, colon, suffix = spec.partition(":")
    if name not in EXEC_BACKENDS:
        raise ValueError(
            f"unknown execution backend {name!r} in spec {spec!r} "
            f"(have {', '.join(EXEC_BACKENDS)})"
        )
    if not colon:
        return name, None
    if not re.fullmatch(r"[1-9][0-9]*", suffix):
        raise ValueError(
            f"malformed or non-positive worker count in backend spec "
            f"{spec!r} (need a plain decimal integer >= 1)"
        )
    return name, int(suffix)


def resolve_backend(
    spec: "str | ExecutionBackend | None",
    workers: int | None = None,
) -> ExecutionBackend:
    """Build (or pass through) an execution backend.

    ``spec`` is an :class:`ExecutionBackend` instance, ``None``
    (inline), or a spec string as :func:`parse_backend_spec` reads it;
    an explicit ``:N`` suffix wins over the ``workers`` argument.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        return InlineBackend()
    name, suffix = parse_backend_spec(spec)
    if name == "inline":
        return InlineBackend()
    cls = ThreadBackend if name == "thread" else ProcessBackend
    return cls(workers if suffix is None else suffix)
