"""Execution backends: where the force tiles of a blockstep run.

The paper's parallel algorithms (section 3.2: copy, ring, 2-D grid) all
cut one computation — the O(n_b x N) force sum on a block — into tiles,
and the GRAPE-6 host library gives the host one force call.  This
module is that one call for the simulated ranks.  A blockstep is made
of two things:

* **rank compute** — the force tiles, pure array->array calls of
  :func:`repro.forces.kernels.acc_jerk_pot_on_targets`, so they can run
  anywhere: the driver thread, a thread pool, or real worker processes.
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
over one j-set — the copy algorithm's contiguous rank shares — are one
kernel call: one call inline, one per worker on ``thread:k`` and
``process:k``.  An attached observer (the rank observatory, which
measures each rank's tile) gets one call per tile.  Ring and 2-D grid
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
    array and every tile's output rows.  A dispatch is ONE message per
    worker (its run of calls: row slices or index arrays, flags and
    output offsets) and ONE reply per worker (its interaction count,
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

from ..forces.kernels import ForceJerkResult, acc_jerk_pot_on_targets

#: The selectable backend names, in preference order for docs/CLIs.
EXEC_BACKENDS = ("inline", "thread", "process")

#: The output rows of a dispatch, in the order a call writes them.
_OUTPUTS = (("acc", 3), ("jerk", 3), ("pot", None))
_FLOAT64 = np.dtype(np.float64)


class Tile(NamedTuple):
    """One force tile: the targets ``i_rows`` of the published
    ``ix``/``iv`` against the sources ``j_rows`` of ``jx``/``jv``/``jm``,
    computed for ``rank``.

    ``i_rows`` is a ``slice(lo, hi)`` (explicit bounds, unit step) or an
    integer index array; ``j_rows`` is a slice.  With ``exclude_self``
    the kernel drops coincident pairs — set it when targets are also
    sources.
    """

    rank: int
    i_rows: Any
    j_rows: slice
    exclude_self: bool


def _forces(arena: Mapping[str, np.ndarray], tile: Tile, i_rows: Any,
            eps2: float) -> ForceJerkResult:
    """The one kernel call: rows ``i_rows`` against ``tile``'s j-set.

    ``acc_jerk_pot_on_targets`` is looked up when called, so a test can
    replace the module attribute (a slow, failing or counting kernel)
    before a pool's workers fork.
    """
    j = tile.j_rows
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


def _run(arena, out, calls, eps2, observed, attach_bytes=0):
    """One worker's run of calls, each call's rows written into the
    ``out`` arrays (acc, jerk, pot) from its first output row on.
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
            res = _forces(arena, tile, i_rows, eps2)
        else:
            ru0 = resource.getrusage(_RUSAGE_WHO) if resource else None
            t0 = _monotonic_us()
            cpu0 = time.thread_time()
            res = _forces(arena, tile, i_rows, eps2)
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
      / ``iv`` the targets, ``jx`` / ``jv`` / ``jm`` the sources);
      re-publishing a name replaces it.
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

    def publish(self, **arrays: np.ndarray) -> None:
        raise NotImplementedError

    def run_tasks(self, tiles: "Sequence[Tile]", eps2: float) -> ForceJerkResult:
        """Evaluate ``tiles`` with softening ``eps2``: one result whose
        acc/jerk/pot rows are every tile's rows, tile after tile, and
        whose ``interactions`` is their sum.

        Unobserved, a worker's run of tiles that continue each other's
        i slices over one j-set is one kernel call — one inline, ``k``
        on ``thread:k`` or ``process:k`` for a block's contiguous rank
        shares; with an observer attached every tile is its own call,
        so each rank's tile is timed.  A slice ``i_rows`` without
        explicit bounds and unit step is a ``ValueError``.
        """
        if self._closed:
            raise RuntimeError("backend is closed")
        observed = self._observer is not None
        t0 = _monotonic_us() if observed else 0.0
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

    def publish(self, **arrays: np.ndarray) -> None:
        if self._closed:
            raise RuntimeError("backend is closed")
        self._arena.update(arrays)
        self._note_publish(arrays)

    def _dispatch(self, runs, rows, eps2, observed):
        if len(runs) == 1 and len(runs[0]) == 1 and not observed:
            tile, i_rows, _ = runs[0][0]  # one call: its rows are the result
            return _forces(self._arena, tile, i_rows, eps2), []
        out = (np.empty((rows, 3)), np.empty((rows, 3)), np.empty(rows))
        parts = self._map(runs, out, eps2, observed)
        return (ForceJerkResult(*out, sum(n for n, _ in parts)),
                [s for _, run_samples in parts for s in run_samples])

    def _map(self, runs, out, eps2, observed):
        return [_run(self._arena, out, calls, eps2, observed) for calls in runs]


class ThreadBackend(InlineBackend):
    """Thread-pool of rank workers over the driver's arrays (zero-copy):
    the inline backend with its runs spread over ``workers`` threads."""

    name = "thread"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__()
        self.workers = int(workers) if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("need at least one worker")
        self._pool = None

    def _map(self, runs, out, eps2, observed):
        if len(runs) == 1:
            return super()._map(runs, out, eps2, observed)
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-rank")
        futures = [self._pool.submit(_run, self._arena, out, calls, eps2, observed)
                   for calls in runs]
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


def _attached_run(buf, layout, calls, eps2, observed, attach_bytes):
    """A worker's run over the arena views of ``layout`` in ``buf``; the
    views die with this frame, so the segment can be closed later."""
    arena = {key: np.ndarray(shape, dtype, buf, offset)
             for key, (offset, dtype, shape) in layout.items()}
    out = [arena[key] for key, _ in _OUTPUTS]
    return _run(arena, out, calls, eps2, observed, attach_bytes)


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
                if shm is not None:
                    shm.close()
                    shm = None
                shm = shared_memory.SharedMemory(name=name)
                attach_bytes = shm.size
            reply = True, _attached_run(
                shm.buf, layout, calls, eps2, observed, attach_bytes)
        except Exception as exc:  # a kernel's own: the driver re-raises it
            reply = False, exc
        conn.send(reply)
        reply = None  # an error's traceback holds arena views


class ProcessBackend(ExecutionBackend):
    """Persistent worker processes on private pipes over one
    driver-owned shared-memory arena.

    Workers start lazily (``fork`` where available, so they inherit the
    loaded interpreter; ``spawn`` otherwise) and persist across
    blocksteps.  ``publish`` memcpys each array into the arena — ~56
    bytes/particle for the j-side per blockstep.  ``run_tasks`` sends
    each worker its contiguous run of calls (the algorithms emit
    near-equal tiles in rank order, so that balances to within a tile),
    reads the replies in worker order and copies the rows out of the
    arena once.

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
