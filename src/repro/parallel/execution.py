"""Execution backends: run simulated ranks on real cores.

The parallel algorithms in this package used to interleave every
simulated rank inside central ``for r in range(p)`` loops — a
16-host sweep was serialized p-fold on the driver.  This module splits
one blockstep into the two things it is actually made of:

* **rank compute** — the pure O(n_b x N / p) force kernels each rank
  evaluates.  These are side-effect-free array->array functions
  (registered in :data:`KERNELS`), so they can run anywhere: the
  driver thread, a thread pool, or real worker processes.
* **virtual-time accounting** — sends, recvs, barriers, clock
  advances, ledger records, tracer spans.  This is cheap and
  order-sensitive, so it is *always* replayed by the single driver in
  deterministic rank-major order, regardless of where the compute ran.

That split is the bit-identity argument: the numeric kernels are
deterministic given identical inputs (same numpy, same process image),
the driver gathers their results in task order, and every virtual
clock/ledger operation happens in exactly the interleaving the old
central loops used.  Virtual-time trajectories, blockstep schedules,
comm-ledger summaries and final particle state are therefore bitwise
equal across all three backends (property-pinned by the invariants
matrix, ``tests/property/test_prop_invariants.py``).

Row-split work — the copy algorithm's contiguous rank shares of one
block against all j-particles — goes through
:meth:`ExecutionBackend.run_shares`, which cuts the ranks into one
contiguous run per worker when nothing times them one by one: one
kernel call inline, one per worker on a pool.  Rows are independent on
both kernel tiers, so results never differ from one call per rank; an
attached observer (the rank observatory, which measures each rank's
tile) gets one call per rank.  Ring and 2-D grid tiles differ in their
j-sets and run one task each through :meth:`ExecutionBackend.run_tasks`.

Backends
--------
``inline``
    Sequential execution in the driver thread — the reference and the
    default.
``thread``
    A ``ThreadPoolExecutor`` of rank workers over the same arrays.  The
    compiled pairwise tile releases the GIL for the whole tile; the
    per-task Python around it still serializes.
``process``
    Persistent worker processes, each on a private pipe.  Operands
    travel through POSIX shared memory published once per blockstep; a
    dispatch is ONE message per worker (a contiguous slice of the
    tasks: row selectors and scalars) and ONE reply per worker (a few
    integers — the acc/jerk/pot rows come back through each worker's
    shared output segment), so its cost is per worker, not per rank.
    Measured floors and the crossover N are in ``docs/benchmarking.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import time
from dataclasses import dataclass, field
from multiprocessing import get_context, shared_memory
from typing import Any, Callable, Mapping

import numpy as np

try:  # POSIX only; samples carry zeros where rusage is unavailable
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

from ..forces.kernels import acc_jerk_pot_on_targets

#: The selectable backend names, in preference order for docs/CLIs.
EXEC_BACKENDS = ("inline", "thread", "process")

#: Registered compute kernels, keyed by name.  Process workers import
#: this module and look tasks up here, so only the key crosses the
#: pipe — kernels must be module-level and deterministic.
KERNELS: dict[str, Callable[..., Any]] = {}


def kernel(name: str) -> Callable[[Callable], Callable]:
    """Register a compute kernel under ``name`` (decorator)."""

    def register(fn: Callable) -> Callable:
        KERNELS[name] = fn
        return fn

    return register


#: Row selectors are picklable descriptions of array subsets, so a
#: task never carries the subset itself: ``None`` (all rows),
#: ``("range", lo, hi)``, ``("stride", start, stop, step)``, or an
#: explicit integer index array (small: at most one entry per block
#: member).
RowSel = Any


def select_rows(arr: np.ndarray, rows: RowSel) -> np.ndarray:
    """Apply a row selector to an array."""
    if rows is None:
        return arr
    if isinstance(rows, tuple):
        if rows[0] == "range":
            return arr[rows[1]:rows[2]]
        if rows[0] == "stride":
            return arr[rows[1]:rows[2]:rows[3]]
        raise ValueError(f"unknown row selector {rows[0]!r}")
    return arr[rows]


@dataclass(frozen=True)
class RankTask:
    """One rank's compute work for one blockstep phase.

    ``fn`` keys into :data:`KERNELS`; ``rank`` is the logical rank the
    result belongs to (the driver replays its accounting in rank-major
    order); ``kwargs`` are small picklable arguments — row selectors
    and scalars, never particle arrays (those live in the published
    arena).
    """

    fn: str
    rank: int
    kwargs: dict[str, Any] = field(default_factory=dict)


@kernel("forces")
def forces_kernel(
    arena: Mapping[str, np.ndarray],
    *,
    i_rows: RowSel = None,
    j_rows: RowSel = None,
    eps2: float,
    exclude_self: bool,
) -> dict[str, Any]:
    """Pairwise acc/jerk/pot of one (i-subset, j-subset) tile.

    Reads targets from the ``ix``/``iv`` arena arrays and sources from
    ``jx``/``jv``/``jm``; the selectors say which tile this call owns.
    Identical inputs to the old per-rank ``DirectSummation`` engines
    (the kernel copies every layout into its own component-major
    blocks, and each output row depends only on that target and the
    j-subset, on both kernel tiers), hence bitwise identical outputs —
    however the i-rows are cut into calls.
    """
    res = acc_jerk_pot_on_targets(
        select_rows(arena["ix"], i_rows),
        select_rows(arena["iv"], i_rows),
        select_rows(arena["jx"], j_rows),
        select_rows(arena["jv"], j_rows),
        select_rows(arena["jm"], j_rows),
        eps2,
        exclude_self=exclude_self,
    )
    return {"acc": res.acc, "jerk": res.jerk, "pot": res.pot,
            "interactions": res.interactions}


def _in_row_order(parts: list[dict[str, Any]]) -> dict[str, Any]:
    """The parts of a row-split result as one: arrays concatenated in
    part order, counts summed."""
    if len(parts) == 1:
        return parts[0]
    return {
        key: np.concatenate([part[key] for part in parts])
        if isinstance(value, np.ndarray) else sum(part[key] for part in parts)
        for key, value in parts[0].items()
    }


# -- rank-observatory instrumentation ---------------------------------------


def _monotonic_us() -> float:
    """Absolute CLOCK_MONOTONIC microseconds — shared across forked
    workers, so driver- and worker-side stamps share one time base."""
    return time.perf_counter() * 1.0e6


def _instrumented_call(
    fn_key: str,
    arena: Mapping[str, np.ndarray],
    kwargs: dict[str, Any],
    rank: int,
    attach_bytes: int = 0,
) -> tuple[Any, dict[str, Any]]:
    """Run one kernel bracketed by the rank-observatory clocks.

    The kernel invocation is *exactly* the uninstrumented one — the
    measurement only surrounds it, which is the bit-identity argument
    for observatory-on vs observatory-off runs.  Returns the result
    plus a ``repro.rank_sample/1`` sidecar dict: real wall
    (``time.perf_counter``), CPU time (``os.times`` user+system),
    ``resource.getrusage`` deltas, and the bytes of shared memory this
    call newly attached.
    """
    ru0 = resource.getrusage(resource.RUSAGE_SELF) if resource else None
    cpu0 = os.times()
    t0 = _monotonic_us()
    result = KERNELS[fn_key](arena, **kwargs)
    wall_us = _monotonic_us() - t0
    cpu1 = os.times()
    ru1 = resource.getrusage(resource.RUSAGE_SELF) if resource else None
    sample = {
        "rank": int(rank),
        "pid": os.getpid(),
        "t_start_us": t0,
        "wall_us": wall_us,
        "cpu_us": max(
            (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system), 0.0
        ) * 1.0e6,
        "maxrss_kb": float(ru1.ru_maxrss) if ru1 else 0.0,
        "vol_ctx_switches": int(ru1.ru_nvcsw - ru0.ru_nvcsw) if ru1 else 0,
        "invol_ctx_switches": int(ru1.ru_nivcsw - ru0.ru_nivcsw) if ru1 else 0,
        "minor_faults": int(ru1.ru_minflt - ru0.ru_minflt) if ru1 else 0,
        "major_faults": int(ru1.ru_majflt - ru0.ru_majflt) if ru1 else 0,
        "attach_bytes": int(attach_bytes),
    }
    return result, sample


class ExecutionBackend:
    """Where rank compute tasks run; see the module docstring.

    The contract every implementation honours:

    * :meth:`publish` makes named arrays visible to the kernels (the
      "arena"); re-publishing a name replaces it.
    * :meth:`run_tasks` executes the tasks and returns their results
      **in task order** — the deterministic merge the bit-identity pin
      relies on.
    * :meth:`run_shares` runs one kernel over contiguous rank shares of
      the i-rows and returns the rows' result in block order.
    * :meth:`close` releases workers and shared memory; calling any
      method after ``close`` is an error for pooled backends.

    Observability (:mod:`repro.telemetry.ranks`) is opt-in: with an
    observer attached (:meth:`attach_observer`), every ``run_tasks``
    dispatch additionally measures each task on its worker and hands
    the observer one report dict — backend name, driver-side dispatch
    wall, bytes published into the arena since the previous dispatch,
    and one sidecar sample per task.  Without an observer the dispatch
    path is byte-for-byte the uninstrumented one; with one, only the
    measurement brackets change — results never do (property-pinned).
    """

    name: str = "?"
    workers: int = 1

    #: Dispatch-report callback; ``None`` keeps instrumentation off.
    _observer: "Callable[[dict[str, Any]], None] | None" = None
    #: Arena bytes published since the last dispatch report.
    _publish_pending: int = 0
    #: Arena bytes published over the backend's lifetime.
    publish_bytes: int = 0

    def publish(self, **arrays: np.ndarray) -> None:
        raise NotImplementedError

    def run_tasks(self, tasks: list[RankTask]) -> list[Any]:
        raise NotImplementedError

    def run_shares(self, fn: str, bounds: list[int], **kwargs: Any) -> Any:
        """Run kernel ``fn`` over the i-rows ``bounds[0]:bounds[-1]``,
        rank ``r`` owning the contiguous share ``bounds[r]:bounds[r+1]``;
        the rows' result in block order (arrays concatenated, counts
        summed).  ``kwargs`` are the kernel's other arguments.

        Rows are independent, so how they are cut into calls never
        changes a bit.  Unobserved, the ranks with rows are cut into one
        contiguous run per worker — one kernel call inline, ``k`` on
        ``thread:k`` or ``process:k``; with an observer attached every
        such rank is its own task, so each rank's tile is timed.
        """
        p = len(bounds) - 1
        owners = [r for r in range(p) if bounds[r + 1] > bounds[r]] or [0]
        if self._observer is None:
            k = min(self.workers, len(owners))
            cuts = [0, *(owners[len(owners) * w // k] for w in range(1, k)), p]
        else:
            cuts = [*owners, owners[-1] + 1]
        tasks = [
            RankTask(fn, lo, {"i_rows": ("range", bounds[lo], bounds[hi]), **kwargs})
            for lo, hi in zip(cuts, cuts[1:])
        ]
        return _in_row_order(self.run_tasks(tasks))

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

    def _report(
        self,
        t_start_us: float,
        samples: list[dict[str, Any]],
    ) -> None:
        observer = self._observer
        if observer is None:  # pragma: no cover - guarded by callers
            return
        report = {
            "backend": self.name,
            "workers": self.workers,
            "n_tasks": len(samples),
            "t_start_us": t_start_us,
            "span_wall_us": _monotonic_us() - t_start_us,
            "publish_bytes": self._publish_pending,
            "samples": samples,
        }
        self._publish_pending = 0
        observer(report)

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InlineBackend(ExecutionBackend):
    """Sequential in-driver execution (the default and reference)."""

    name = "inline"
    workers = 1

    def __init__(self) -> None:
        self._arena: dict[str, np.ndarray] = {}

    def publish(self, **arrays: np.ndarray) -> None:
        self._arena.update(arrays)
        self._note_publish(arrays)

    def run_tasks(self, tasks: list[RankTask]) -> list[Any]:
        if self._observer is None:
            return [KERNELS[t.fn](self._arena, **t.kwargs) for t in tasks]
        t0 = _monotonic_us()
        results: list[Any] = []
        samples: list[dict[str, Any]] = []
        for t in tasks:
            result, sample = _instrumented_call(
                t.fn, self._arena, t.kwargs, t.rank
            )
            results.append(result)
            samples.append(sample)
        self._report(t0, samples)
        return results


class ThreadBackend(ExecutionBackend):
    """Thread-pool of rank workers over the shared arena (zero-copy)."""

    name = "thread"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = int(workers) if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("need at least one worker")
        self._arena: dict[str, np.ndarray] = {}
        self._pool = None

    def publish(self, **arrays: np.ndarray) -> None:
        self._arena.update(arrays)
        self._note_publish(arrays)

    def run_tasks(self, tasks: list[RankTask]) -> list[Any]:
        observed = self._observer is not None
        t0 = _monotonic_us() if observed else 0.0
        if len(tasks) <= 1:
            if not observed:
                return [KERNELS[t.fn](self._arena, **t.kwargs) for t in tasks]
            pairs = [
                _instrumented_call(t.fn, self._arena, t.kwargs, t.rank)
                for t in tasks
            ]
        else:
            if self._pool is None:
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-rank",
                )
            if not observed:
                futures = [
                    self._pool.submit(KERNELS[t.fn], self._arena, **t.kwargs)
                    for t in tasks
                ]
                return [f.result() for f in futures]
            futures = [
                self._pool.submit(
                    _instrumented_call, t.fn, self._arena, t.kwargs, t.rank
                )
                for t in tasks
            ]
            pairs = [f.result() for f in futures]
        self._report(t0, [s for _, s in pairs])
        return [r for r, _ in pairs]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# -- process backend ---------------------------------------------------------

#: Worker-side cache of attached shared-memory segments, keyed by the
#: kernel-visible block name.  Replaced when the driver reallocates a
#: segment (its shm name changes) and evicted when the driver stops
#: publishing the name — both stale handles are *closed*, or a
#: long-running worker leaks one fd per segment growth/retirement.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def _attach_arena(
    arena_meta: dict[str, tuple[str, str, tuple[int, ...]]],
) -> tuple[dict[str, np.ndarray], int]:
    """Attach (or re-use) the published segments in this worker.

    Returns the kernel-visible arena plus the bytes newly attached by
    this call (0 on the warm path — the figure the rank observatory
    reports as ``attach_bytes``).  Stale cache entries — a key whose
    segment was reallocated under a new shm name, or a key the driver
    no longer publishes — are closed and dropped, so the worker's fd
    table stays bounded over arbitrarily long jobs.
    """
    for key in list(_ATTACHED):
        if key not in arena_meta:
            _ATTACHED.pop(key).close()
    arena: dict[str, np.ndarray] = {}
    attached_bytes = 0
    for key, (shm_name, dtype, shape) in arena_meta.items():
        shm = _ATTACHED.get(key)
        if shm is None or shm.name != shm_name:
            if shm is not None:
                shm.close()
            shm = shared_memory.SharedMemory(name=shm_name)
            _ATTACHED[key] = shm
            attached_bytes += shm.size
        arena[key] = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
    return arena, attached_bytes


class WorkerLost(RuntimeError):
    """A process-backend worker died; the backend has closed itself."""


class _Segment:
    """One shared-memory block: created, or attached by ``name``."""

    def __init__(self, nbytes: int = 0, name: str | None = None) -> None:
        self.capacity = max(nbytes, 1)
        self.shm = shared_memory.SharedMemory(
            name=name, create=name is None, size=self.capacity)
        self.dtype = ""
        self.shape: tuple[int, ...] = ()

    def write(self, arr: np.ndarray) -> None:
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=self.shm.buf)
        view[...] = arr
        self.dtype = arr.dtype.str
        self.shape = arr.shape

    def destroy(self) -> None:
        try:
            self.shm.close()
            self.shm.unlink()
        except (FileNotFoundError, OSError):  # already gone (interpreter exit)
            pass


def _place(results: list[Any], seg: "_Segment | None"):
    """Worker side of the result arena: move every array of the result
    dicts (plain numeric dtypes; anything else stays in the pickle) into
    this worker's output segment, replaced by a larger one under a new
    name when too small, so the reply pickles a few integers per tile.
    Returns the segment, its bytes in use and the layout: ``(result
    index, key, offset, dtype, shape)`` per array."""
    arrays, layout, used = [], [], 0
    for i, res in enumerate(results):
        for key, val in res.items() if isinstance(res, dict) else ():
            if isinstance(val, np.ndarray) and val.dtype.kind in "biufc":
                res[key] = None
                arrays.append((used, val))
                layout.append((i, key, used, val.dtype.str, val.shape))
                used += -(-val.nbytes // 16) * 16
    if seg is None or seg.capacity < used:
        if seg is not None:
            seg.destroy()
        seg = _Segment(2 * used)
    for offset, val in arrays:
        np.ndarray(val.shape, val.dtype, seg.shm.buf, offset)[...] = val
    return seg, used, layout


def _worker_loop(conn, driver_ends) -> None:
    """Worker main: one message in, one reply out, until the sentinel.

    A message is ``(observed, arena_meta, [(fn, kwargs, rank), ...])``,
    each call timed by the rank-observatory clocks when observed; the
    reply ``(True, (segment name, bytes used, layout, results,
    samples))`` in slice order (``samples`` empty unless observed,
    ``attach_bytes`` charged to the slice's first task) or ``(False,
    exception)``.  A forked worker inherits the driver-side ends of
    every pipe opened before it and closes them first: holding one, it
    would never read a killed driver as EOF and would outlive it,
    segments and all.
    """
    for end in driver_ends:
        end.close()
    out = None  # this worker's output segment
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):  # the driver is gone
                return
            if message is None:
                return
            observed, arena_meta, calls = message
            try:
                arena, attach_bytes = _attach_arena(arena_meta)
                results, samples = [], []
                if not observed:
                    results = [KERNELS[fn_key](arena, **kwargs)
                               for fn_key, kwargs, _ in calls]
                else:  # one call per task: the observer times each
                    for fn_key, kwargs, rank in calls:
                        result, sample = _instrumented_call(
                            fn_key, arena, kwargs, rank, attach_bytes)
                        results.append(result)
                        samples.append(sample)
                        attach_bytes = 0
                out, used, layout = _place(results, out)
                reply = True, (out.shm.name, used, layout, results, samples)
            except Exception as exc:  # a kernel's own: the driver re-raises it
                reply = False, exc
            conn.send(reply)
    finally:
        if out is not None:
            out.destroy()


class ProcessBackend(ExecutionBackend):
    """Persistent worker processes on private pipes, shared-memory arena.

    Workers start lazily (``fork`` where available, so they inherit the
    loaded interpreter; ``spawn`` otherwise) and persist across
    blocksteps.  ``publish`` memcpys each array into its segment — ~56
    bytes/particle for the j-side per blockstep.  ``run_tasks`` cuts the
    task list into one contiguous slice per worker (the algorithms emit
    near-equal tiles in rank order, so that balances to within a tile)
    and reads the replies in worker order, hence in task order.

    A kernel's exception is re-raised here with its own type once every
    reply of the dispatch has been read, and the backend stays usable; a
    dead worker raises :class:`WorkerLost` and the backend closes itself.
    """

    name = "process"

    def __init__(self, workers: int | None = None) -> None:
        self.workers = int(workers) if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("need at least one worker")
        self._segments: dict[str, _Segment] = {}
        self._outputs: dict[int, _Segment] = {}  # attached, by worker index
        self._procs: list = []
        self._conns: list = []
        self._closed = False

    def _ensure_pool(self) -> list:
        if self._closed:
            raise RuntimeError("backend is closed")
        if not self._procs:
            methods = multiprocessing.get_all_start_methods()
            ctx = get_context("fork" if "fork" in methods else "spawn")
            for _ in range(self.workers):
                ours, theirs = ctx.Pipe()
                self._conns.append(ours)
                proc = ctx.Process(target=_worker_loop, daemon=True,
                                   args=(theirs, list(self._conns)))
                proc.start()
                theirs.close()  # held by its worker alone, its death is our EOF
                self._procs.append(proc)
        return self._conns

    def publish(self, **arrays: np.ndarray) -> None:
        if self._closed:
            raise RuntimeError("backend is closed")
        for key, value in arrays.items():
            arr = np.ascontiguousarray(value)
            seg = self._segments.get(key)
            if seg is None or seg.capacity < arr.nbytes:
                if seg is not None:
                    seg.destroy()
                seg = _Segment(arr.nbytes)
                self._segments[key] = seg
            seg.write(arr)
        self._note_publish(arrays)

    def run_tasks(self, tasks: list[RankTask]) -> list[Any]:
        observed = self._observer is not None
        t0 = _monotonic_us() if observed else 0.0
        results: list[Any] = []
        samples: list[dict[str, Any]] = []
        if tasks:
            conns = self._ensure_pool()
            meta = {
                key: (seg.shm.name, seg.dtype, seg.shape)
                for key, seg in self._segments.items()
            }
            k = min(self.workers, len(tasks))
            bounds = [len(tasks) * w // k for w in range(k + 1)]
            try:
                for w in range(k):
                    conns[w].send((observed, meta, [
                        (t.fn, t.kwargs, t.rank)
                        for t in tasks[bounds[w]:bounds[w + 1]]
                    ]))
                replies = []
                for w in range(k):  # a plain loop: ``w`` names the lost worker
                    replies.append(conns[w].recv())
            except (EOFError, OSError) as exc:
                proc = self._procs[w]
                proc.join(1.0)  # reaped, so the exit code is known
                self.close()
                raise WorkerLost(
                    f"process backend worker {w} (pid {proc.pid}) died "
                    f"with exit code {proc.exitcode}"
                ) from exc
            for w, (ok, payload) in enumerate(replies):
                if not ok:
                    raise payload
                name, used, layout, part, part_samples = payload
                self._collect(w, name, used, layout, part)
                results += part
                samples += part_samples
        if observed:
            self._report(t0, samples)
        return results

    def _collect(self, w, name, used, layout, results) -> None:
        """Driver side of the result arena: copy worker ``w``'s output
        bytes out once (it overwrites them on its next slice) and put
        each array back into its result, as a view of that copy."""
        seg = self._outputs.get(w)
        if seg is None or seg.shm.name != name:
            if seg is not None:
                seg.shm.close()
            seg = self._outputs[w] = _Segment(name=name)
        data = bytearray(seg.shm.buf[:used])
        for i, key, offset, dtype, shape in layout:
            results[i][key] = np.ndarray(shape, dtype, data, offset)

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
        # a worker unlinks its output segment on the way out; a killed
        # one could not, so the driver destroys what it attached as well
        for seg in (*self._segments.values(), *self._outputs.values()):
            seg.destroy()
        self._segments.clear()
        self._outputs.clear()

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
