"""Unit tests for the execution engine (repro.parallel.execution).

Backends only decide *where* rank kernels run; these tests pin the
contract that makes that safe: spec parsing, row selectors, identical
kernel results on every backend, contiguous rank shares equal to one
call per rank (and exactly as many kernel calls as the dispatch allows),
shared-memory arena reuse/growth on the process backend, and the
driver's one-scan-per-blockstep property (the scheduler fix that rode
along with the engine).
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.forces.kernels import acc_jerk_pot_on_targets
from repro.models import plummer_model
from repro.parallel import (
    CopyAlgorithm,
    Grid2DAlgorithm,
    InlineBackend,
    ParallelBlockIntegrator,
    ProcessBackend,
    RankTask,
    RingAlgorithm,
    SimNetwork,
    ThreadBackend,
    execution,
    resolve_backend,
)
from repro.parallel.copy_algorithm import share_sizes
from repro.parallel.execution import (
    KERNELS,
    WorkerLost,
    kernel,
    select_rows,
)

EPS2 = (1.0 / 64.0) ** 2


class TestResolveBackend:
    def test_none_is_inline(self):
        assert isinstance(resolve_backend(None), InlineBackend)

    def test_names(self):
        assert isinstance(resolve_backend("inline"), InlineBackend)
        assert isinstance(resolve_backend("thread"), ThreadBackend)
        backend = resolve_backend("process")
        assert isinstance(backend, ProcessBackend)
        backend.close()

    def test_worker_suffix(self):
        assert resolve_backend("thread:3").workers == 3
        backend = resolve_backend("process:2")
        assert backend.workers == 2
        backend.close()

    def test_suffix_wins_over_argument(self):
        assert resolve_backend("thread:5", workers=2).workers == 5
        assert resolve_backend("thread", workers=2).workers == 2

    def test_instance_passes_through(self):
        backend = InlineBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend("mpi")

    def test_bad_suffix_rejected(self):
        with pytest.raises(ValueError, match="worker count"):
            resolve_backend("thread:lots")

    @pytest.mark.parametrize("spec", ["thread:0", "process:-1", "inline:0"])
    def test_nonpositive_workers_rejected(self, spec):
        """A non-positive ``:N`` suffix fails up front, naming the
        offending spec, instead of surfacing later as a bare pool
        construction error."""
        with pytest.raises(ValueError, match="non-positive worker count"):
            resolve_backend(spec)
        with pytest.raises(ValueError, match=spec):
            resolve_backend(spec)


class TestSelectRows:
    def test_selectors(self):
        arr = np.arange(20.0).reshape(10, 2)
        np.testing.assert_array_equal(select_rows(arr, None), arr)
        np.testing.assert_array_equal(
            select_rows(arr, ("range", 2, 5)), arr[2:5])
        np.testing.assert_array_equal(
            select_rows(arr, ("stride", 1, 10, 3)), arr[1:10:3])
        np.testing.assert_array_equal(
            select_rows(arr, np.array([7, 0, 3])), arr[[7, 0, 3]])

    def test_unknown_selector_rejected(self):
        with pytest.raises(ValueError, match="unknown row selector"):
            select_rows(np.zeros(3), ("slice", 0, 1))


def _reference_tile(system, i_rows, j_rows, exclude_self):
    return acc_jerk_pot_on_targets(
        select_rows(system.pos, i_rows), select_rows(system.vel, i_rows),
        select_rows(system.pos, j_rows), select_rows(system.vel, j_rows),
        select_rows(system.mass, j_rows), EPS2, exclude_self=exclude_self,
    )


@pytest.mark.parametrize("spec", ["inline", "thread:2", "process:2"])
class TestBackendsRunKernels:
    def _publish(self, backend, system):
        backend.publish(
            ix=system.pos, iv=system.vel,
            jx=system.pos, jv=system.vel, jm=system.mass,
        )

    def test_forces_kernel_matches_direct_call(self, spec):
        system = plummer_model(24, seed=3)
        backend = resolve_backend(spec)
        try:
            self._publish(backend, system)
            tasks = [
                RankTask("forces", r, {
                    "i_rows": ("stride", r, 24, 3),
                    "j_rows": None,
                    "eps2": EPS2,
                    "exclude_self": True,
                })
                for r in range(3)
            ]
            results = backend.run_tasks(tasks)
        finally:
            backend.close()
        assert len(results) == 3
        for r, res in enumerate(results):
            ref = _reference_tile(system, ("stride", r, 24, 3), None, True)
            np.testing.assert_array_equal(res["acc"], ref.acc)
            np.testing.assert_array_equal(res["jerk"], ref.jerk)
            np.testing.assert_array_equal(res["pot"], ref.pot)
            assert res["interactions"] == ref.interactions

    def test_results_come_back_in_task_order(self, spec):
        system = plummer_model(16, seed=5)
        backend = resolve_backend(spec)
        try:
            self._publish(backend, system)
            # deliberately scrambled rank order: results must follow the
            # task list, not completion order
            order = [3, 0, 2, 1]
            tasks = [
                RankTask("forces", r, {
                    "i_rows": np.array([r]), "j_rows": None,
                    "eps2": EPS2, "exclude_self": True,
                })
                for r in order
            ]
            results = backend.run_tasks(tasks)
        finally:
            backend.close()
        for r, res in zip(order, results):
            ref = _reference_tile(system, np.array([r]), None, True)
            np.testing.assert_array_equal(res["acc"], ref.acc)

    def test_empty_task_list(self, spec):
        backend = resolve_backend(spec)
        try:
            assert backend.run_tasks([]) == []
        finally:
            backend.close()

    def test_republish_replaces_arrays(self, spec):
        a = plummer_model(12, seed=7)
        b = plummer_model(12, seed=8)
        backend = resolve_backend(spec)
        try:
            self._publish(backend, a)
            self._publish(backend, b)
            task = RankTask("forces", 0, {
                "i_rows": None, "j_rows": None,
                "eps2": EPS2, "exclude_self": True,
            })
            (res,) = backend.run_tasks([task])
        finally:
            backend.close()
        ref = _reference_tile(b, None, None, True)
        np.testing.assert_array_equal(res["acc"], ref.acc)


@pytest.mark.parametrize("spec", ["inline", "thread:2", "process:2"])
class TestDispatchObserver:
    """The rank observatory's capture layer: every ``run_tasks`` with an
    observer attached yields one report dict with per-task sidecar
    samples, and the kernel results are unchanged by observation."""

    def _publish(self, backend, system):
        backend.publish(
            ix=system.pos, iv=system.vel,
            jx=system.pos, jv=system.vel, jm=system.mass,
        )

    def _tasks(self, n, ranks):
        return [
            RankTask("forces", r, {
                "i_rows": ("stride", r, n, ranks),
                "j_rows": None,
                "eps2": EPS2,
                "exclude_self": True,
            })
            for r in range(ranks)
        ]

    def test_report_shape_and_samples(self, spec):
        system = plummer_model(18, seed=21)
        backend = resolve_backend(spec)
        reports = []
        backend.attach_observer(reports.append)
        try:
            self._publish(backend, system)
            results = backend.run_tasks(self._tasks(18, 2))
        finally:
            backend.close()
        assert len(results) == 2
        assert len(reports) == 1
        rep = reports[0]
        assert rep["backend"] == spec.partition(":")[0]
        assert rep["n_tasks"] == 2
        assert rep["span_wall_us"] >= 0.0
        assert rep["t_start_us"] > 0.0
        assert len(rep["samples"]) == 2
        for sample, task in zip(rep["samples"], self._tasks(18, 2)):
            assert sample["rank"] == task.rank
            assert sample["pid"] > 0
            assert sample["wall_us"] >= 0.0 and np.isfinite(sample["wall_us"])
            assert sample["cpu_us"] >= 0.0 and np.isfinite(sample["cpu_us"])
            assert sample["attach_bytes"] >= 0

    def test_results_identical_with_observer(self, spec):
        """The standing guarantee: observation never changes a bit."""
        system = plummer_model(20, seed=23)
        bare = resolve_backend(spec)
        observed = resolve_backend(spec)
        observed.attach_observer(lambda rep: None)
        try:
            self._publish(bare, system)
            self._publish(observed, system)
            res_bare = bare.run_tasks(self._tasks(20, 2))
            res_obs = observed.run_tasks(self._tasks(20, 2))
        finally:
            bare.close()
            observed.close()
        for a, b in zip(res_bare, res_obs):
            np.testing.assert_array_equal(a["acc"], b["acc"])
            np.testing.assert_array_equal(a["jerk"], b["jerk"])
            np.testing.assert_array_equal(a["pot"], b["pot"])
            assert a["interactions"] == b["interactions"]

    def test_empty_dispatch_reports_zero_tasks(self, spec):
        backend = resolve_backend(spec)
        reports = []
        backend.attach_observer(reports.append)
        try:
            assert backend.run_tasks([]) == []
        finally:
            backend.close()
        assert len(reports) == 1
        assert reports[0]["n_tasks"] == 0
        assert reports[0]["samples"] == []

    def test_publish_bytes_counted_and_reset(self, spec):
        system = plummer_model(16, seed=25)
        nbytes = (
            system.pos.nbytes + system.vel.nbytes
        ) * 2 + system.mass.nbytes
        backend = resolve_backend(spec)
        reports = []
        backend.attach_observer(reports.append)
        try:
            self._publish(backend, system)
            backend.run_tasks(self._tasks(16, 2))
            # no publish between dispatches: the second report owes 0
            backend.run_tasks(self._tasks(16, 2))
        finally:
            backend.close()
        assert reports[0]["publish_bytes"] == nbytes
        assert reports[1]["publish_bytes"] == 0
        assert backend.publish_bytes == nbytes

    def test_detach_observer_silences_reports(self, spec):
        system = plummer_model(12, seed=27)
        backend = resolve_backend(spec)
        reports = []
        backend.attach_observer(reports.append)
        try:
            self._publish(backend, system)
            backend.run_tasks(self._tasks(12, 2))
            backend.detach_observer()
            backend.run_tasks(self._tasks(12, 2))
        finally:
            backend.close()
        assert len(reports) == 1


class TestWorkerArenaCache:
    """The worker-side shared-memory cache (``_attach_arena``) must not
    leak handles: a key the driver stops publishing is closed and
    evicted, not abandoned (regression — it used to linger forever)."""

    def _segment(self, values):
        from multiprocessing import shared_memory

        arr = np.asarray(values, dtype=np.float64)
        shm = shared_memory.SharedMemory(create=True, size=arr.nbytes)
        np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)[...] = arr
        return shm, (shm.name, arr.dtype.str, arr.shape)

    def test_stale_key_is_closed_and_evicted(self):
        from repro.parallel import execution

        shm_a, meta_a = self._segment([1.0, 2.0, 3.0])
        shm_b, meta_b = self._segment([4.0, 5.0])
        saved = dict(execution._ATTACHED)
        execution._ATTACHED.clear()
        try:
            arena, attached = execution._attach_arena({"a": meta_a})
            np.testing.assert_array_equal(arena["a"], [1.0, 2.0, 3.0])
            assert attached >= 24
            cached_a = execution._ATTACHED["a"]

            # driver stops publishing "a": the handle must be closed,
            # not just dropped from the returned arena
            arena, _ = execution._attach_arena({"b": meta_b})
            assert set(execution._ATTACHED) == {"b"}
            assert "a" not in arena
            assert cached_a.buf is None  # closed, not merely dropped
        finally:
            for shm in execution._ATTACHED.values():
                shm.close()
            execution._ATTACHED.clear()
            execution._ATTACHED.update(saved)
            for shm in (shm_a, shm_b):
                shm.close()
                shm.unlink()

    def test_warm_reattach_is_free(self):
        from repro.parallel import execution

        shm, meta = self._segment([7.0, 8.0])
        saved = dict(execution._ATTACHED)
        execution._ATTACHED.clear()
        try:
            _, cold = execution._attach_arena({"x": meta})
            _, warm = execution._attach_arena({"x": meta})
            assert cold >= 16
            assert warm == 0
        finally:
            for cached in execution._ATTACHED.values():
                cached.close()
            execution._ATTACHED.clear()
            execution._ATTACHED.update(saved)
            shm.close()
            shm.unlink()


class TestProcessBackendArena:
    def test_segment_grows_on_larger_publish(self):
        small = plummer_model(8, seed=1)
        big = plummer_model(64, seed=2)
        backend = ProcessBackend(workers=2)
        try:
            for system in (small, big):
                backend.publish(
                    ix=system.pos, iv=system.vel,
                    jx=system.pos, jv=system.vel, jm=system.mass,
                )
                task = RankTask("forces", 0, {
                    "i_rows": None, "j_rows": None,
                    "eps2": EPS2, "exclude_self": True,
                })
                (res,) = backend.run_tasks([task])
                ref = _reference_tile(system, None, None, True)
                np.testing.assert_array_equal(res["acc"], ref.acc)
        finally:
            backend.close()

    def test_close_is_idempotent_and_final(self):
        backend = ProcessBackend(workers=1)
        backend.publish(jm=np.ones(4))
        backend.close()
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            backend.publish(jm=np.ones(4))


class TestDriverSchedulerScans:
    def test_one_next_block_scan_per_step(self):
        """Regression: ParallelBlockIntegrator.step used to re-scan the
        schedule twice on top of the parent's scan (three O(N) argmin
        passes per blockstep)."""
        system = plummer_model(16, seed=11)
        algo = CopyAlgorithm(SimNetwork(2), EPS2)
        integ = ParallelBlockIntegrator(system, EPS2, algo)

        calls = {"n": 0}
        original = integ.scheduler.next_block

        def counting_next_block():
            calls["n"] += 1
            return original()

        integ.scheduler.next_block = counting_next_block
        for expected in (1, 2, 3):
            integ.step()
            assert calls["n"] == expected

    def test_exchange_sees_the_stepped_block(self):
        """The exchange must cover the block the parent just advanced
        (read back from the parent, not re-derived post-update)."""
        system = plummer_model(16, seed=13)
        algo = CopyAlgorithm(SimNetwork(2), EPS2)

        seen = []
        original = algo.exchange_updated
        algo.exchange_updated = lambda block: (
            seen.append(np.array(block)), original(block))[-1]

        integ = ParallelBlockIntegrator(system, EPS2, algo)
        t_block, n_b = integ.step()
        assert len(seen) == 1
        assert seen[0].size == n_b
        np.testing.assert_array_equal(
            np.sort(np.flatnonzero(system.t == t_block)), np.sort(seen[0])
        )


# -- the process backend's dispatch contract and failure semantics ----------


@pytest.fixture
def test_kernels():
    """Two throw-away kernels, registered before the workers fork (they
    inherit the registry) and removed afterwards."""

    @kernel("test_sleep")
    def _sleep(arena, *, seconds):
        time.sleep(seconds)
        return {"slept": seconds}

    @kernel("test_boom")
    def _boom(arena, *, fail):
        if fail:
            raise ValueError("boom")
        return {"ok": True}

    yield
    del KERNELS["test_sleep"], KERNELS["test_boom"]


def _force_tasks(n, count):
    return [
        RankTask("forces", r, {
            "i_rows": ("stride", r, n, max(count, 1)), "j_rows": None,
            "eps2": EPS2, "exclude_self": True,
        })
        for r in range(count)
    ]


def _publish_system(backend, system):
    backend.publish(ix=system.pos, iv=system.vel,
                    jx=system.pos, jv=system.vel, jm=system.mass)


def _assert_same_results(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for key in ("acc", "jerk", "pot"):
            np.testing.assert_array_equal(a[key], b[key])
        assert a["interactions"] == b["interactions"]


def _share_bounds(n_b, p):
    """The copy algorithm's contiguous rank shares of an ``n_b`` block."""
    return [0, *np.cumsum(share_sizes(n_b, p)).tolist()]


def _per_rank(arena, bounds, exclude_self):
    """One kernel call per rank with rows, its results in rank order."""
    parts = [
        acc_jerk_pot_on_targets(
            arena["ix"][lo:hi], arena["iv"][lo:hi], arena["jx"], arena["jv"],
            arena["jm"], EPS2, exclude_self=exclude_self)
        for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    ]
    return {"acc": np.concatenate([r.acc for r in parts]),
            "jerk": np.concatenate([r.jerk for r in parts]),
            "pot": np.concatenate([r.pot for r in parts]),
            "interactions": sum(r.interactions for r in parts)}


@pytest.fixture
def kernel_calls(monkeypatch, tmp_path):
    """Count ``acc_jerk_pot_on_targets`` calls per process: the wrapper
    appends its pid to a file, so workers forked after it was installed
    are counted too.  Returns a function giving ``{pid: calls}``."""
    log = tmp_path / "calls"
    log.touch()

    def counted(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return acc_jerk_pot_on_targets(*args, **kwargs)

    monkeypatch.setattr(execution, "acc_jerk_pot_on_targets", counted)

    def calls():
        pids = [int(line) for line in log.read_text().split()]
        log.write_text("")
        return {pid: pids.count(pid) for pid in pids}

    return calls


@pytest.mark.tiers
class TestGroupedTiles:
    """Share dispatch: a block's contiguous rank shares run as one kernel
    call per worker when nothing times them one by one and as one call
    per rank when an observer does; either way the rows come back, bit
    for bit, as one call per rank gives them."""

    @pytest.mark.parametrize("exclude_self", [True, False])
    @pytest.mark.parametrize("p", [1, 5, 16])
    def test_grouped_equals_per_task(self, p, exclude_self, kernel_calls):
        system = plummer_model(64, seed=41)
        for spec in ("inline", "thread:2", "process:2"):
            backend = resolve_backend(spec)
            try:
                for n_b in sorted({1, p - 1, p, 3 * p + 1} - {0}):
                    block = np.random.default_rng(n_b).choice(64, n_b, replace=False)
                    arena = {"ix": system.pos[block], "iv": system.vel[block],
                             "jx": system.pos, "jv": system.vel, "jm": system.mass}
                    backend.publish(**arena)
                    bounds = _share_bounds(n_b, p)
                    want = _per_rank(arena, bounds, exclude_self)
                    owners = min(p, n_b)
                    for observer in (None, lambda report: None):
                        backend.attach_observer(observer)
                        got = backend.run_shares("forces", bounds, j_rows=None,
                                                 eps2=EPS2, exclude_self=exclude_self)
                        _assert_same_results([got], [want])
                        calls = kernel_calls()
                        assert sum(calls.values()) == (
                            owners if observer else min(backend.workers, owners))
                        assert (os.getpid() in calls) == (spec != "process:2")
            finally:
                backend.close()

    def test_unobserved_inline_dispatch_is_one_kernel_call(self, kernel_calls):
        system = plummer_model(64, seed=43)
        copy = CopyAlgorithm(SimNetwork(16), EPS2)
        copy.set_j_particles(system.pos, system.vel, system.mass)
        copy.forces_on(system.pos, system.vel, np.arange(64))
        assert kernel_calls() == {os.getpid(): 1}
        copy.executor.attach_observer(lambda report: None)
        copy.forces_on(system.pos, system.vel, np.arange(64))
        assert kernel_calls() == {os.getpid(): 16}

    def test_process_dispatch_is_one_kernel_call_per_worker(self, kernel_calls):
        system = plummer_model(64, seed=45)
        copy = CopyAlgorithm(SimNetwork(16), EPS2, executor="process:2")
        try:
            copy.set_j_particles(system.pos, system.vel, system.mass)
            got = copy.forces_on(system.pos, system.vel, np.arange(64))
            calls = kernel_calls()
            copy.executor.attach_observer(lambda report: None)
            copy.forces_on(system.pos, system.vel, np.arange(64))
            observed = kernel_calls()
        finally:
            copy.executor.close()
        assert sorted(calls.values()) == [1, 1] and os.getpid() not in calls
        assert sorted(observed.values()) == [8, 8]
        inline = CopyAlgorithm(SimNetwork(16), EPS2)
        inline.set_j_particles(system.pos, system.vel, system.mass)
        want = inline.forces_on(system.pos, system.vel, np.arange(64))
        for key in ("acc", "jerk", "pot", "interactions"):
            np.testing.assert_array_equal(getattr(got, key), getattr(want, key))

    def test_ring_and_grid_tiles_run_one_by_one(self, kernel_calls):
        system = plummer_model(32, seed=47)
        block = np.arange(0, 32, 3)
        ring = RingAlgorithm(SimNetwork(4), EPS2)
        grid = Grid2DAlgorithm(SimNetwork(4), EPS2)
        for algo in (ring, grid):
            algo.set_j_particles(system.pos, system.vel, system.mass)
        ring.forces_on(system.pos[block], system.vel[block], block)
        assert kernel_calls() == {os.getpid(): 4}
        plan = grid.plan_forces(system.pos[block], system.vel[block], block)
        grid.finish_forces(plan, grid.executor.run_tasks(plan.tasks))
        assert kernel_calls() == {os.getpid(): len(plan.tasks)}
        assert len(plan.tasks) == 4


class TestProcessDispatchContract:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_send_per_worker_and_inline_bits(self, workers):
        """Contiguous slices, one message per worker per dispatch,
        results in task order and bitwise the inline backend's —
        observed or not."""
        system = plummer_model(27, seed=31)
        inline = InlineBackend()
        _publish_system(inline, system)
        backend = ProcessBackend(workers)
        sends = []
        try:
            _publish_system(backend, system)
            for w, conn in enumerate(backend._ensure_pool()):
                original = conn.send
                conn.send = lambda msg, w=w, original=original: (
                    sends.append(w), original(msg))[-1]
            for observer in (None, lambda report: None):
                backend.attach_observer(observer)
                for count in (0, 1, 2, 3, 7, 8, 9):
                    tasks = _force_tasks(27, count)
                    del sends[:]
                    got = backend.run_tasks(tasks)
                    assert sends == list(range(min(workers, count)))
                    _assert_same_results(got, inline.run_tasks(tasks))
        finally:
            backend.close()

    def test_kernel_error_keeps_its_type_and_the_backend(self, test_kernels):
        backend = ProcessBackend(2)
        try:
            backend.publish(jm=np.ones(4))
            tasks = [RankTask("test_boom", r, {"fail": r == 2})
                     for r in range(4)]
            with pytest.raises(ValueError, match="boom"):
                backend.run_tasks(tasks)
            ok = [RankTask("test_boom", r, {"fail": False}) for r in range(4)]
            assert backend.run_tasks(ok) == [{"ok": True}] * 4
        finally:
            backend.close()

    def test_attach_bytes_on_a_workers_first_slice_only(self):
        system = plummer_model(16, seed=33)
        backend = ProcessBackend(2)
        reports = []
        backend.attach_observer(reports.append)
        try:
            _publish_system(backend, system)
            backend.run_tasks(_force_tasks(16, 4))
            backend.run_tasks(_force_tasks(16, 4))
        finally:
            backend.close()
        cold = [s["attach_bytes"] for s in reports[0]["samples"]]
        assert cold[0] > 0 and cold[2] > 0  # each worker's first task
        assert cold[1] == 0 and cold[3] == 0
        assert [s["attach_bytes"] for s in reports[1]["samples"]] == [0] * 4
        pids = [s["pid"] for s in reports[0]["samples"]]
        assert pids[0] == pids[1] != pids[2] == pids[3]


def _alive(pid):
    """False once ``pid`` is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


class TestProcessBackendFaults:
    @pytest.mark.parametrize("victim", [0, 1])
    def test_dead_worker_raises_worker_lost(self, test_kernels, victim):
        """A worker SIGKILLed mid-dispatch is a named error within 2 s
        and a closed backend — never a hang, a stray child or a leaked
        segment.  The dispatch runs under a watchdog thread so that a
        hang is this test's failure, not a stuck suite."""
        shm_before = set(os.listdir("/dev/shm"))
        children_before = set(multiprocessing.active_children())
        backend = ProcessBackend(2)
        backend.publish(jm=np.ones(4))

        def sleepers(seconds):
            return [RankTask("test_sleep", r, {"seconds": seconds})
                    for r in range(2)]

        backend.run_tasks(sleepers(0.0))  # slice w runs on worker w
        workers = sorted(
            set(multiprocessing.active_children()) - children_before,
            key=lambda proc: proc.pid)  # forked in worker order
        assert len(workers) == 2
        pid = workers[victim].pid
        outcome = {}

        def dispatch():
            try:
                outcome["result"] = backend.run_tasks(sleepers(0.6))
            except BaseException as exc:
                outcome["error"] = exc

        watchdog = threading.Thread(target=dispatch, daemon=True)
        watchdog.start()
        time.sleep(0.2)
        os.kill(pid, signal.SIGKILL)
        watchdog.join(2.0)
        assert not watchdog.is_alive(), "run_tasks hung on a dead worker"
        error = outcome.get("error")
        assert isinstance(error, WorkerLost), outcome
        assert f"worker {victim}" in str(error)
        assert f"pid {pid}" in str(error)
        assert "exit code -9" in str(error)
        with pytest.raises(RuntimeError, match="backend is closed"):
            backend.run_tasks(sleepers(0.0))
        backend.close()
        assert set(multiprocessing.active_children()) <= children_before
        assert set(os.listdir("/dev/shm")) <= shm_before

    def test_killed_driver_leaves_no_worker_and_no_segment(self, tmp_path):
        """Carried over from ``multiprocessing.Pool``: SIGKILL the
        *driver* and within 2 s its workers are gone and so is every
        segment it created."""
        script = tmp_path / "driver.py"
        script.write_text(
            "import multiprocessing, os, sys, time\n"
            "import numpy as np\n"
            "from repro.parallel import ProcessBackend, RankTask\n"
            "before = set(os.listdir('/dev/shm'))\n"
            "backend = ProcessBackend(2)\n"
            "x = np.zeros((8, 3)); x[:, 0] = np.arange(8)\n"
            "backend.publish(ix=x, iv=x, jx=x, jv=x, jm=np.ones(8))\n"
            "backend.run_tasks([RankTask('forces', r, dict(\n"
            "    i_rows=('stride', r, 8, 2), j_rows=None, eps2=0.01,\n"
            "    exclude_self=True)) for r in range(2)])\n"
            "print(*[p.pid for p in multiprocessing.active_children()])\n"
            "print(*sorted(set(os.listdir('/dev/shm')) - before))\n"
            "sys.stdout.flush()\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        driver = subprocess.Popen(
            [sys.executable, str(script)], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, env=env)
        try:
            pids = [int(p) for p in driver.stdout.readline().split()]
            segments = driver.stdout.readline().split()
            assert len(pids) == 2 and len(segments) >= 5
        finally:
            driver.kill()
            driver.wait()
        deadline = time.perf_counter() + 2.0
        while time.perf_counter() < deadline and (
            any(_alive(p) for p in pids)
            or set(segments) & set(os.listdir("/dev/shm"))
        ):
            time.sleep(0.02)
        assert not [p for p in pids if _alive(p)]
        assert not set(segments) & set(os.listdir("/dev/shm"))
