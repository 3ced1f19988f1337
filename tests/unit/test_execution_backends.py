"""Unit tests for the execution engine (repro.parallel.execution).

Backends only decide *where* force tiles run; these tests pin the
contract that makes that safe: spec parsing, identical tile rows on
every backend, contiguous rank shares equal to one call per rank (and
exactly as many kernel calls as the dispatch allows), the process
backend's one driver-owned arena (reuse, growth, re-attach, faults), a
closed pool staying closed, and the driver's one-scan-per-blockstep
property (the scheduler fix that rode along with the engine).
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
    RingAlgorithm,
    SimNetwork,
    ThreadBackend,
    Tile,
    execution,
    resolve_backend,
)
from repro.parallel.copy_algorithm import share_sizes
from repro.parallel.execution import WorkerLost

EPS2 = (1.0 / 64.0) ** 2
ALL = slice(None)


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


def _reference_tile(system, i_rows, j_rows, exclude_self):
    return acc_jerk_pot_on_targets(
        system.pos[i_rows], system.vel[i_rows],
        system.pos[j_rows], system.vel[j_rows],
        system.mass[j_rows], EPS2, exclude_self=exclude_self,
    )


def _tiles(n, count):
    """``count`` tiles of strided targets against every source."""
    return [Tile(r, np.arange(r, n, max(count, 1)), ALL, True)
            for r in range(count)]


def _publish_system(backend, system):
    backend.publish(ix=system.pos, iv=system.vel,
                    jx=system.pos, jv=system.vel, jm=system.mass)


def _assert_same_results(got, want):
    for key in ("acc", "jerk", "pot"):
        np.testing.assert_array_equal(getattr(got, key), getattr(want, key))
    assert got.interactions == want.interactions


def _new_segments(before):
    return sorted(set(os.listdir("/dev/shm")) - before)


@pytest.mark.parametrize("spec", ["inline", "thread:2", "process:2"])
class TestBackendsRunKernels:
    def test_forces_kernel_matches_direct_call(self, spec):
        system = plummer_model(24, seed=3)
        backend = resolve_backend(spec)
        try:
            _publish_system(backend, system)
            tiles = _tiles(24, 3)
            res = backend.run_tasks(tiles, EPS2)
        finally:
            backend.close()
        assert res.acc.shape == (24, 3)
        interactions = 0
        for tile in tiles:
            rows = slice(8 * tile.rank, 8 * tile.rank + 8)
            ref = _reference_tile(system, tile.i_rows, ALL, True)
            np.testing.assert_array_equal(res.acc[rows], ref.acc)
            np.testing.assert_array_equal(res.jerk[rows], ref.jerk)
            np.testing.assert_array_equal(res.pot[rows], ref.pot)
            interactions += ref.interactions
        assert res.interactions == interactions

    def test_results_come_back_in_task_order(self, spec):
        system = plummer_model(16, seed=5)
        backend = resolve_backend(spec)
        try:
            _publish_system(backend, system)
            # deliberately scrambled rank order: rows must follow the
            # tile list, not completion order
            order = [3, 0, 2, 1]
            res = backend.run_tasks(
                [Tile(r, np.array([r]), ALL, True) for r in order], EPS2)
        finally:
            backend.close()
        for k, r in enumerate(order):
            ref = _reference_tile(system, np.array([r]), ALL, True)
            np.testing.assert_array_equal(res.acc[k:k + 1], ref.acc)

    def test_empty_task_list(self, spec):
        backend = resolve_backend(spec)
        try:
            res = backend.run_tasks([], EPS2)
        finally:
            backend.close()
        assert res.acc.shape == res.jerk.shape == (0, 3)
        assert res.pot.shape == (0,) and res.interactions == 0

    @pytest.mark.parametrize("i_rows", [slice(0, 12, 2), slice(None, 12),
                                        slice(0, None), slice(8, 4)])
    def test_slice_without_bounds_or_unit_step_is_rejected(self, spec, i_rows):
        system = plummer_model(12, seed=9)
        backend = resolve_backend(spec)
        try:
            _publish_system(backend, system)
            with pytest.raises(ValueError, match="unit step"):
                backend.run_tasks([Tile(0, slice(0, 4), ALL, True),
                                   Tile(1, i_rows, ALL, True)], EPS2)
            # the refusal comes before any dispatch: the backend is usable
            res = backend.run_tasks([Tile(0, slice(0, 12), ALL, True)], EPS2)
        finally:
            backend.close()
        _assert_same_results(res, _reference_tile(system, ALL, ALL, True))

    def test_republish_replaces_arrays(self, spec):
        a = plummer_model(12, seed=7)
        b = plummer_model(12, seed=8)
        backend = resolve_backend(spec)
        try:
            _publish_system(backend, a)
            _publish_system(backend, b)
            res = backend.run_tasks([Tile(0, slice(0, 12), ALL, True)], EPS2)
        finally:
            backend.close()
        ref = _reference_tile(b, ALL, ALL, True)
        np.testing.assert_array_equal(res.acc, ref.acc)


@pytest.mark.parametrize("spec", ["inline", "thread:2", "process:2"])
class TestDispatchObserver:
    """The rank observatory's capture layer: every ``run_tasks`` with an
    observer attached yields one report dict with one sidecar sample per
    tile, and the rows are unchanged by observation."""

    def test_report_shape_and_samples(self, spec):
        system = plummer_model(18, seed=21)
        backend = resolve_backend(spec)
        reports = []
        backend.attach_observer(reports.append)
        try:
            _publish_system(backend, system)
            res = backend.run_tasks(_tiles(18, 2), EPS2)
        finally:
            backend.close()
        assert res.acc.shape == (18, 3)
        assert len(reports) == 1
        rep = reports[0]
        assert rep["backend"] == spec.partition(":")[0]
        assert rep["n_tasks"] == 2
        assert rep["span_wall_us"] >= 0.0
        assert rep["t_start_us"] > 0.0
        assert len(rep["samples"]) == 2
        for sample, tile in zip(rep["samples"], _tiles(18, 2)):
            assert sample["rank"] == tile.rank
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
            _publish_system(bare, system)
            _publish_system(observed, system)
            res_bare = bare.run_tasks(_tiles(20, 2), EPS2)
            res_obs = observed.run_tasks(_tiles(20, 2), EPS2)
        finally:
            bare.close()
            observed.close()
        _assert_same_results(res_obs, res_bare)

    def test_empty_dispatch_reports_zero_tasks(self, spec):
        backend = resolve_backend(spec)
        reports = []
        backend.attach_observer(reports.append)
        try:
            assert backend.run_tasks([], EPS2).interactions == 0
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
            _publish_system(backend, system)
            backend.run_tasks(_tiles(16, 2), EPS2)
            # no publish between dispatches: the second report owes 0
            backend.run_tasks(_tiles(16, 2), EPS2)
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
            _publish_system(backend, system)
            backend.run_tasks(_tiles(12, 2), EPS2)
            backend.detach_observer()
            backend.run_tasks(_tiles(12, 2), EPS2)
        finally:
            backend.close()
        assert len(reports) == 1


def test_thread_samples_charge_each_tile_its_own_cpu():
    """``cpu_us`` is the tile's own thread's CPU time: with two tiles
    running at once on ``thread:2`` neither is charged the other's, and
    a nanosecond clock never rounds a tile to zero or to 10 ms."""
    system = plummer_model(2048, seed=29)
    backend = ThreadBackend(2)
    reports = []
    backend.attach_observer(reports.append)
    try:
        _publish_system(backend, system)
        for _ in range(3):
            backend.run_tasks([Tile(0, slice(0, 256), ALL, True),
                               Tile(1, slice(256, 512), ALL, True)], EPS2)
    finally:
        backend.close()
    samples = [s for rep in reports for s in rep["samples"]]
    assert len(samples) == 6
    for s in samples:
        assert 0.0 < s["cpu_us"] <= s["wall_us"] + 100.0, s


@pytest.mark.parametrize("spec", ["thread:2", "process:2"])
def test_a_closed_pool_stays_closed(spec):
    """Any call after ``close()`` is an error for a pooled backend; a
    closed thread backend used to build itself a new pool that nothing
    shut down."""
    system = plummer_model(8, seed=30)
    backend = resolve_backend(spec)
    _publish_system(backend, system)
    backend.run_tasks(_tiles(8, 2), EPS2)
    backend.close()
    with pytest.raises(RuntimeError, match="backend is closed"):
        backend.run_tasks(_tiles(8, 2), EPS2)
    with pytest.raises(RuntimeError, match="backend is closed"):
        _publish_system(backend, system)
    assert getattr(backend, "_pool", None) is None


class TestWorkerArenaCache:
    """A worker holds one attached arena at a time: the one it held
    before a move is closed (unmapped), not abandoned, and re-attaching
    the arena it holds costs nothing."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_stale_arena_is_closed_on_regrowth(self):
        small, big = plummer_model(8, seed=1), plummer_model(64, seed=2)
        backend = ProcessBackend(1)
        try:
            _publish_system(backend, small)
            backend.run_tasks(_tiles(8, 2), EPS2)
            old = backend._arena.shm.name
            (worker,) = backend._procs
            _publish_system(backend, big)
            backend.run_tasks(_tiles(64, 2), EPS2)
            new = backend._arena.shm.name
            with open(f"/proc/{worker.pid}/maps") as fh:
                maps = fh.read()
        finally:
            backend.close()
        assert new != old
        assert new in maps and old not in maps
        assert old not in os.listdir("/dev/shm")

    def test_warm_reattach_is_free(self):
        """Blocksteps of one size republish into the same arena: after a
        worker's first dispatch no sample reports attach bytes."""
        system = plummer_model(16, seed=3)
        backend = ProcessBackend(2)
        reports = []
        backend.attach_observer(reports.append)
        try:
            for _ in range(3):
                _publish_system(backend, system)
                backend.run_tasks(_tiles(16, 4), EPS2)
        finally:
            backend.close()
        cold, *warm = [[s["attach_bytes"] for s in rep["samples"]]
                       for rep in reports]
        assert sum(cold) > 0
        assert warm == [[0] * 4] * 2


class TestProcessBackendArena:
    def test_segment_grows_on_larger_publish(self):
        small = plummer_model(8, seed=1)
        big = plummer_model(64, seed=2)
        backend = ProcessBackend(workers=2)
        try:
            for system in (small, big):
                _publish_system(backend, system)
                n = len(system.mass)
                res = backend.run_tasks([Tile(0, slice(0, n), ALL, True)], EPS2)
                ref = _reference_tile(system, ALL, ALL, True)
                np.testing.assert_array_equal(res.acc, ref.acc)
        finally:
            backend.close()

    def test_close_is_idempotent_and_final(self):
        backend = ProcessBackend(workers=1)
        backend.publish(jm=np.ones(4))
        backend.close()
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            backend.publish(jm=np.ones(4))

    def test_copy_path_holds_one_segment(self):
        """One arena per open ``process:k`` backend, created by the
        driver: the published arrays and the output rows share it, and
        the workers create no segment of their own."""
        before = set(os.listdir("/dev/shm"))
        system = plummer_model(64, seed=4)
        copy = CopyAlgorithm(SimNetwork(16), EPS2, executor="process:2")
        try:
            for observer in (None, lambda report: None):
                copy.executor.attach_observer(observer)
                copy.set_j_particles(system.pos, system.vel, system.mass)
                copy.forces_on(system.pos, system.vel, np.arange(64))
                assert _new_segments(before) == [copy.executor._arena.shm.name]
        finally:
            copy.executor.close()
        assert _new_segments(before) == []

    def test_larger_block_reattaches_once_per_worker(self):
        """A block larger than any before moves the arena to a larger
        segment: every worker re-attaches, each reporting the segment's
        bytes once, and the old segment is gone."""
        before = set(os.listdir("/dev/shm"))
        small, big = plummer_model(12, seed=5), plummer_model(96, seed=6)
        backend = ProcessBackend(2)
        reports = []
        backend.attach_observer(reports.append)
        try:
            _publish_system(backend, small)
            backend.run_tasks(_tiles(12, 4), EPS2)
            old = backend._arena.shm.name
            _publish_system(backend, big)
            res = backend.run_tasks(_tiles(96, 4), EPS2)
            size = backend._arena.shm.size
            assert _new_segments(before) == [backend._arena.shm.name] != [old]
        finally:
            backend.close()
        inline = InlineBackend()
        _publish_system(inline, big)
        _assert_same_results(res, inline.run_tasks(_tiles(96, 4), EPS2))
        samples = reports[1]["samples"]
        assert [s["attach_bytes"] for s in samples] == [size, 0, size, 0]
        assert samples[0]["pid"] != samples[2]["pid"]
        assert _new_segments(before) == []


def _share_bounds(n_b, p):
    """The copy algorithm's contiguous rank shares of an ``n_b`` block."""
    return [0, *np.cumsum(share_sizes(n_b, p)).tolist()]


def _share_tiles(bounds, exclude_self):
    return [Tile(r, slice(lo, hi), ALL, exclude_self)
            for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi > lo]


def _per_rank(arena, bounds, exclude_self):
    """One kernel call per rank with rows, its rows in rank order."""
    parts = [
        acc_jerk_pot_on_targets(
            arena["ix"][lo:hi], arena["iv"][lo:hi], arena["jx"], arena["jv"],
            arena["jm"], EPS2, exclude_self=exclude_self)
        for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    ]
    return execution.ForceJerkResult(
        np.concatenate([r.acc for r in parts]),
        np.concatenate([r.jerk for r in parts]),
        np.concatenate([r.pot for r in parts]),
        sum(r.interactions for r in parts))


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


@pytest.fixture
def slow_or_failing_kernel(monkeypatch):
    """The module-level force function replaced before any pool forks
    (the workers inherit it): a tile without ``exclude_self`` raises
    ``ValueError("boom")``, any other sleeps ``eps2`` seconds first."""

    def kernel(xi, vi, xj, vj, mj, eps2, exclude_self=False):
        if not exclude_self:
            raise ValueError("boom")
        time.sleep(eps2)
        return acc_jerk_pot_on_targets(xi, vi, xj, vj, mj, EPS2, exclude_self=True)

    monkeypatch.setattr(execution, "acc_jerk_pot_on_targets", kernel)


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
                    shares = _share_tiles(bounds, exclude_self)
                    for observer in (None, lambda report: None, None):
                        backend.attach_observer(observer)
                        got = backend.run_tasks(shares, EPS2)
                        _assert_same_results(got, want)
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
        grid.finish_forces(plan, grid.executor.run_tasks(plan.tiles, EPS2))
        assert kernel_calls() == {os.getpid(): len(plan.tiles)}
        assert len(plan.tiles) == 4


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


class TestProcessDispatchContract:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_send_per_worker_and_inline_bits(self, workers):
        """Contiguous runs, one message per worker per dispatch, rows in
        tile order and bitwise the inline backend's — observed or not."""
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
                    tiles = _tiles(27, count)
                    del sends[:]
                    got = backend.run_tasks(tiles, EPS2)
                    assert sends == list(range(min(workers, count)))
                    _assert_same_results(got, inline.run_tasks(tiles, EPS2))
        finally:
            backend.close()

    def test_kernel_error_keeps_its_type_and_the_backend(self, slow_or_failing_kernel):
        system = plummer_model(16, seed=32)
        backend = ProcessBackend(2)
        try:
            _publish_system(backend, system)
            tiles = [Tile(r, np.arange(r, 16, 4), ALL, r != 2) for r in range(4)]
            with pytest.raises(ValueError, match="boom"):
                backend.run_tasks(tiles, 0.0)
            ok = backend.run_tasks(_tiles(16, 4), 0.0)
        finally:
            backend.close()
        inline = InlineBackend()
        _publish_system(inline, system)
        _assert_same_results(ok, inline.run_tasks(_tiles(16, 4), 0.0))

    def test_attach_bytes_on_a_workers_first_slice_only(self):
        system = plummer_model(16, seed=33)
        backend = ProcessBackend(2)
        reports = []
        backend.attach_observer(reports.append)
        try:
            _publish_system(backend, system)
            backend.run_tasks(_tiles(16, 4), EPS2)
            backend.run_tasks(_tiles(16, 4), EPS2)
        finally:
            backend.close()
        cold = [s["attach_bytes"] for s in reports[0]["samples"]]
        assert cold[0] > 0 and cold[2] > 0  # each worker's first tile
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
    def test_dead_worker_raises_worker_lost(self, slow_or_failing_kernel, victim):
        """A worker SIGKILLed mid-dispatch is a named error within 2 s
        and a closed backend — never a hang, a stray child or a leaked
        segment.  The dispatch runs under a watchdog thread so that a
        hang is this test's failure, not a stuck suite."""
        shm_before = set(os.listdir("/dev/shm"))
        children_before = set(multiprocessing.active_children())
        backend = ProcessBackend(2)
        _publish_system(backend, plummer_model(4, seed=34))

        def sleepers(seconds):  # run w, one tile, sleeps on worker w
            return backend.run_tasks(_tiles(4, 2), seconds)

        sleepers(0.0)
        workers = sorted(
            set(multiprocessing.active_children()) - children_before,
            key=lambda proc: proc.pid)  # forked in worker order
        assert len(workers) == 2
        pid = workers[victim].pid
        outcome = {}

        def dispatch():
            try:
                outcome["result"] = sleepers(0.6)
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
            sleepers(0.0)
        backend.close()
        assert set(multiprocessing.active_children()) <= children_before
        assert set(os.listdir("/dev/shm")) <= shm_before

    def test_unlinked_arena_matches_inline_or_raises(self):
        """The arena's name unlinked from ``/dev/shm`` between dispatches
        (a cleaner, an operator): the workers keep their mapping, so
        every later dispatch matches inline bitwise — a larger block
        moves the arena to a new segment — or raises a named error; none
        hangs.  ``close()`` leaves no segment and no child."""
        shm_before = set(os.listdir("/dev/shm"))
        children_before = set(multiprocessing.active_children())
        system = plummer_model(48, seed=35)
        inline = InlineBackend()
        backend = ProcessBackend(2)
        try:
            for n_b in (16, 16, 16, 40, 40):
                arena = {"ix": system.pos[:n_b], "iv": system.vel[:n_b],
                         "jx": system.pos, "jv": system.vel, "jm": system.mass}
                inline.publish(**arena)
                backend.publish(**arena)
                tiles = _tiles(n_b, 4)
                outcome = {}

                def dispatch():
                    try:
                        outcome["result"] = backend.run_tasks(tiles, EPS2)
                    except Exception as exc:
                        outcome["error"] = exc

                watchdog = threading.Thread(target=dispatch, daemon=True)
                watchdog.start()
                watchdog.join(10.0)
                assert not watchdog.is_alive(), "run_tasks hung on an unlinked arena"
                if "error" in outcome:
                    assert isinstance(outcome["error"], (WorkerLost, OSError)), outcome
                else:
                    _assert_same_results(outcome["result"],
                                         inline.run_tasks(tiles, EPS2))
                name = backend._arena.shm.name
                if name in os.listdir("/dev/shm"):  # not yet unlinked
                    os.unlink(f"/dev/shm/{name}")
        finally:
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
            "from repro.parallel import ProcessBackend, Tile\n"
            "before = set(os.listdir('/dev/shm'))\n"
            "backend = ProcessBackend(2)\n"
            "x = np.zeros((8, 3)); x[:, 0] = np.arange(8)\n"
            "backend.publish(ix=x, iv=x, jx=x, jv=x, jm=np.ones(8))\n"
            "backend.run_tasks([Tile(r, np.arange(r, 8, 2), slice(None), True)\n"
            "                   for r in range(2)], 0.01)\n"
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
            assert len(pids) == 2 and len(segments) == 1  # the one arena
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
