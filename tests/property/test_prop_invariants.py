"""Property: every whole-run invariant, as one product of axes.

A cell is one run description - algorithm (serial, copy, ring, grid2d,
hybrid) x size x force backend (direct float64, the emulator's batched
or faithful datapath) x execution spec (inline, ``thread:2``,
``process:2``) x kill points x the spec a resume runs on x observers -
built the way the service builds it (``repro.service.jobs``), run to
its end by :func:`run_and_digest`, killed -> ``write_checkpoint`` ->
``restore_integrator`` at each kill point.  A cell runs once with
every observer of its kind attached (``SignatureRecorder`` +
``FlopsLedger`` on a serial run, a ``RankLedger`` on a parallel one;
the golden cells run as they were recorded, with none) and is compared
with its unobserved, uninterrupted inline reference, so one run asserts
at once:

- resume, execution backend, emulation datapath and observers are
  invisible: the state, counts and block schedule are bitwise the
  reference's; a parallel run's per-rank virtual clocks, comm ledgers and
  virtual time equal those of the inline run killed at the same points;
- the observers saw the run: each blockstep's schedule vector is that of
  its block size, every flops record keeps ``real + sum(buckets) ==
  peak`` and eq. 9's ``real <= 57 n_block N``, every rank record and
  section validates;
- copy is the serial run bit for bit; ring, grid2d and hybrid (partial
  force sums) agree with it to 1e-9;
- the goldens (a column of the table) recorded at commits before the
  Hermite tile, the pipeline tile and message rounds existed;
- faults: a NaN position or velocity ends in a named error before any
  force comes back, the state untouched; a bus consumer that raises on
  every record leaves a supervisor job on the reference bits, with every
  record archived and each error counted in the closing ``consumers:``
  line; a bus archive whose last line a kill tore in half is cut back to
  its last whole line on resume, and the job ends on the reference bits
  with one unbroken record sequence.
"""

import ast
import hashlib
import json
import tempfile
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.sampling import scout_schedule
from repro.core.hermite_tile import state_bytes
from repro.core.timestep import NonFiniteForce
from repro.hardware.fixedpoint import NonFiniteValue
from repro.io.checkpoint import read_checkpoint, restore_integrator, write_checkpoint
from repro.parallel import HybridAlgorithm
from repro.service import supervisor as supervisor_mod
from repro.service.bus import SnapshotBus
from repro.service.consumers import read_archive
from repro.service.jobs import (
    RUN_ALGORITHMS,
    JobError,
    JobSpec,
    build_backend,
    build_integrator,
    build_parallel,
    build_system,
    resolve_eps2,
)
from repro.service.supervisor import Supervisor
from repro.telemetry import (
    BUCKETS,
    FlopsLedger,
    PhaseSignature,
    RankLedger,
    SignatureRecorder,
    Tracer,
    validate_efficiency,
    validate_rank_record,
    validate_rank_section,
)

pytestmark = pytest.mark.tiers


@dataclass(frozen=True)
class Cell:
    algorithm: str = "serial"  # or copy | ring | grid2d | hybrid
    size: int = 1  # ranks; hybrid: clusters of four hosts
    force: str = "direct"  # or batched | faithful: the emulator's datapaths
    spec: str = "inline"  # where a parallel run's rank compute runs
    kill: tuple = ()  # blocksteps at which the run is killed and resumed
    resume: str | None = None  # the spec after a kill (None: the same)
    observe: bool = True
    n: int = 24
    seed: int = 42
    t_end: float = 1.0 / 16.0
    boards: int = 1
    hook: bool = False  # a compute-cost hook advances the virtual clocks
    # "pos" | "vel": NaN at the first kill point; "consumer": a supervisor
    # job whose bus carries a consumer that raises on every record;
    # "torn_archive": a supervisor job stopped at its kill point with the
    # last archive line torn, then resumed
    fault: str | None = None
    extra: tuple = ()  # more run params, as sorted items
    golden: tuple = field(default=(), compare=False)  # (digest field, value) pairs

    def params(self):
        """The ``repro.job/1`` run params this cell describes."""
        params = {"model": "plummer", "n": self.n, "seed": self.seed, "t_end": self.t_end}
        if self.force != "direct":
            params.update(backend="grape", boards=self.boards, emulation_mode=self.force)
        if self.algorithm in RUN_ALGORITHMS:
            params.update(algorithm=self.algorithm, ranks=self.size)
        return {**params, **dict(self.extra)}

    def __str__(self):
        """The test id: every field off its default (kill points as 5+12)."""
        return "-".join(
            f"{f.name}={'+'.join(map(str, value)) if f.name == 'kill' else value}"
            for f in fields(self) if f.compare and (value := getattr(self, f.name)) != f.default)


def compute_hook(rank, n_i, n_j):
    return 0.25 * n_i * n_j + 0.375 * rank


def build(cell, spec):
    """The force backend and parallel algorithm of ``cell``, through the
    service's builders; the caller closes the algorithm's executor."""
    params, hook = cell.params(), compute_hook if cell.hook else None
    if cell.algorithm == "hybrid":  # not a run algorithm: its size is a cluster count
        return None, HybridAlgorithm(cell.size, resolve_eps2(params), compute_time_us=hook, executor=spec)
    algorithm = build_parallel(params, spec)
    if algorithm is not None:
        algorithm.compute_time_us = hook  # no run param prices a rank's compute
    return build_backend(params), algorithm


class Digest(NamedTuple):
    state: str  # the nine state arrays and the block times
    trajectory: str  # pos, vel, acc, jerk, t, dt
    counts: tuple  # blocksteps, particle steps, interactions
    schedule: tuple  # block sizes
    t: float  # the integrator's time
    clock: str | None  # per-rank virtual clocks of every network
    ledger: str | None  # comm ledgers of every network
    virtual: float | None
    pos: np.ndarray

    @property
    def run(self):
        """What the physics decides: state, trajectory, counts, schedule, time."""
        return self[:5]

    @property
    def machine(self):
        """What the simulated machine recorded: clocks, ledgers, virtual time."""
        return self[5:8]


def sha(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def blake(data, size):
    return hashlib.blake2b(data, digest_size=size).hexdigest()


def schedule_vectors(n, sizes):
    return np.array([PhaseSignature(0, None, n, b, 0.0, {}).schedule_vector() for b in sizes])


def check_observers(integ, seen):
    """What the observers of each segment saw adds up to the run: a
    serial run's signatures and flops records, a parallel run's rank
    records, one per blockstep."""
    stats = integ.stats
    sigs, flops, ranks = ([obs for obs in column if obs is not None] for column in zip(*seen))
    if ranks:
        assert sum(len(ledger.records) for ledger in ranks) == stats.blocksteps
        for ledger in ranks:
            if ledger.records:  # not a segment past the end
                assert ledger.tasks > 0
                validate_rank_section(ledger.summary())
                for rec in ledger.records:
                    validate_rank_record(rec.as_record())
        return
    recorded = [sig.schedule_vector() for rec in sigs for sig in rec.signatures]
    np.testing.assert_array_equal(recorded, schedule_vectors(integ.system.n, stats.block_sizes))
    records = [rec for ledger in flops for rec in ledger.records]
    assert len(records) == stats.blocksteps
    for rec in records:
        total = rec.real_flops + sum(rec.buckets.values())
        assert abs(total - rec.peak_flops) <= max(1e-9 * max(rec.peak_flops, 1.0), 1e-6)
        assert 0.0 <= rec.fraction_of_peak <= 1.0 + 1e-9
        assert min(rec.buckets[name] for name in BUCKETS) >= 0.0
        assert rec.real_flops <= min(57.0 * rec.block_size * rec.n, rec.peak_flops) + 1e-6
    for ledger in flops:
        if ledger.count:
            validate_efficiency(ledger.summary())


def poison(cell, integ, error):
    """NaN in a particle outside the next block: a named error, nothing
    written, no blockstep counted."""
    _, block = integ.scheduler.next_block()
    getattr(integ.system, cell.fault)[np.setdiff1d(np.arange(cell.n), block)[0], 0] = np.nan
    before, blocksteps = state_bytes(integ.system), integ.stats.blocksteps
    with pytest.raises(error):
        integ.step()
    assert state_bytes(integ.system) == before and integ.stats.blocksteps == blocksteps


@lru_cache(maxsize=None)
def run_and_digest(cell):
    """Run ``cell`` to ``t_end``, killed and resumed from a checkpoint at
    each kill point, check what its observers saw, and digest it."""
    if cell.fault == "consumer":
        return supervise_with_a_raising_consumer(cell)
    if cell.fault == "torn_archive":
        return supervise_with_a_torn_archive(cell)
    params = cell.params()
    system, seen, integ = build_system(params), [], None
    with tempfile.TemporaryDirectory() as tmp:
        for stop in (*cell.kill, None):
            backend, algorithm = build(cell, cell.spec if integ is None else cell.resume or cell.spec)
            serial = algorithm is None
            observed = ((SignatureRecorder(), FlopsLedger(hardware=backend), None) if serial
                        else (None, None, RankLedger()))
            tracer = Tracer(enabled=True, sinks=observed[:2]) if cell.observe and serial else None
            try:
                if integ is None:
                    integ = build_integrator(system, params, backend=backend, algorithm=algorithm, tracer=tracer)
                else:
                    integ = restore_integrator(read_checkpoint(Path(tmp) / "kill.npz"),
                                               backend=backend, algorithm=algorithm, tracer=tracer)
                if cell.observe and not serial:
                    integ.observe_ranks(observed[2])
                integ.run(cell.t_end, None if stop is None else stop - integ.stats.blocksteps)
                assert stop in (None, integ.stats.blocksteps), "a kill point past the end"
                if cell.fault:
                    return poison(cell, integ, dict(cell.golden)["raises"])
                if stop is not None:
                    write_checkpoint(Path(tmp) / "kill.npz", integ)
            finally:
                if algorithm is not None:
                    algorithm.executor.close()
            seen.append(observed)
    if cell.observe:
        check_observers(integ, seen)
    return digest(integ, None if serial else algorithm)


def digest(integ, algorithm):
    """What ``integ`` ended on, and what ``algorithm``'s simulated
    machine recorded (``None``: a serial run)."""
    s, stats = integ.system, integ.stats
    machine = (None, None, None)
    if algorithm is not None:
        networks = getattr(algorithm, "networks", None) or [algorithm.network]
        machine = (sha(net.clock.snapshot().tobytes() for net in networks),
                   sha(json.dumps(net.ledger.as_dict(), sort_keys=True).encode() for net in networks),
                   integ.virtual_time_us)
    pos = s.pos.copy()
    pos.setflags(write=False)  # the cache hands one digest to every caller
    return Digest(
        blake(state_bytes(s, integ.scheduler.t_next), 16),
        blake(b"".join(a.tobytes() for a in (s.pos, s.vel, s.acc, s.jerk, s.t, s.dt)), 8),
        (stats.blocksteps, stats.particle_steps, stats.interactions),
        tuple(stats.block_sizes),
        integ.t,
        *machine,
        pos,
    )


class Raises:
    """A bus consumer that raises on every record."""

    name = "raises"

    def accept(self, record):
        raise RuntimeError("a consumer that always raises")

    def close(self):
        pass


def supervise_with_a_raising_consumer(cell):
    """Run ``cell`` as a supervisor job whose bus carries :class:`Raises`
    beside the same job without it, and digest its final checkpoint: the
    job completes, its archive holds every record the other's does, and
    the closing ``consumers:`` line counts one error a record."""
    doc = {"schema": "repro.job/1", "kind": "run", "params": cell.params(),
           "checkpoint_every": 8, "sample_every": 4}

    def completed(name):
        sup = Supervisor.submit(JobSpec.from_dict({**doc, "name": name}), Path(tmp) / name)
        assert sup.execute() == "completed"
        return sup

    with tempfile.TemporaryDirectory() as tmp:
        clean = completed("clean")
        with mock.patch.object(supervisor_mod, "SnapshotBus",
                               lambda consumers: SnapshotBus([*consumers, Raises()])):
            sup = completed("raising")
        records = read_archive(sup.paths.archive)
        assert len(records) == len(read_archive(clean.paths.archive)) > 5
        closing = sup.paths.progress.read_text().splitlines()[-1]
        assert closing.startswith("consumers: ")
        counts = ast.literal_eval(closing.removeprefix("consumers: "))
        assert counts["raises"] == {"delivered": 0, "errors": len(records)}
        for name in ("archive", "progress"):
            assert counts[name] == {"delivered": len(records), "errors": 0}
        final = read_checkpoint(sup.paths.latest_checkpoint())
    return digest(restore_integrator(final, backend=build_backend(cell.params())), None)


def supervise_with_a_torn_archive(cell):
    """Run ``cell`` as a supervisor job stopped at its kill point, tear
    the last archive line (40 bytes off the end, as a kill inside the
    write leaves it) and resume, and digest the final checkpoint.  A
    whole last line that does not parse stops the resume with the
    archive named and nothing written; a torn one is cut back to the
    last newline, its bytes reported in the ``discontinuity`` record,
    and the records are numbered 0 ... n - 1 across the seam."""
    (stop,) = cell.kill
    doc = {"schema": "repro.job/1", "kind": "run", "name": "torn", "params": cell.params(),
           "checkpoint_every": 8, "sample_every": 4, "max_blocksteps": stop}
    with tempfile.TemporaryDirectory() as tmp:
        sup = Supervisor.submit(JobSpec.from_dict(doc), Path(tmp) / "torn")
        assert sup.execute() == "interrupted"
        paths = sup.paths
        spec = json.loads(paths.spec.read_text())
        del spec["max_blocksteps"]
        paths.spec.write_text(json.dumps(spec))
        whole = paths.archive.read_bytes()
        torn = whole[:-40]
        kept = torn.rfind(b"\n") + 1
        assert 0 < kept < len(torn)  # the cut lands inside the last line
        paths.archive.write_bytes(torn[:kept] + b"not a record\n")
        before = {p: p.read_bytes() for p in paths.root.rglob("*") if p.is_file()}
        with pytest.raises(JobError, match=str(paths.archive)):
            sup.execute(resume=True)
        assert {p: p.read_bytes() for p in paths.root.rglob("*") if p.is_file()} == before
        paths.archive.write_bytes(torn)
        assert sup.execute(resume=True) == "completed"
        records = read_archive(paths.archive)
        assert [r.seq for r in records] == list(range(len(records)))
        (seam,) = [r for r in records if r.kind == "discontinuity"]
        assert seam.seq == whole[:kept].count(b"\n")
        assert seam.payload["torn_archive_bytes"] == len(torn) - kept
        final = read_checkpoint(paths.latest_checkpoint())
    return digest(restore_integrator(final, backend=build_backend(cell.params())), None)


def reference(cell):
    """The run ``cell`` must equal: unobserved, uninterrupted, inline, on
    the batched datapath if it asks for the faithful one."""
    return replace(cell, force="batched" if cell.force == "faithful" else cell.force,
                   spec="inline", kill=(), resume=None, observe=False, fault=None)


def check(cell):
    """Run ``cell`` and assert every invariant its axes imply."""
    got = run_and_digest(cell)
    if cell.fault in ("pos", "vel"):  # poison() has pinned the error
        return
    assert got.run == run_and_digest(reference(cell)).run and np.isfinite(got.pos).all()
    if cell.algorithm != "serial":
        assert got.machine == run_and_digest(replace(reference(cell), kill=cell.kill)).machine
        serial = run_and_digest(replace(reference(cell), algorithm="serial", size=1, hook=False))
        if cell.algorithm == "copy":
            assert got.run == serial.run
        else:
            np.testing.assert_allclose(got.pos, serial.pos, rtol=1e-9, atol=1e-9)
    for name, value in cell.golden:
        assert getattr(got, name) == value, name


# -- the goldens ----------------------------------------------------------------

#: blake2b-16 of the state of plummer N=64 seed 2003 run to t = 1, recorded
#: when ``BlockTimestepIntegrator.step`` was numpy inline (before the
#: Hermite tile).
GOLDEN_RUN = "b9b7865acbbd6a23f2f656ab76d73d2f"

#: boards -> digest of pos, vel, acc, jerk, t, dt of plummer N=32 seed 29
#: integrated to t = 1/16 on the emulator, recorded at the parent commit.
GOLDEN_TRAJECTORY = {
    1: "e8575c7da2193909",
    2: "e8575c7da2193909",
    4: "e8575c7da2193909",
}

#: (ledger digest, clock digest) of plummer N=24 seed 23 run to t=1/16,
#: per algorithm, size and compute-cost hook, recorded at the parent
#: commit.  Sizes are rank counts {1, 3, 4, 16}; grid2d needs a square,
#: so its 3 is the grid side (9 ranks); hybrid's size is clusters of 4.
GOLDEN = {
    ("copy", 1, "free"): ("e3e295308ba92228", "af5570f5a1810b7a"),
    ("copy", 1, "hook"): ("e3e295308ba92228", "c2008ba6240cd289"),
    ("copy", 3, "free"): ("f793afa728e772fd", "d6e2025ed9f55b42"),
    ("copy", 3, "hook"): ("4cd6c64a2e98078c", "fc5b2e1b1b90de8c"),
    ("copy", 4, "free"): ("4d4fdcb10dd4b2be", "efa68e26ab0f997a"),
    ("copy", 4, "hook"): ("0a3c0b3400224a83", "7045f955ba38b041"),
    ("copy", 16, "free"): ("f0ec3706ba62bc94", "be33d64441ea0881"),
    ("copy", 16, "hook"): ("a10f9481c3e1646a", "b7bf0009ecc82939"),
    ("ring", 1, "free"): ("e3e295308ba92228", "af5570f5a1810b7a"),
    ("ring", 1, "hook"): ("e3e295308ba92228", "c2008ba6240cd289"),
    ("ring", 3, "free"): ("c89ce908b896c639", "47af3cb7287ad026"),
    ("ring", 3, "hook"): ("34f532d895a251b6", "fdd5f7bdb948f0b3"),
    ("ring", 4, "free"): ("ff3640ab81d4edaa", "fd93aec5173b9785"),
    ("ring", 4, "hook"): ("64fce9dece5095d5", "9092037178e5f362"),
    ("ring", 16, "free"): ("328d5ed8c7566a47", "a1749256f7c56158"),
    ("ring", 16, "hook"): ("7e1e7a21e38a0367", "4e6241e72bd2fbbd"),
    ("grid2d", 1, "free"): ("e3e295308ba92228", "af5570f5a1810b7a"),
    ("grid2d", 1, "hook"): ("e3e295308ba92228", "c2008ba6240cd289"),
    ("grid2d", 4, "free"): ("87cfab7b4f9f0dce", "632ff2d3f7d68df2"),
    ("grid2d", 4, "hook"): ("8b80b318b27922e8", "ac728abdeeb72dec"),
    ("grid2d", 9, "free"): ("22c1ff7ca5ec43db", "748b7364583073b1"),
    ("grid2d", 9, "hook"): ("ce2638ffc1cee0f4", "ddf670680184de15"),
    ("grid2d", 16, "free"): ("a122dc17952a91b7", "6b6e4e0d97816337"),
    ("grid2d", 16, "hook"): ("69e440a9ccfa9f4f", "64a8eaafa11a9e59"),
    ("hybrid", 1, "free"): ("3ede3195543a5081", "b018aaa580aa7a06"),
    ("hybrid", 1, "hook"): ("88466d17ffc9db6e", "396643513fb134c0"),
    ("hybrid", 3, "free"): ("7afaf2822131c60c", "7b3b123400736cfd"),
    ("hybrid", 3, "hook"): ("488b2ae3e6bfa8e0", "8ac752594276195c"),
    ("hybrid", 4, "free"): ("1c1d80848a31a9fe", "0d87b198737d7cd2"),
    ("hybrid", 4, "hook"): ("4b2617d321b3a4d4", "a082c1c77577e36d"),
    ("hybrid", 16, "free"): ("313d2f5da5c5ef09", "430f0ca6d77d6050"),
    ("hybrid", 16, "hook"): ("d53ca14dd71eed44", "430f0ca6d77d6050"),
}


# -- the cell table ---------------------------------------------------------------

ALGORITHMS = {"copy": 4, "ring": 3, "grid2d": 4, "hybrid": 2}  # -> size
SPECS = ["inline", "thread:2", "process:2"]
#: one rank, non-power-of-two rank counts and more ranks than particles
#: (n = 12): uneven shares, odd rings, empty shares and zero-row tiles
CORNERS = {"copy": (1, 3, 16), "ring": (1, 5, 16), "grid2d": (1, 9, 16), "hybrid": (1, 3, 5)}
ERRORS = {"direct": NonFiniteForce, "batched": NonFiniteValue, "faithful": NonFiniteValue}

CELLS = [
    # the goldens were recorded unobserved: each of these cells is its own reference
    Cell(n=64, seed=2003, t_end=1.0, observe=False,
         golden=(("state", GOLDEN_RUN), ("counts", (1057, 8985, 570087)))),
    *(Cell(force="batched", boards=b, n=32, seed=29, observe=False, golden=(("trajectory", d),))
      for b, d in sorted(GOLDEN_TRAJECTORY.items())),
    *(Cell(name, size, seed=23, hook=cost == "hook", observe=False,
           golden=(("ledger", ledger), ("clock", clock)))
      for (name, size, cost), (ledger, clock) in sorted(GOLDEN.items())),
    Cell(seed=11, t_end=0.125),
    Cell(seed=5, t_end=0.25, kill=(5, 12)),
    *(Cell(force=mode, n=n, seed=seed, t_end=1.0 / 32.0, kill=kill) for mode in ("batched", "faithful")
      for n, seed, kill in ((16, 7, ()), (16, 7, (6,)), (48, 19, (6,)), (16, 5, ()), (16, 3, ()))),
    *(Cell(name, size) for name, size in ALGORITHMS.items()),
    *(Cell(name, size, spec=spec, n=12, seed=23, t_end=1.0 / 32.0)
      for name, sizes in CORNERS.items() for size in sizes for spec in SPECS[1:]),
    *(Cell(force=force, seed=3, t_end=1.0, kill=(5,), fault=what, golden=(("raises", error),))
      for force, error in ERRORS.items() for what in ("pos", "vel")),
    Cell(n=16, seed=4, t_end=0.125, observe=False, fault="consumer"),
    Cell(n=16, seed=4, t_end=0.125, observe=False, kill=(12,), fault="torn_archive"),
]


@pytest.mark.parametrize("cell", CELLS, ids=str)
def test_cell(cell):
    check(cell)


@pytest.mark.parametrize("seed", [42, 5, 7], ids="seed={}".format)  # each runs past blockstep 29
@settings(max_examples=8, deadline=None)
@given(kill=st.lists(st.integers(1, 29), min_size=1, max_size=2, unique=True).map(sorted))
def test_serial_kill_points(seed, kill):
    check(Cell(seed=seed, t_end=0.25, kill=tuple(kill)))


@settings(max_examples=8, deadline=None)
@given(name=st.sampled_from(sorted(ALGORITHMS)), spec=st.sampled_from(SPECS[1:]))
def test_parallel_specs(name, spec):
    check(Cell(name, ALGORITHMS[name], spec=spec))


@settings(max_examples=6, deadline=None)
@given(name=st.sampled_from(sorted(ALGORITHMS)), spec=st.sampled_from(SPECS[1:]),
       resume=st.sampled_from(SPECS), kill=st.integers(1, 9))
def test_parallel_kill_points(name, spec, resume, kill):
    check(Cell(name, ALGORITHMS[name], spec=spec, resume=resume, kill=(kill,)))


# -- one description, one run ----------------------------------------------------


def service_schedule(params):
    """Block sizes in the final checkpoint of a supervisor job run from
    ``params``."""
    doc = {"schema": "repro.job/1", "kind": "run", "name": "prop", "params": params}
    with tempfile.TemporaryDirectory() as tmp:
        sup = Supervisor.submit(JobSpec.from_dict(doc), Path(tmp) / "prop")
        assert sup.execute() == "completed"
        final = read_checkpoint(sup.paths.latest_checkpoint())
    return [int(b) for b in final.integrator_state["stats"]["block_sizes"]]


descriptions = st.builds(
    Cell,
    n=st.integers(8, 20),
    seed=st.integers(0, 40),
    extra=st.fixed_dictionaries({}, optional={
        "dt_max": st.sampled_from([2.0**-k for k in range(3, 11)]),
        "eta": st.floats(0.005, 0.05),
        "eta_start": st.floats(0.0005, 0.02),
        # at or below the smallest dt_max drawn, so always a legal pair
        "dt_min": st.sampled_from([2.0**-40, 2.0**-14, 2.0**-10]),
        "eps": st.sampled_from([1.0 / 16.0, 1.0 / 64.0, 1.0 / 256.0]),
    }).map(lambda extra: tuple(sorted(extra.items()))),
)


@settings(max_examples=12, deadline=None)
@given(cell=descriptions, backend=st.sampled_from(["direct", "grape"]))
def test_the_scout_schedules_the_run_the_service_executes(cell, backend):
    """The sampled-run estimator scouts a schedule by direct summation,
    whatever backend the description names; the service and this
    matrix's builder must run that schedule."""
    scouted, _ = scout_schedule({**cell.params(), "backend": backend}, cell.t_end)
    assert scouted == service_schedule(cell.params()) == list(run_and_digest(cell).schedule)
