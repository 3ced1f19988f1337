"""The compiled tiles' resolver (repro.forces.compiled).

:func:`~repro.forces.compiled.resolve` has one job with two outcomes:
hand out a compiled tile that matches the numpy tier bit for bit, or
hand out the numpy tier (the owner's reference: :mod:`repro.forces.kernels`
for the pairwise tile, :mod:`repro.hardware.pipeline` for the pipeline
tile, :mod:`repro.core.hermite_tile` for the Hermite tile,
:mod:`repro.parallel.network_tile` for the network tile) - and record in
``compiled.TIERS`` which, and why.  Every way it can fail is forced
here, with the compiler lookup and the cache location patched: no
compiler, a compiler that fails, a build that computes something else,
a cache directory someone else could write to, and several processes
building at once.  There is one resolver, so every case runs over every
tile of :data:`TILES`, each given to it as its owner gives it (inside
the test: the test names are pinned).  A library with two answers to
check has a row for each, under its one name.

A build takes a compiler run of up to a second, so a test builds only
the libraries its case is about: the rest it copies from this process's
own cache into its empty one (:func:`seed`), under the names the key
gives them.
"""

import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from repro.core import hermite_tile
from repro.forces import compiled, kernels
from repro.forces.compiled import TileUnavailable
from repro.hardware import pipeline
from repro.hardware.blockfloat import BlockFloatOverflow
from repro.hardware.pipeline import NUMPY_PIPELINE, PipelineFormats
from repro.parallel import network_tile
from tests.conftest import needs_compiled
from tests.integration.test_no_process import process_events

pytestmark = pytest.mark.tiers

SRC = Path(kernels.__file__).resolve().parents[2]

needs_compiler = pytest.mark.skipif(
    compiled.find_compiler() is None, reason="no C compiler on PATH"
)


def forces(tile):
    """The kernel's results with ``tile``'s sums serving, on a fixed tile."""
    rng = np.random.default_rng(5)
    x, v, m = rng.normal(size=(300, 3)), rng.normal(size=(300, 3)), rng.uniform(0.1, 1, 300)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_tile_sums", tile.sums)
        out = kernels.pairwise_acc_jerk_pot(x[:9], v[:9], x, v, m, 2.0**-12, True)
    return b"".join(a.tobytes() for a in out)


def resident(tile):
    """What a resident set's force calls answer with ``tile`` serving,
    on the largest set of its own self-check."""
    return kernels._resident_bytes(tile, 300, list(range(0, 300, 7)))


def lanes(tier):
    """The pipeline tile's lanes from ``tier``, on a fixed tile, and its
    forces on the same tile, loaded in place and called from raw
    targets, with the exponent table they leave."""
    rng = np.random.default_rng(5)
    fmt = PipelineFormats.default()
    x, v, m = rng.normal(size=(300, 3)), rng.normal(size=(300, 3)), rng.uniform(0.1, 1, 300)
    x_q, exponents = fmt.pos.quantize(x), np.full((7, 9), 14)
    args = (x_q[:9], v[:9], np.ascontiguousarray(x_q.T), np.ascontiguousarray(v.T), m,
            np.arange(300), exponents, 2.0**-12, fmt, np.arange(9))
    j_set = pipeline.JSet(np.empty((3, 300), np.int64), np.empty((3, 300)), np.empty(300),
                          np.empty(300, np.int64))
    tier.load_j_set(j_set, fmt, x, v, m)
    cache = np.full((3, 9), pipeline.UNCACHED)
    forces = tier.forces(j_set, x[:9], v[:9], np.arange(9), cache, exponents, 2.0**-12, fmt)
    return (pipeline.lanes_or_overflow(tier.partial_lanes, *args) + pipeline._flat(forces)
            + cache.tobytes())


def formats(tier):
    """The storage formats of ``tier`` on values around the position
    word's range ends, saturated."""
    fmt = PipelineFormats.default()
    x = np.array([2.0**23 - 2.0**-41, 2.0**23, -2.0**23, -2.0**23 - 1.0, 1e10, 0.5 * 2.0**-40])
    return (tier.quantize(fmt.pos, x, True).tobytes()
            + tier.round_float(fmt.word, x).tobytes())


def blockstep(tile):
    """Every array one predict + advance of ``tile`` leaves, on the
    largest block of its own self-check."""
    s, block, acc1, jerk1, pot1 = hermite_tile._self_check_system(12, 9, 1.0)
    xp, vp = tile.predict(1.0, s.t, s.pos, s.vel, s.acc, s.jerk)
    dt_new = tile.advance(s, block, 1.0, xp, vp, acc1, jerk1, pot1, 0.02, 0.25, 2.0**-40)
    return hermite_tile.state_bytes(s, xp, vp, dt_new)


def predicted_j(tile):
    """What ``tile``'s prediction into a j-set leaves, on the largest
    set of its own self-check."""
    return hermite_tile.predicted_j_bytes(tile, 300, list(range(0, 300, 7)))


def bookkeeping(tile):
    """Every array the network tile's own self-check programs leave with
    ``tile`` serving: schedules on 16 ranks, then three folds."""
    return network_tile._self_check_run(tile, 16, False) + network_tile._self_check_fold(tile)


class Tile(NamedTuple):
    """A row of ``compiled.SOURCES`` as its owner module gives it to
    :func:`compiled.resolve <repro.forces.compiled.resolve>`."""

    name: str
    bind: Callable  # library -> tile
    self_check: Callable  # tile -> None, or TileUnavailable
    reference: Callable  # the numpy tier
    serving: Callable  # () -> the tile this process resolved at import
    answer: Callable  # tile -> bytes, on a fixed problem
    #: an edit of the source that is within an ulp of right
    sabotage: tuple[str, str]

    def resolve(self):
        """The tile :func:`compiled.resolve` serves, and the tier and
        reason it records."""
        tile = compiled.resolve(self.name, self.bind, self.self_check, self.reference)
        return (tile, *compiled.TIERS[self.name])


TILES = (
    Tile(
        "pairwise_tile", kernels._bind, kernels._self_check, kernels.NUMPY_PAIRWISE,
        lambda: kernels._tier, forces,
        # the eight accumulators left to right: what a compiler free to
        # reassociate might do
        ("((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))",
         "r[0] + r[1] + r[2] + r[3] + r[4] + r[5] + r[6] + r[7]"),
    ),
    Tile(
        "pairwise_tile", kernels._bind, kernels._self_check, kernels.NUMPY_PAIRWISE,
        lambda: kernels._tier, resident,
        # the self pair counted in a resident set's calls
        ("streaming(cj, r->gm, n, r->eps2, flags & MASK_SELF)", "streaming(cj, r->gm, n, r->eps2, 0)"),
    ),
    Tile(
        "pipeline_tile", pipeline._bind, pipeline._self_check, NUMPY_PIPELINE,
        lambda: pipeline._tier, lanes,
        # the pair format truncated instead of rounded to nearest
        ("b += ((b >> drop) & odd) + half_less_one;", ""),
    ),
    Tile(
        "pipeline_tile", pipeline._bind, pipeline._self_check, NUMPY_PIPELINE,
        lambda: pipeline._tier, formats,
        # the fixed-point range closed at its top end: 2^63 quanta wrap
        ("(r < top) & (r >= -top)", "(r <= top) & (r >= -top)"),
    ),
    Tile(
        "hermite_tile", hermite_tile._bind, hermite_tile._self_check, hermite_tile.NUMPY_TILE,
        lambda: hermite_tile._tile, blockstep,
        # the velocity correction reassociated
        ("(vp[3 * i + c] + h3_6 * a2) + h4_24 * a3", "vp[3 * i + c] + (h3_6 * a2 + h4_24 * a3)"),
    ),
    Tile(
        "hermite_tile", hermite_tile._bind, hermite_tile._self_check, hermite_tile.NUMPY_TILE,
        lambda: hermite_tile._tile, predicted_j,
        # the predictor's division by 6 as a multiplication by 1/6
        ("j0 * (dt / 6.0)", "j0 * (dt * (1.0 / 6.0))"),
    ),
    Tile(
        "network_tile", network_tile._bind, network_tile._self_check, network_tile.NUMPY_TILE,
        lambda: network_tile._tile, bookkeeping,
        # the division by the bandwidth as a multiplication by its
        # reciprocal: what -ffast-math would make of it
        ("net->base + (double)nb / net->bandwidth", "net->base + (double)nb * (1.0 / net->bandwidth)"),
    ),
)


#: the library that takes longest to build, which concurrent first
#: imports race to build, and the one that builds fastest (0.9 and 0.2 s
#: on a 2-vCPU x86-64 box; the other two 0.2 - 0.5 s)
SLOWEST, FASTEST = "pipeline_tile", "network_tile"


@pytest.fixture(autouse=True)
def tiers(monkeypatch):
    """What a test resolves is recorded in a copy of ``compiled.TIERS``:
    the process's own record is left as it was."""
    monkeypatch.setattr(compiled, "TIERS", dict(compiled.TIERS))


@pytest.fixture(scope="module")
def served():
    """The cache this process loaded its own compiled tiles from, read
    before any test points the cache elsewhere (a wider-scoped fixture
    is set up first)."""
    if any(tier != "c" for tier, _ in compiled.TIERS.values()):
        pytest.skip(f"this process does not serve every tile compiled: {compiled.TIERS}")
    return compiled.cache_dir()


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache root in place of the user's."""
    monkeypatch.setattr(compiled, "cache_root", lambda: tmp_path)
    return tmp_path / "repro-grape6"


def seed(served, names) -> None:
    """Copy this process's builds of ``names`` into the (patched) cache
    under the names :func:`compiled.library_path` gives them, so that
    loading them builds nothing."""
    cc = compiled.find_compiler()
    for name in names:
        target = compiled.library_path(name, cc)
        shutil.copy(served / target.name, target)


def fake_compiler(tmp_path, status: int) -> str:
    """A ``cc`` that exits with ``status`` and writes nothing."""
    path = tmp_path / "fakecc"
    path.write_text(f'#!/bin/sh\necho "fakecc: internal error" >&2\nexit {status}\n')
    path.chmod(0o755)
    return str(path)


def assert_numpy_tier(reason: str, tiles=TILES):
    """Every tile fell back, said why, and computes what the process's
    tier does."""
    for t in tiles:
        tile, tier, why = t.resolve()
        assert tile is t.reference and tier == "numpy", t.name
        assert reason in why, t.name
        assert t.answer(tile) == t.answer(t.serving()), t.name


def assert_compiled_tier(tiles=TILES) -> list[str]:
    """Every tile built, passed its self-check, and computes what the
    numpy tier does; the lines saying what was built."""
    built = []
    for t in tiles:
        tile, tier, why = t.resolve()
        assert tier == "c", (t.name, why)
        assert t.answer(tile) == t.answer(t.reference), t.name
        built.append(why)
    return built


class TestFallback:
    def test_no_compiler(self, cache, monkeypatch):
        monkeypatch.setattr(compiled, "find_compiler", lambda: None)
        assert_numpy_tier("no C compiler")
        assert not cache.exists()

    def test_compiler_lookup_reads_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PATH", str(tmp_path))
        assert compiled.find_compiler() is None
        fake = Path(fake_compiler(tmp_path, 0))
        fake.rename(tmp_path / "gcc")
        assert compiled.find_compiler() == str(tmp_path / "gcc")

    def test_compiler_exits_nonzero(self, cache, monkeypatch, tmp_path):
        monkeypatch.setattr(compiled, "find_compiler", lambda: fake_compiler(tmp_path, 1))
        assert_numpy_tier("exited 1: fakecc: internal error")
        assert list(cache.iterdir()) == []  # no library, no temporary left

    def test_compiler_writes_no_library(self, cache, monkeypatch, tmp_path):
        """Exit status 0 and an empty output file: not loadable."""
        monkeypatch.setattr(compiled, "find_compiler", lambda: fake_compiler(tmp_path, 0))
        assert_numpy_tier("cannot load")

    def test_missing_source(self, cache, monkeypatch, tmp_path):
        """Installed without its package data."""
        monkeypatch.setattr(compiled, "find_compiler", lambda: fake_compiler(tmp_path, 0))
        for name in compiled.SOURCES:
            monkeypatch.setitem(compiled.SOURCES, name, tmp_path / "absent.c")
        assert_numpy_tier("absent.c")

    def test_the_table_is_the_shipped_sources(self):
        assert set(compiled.SOURCES) == {t.name for t in TILES}
        for name, source in compiled.SOURCES.items():
            assert source.is_file() and source.name == f"{name}.c"

    @needs_compiler
    def test_self_check_mismatch(self, served, cache, monkeypatch, tmp_path):
        """A build within an ulp of right is refused - and only it: the
        other tiles still load compiled, from the cache, and only the
        edited sources are built."""
        seed(served, compiled.SOURCES)
        real_build, built = compiled._build, []

        def build(cc, source, target):
            built.append(source.name)
            real_build(cc, source, target)

        monkeypatch.setattr(compiled, "_build", build)
        for t in TILES:
            right, wrong = t.sabotage
            source = compiled.SOURCES[t.name].read_text()
            assert right in source
            edited = tmp_path / f"edited_{t.name}.c"
            edited.write_text(source.replace(right, wrong))
            with monkeypatch.context() as patch:
                patch.setitem(compiled.SOURCES, t.name, edited)
                assert_numpy_tier("self-check", [t])
                assert_compiled_tier([other for other in TILES if other.name != t.name])
        assert built == [f"edited_{t.name}.c" for t in TILES]

    def test_self_check_catches_a_wrong_mask(self):
        def unmasked(ci, cj, gm, eps2, mask_self, sums):
            kernels.numpy_tile_sums(ci, cj, gm, eps2, False, sums)

        kernels._self_check(kernels.NUMPY_PAIRWISE)
        with pytest.raises(TileUnavailable, match="mask_self=True"):
            kernels._self_check(kernels.NUMPY_PAIRWISE._replace(sums=unmasked))

    def test_self_check_catches_a_dropped_index_or_flag(self):
        """The pipeline tile's: host indices ignored, or a saturating
        term let through as garbage lanes."""
        def unindexed(*args):
            return pipeline.numpy_partial_lanes(*args[:9], None)

        def unflagged(*args):
            try:
                return pipeline.numpy_partial_lanes(*args)
            except BlockFloatOverflow:
                n_i = args[0].shape[0]
                return np.zeros((7, n_i), np.int64), np.zeros((7, n_i), np.int64)

        with np.errstate(all="ignore"):  # the boundary's cases overflow numpy, as they should
            pipeline._self_check(NUMPY_PIPELINE)
        for wrong in (unindexed, unflagged):
            with pytest.raises(TileUnavailable, match="self-check"):
                pipeline._self_check(NUMPY_PIPELINE._replace(partial_lanes=wrong))


class TestCacheDirectory:
    def test_created_private(self, cache):
        assert compiled.cache_dir() == cache
        assert stat.S_IMODE(cache.stat().st_mode) == 0o700

    @pytest.mark.parametrize("mode", [0o770, 0o707, 0o777, 0o720])
    def test_group_or_world_writable_is_refused(self, cache, monkeypatch, tmp_path, mode):
        cache.mkdir()
        cache.chmod(mode)
        with pytest.raises(TileUnavailable, match="writable"):
            compiled.cache_dir()
        monkeypatch.setattr(compiled, "find_compiler", lambda: fake_compiler(tmp_path, 0))
        assert_numpy_tier("writable")
        assert list(cache.iterdir()) == []  # nothing was built into it

    def test_owned_by_someone_else_is_refused(self, cache, monkeypatch, tmp_path):
        cache.mkdir(mode=0o700)
        owner = cache.stat().st_uid
        monkeypatch.setattr(compiled.os, "getuid", lambda: owner + 1)
        with pytest.raises(TileUnavailable, match=f"owned by uid {owner}"):
            compiled.cache_dir()
        monkeypatch.setattr(compiled, "find_compiler", lambda: fake_compiler(tmp_path, 0))
        assert_numpy_tier("owned by uid")

    def test_a_symlink_is_refused(self, cache, tmp_path):
        (tmp_path / "elsewhere").mkdir(mode=0o700)
        cache.symlink_to(tmp_path / "elsewhere")
        with pytest.raises(TileUnavailable, match="not a directory"):
            compiled.cache_dir()

    def test_uncreatable_is_refused(self, monkeypatch, tmp_path):
        """No second location: without a usable cache, the numpy tier."""
        blocked = tmp_path / "file"
        blocked.write_text("")
        monkeypatch.setattr(compiled, "cache_root", lambda: blocked)  # mkdir fails
        with pytest.raises(TileUnavailable, match="no cache directory"):
            compiled.cache_dir()
        monkeypatch.setattr(compiled, "find_compiler", lambda: fake_compiler(tmp_path, 0))
        assert_numpy_tier("no cache directory")


class TestUnforeseenPlatform:
    """The tiers are resolved at import: whatever the loader meets, the
    package imports on the numpy tier and records what happened."""

    def test_no_home_directory(self, monkeypatch, tmp_path):
        """``Path.home()`` with HOME unset and no passwd entry."""
        def no_home():
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.setattr(compiled, "find_compiler", lambda: fake_compiler(tmp_path, 0))
        monkeypatch.setattr(compiled, "cache_root", no_home)
        assert_numpy_tier("RuntimeError('Could not determine home directory.')")

    def test_no_getuid(self, cache, monkeypatch, tmp_path):
        """Windows with a gcc on PATH."""
        monkeypatch.setattr(compiled, "find_compiler", lambda: fake_compiler(tmp_path, 0))
        monkeypatch.delattr(compiled.os, "getuid")
        assert_numpy_tier("AttributeError")

    def test_no_proc_cpuinfo(self):
        """The key's CPU is then the architecture alone, read without
        starting a process (``platform.processor()`` runs ``uname -p``)."""
        events, same = process_events("""
            import builtins, platform
            from repro.forces import compiled
            def unreadable(file, *args, open=builtins.open, **kwargs):
                if file == "/proc/cpuinfo":
                    raise PermissionError(file)
                return open(file, *args, **kwargs)
            builtins.open = unreadable
            print(compiled.cpu_identity() == platform.machine())
            """)
        assert same == "True" and events == []


class TestBuild:
    @needs_compiler
    def test_builds_once_then_loads_from_the_cache(self, cache, monkeypatch):
        built = assert_compiled_tier()
        libraries = sorted(cache.iterdir())
        assert [lib.name.split("-")[0] for lib in libraries] == sorted({t.name for t in TILES})
        for line in built:
            assert "-ffp-contract=off" in line and "fast-math" not in line
            assert sum(str(lib) in line for lib in libraries) == 1

        monkeypatch.setattr(compiled, "_build", lambda *a: pytest.fail("rebuilt"))
        assert assert_compiled_tier() == built

    @needs_compiler
    def test_the_key_covers_flags_compiler_and_cpu(self, cache, monkeypatch, tmp_path):
        """Another CPU, compiler, set of flags or source is another
        library for every tile, named without building it; and the
        library is built where the key names it."""
        cc = compiled.find_compiler()

        def paths() -> set:
            return {compiled.library_path(name, cc) for name in compiled.SOURCES}

        keys = [paths()]
        monkeypatch.setattr(compiled, "cpu_identity", lambda: "another machine")
        keys.append(paths())
        monkeypatch.setattr(compiled, "compiler_identity", lambda cc: "an upgraded cc")
        keys.append(paths())
        monkeypatch.setattr(compiled, "CFLAGS", (*compiled.CFLAGS, "-DOTHER"))
        keys.append(paths())
        for name, source in compiled.SOURCES.items():
            edited = tmp_path / f"{name}.c"
            edited.write_text(source.read_text() + "/* edited */\n")
            monkeypatch.setitem(compiled.SOURCES, name, edited)
        keys.append(paths())
        assert len(set().union(*keys)) == 5 * len(compiled.SOURCES)
        assert list(cache.iterdir()) == []

        [fastest] = [t for t in TILES if t.name == FASTEST]
        [why] = assert_compiled_tier([fastest])
        assert list(cache.iterdir()) == [compiled.library_path(FASTEST, cc)]
        assert str(compiled.library_path(FASTEST, cc)) in why

    def test_compiler_identity_follows_links_and_sees_an_upgrade(self, tmp_path):
        """Needs no compiler: it stats files only, so the no-compiler
        run of the tier tests runs it too."""
        real = tmp_path / "gcc-12"
        real.write_text("v1")
        (tmp_path / "cc").symlink_to(real)
        before = compiled.compiler_identity(str(tmp_path / "cc"))
        assert before == compiled.compiler_identity(str(real))
        real.write_text("v1.1")
        assert compiled.compiler_identity(str(tmp_path / "cc")) != before

    @needs_compiler
    @needs_compiled("pairwise_tile")
    def test_the_tile_refuses_arrays_it_cannot_point_into(self):
        tile = kernels._tile_sums
        ci, cj, gm, sums = np.zeros((6, 2)), np.ones((6, 5)), np.ones(5), np.empty((7, 2))
        tile(ci, cj, gm, 0.25, False, sums)
        for bad in (
            (ci, cj, gm[:4], sums),
            (ci, cj, gm, np.empty((7, 3))),
            (ci.astype(np.float32), cj, gm, sums),
            (np.zeros((2, 6)).T, cj, gm, sums),
        ):
            with pytest.raises(ValueError, match="contiguous float64"):
                tile(*bad[:3], 0.25, False, bad[3])

    @needs_compiler
    def test_processes_building_at_once_leave_one_library(self, served, cache):
        """More first imports than cores, on a cache that lacks the
        slowest library to build: each builds it under a temporary name
        and renames, so every one ends on the compiled tier and the
        directory holds one whole library a tile."""
        seed(served, [name for name in compiled.SOURCES if name != SLOWEST])
        env = {**os.environ, "XDG_CACHE_HOME": str(cache.parent), "PYTHONPATH": str(SRC)}
        code = (  # printed in the order the libraries' names sort
            "import repro\n"
            "from repro.forces.compiled import TIERS\n"
            "for name in sorted(TIERS):\n"
            "    print(*TIERS[name])\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code], env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for _ in range(6)
        ]
        outs = [p.communicate(timeout=300) for p in procs]
        assert [p.returncode for p in procs] == [0] * 6, outs
        libraries = sorted(cache.iterdir())
        assert [lib.name.split("-")[0] for lib in libraries] == sorted(compiled.SOURCES)
        for out, _ in outs:
            for line, library in zip(out.splitlines(), libraries, strict=True):
                assert line.startswith("c ") and str(library) in line, outs
