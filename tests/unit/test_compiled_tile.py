"""The compiled pairwise tile's loader (repro.forces.compiled).

The loader has one job with two outcomes: hand out a compiled tile that
matches the numpy tier bit for bit, or say why it cannot - in which
case :mod:`repro.forces.kernels` serves the same bits from numpy, and
says so.  Every way it can fail is forced here, with the compiler lookup
and the cache location patched: no compiler, a compiler that fails, a
build that computes something else, a cache directory someone else
could write to, and several processes building at once.
"""

import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.forces import compiled, kernels
from repro.forces.compiled import TileUnavailable, load_pairwise_tile

SRC = Path(kernels.__file__).resolve().parents[2]

needs_compiler = pytest.mark.skipif(
    compiled.find_compiler() is None, reason="no C compiler on PATH"
)


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache root in place of the user's."""
    monkeypatch.setattr(compiled, "cache_root", lambda: tmp_path)
    return tmp_path / "repro-grape6"


def fake_compiler(tmp_path, status: int) -> str:
    """A ``cc`` that exits with ``status`` and writes nothing."""
    path = tmp_path / "fakecc"
    path.write_text(f'#!/bin/sh\necho "fakecc: internal error" >&2\nexit {status}\n')
    path.chmod(0o755)
    return str(path)


def forces(tile):
    """The kernel's results with ``tile`` serving, on a fixed tile."""
    rng = np.random.default_rng(5)
    x, v, m = rng.normal(size=(300, 3)), rng.normal(size=(300, 3)), rng.uniform(0.1, 1, 300)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_tile_sums", tile)
        out = kernels.pairwise_acc_jerk_pot(x[:9], v[:9], x, v, m, 2.0**-12, True)
    return b"".join(a.tobytes() for a in out)


def assert_numpy_tier(resolved, reason: str):
    """Fell back, said why, and computes what the process's tier does."""
    tile, tier, why = resolved
    assert tile is kernels.numpy_tile_sums and tier == "numpy"
    assert reason in why
    assert forces(tile) == forces(kernels._tile_sums)


class TestFallback:
    def test_no_compiler(self, cache, monkeypatch):
        monkeypatch.setattr(compiled, "find_compiler", lambda: None)
        assert_numpy_tier(kernels.resolve_kernel_tier(), "no C compiler")
        assert not cache.exists()

    def test_compiler_lookup_reads_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PATH", str(tmp_path))
        assert compiled.find_compiler() is None
        fake = Path(fake_compiler(tmp_path, 0))
        fake.rename(tmp_path / "gcc")
        assert compiled.find_compiler() == str(tmp_path / "gcc")

    def test_compiler_exits_nonzero(self, cache, monkeypatch, tmp_path):
        monkeypatch.setattr(compiled, "find_compiler", lambda: fake_compiler(tmp_path, 1))
        assert_numpy_tier(
            kernels.resolve_kernel_tier(), "exited 1: fakecc: internal error"
        )
        assert list(cache.iterdir()) == []  # no library, no temporary left

    def test_compiler_writes_no_library(self, cache, monkeypatch, tmp_path):
        """Exit status 0 and an empty output file: not loadable."""
        monkeypatch.setattr(compiled, "find_compiler", lambda: fake_compiler(tmp_path, 0))
        assert_numpy_tier(kernels.resolve_kernel_tier(), "cannot load")

    def test_missing_source(self, cache, monkeypatch, tmp_path):
        """Installed without its package data."""
        monkeypatch.setattr(compiled, "find_compiler", lambda: fake_compiler(tmp_path, 0))
        monkeypatch.setattr(compiled, "SOURCE", tmp_path / "absent.c")
        assert_numpy_tier(kernels.resolve_kernel_tier(), "absent.c")

    @needs_compiler
    def test_self_check_mismatch(self, cache, monkeypatch, tmp_path):
        """A build that adds the eight accumulators left to right - what
        a compiler free to reassociate might do - is within an ulp of
        right and is refused."""
        pairwise = "((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))"
        source = compiled.SOURCE.read_text()
        assert pairwise in source
        wrong = tmp_path / "reassociated.c"
        wrong.write_text(
            source.replace(pairwise, "r[0] + r[1] + r[2] + r[3] + r[4] + r[5] + r[6] + r[7]")
        )
        monkeypatch.setattr(compiled, "SOURCE", wrong)
        assert_numpy_tier(kernels.resolve_kernel_tier(), "self-check")

    def test_self_check_catches_a_wrong_mask(self):
        def unmasked(ci, cj, gm, eps2, mask_self, sums):
            kernels.numpy_tile_sums(ci, cj, gm, eps2, False, sums)

        compiled._self_check(kernels.numpy_tile_sums, kernels.numpy_tile_sums)
        with pytest.raises(TileUnavailable, match="mask_self=True"):
            compiled._self_check(unmasked, kernels.numpy_tile_sums)


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
        assert_numpy_tier(kernels.resolve_kernel_tier(), "writable")
        assert list(cache.iterdir()) == []  # nothing was built into it

    def test_owned_by_someone_else_is_refused(self, cache, monkeypatch, tmp_path):
        cache.mkdir(mode=0o700)
        owner = cache.stat().st_uid
        monkeypatch.setattr(compiled.os, "getuid", lambda: owner + 1)
        with pytest.raises(TileUnavailable, match=f"owned by uid {owner}"):
            compiled.cache_dir()
        monkeypatch.setattr(compiled, "find_compiler", lambda: fake_compiler(tmp_path, 0))
        assert_numpy_tier(kernels.resolve_kernel_tier(), "owned by uid")

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
        assert_numpy_tier(kernels.resolve_kernel_tier(), "no cache directory")


class TestUnforeseenPlatform:
    """The tier is resolved at import: whatever the loader meets, the
    package imports on the numpy tier and records what happened."""

    def test_no_home_directory(self, monkeypatch, tmp_path):
        """``Path.home()`` with HOME unset and no passwd entry."""
        def no_home():
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.setattr(compiled, "find_compiler", lambda: fake_compiler(tmp_path, 0))
        monkeypatch.setattr(compiled, "cache_root", no_home)
        assert_numpy_tier(
            kernels.resolve_kernel_tier(), "RuntimeError('Could not determine home directory.')"
        )

    def test_no_getuid(self, cache, monkeypatch, tmp_path):
        """Windows with a gcc on PATH."""
        monkeypatch.setattr(compiled, "find_compiler", lambda: fake_compiler(tmp_path, 0))
        monkeypatch.delattr(compiled.os, "getuid")
        assert_numpy_tier(kernels.resolve_kernel_tier(), "AttributeError")


@needs_compiler
class TestBuild:
    def test_builds_once_then_loads_from_the_cache(self, cache, monkeypatch):
        tile, built = load_pairwise_tile(kernels.numpy_tile_sums)
        (library,) = cache.iterdir()
        assert library.name.startswith("pairwise_tile-") and str(library) in built
        assert "-ffp-contract=off" in built and "fast-math" not in built
        assert forces(tile) == forces(kernels.numpy_tile_sums)

        monkeypatch.setattr(compiled, "_build", lambda *a: pytest.fail("rebuilt"))
        again, _ = load_pairwise_tile(kernels.numpy_tile_sums)
        assert forces(again) == forces(kernels.numpy_tile_sums)

    def test_the_key_covers_flags_compiler_and_cpu(self, cache, monkeypatch):
        load_pairwise_tile(kernels.numpy_tile_sums)
        monkeypatch.setattr(compiled, "cpu_identity", lambda: "another machine")
        load_pairwise_tile(kernels.numpy_tile_sums)
        monkeypatch.setattr(compiled, "compiler_identity", lambda cc: "an upgraded cc")
        load_pairwise_tile(kernels.numpy_tile_sums)
        monkeypatch.setattr(compiled, "CFLAGS", (*compiled.CFLAGS, "-DOTHER"))
        load_pairwise_tile(kernels.numpy_tile_sums)
        assert len(list(cache.iterdir())) == 4

    def test_compiler_identity_follows_links_and_sees_an_upgrade(self, tmp_path):
        real = tmp_path / "gcc-12"
        real.write_text("v1")
        (tmp_path / "cc").symlink_to(real)
        before = compiled.compiler_identity(str(tmp_path / "cc"))
        assert before == compiled.compiler_identity(str(real))
        real.write_text("v1.1")
        assert compiled.compiler_identity(str(tmp_path / "cc")) != before

    def test_the_tile_refuses_arrays_it_cannot_point_into(self, cache):
        tile, _ = load_pairwise_tile(kernels.numpy_tile_sums)
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

    def test_processes_building_at_once_leave_one_library(self, tmp_path):
        """More first imports than cores, on an empty cache: each builds
        under a temporary name and renames, so every one ends on the
        compiled tier and the directory holds one whole library."""
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path), "PYTHONPATH": str(SRC)}
        code = (
            "from repro.forces import kernels as k\n"
            "print(k.KERNEL_TIER, k.KERNEL_TIER_REASON)\n"
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
        (library,) = (tmp_path / "repro-grape6").iterdir()
        for out, _ in outs:
            assert out.startswith("c ") and str(library) in out, outs
