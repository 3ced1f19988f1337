"""Checkpoint files (repro.io.checkpoint, schema ``repro.checkpoint/1``).

Properties pinned here: a checkpoint captures the complete integrator
state (particles, per-particle times/steps, scheduler, statistics),
restoring reproduces that state bit-exactly, RNG and virtual clocks
ride along, provenance (environment fingerprint + git revision) is
stamped, and corrupt or foreign files are rejected loudly.  The
end-to-end resume bit-identity property is the kill-point axis of
``tests/property/test_prop_invariants.py``.
"""

import io
import json
import zipfile

import numpy as np
import pytest

from repro.core.individual import BlockTimestepIntegrator
from repro.io.checkpoint import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointError,
    checkpoint_provenance,
    read_checkpoint,
    restore_integrator,
    write_checkpoint,
)
from repro.models import plummer_model

from ..conftest import EPS2

ARRAYS = ("mass", "pos", "vel", "acc", "jerk", "snap", "crackle",
          "pot", "t", "dt")


def make_integrator(n=24, seed=31, steps=0):
    integ = BlockTimestepIntegrator(
        plummer_model(n, seed=seed), EPS2, eta=0.02
    )
    for _ in range(steps):
        integ.step()
    return integ


@pytest.fixture
def ckpt_path(tmp_path):
    return tmp_path / "ckpt.npz"


class TestRoundTrip:
    def test_arrays_bit_exact(self, ckpt_path):
        integ = make_integrator(steps=5)
        write_checkpoint(ckpt_path, integ)
        ckpt = read_checkpoint(ckpt_path)
        assert ckpt.meta["schema"] == CHECKPOINT_SCHEMA
        for name in ARRAYS:
            assert np.array_equal(
                getattr(ckpt.system, name), getattr(integ.system, name)
            ), name

    def test_restore_reproduces_integrator(self, ckpt_path):
        integ = make_integrator(steps=7)
        write_checkpoint(ckpt_path, integ)
        clone = restore_integrator(read_checkpoint(ckpt_path))
        assert clone.t == integ.t
        assert clone.eta == integ.eta and clone.eps2 == integ.eps2
        assert clone.stats.blocksteps == integ.stats.blocksteps
        assert clone.stats.interactions == integ.stats.interactions
        assert np.array_equal(
            clone.scheduler.t_next, integ.scheduler.t_next
        )
        # one more step on each must agree bit-exactly
        integ.step()
        clone.step()
        assert np.array_equal(clone.system.pos, integ.system.pos)
        assert np.array_equal(clone.system.vel, integ.system.vel)

    def test_rng_and_clocks_ride_along(self, ckpt_path):
        integ = make_integrator(steps=2)
        gen = np.random.default_rng(55)
        gen.standard_normal(9)
        write_checkpoint(
            ckpt_path, integ, rng=gen,
            clocks={"wall_s": 12.5, "t": integ.t},
        )
        ckpt = read_checkpoint(ckpt_path)
        assert ckpt.rng.bit_generator.state == gen.bit_generator.state
        assert ckpt.clocks["wall_s"] == 12.5

    def test_metadata_round_trips(self, ckpt_path):
        integ = make_integrator()
        write_checkpoint(ckpt_path, integ, metadata={"job": "demo"})
        assert read_checkpoint(ckpt_path).meta["metadata"]["job"] == "demo"


class TestBackendState:
    """The emulator reuses each particle's block exponents from its last
    force, and they decide the force's low bits: a checkpoint carries
    the exponent table, and a fresh emulator resumed from it ends on
    the uninterrupted run's bits (a fresh table guessed them anew, and
    this run ended elsewhere)."""

    def emulated(self, n=64, seed=13):
        from repro.hardware import Grape6Emulator

        return BlockTimestepIntegrator(
            plummer_model(n, seed=seed), EPS2, eta=0.02, backend=Grape6Emulator(EPS2, boards=2))

    def test_a_resumed_emulator_run_is_the_uninterrupted_one(self, ckpt_path):
        from repro.hardware import Grape6Emulator

        whole = self.emulated()
        whole.run(1.0)
        integ = self.emulated()
        integ.run(1.0, 8)
        write_checkpoint(ckpt_path, integ)
        ck = read_checkpoint(ckpt_path)
        np.testing.assert_array_equal(ck.backend_state["exponent_table"], integ.backend._exp)
        for table in (ck.backend_state, {}):
            emu = Grape6Emulator(EPS2, boards=2)
            resumed = restore_integrator(ck if table else Checkpoint(
                ck.meta, read_checkpoint(ckpt_path).system, ck.integrator_state), backend=emu)
            resumed.run(1.0)
            same = all(np.array_equal(getattr(resumed.system, name), getattr(whole.system, name))
                       for name in ARRAYS)
            assert same == bool(table)

    def test_a_direct_run_writes_no_backend_member(self, ckpt_path):
        write_checkpoint(ckpt_path, make_integrator(steps=3))
        with zipfile.ZipFile(ckpt_path) as archive:
            assert not [n for n in archive.namelist() if n.startswith("backend_")]
        assert read_checkpoint(ckpt_path).backend_state == {}


class TestBlockSizes:
    """One entry per blockstep so far: an ``.npz`` member, so the JSON
    header does not grow with the length of the run."""

    def test_header_size_independent_of_blocksteps(self, tmp_path):
        sizes = []
        for steps in (1, 40):
            path = write_checkpoint(tmp_path / f"{steps}.npz", make_integrator(steps=steps))
            with np.load(path) as data:
                assert data["block_sizes"].dtype == np.int64
                assert len(data["block_sizes"]) == steps
                header = json.loads(bytes(data["header"]).decode())
            assert "block_sizes" not in header["integrator"]["stats"]
            header["provenance"] = header["integrator"] = None  # float reprs vary
            sizes.append(len(json.dumps(header)))
        assert sizes[0] == sizes[1]

    def test_restored_as_list(self, ckpt_path):
        integ = make_integrator(steps=9)
        write_checkpoint(ckpt_path, integ)
        clone = restore_integrator(read_checkpoint(ckpt_path))
        assert clone.stats.block_sizes == integ.stats.block_sizes
        assert all(type(b) is int for b in clone.stats.block_sizes)

    def test_reads_the_layout_with_the_list_in_the_header(self, ckpt_path, tmp_path):
        """Checkpoints written before the member existed carry the list
        in the header; same schema, still readable."""
        integ = make_integrator(steps=6)
        write_checkpoint(ckpt_path, integ)
        with np.load(ckpt_path) as data:
            arrays = dict(data)
        header = json.loads(bytes(arrays["header"]).decode())
        header["integrator"]["stats"]["block_sizes"] = arrays.pop("block_sizes").tolist()
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        old = tmp_path / "old.npz"
        np.savez(old, **arrays)
        clone = restore_integrator(read_checkpoint(old))
        assert clone.stats.block_sizes == integ.stats.block_sizes
        integ.step()
        clone.step()
        assert np.array_equal(clone.system.pos, integ.system.pos)


class TestContainer:
    """The ``.npz`` is written member by member: deflate where it
    shrinks the member (header text, masses, times, steps, block
    sizes), stored where it only costs time (phase space and the force
    derivatives are mantissa noise)."""

    DEFLATED = {"header", "mass", "t", "dt", "scheduler_t_next", "block_sizes"}

    @staticmethod
    def members(integ):
        """What ``write_checkpoint`` puts in the container, by name."""
        state = integ.state_dict()
        return {
            "scheduler_t_next": state["scheduler_t_next"],
            "block_sizes": state["stats"]["block_sizes"],
            **{name: getattr(integ.system, name) for name in ARRAYS},
        }

    def test_the_parent_layout_reads_and_resumes_bit_identically(
            self, ckpt_path, tmp_path):
        """A file as ``np.savez_compressed`` wrote it before the
        per-member writer (every member deflated, same schema)."""
        integ = make_integrator(steps=12)
        write_checkpoint(ckpt_path, integ, rng=np.random.default_rng(4))
        with np.load(ckpt_path) as data:
            arrays = dict(data)
        old = tmp_path / "parent_layout.npz"
        with old.open("wb") as fh:
            np.savez_compressed(fh, **arrays)
        with zipfile.ZipFile(old) as archive:
            assert {i.compress_type for i in archive.infolist()} == {
                zipfile.ZIP_DEFLATED}
        ckpt = read_checkpoint(old)
        assert ckpt.rng.bit_generator.state == (
            np.random.default_rng(4).bit_generator.state)
        clone = restore_integrator(ckpt)
        for _ in range(20):
            integ.step()
            clone.step()
        for name in ARRAYS:
            assert np.array_equal(
                getattr(clone.system, name), getattr(integ.system, name)), name
        assert np.array_equal(clone.scheduler.t_next, integ.scheduler.t_next)

    def test_bare_numpy_opens_it_and_only_the_named_members_are_deflated(
            self, ckpt_path):
        integ = make_integrator(n=128, steps=30)
        write_checkpoint(ckpt_path, integ)
        wrote = self.members(integ)
        with np.load(ckpt_path) as data:  # no repro code on this path
            assert set(data.files) == {"header", *wrote}
            for name, value in wrote.items():
                assert np.array_equal(data[name], value), name
            assert json.loads(bytes(data["header"]).decode())[
                "schema"] == CHECKPOINT_SCHEMA
        with zipfile.ZipFile(ckpt_path) as archive:
            assert archive.testzip() is None
            how = {i.filename.removesuffix(".npy"): i.compress_type
                   for i in archive.infolist()}
        assert {n for n, c in how.items() if c == zipfile.ZIP_DEFLATED} == (
            self.DEFLATED)
        assert {n for n, c in how.items() if c == zipfile.ZIP_STORED} == (
            set(how) - self.DEFLATED)

    @pytest.mark.parametrize("n", [128, 1024])
    def test_at_most_a_tenth_larger_than_all_deflated(self, n, ckpt_path):
        """Once every particle has taken a step (until then its
        higher derivatives are zeros, which deflate to nothing)."""
        integ = make_integrator(n=n)
        integ.run(0.125)
        assert integ.system.t.min() > 0.0
        write_checkpoint(ckpt_path, integ)
        with np.load(ckpt_path) as data:
            arrays = dict(data)
        all_deflated = io.BytesIO()
        np.savez_compressed(all_deflated, **arrays)
        size = ckpt_path.stat().st_size
        assert size <= 1.10 * all_deflated.getbuffer().nbytes
        # and the members left stored would not have repaid deflating
        all_stored = io.BytesIO()
        np.savez(all_stored, **arrays)
        assert size < all_stored.getbuffer().nbytes


class TestProvenance:
    def test_fingerprint_and_revision(self):
        prov = checkpoint_provenance()
        assert "environment" in prov and "python" in prov["environment"]
        assert "git_revision" in prov

    def test_computed_once_and_handed_out_as_copies(self, monkeypatch):
        import repro.provenance as provenance

        first = checkpoint_provenance()
        monkeypatch.setattr(
            provenance, "environment_fingerprint",
            lambda: pytest.fail("fingerprint rebuilt for a second checkpoint"),
        )
        first["environment"]["python"] = "scribbled"
        again = checkpoint_provenance()
        assert again["environment"]["python"] != "scribbled"
        assert again["environment"]["kernel_tier"] in ("c", "numpy")

    def test_written_into_header(self, ckpt_path):
        write_checkpoint(ckpt_path, make_integrator())
        ckpt = read_checkpoint(ckpt_path)
        assert "environment" in ckpt.provenance
        assert ckpt.blocksteps == 0


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises((CheckpointError, FileNotFoundError)):
            read_checkpoint(tmp_path / "absent.npz")

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_foreign_schema(self, ckpt_path, tmp_path):
        integ = make_integrator()
        write_checkpoint(ckpt_path, integ)
        with np.load(ckpt_path) as data:
            arrays = dict(data)
        header = bytes(arrays["header"]).decode()
        arrays["header"] = np.frombuffer(
            header.replace(CHECKPOINT_SCHEMA, "other.schema/9").encode(),
            dtype=np.uint8,
        )
        bad = tmp_path / "foreign.npz"
        np.savez(bad, **arrays)
        with pytest.raises(CheckpointError):
            read_checkpoint(bad)

    def test_truncated_arrays(self, ckpt_path, tmp_path):
        write_checkpoint(ckpt_path, make_integrator())
        with np.load(ckpt_path) as data:
            arrays = dict(data)
        del arrays["pos"]
        bad = tmp_path / "trunc.npz"
        np.savez(bad, **arrays)
        with pytest.raises(CheckpointError):
            read_checkpoint(bad)

    @pytest.mark.parametrize("damage", ["bit_flip", "truncated", "empty"])
    def test_a_damaged_file_is_a_checkpoint_error_naming_it(
            self, ckpt_path, damage):
        """What a disk or a kill can do to a written file never escapes
        as ``zipfile.BadZipFile`` or ``EOFError``."""
        write_checkpoint(ckpt_path, make_integrator(steps=5))
        data = bytearray(ckpt_path.read_bytes())
        if damage == "bit_flip":
            with zipfile.ZipFile(ckpt_path) as archive:
                info = archive.getinfo("pos.npy")
            # a bit of the stored positions, past the member's headers
            data[info.header_offset + 30 + len(info.filename) + 20 + 200] ^= 0x10
        data = {"bit_flip": data, "truncated": data[: len(data) // 2],
                "empty": b""}[damage]
        ckpt_path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=str(ckpt_path)):
            read_checkpoint(ckpt_path)

    def test_write_is_atomic(self, ckpt_path):
        """No partial file left behind: the .npz appears only complete."""
        write_checkpoint(ckpt_path, make_integrator())
        leftovers = [
            p for p in ckpt_path.parent.iterdir() if p != ckpt_path
        ]
        assert leftovers == []
        read_checkpoint(ckpt_path)  # parses
