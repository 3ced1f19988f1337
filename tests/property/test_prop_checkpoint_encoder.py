"""Property: the checkpoint encoder writes the bytes ``zipfile`` writes.

``repro.io.checkpoint._encode_npz`` builds the ``.npz`` in memory from a
layout bound once per (member, dtype, shape).  The oracle is the
``zipfile`` writer it replaced, kept here verbatim as
:func:`_write_npz`.  Drawn: N over 1..1024, empty and long
``block_sizes``, JSON headers of lengths on both sides of multiples of
64, and extra members whose npy headers fall on both sides of the npy
format's 64-byte padding.  Bare ``numpy.load`` must read every member,
and a whole checkpoint must be byte for byte what the old writer wrote
for the same state.
"""

import io
import json
import zipfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.individual import BlockTimestepIntegrator
from repro.io import checkpoint
from repro.io.checkpoint import (
    _DEFLATED_MEMBERS,
    _SYSTEM_ARRAYS,
    _encode_npz,
    CHECKPOINT_SCHEMA,
    checkpoint_provenance,
    encode_checkpoint,
)
from repro.io.snapshot import encode_json_safe
from repro.models import plummer_model

from ..conftest import EPS2


def _write_npz(fh, members):
    """``numpy.savez`` with the compression chosen per member
    (:data:`_DEFLATED_MEMBERS`): the container ``numpy.load`` reads."""
    import zipfile  # as numpy does: only a process that writes pays for it

    with zipfile.ZipFile(fh, "w") as archive:
        for name, value in members.items():
            info = zipfile.ZipInfo(name + ".npy")
            info.compress_type = (
                zipfile.ZIP_DEFLATED if name in _DEFLATED_MEMBERS
                else zipfile.ZIP_STORED
            )
            with archive.open(info, "w", force_zip64=True) as member:
                np.lib.format.write_array(
                    member, np.asanyarray(value), allow_pickle=False)


def oracle(members) -> bytes:
    buf = io.BytesIO()
    _write_npz(buf, members)
    return buf.getvalue()


def old_members(integrator, rng=None, clocks=None, metadata=None):
    """The members the old ``write_checkpoint`` handed to ``_write_npz``
    (its body up to the write, verbatim)."""
    state = integrator.state_dict()
    t_next = state.pop("scheduler_t_next")
    block_sizes = state["stats"].pop("block_sizes")
    meta = {
        "schema": CHECKPOINT_SCHEMA,
        "n": integrator.system.n,
        "integrator": state,
        "rng": None if rng is None else rng,
        "clocks": dict(clocks or {}),
        "provenance": checkpoint_provenance(),
        "metadata": dict(metadata or {}),
    }
    header = json.dumps(encode_json_safe(meta))
    return {
        "header": np.frombuffer(header.encode(), dtype=np.uint8),
        "scheduler_t_next": t_next,
        "block_sizes": block_sizes,
        **{name: getattr(integrator.system, name) for name in _SYSTEM_ARRAYS},
    }


def npy_header_length(value) -> int:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asanyarray(value))
    return buf.getbuffer().nbytes - np.asanyarray(value).nbytes


def assert_loads(data: bytes, members) -> None:
    with np.load(io.BytesIO(data)) as loaded:  # no repro code on this path
        assert loaded.files == list(members)
        for name, value in members.items():
            got, want = loaded[name], np.asanyarray(value)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


@st.composite
def checkpoint_members(draw):
    """The members of a checkpoint of ``n`` particles, with a header of a
    drawn length and an extra member of drawn rank and layout."""
    n = draw(st.integers(1, 1024))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    header_len = draw(st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129])
                      | st.integers(1, 3000))
    header = json.dumps({"pad": "x" * header_len})[:header_len].encode()
    steps = draw(st.sampled_from([0, 1, 5000]) | st.integers(0, 100))
    block_sizes = [] if steps == 0 else list(rng.integers(1, n + 1, steps))
    members = {
        "header": np.frombuffer(header, dtype=np.uint8),
        "scheduler_t_next": np.sort(rng.random(draw(st.integers(0, 8)))),
        "block_sizes": block_sizes,
        "mass": np.full(n, 1.0 / n),
        **{name: rng.standard_normal((n, 3))
           for name in ("pos", "vel", "acc", "jerk", "snap", "crackle")},
        "pot": -rng.random(n),
        "t": np.zeros(n) if draw(st.booleans()) else rng.random(n),
        "dt": 2.0 ** -rng.integers(3, 12, n),
    }
    # from rank 15 on the npy header takes a third 64-byte block
    rank = draw(st.sampled_from([0, 1, 2, 14, 15, 16]) | st.integers(0, 16))
    shape = tuple(draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank)))
    extra = rng.standard_normal(shape)
    if draw(st.booleans()):
        extra = np.asfortranarray(extra)
    members["extra"] = extra
    return members


class TestEncoderEqualsZipfile:
    @settings(max_examples=60, deadline=None)
    @given(checkpoint_members())
    def test_bytes_equal_the_oracle_and_numpy_reads_them(self, members):
        data = _encode_npz(members)
        assert data == oracle(members)
        assert_loads(data, members)

    def test_npy_headers_on_both_sides_of_the_padding(self):
        """The drawn ranks do give npy headers of more than one 64-byte
        block count, so the property sees both sides."""
        lengths = {npy_header_length(np.zeros((1,) * rank)) for rank in range(17)}
        assert lengths == {128, 192}

    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(["a", "header", "b_c", "mass", "dt"]),
        st.sampled_from([np.int8, np.uint16, np.int64, np.float32, np.complex128,
                         np.bool_, "<U3", ">f8"]).flatmap(
            lambda dtype: st.lists(st.integers(0, 5), max_size=3).map(
                lambda shape: np.zeros(shape, dtype=dtype))),
        min_size=0, max_size=5))
    def test_any_plain_dtype(self, members):
        data = _encode_npz(members)
        assert data == oracle(members)
        assert_loads(data, members)

    def test_zip64_fields_past_the_limits(self, monkeypatch):
        """Sizes, offsets and member counts past zipfile's limits move
        into ZIP64 fields as zipfile moves them (limits lowered on both
        sides; nothing this small needs them for real)."""
        members = {f"m{i}": np.arange(i * 40, dtype=np.float64) for i in range(6)}
        for limit, count in ((64, 3), (1 << 20, 3), (64, 1 << 16)):
            monkeypatch.setattr(zipfile, "ZIP64_LIMIT", limit)
            monkeypatch.setattr(zipfile, "ZIP_FILECOUNT_LIMIT", count)
            monkeypatch.setattr(checkpoint, "_ZIP64_LIMIT", limit)
            monkeypatch.setattr(checkpoint, "_ZIP_FILECOUNT_LIMIT", count)
            assert _encode_npz(members) == oracle(members), (limit, count)


class TestCheckpointBytesUnchanged:
    @settings(max_examples=12, deadline=None)
    @given(n=st.sampled_from([1, 2, 128, 1024]) | st.integers(3, 200),
           steps=st.integers(0, 40), seed=st.integers(0, 2**16))
    def test_equal_to_the_old_writer_for_the_same_state(self, n, steps, seed):
        integ = BlockTimestepIntegrator(plummer_model(n, seed=seed), EPS2)
        for _ in range(steps):
            integ.step()
        kwargs = dict(rng=np.random.default_rng(seed), clocks={"wall_s": 1.5},
                      metadata={"job": "j", "reason": "cadence"})
        data = encode_checkpoint(integ, **kwargs)
        assert data == oracle(old_members(integ, **kwargs))
