"""Durable integrator checkpoints: ``repro.checkpoint/1``.

A checkpoint is everything a killed run needs to continue **bit
identically**: the full particle arrays (including the higher force
derivatives the corrector reconstructed), the integrator's accuracy
parameters and counters, the scheduler's pending block times, the RNG
stream of whatever sampled the model, and virtual/wall clock balances.
The paper's production runs lived or died by exactly this — week-long
1.8M/2M-particle integrations on shared hardware, with "file
operations part of the accounted wall time".  A force backend whose
answers depend on what it kept from earlier blocksteps - the GRAPE-6
emulator's per-particle block exponents, reused from each particle's
last force - hands that state over as named arrays
(``checkpoint_arrays()``, members ``backend_<name>``) and takes it back
on restore (``restore_arrays``).

Format: NumPy ``.npz`` (one member per array) plus a JSON header
carried through :func:`repro.io.snapshot.encode_json_safe`, so numpy
scalars and ``numpy.random.Generator`` state survive losslessly.  The
header is schema-versioned (:data:`CHECKPOINT_SCHEMA`) and stamped
with provenance — environment fingerprint and git revision — so a
resume can tell (and record) when it crosses machines or commits.

A write is two halves.  :func:`encode_checkpoint` turns the state into
the file's bytes in memory: each member's npy header, encoded name and
stored/deflated choice are bound once per (member, dtype, shape), so a
write adds only CRC-32s, sizes, offsets and the deflates of the small
members — byte for byte the container ``zipfile`` writes for the same
members (pinned against it in the tests).  :func:`write_durable` then
makes the bytes the file: one open, write, fsync and close of a temp
file beside it, and a rename, so a checkpoint interrupted by the very
crash it guards against never shadows its intact predecessor.
:func:`write_checkpoint` is the two in a row, and returns once the file
is on disk; the job supervisor calls it at each checkpoint boundary.
"""

from __future__ import annotations

import functools
import io
import json
import os
import struct
import sys
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from ..core.individual import BlockTimestepIntegrator
from ..core.particles import ParticleSystem
from ..schema import check
from .snapshot import decode_json_safe, encode_json_safe

#: Bump on breaking layout changes; readers refuse mismatches.
CHECKPOINT_SCHEMA = "repro.checkpoint/1"

#: Particle arrays serialised member-by-member into the container.
_SYSTEM_ARRAYS = (
    "mass", "pos", "vel", "acc", "jerk", "snap", "crackle", "pot", "t", "dt",
)

#: Members written deflated: the ones that shrink.  The header is JSON
#: text, an equal-mass model's masses are one value N times, block
#: times and steps are a handful of powers of two, block sizes small
#: integers.  Phase space and the force derivatives are mantissa noise
#: — deflate spends most of a write gaining a quarter of their bytes —
#: and are stored.
_DEFLATED_MEMBERS = frozenset(
    {"header", "mass", "t", "dt", "scheduler_t_next", "block_sizes",
     "backend_exponent_table"}
)

#: Prefix of the members that carry a force backend's state.
_BACKEND = "backend_"


class CheckpointError(ValueError):
    """Raised for unreadable checkpoints and schema violations."""


@functools.cache
def _process_environment() -> dict[str, Any]:
    """This process's environment fingerprint, taken once rather than at
    every checkpoint write: the platform does not change under a live
    process, and the revision read at first use is the one whose code it
    imported.

    Imported lazily from :mod:`repro.provenance`, so importing
    ``repro.io`` does not import the four tiles the fingerprint reports
    on.
    """
    from ..provenance import environment_fingerprint

    return environment_fingerprint()


def checkpoint_provenance() -> dict[str, Any]:
    """Environment fingerprint + git revision for the header (a fresh
    copy per call; the fingerprint behind it is computed once)."""
    env = dict(_process_environment())
    return {"environment": env, "git_revision": env.get("git_revision")}


@dataclass
class Checkpoint:
    """One decoded checkpoint: header + rebuilt particle system."""

    meta: dict[str, Any]
    system: ParticleSystem
    integrator_state: dict[str, Any]
    rng: np.random.Generator | None = None
    clocks: dict[str, float] = field(default_factory=dict)
    #: The force backend's own state (``checkpoint_arrays()``), if any.
    backend_state: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def t(self) -> float:
        return float(self.integrator_state["t"])

    @property
    def blocksteps(self) -> int:
        return int(self.integrator_state["stats"]["blocksteps"])

    @property
    def provenance(self) -> dict[str, Any]:
        return self.meta.get("provenance", {})


def encode_checkpoint(
    integrator: BlockTimestepIntegrator,
    rng: np.random.Generator | None = None,
    clocks: dict[str, float] | None = None,
    metadata: dict[str, Any] | None = None,
) -> bytes:
    """The checkpoint file's bytes for ``integrator``'s state now (and
    optional RNG/clock state): a copy, so the run may step on at once.

    ``clocks`` is a free-form mapping of clock balances (e.g.
    accumulated wall seconds across resume segments, a virtual-time
    reading); it rides along so budget accounting survives the restart.
    """
    state = integrator.state_dict()
    t_next = state.pop("scheduler_t_next")
    # one entry per blockstep so far: an array member, not header JSON
    block_sizes = state["stats"].pop("block_sizes")
    meta: dict[str, Any] = {
        "schema": CHECKPOINT_SCHEMA,
        "n": integrator.system.n,
        "integrator": state,
        "rng": None if rng is None else rng,
        "clocks": dict(clocks or {}),
        "provenance": checkpoint_provenance(),
        "metadata": dict(metadata or {}),
    }
    header = json.dumps(encode_json_safe(meta))
    backend_state = getattr(getattr(integrator, "backend", None), "checkpoint_arrays", None)
    return _encode_npz({
        "header": np.frombuffer(header.encode(), dtype=np.uint8),
        "scheduler_t_next": t_next,
        "block_sizes": block_sizes,
        **{name: getattr(integrator.system, name) for name in _SYSTEM_ARRAYS},
        **{_BACKEND + name: a for name, a in (backend_state() if backend_state else {}).items()},
    })


def write_durable(path: str | Path, data: bytes) -> Path:
    """Make ``data`` the content of ``path``, atomically and durably:
    one open, write, fsync and close of ``<path>.tmp``, then a rename.
    A kill at any point leaves the old file or the new one, and at worst
    the temp file, which nothing reads (a resume removes it)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    return path


def write_checkpoint(
    path: str | Path,
    integrator: BlockTimestepIntegrator,
    rng: np.random.Generator | None = None,
    clocks: dict[str, float] | None = None,
    metadata: dict[str, Any] | None = None,
) -> Path:
    """Encode ``integrator``'s state (:func:`encode_checkpoint`) and
    make the bytes ``path`` (:func:`write_durable`); returns once the
    file is on disk."""
    return write_durable(
        path, encode_checkpoint(integrator, rng, clocks, metadata))


# -- the container ----------------------------------------------------------
#
# What ``zipfile`` writes for ``ZipFile(fh, "w").open(ZipInfo(name),
# "w", force_zip64=True)`` on a seekable file: version 4.5 everywhere, no
# flags, the 1980-01-01 00:00 timestamp, rw------- permissions, a ZIP64
# extra field in every local header and none in the central directory
# until a size or offset passes the 32-bit limit.

_LOCAL = struct.Struct("<4s2B4HL2L2H")
_LOCAL_ZIP64 = struct.Struct("<HHQQ")
_CENTRAL = struct.Struct("<4s4B4HL2L5H2L")
_END = struct.Struct("<4s4H2LH")
_END_ZIP64 = struct.Struct("<4sQ2H2L4Q")
_END_ZIP64_LOCATOR = struct.Struct("<4sLQL")
_ZIP64_VERSION = 45
_DOS_DATE = 1 << 5 | 1  # 1980-01-01
_CREATE_SYSTEM = 0 if sys.platform == "win32" else 3
_EXTERNAL_ATTR = 0o600 << 16
#: zipfile's limits: past them a size, an offset or the member count
#: moves into ZIP64 fields.
_ZIP64_LIMIT = (1 << 31) - 1
_ZIP_FILECOUNT_LIMIT = (1 << 16) - 1


class _Layout(NamedTuple):
    """What a member's bytes share across writes."""

    npy_header: bytes
    crc: int  # CRC-32 of npy_header, continued over the data per write
    name: bytes
    method: int  # zipfile.ZIP_STORED or ZIP_DEFLATED


@functools.lru_cache(maxsize=64)  # header and block_sizes rebind per write
def _layout(name: str, dtype: np.dtype, shape: tuple, fortran: bool) -> _Layout:
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {
        "descr": np.lib.format.dtype_to_descr(dtype),
        "fortran_order": fortran,
        "shape": shape,
    })
    npy_header = buf.getvalue()
    return _Layout(
        npy_header, zlib.crc32(npy_header), (name + ".npy").encode("ascii"),
        zipfile.ZIP_DEFLATED if name in _DEFLATED_MEMBERS else zipfile.ZIP_STORED,
    )


def _encode_npz(members: dict[str, Any]) -> bytes:
    """The ``.npz`` ``numpy.load`` reads, each member stored or deflated
    as :data:`_DEFLATED_MEMBERS` says, as one ``bytes`` object."""
    pieces: list[Any] = []
    central: list[tuple] = []
    offset = 0
    for name, value in members.items():
        array = np.asanyarray(value)
        if array.dtype.hasobject:
            raise ValueError(f"{name}: object arrays are not checkpointed")
        fortran = array.flags.f_contiguous and not array.flags.c_contiguous
        layout = _layout(name, array.dtype, array.shape, fortran)
        data = np.ascontiguousarray(array.T if fortran else array).reshape(-1)
        data = data.view(np.uint8)
        crc = zlib.crc32(data, layout.crc)
        size = len(layout.npy_header) + len(data)
        if layout.method == zipfile.ZIP_DEFLATED:
            deflate = zlib.compressobj(zlib.Z_DEFAULT_COMPRESSION, zlib.DEFLATED, -15)
            body = [deflate.compress(layout.npy_header), deflate.compress(data),
                    deflate.flush()]
        else:
            body = [layout.npy_header, data]
        compressed = sum(len(b) for b in body)
        pieces += [
            _LOCAL.pack(b"PK\x03\x04", _ZIP64_VERSION, 0, 0, layout.method, 0,
                        _DOS_DATE, crc, 0xFFFFFFFF, 0xFFFFFFFF,
                        len(layout.name), _LOCAL_ZIP64.size),
            layout.name,
            _LOCAL_ZIP64.pack(1, _LOCAL_ZIP64.size - 4, size, compressed),
            *body,
        ]
        central.append((layout, crc, compressed, size, offset))
        offset += (_LOCAL.size + len(layout.name) + _LOCAL_ZIP64.size
                   + compressed)

    start = offset
    for layout, crc, compressed, size, header_offset in central:
        extra = []
        if size > _ZIP64_LIMIT or compressed > _ZIP64_LIMIT:
            extra += [size, compressed]
            size = compressed = 0xFFFFFFFF
        if header_offset > _ZIP64_LIMIT:
            extra.append(header_offset)
            header_offset = 0xFFFFFFFF
        extra_field = (struct.pack(f"<HH{len(extra)}Q", 1, 8 * len(extra), *extra)
                       if extra else b"")
        entry = _CENTRAL.pack(
            b"PK\x01\x02", _ZIP64_VERSION, _CREATE_SYSTEM, _ZIP64_VERSION, 0,
            0, layout.method, 0, _DOS_DATE, crc, compressed, size,
            len(layout.name), len(extra_field), 0, 0, 0, _EXTERNAL_ATTR,
            header_offset)
        pieces += [entry, layout.name, extra_field]
        offset += len(entry) + len(layout.name) + len(extra_field)

    count, size = len(central), offset - start
    if (count > _ZIP_FILECOUNT_LIMIT or start > _ZIP64_LIMIT
            or size > _ZIP64_LIMIT):
        pieces += [
            _END_ZIP64.pack(b"PK\x06\x06", _END_ZIP64.size - 12, _ZIP64_VERSION,
                            _ZIP64_VERSION, 0, 0, count, count, size, start),
            _END_ZIP64_LOCATOR.pack(b"PK\x06\x07", 0, offset, 1),
        ]
        count = min(count, 0xFFFF)
        size = min(size, 0xFFFFFFFF)
        start = min(start, 0xFFFFFFFF)
    pieces.append(_END.pack(b"PK\x05\x06", 0, 0, count, count, size, start, 0))
    return b"".join(pieces)


#: What ``numpy.load`` and a member read raise for a file that is
#: empty, truncated or bit-flipped (CRC, deflate stream, zip structure).
_UNREADABLE = (OSError, ValueError, EOFError, RuntimeError,
               zipfile.BadZipFile, zlib.error)


def read_checkpoint(path: str | Path) -> Checkpoint:
    """Load and validate one checkpoint.  A file that is missing, empty,
    truncated, bit-flipped or not a checkpoint raises
    :class:`CheckpointError` naming it."""
    path = Path(path)
    try:
        # the file is ours to close: np.load leaks its own handle when the
        # zip directory is unreadable
        with path.open("rb") as fh, np.load(fh) as data:
            arrays = {name: data[name] for name in data.files}
    except _UNREADABLE as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc
    try:
        meta = decode_json_safe(json.loads(bytes(arrays["header"]).decode()))
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from exc
    check(meta, {"what": "header", "schema": CHECKPOINT_SCHEMA},
          str(path), CheckpointError)
    missing = [
        k for k in (*_SYSTEM_ARRAYS, "scheduler_t_next") if k not in arrays
    ]
    if missing:
        raise CheckpointError(f"{path}: missing arrays: {', '.join(missing)}")

    system = ParticleSystem(arrays["mass"], arrays["pos"], arrays["vel"])
    for name in ("acc", "jerk", "snap", "crackle", "pot", "dt"):
        getattr(system, name)[...] = arrays[name]
    system.t[...] = arrays["t"]
    if system.n != int(meta.get("n", system.n)):
        raise CheckpointError(
            f"{path}: header says n={meta.get('n')}, arrays carry {system.n}"
        )

    state = dict(meta["integrator"])
    state["scheduler_t_next"] = arrays["scheduler_t_next"]
    if "block_sizes" in arrays:  # else the older layout: a list in the header
        state["stats"] = {**state["stats"], "block_sizes": arrays["block_sizes"]}

    rng = meta.get("rng")
    if rng is not None and not isinstance(rng, np.random.Generator):
        raise CheckpointError(f"{path}: malformed RNG state")
    return Checkpoint(
        meta=meta,
        system=system,
        integrator_state=state,
        rng=rng,
        clocks=dict(meta.get("clocks", {})),
        backend_state={name.removeprefix(_BACKEND): a for name, a in arrays.items()
                       if name.startswith(_BACKEND)},
    )


def restore_integrator(
    checkpoint: Checkpoint,
    backend=None,
    tracer=None,
    algorithm=None,
) -> BlockTimestepIntegrator:
    """Rebuild the block integrator a checkpoint captured.

    The returned integrator continues the interrupted run bit
    identically (property-pinned in
    ``tests/property/test_prop_invariants.py``).  ``backend``
    must match the interrupted run's configuration — the checkpoint
    header's ``metadata`` is the natural place for callers to record
    it.  Passing ``algorithm`` (a parallel force backend) rebuilds a
    :class:`repro.parallel.ParallelBlockIntegrator` instead, so
    virtual-time parallel runs resume through the same path.  A
    ``backend`` that takes state back (``restore_arrays``) is handed
    what the checkpointed one kept (:attr:`Checkpoint.backend_state`).
    """
    if algorithm is not None:
        from ..parallel.driver import ParallelBlockIntegrator

        return ParallelBlockIntegrator.from_state(
            checkpoint.system,
            checkpoint.integrator_state,
            tracer=tracer,
            algorithm=algorithm,
        )
    restore = getattr(backend, "restore_arrays", None)
    if restore is not None and checkpoint.backend_state:
        restore(checkpoint.backend_state)
    return BlockTimestepIntegrator.from_state(
        checkpoint.system,
        checkpoint.integrator_state,
        backend=backend,
        tracer=tracer,
    )
