"""Per-chip j-particle memory (paper, section 3.4).

GRAPE-6 abandoned GRAPE-4's shared particle memory: "The extreme
solution is to attach one memory unit to each pipeline chip, and let
multiple pipelines calculate the force on the same set [of i-particles],
but from different sets of particles."  Each chip therefore owns a
private memory bank holding a disjoint subset of the j-particles in the
hardware storage formats:

* position — 64-bit fixed point,
* velocity / acceleration / jerk / snap (predictor coefficients) and
  mass — reduced-precision float,
* the particle's own time ``t0`` for the on-chip predictor.

The host library writes each j-particle exactly once, to exactly one
chip.  The emulator keeps a machine's banks as one :class:`StripedStore`:
the storage-format rows in host order, with chip ``c`` of ``k`` reading
rows ``c::k`` (the round-robin stripe).  A machine-wide load is then one
quantise-and-install, however many chips there are.  A bank written
directly (:meth:`JParticleMemory.load`, one chip's DMA) holds rows of
its own until the next machine-wide load re-stripes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ..telemetry import get_tracer
from .fixedpoint import FixedPointFormat
from .floatformat import FloatFormat
from .pipeline import bind_j_set, quantize, round_float


@dataclass
class GatheredJSet:
    """j-memory rows as contiguous arrays, in the storage formats.

    Either a machine's whole j-set (its :class:`StripedStore`, or
    :func:`repro.hardware.batched.gather_chips` over its chips) or the
    rows one bank holds of its own.  ``cpos_q`` / ``cvel`` are the
    component-major (3, n) blocks the pipeline tile streams, transposed
    once, on first use, and ``tile`` is the j-set bound for the tile
    (:func:`~repro.hardware.pipeline.bind_j_set`), also once: a
    machine's rows are one write generation of its memories.
    """

    pos_q: np.ndarray
    vel: np.ndarray
    mass: np.ndarray
    host_index: np.ndarray
    acc: np.ndarray
    jerk: np.ndarray
    snap: np.ndarray
    t0: np.ndarray

    @cached_property
    def cpos_q(self) -> np.ndarray:
        return np.ascontiguousarray(self.pos_q.T)

    @cached_property
    def cvel(self) -> np.ndarray:
        return np.ascontiguousarray(self.vel.T)

    @cached_property
    def tile(self):
        return bind_j_set(self.cpos_q, self.cvel, self.mass, self.host_index)

    @property
    def n(self) -> int:
        return self.pos_q.shape[0]


def storage_rows(
    pos_format: FixedPointFormat, word_format: FloatFormat, host_index: np.ndarray,
    x: np.ndarray, v: np.ndarray, mass: np.ndarray, a=None, jdot=None, snap=None, t0=None,
) -> GatheredJSet:
    """j-particles in the storage formats (``mass`` comes word-rounded).

    Models the host's ``g6_set_j_particle`` DMA writes.  Higher
    derivatives and ``t0`` default to one block of read-only zeros (pure
    force-evaluation mode, where the host has already predicted the
    coordinates).  Every format is elementwise, so the rows of any
    stripe equal those of a load of that stripe alone.  The formats are
    the compiled twins of the format methods
    (:func:`~repro.hardware.pipeline.quantize`,
    :func:`~repro.hardware.pipeline.round_float`).
    """
    n = x.shape[0]

    def word(d):
        return _zeros((n, 3)) if d is None else round_float(word_format, d)

    return GatheredJSet(
        quantize(pos_format, x), round_float(word_format, v), mass,
        np.array(host_index, dtype=np.int64), word(a), word(jdot), word(snap),
        _zeros((n,)) if t0 is None else np.array(t0, dtype=np.float64),
    )


@lru_cache(maxsize=8)
def _zeros(shape: tuple) -> np.ndarray:
    """One read-only block of zeros of ``shape``, shared by every load."""
    zeros = np.zeros(shape)
    zeros.flags.writeable = False
    return zeros


_NO_ROWS = GatheredJSet(
    np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3)), np.zeros(0),
    np.zeros(0, dtype=np.int64), np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)),
    np.zeros(0),
)


class StripedStore:
    """One machine's chips as a struct of arrays.

    ``rows`` holds the j-memory in host order, and chip ``c`` of ``k``
    reads rows ``c::k``.  ``sizes`` is the stripe table (rows each chip
    holds, ``used`` their sum).  ``cycles`` and ``eps2`` are the chips'
    cycle counters and softening registers.  ``generation`` is the
    machine's write generation, bumped by every load, machine-wide or
    direct.  The batched datapath reads all of it in a fixed number of
    operations, whatever ``k``.
    """

    def __init__(self, k: int, capacity: int) -> None:
        self.k, self.capacity = k, capacity
        self.rows = _NO_ROWS
        self.sizes = np.zeros(k, dtype=np.int64)
        self.used = 0
        self.cycles = np.zeros(k, dtype=np.int64)
        self.eps2 = np.zeros(k)
        self.generation = 0
        #: Banks holding rows of their own until the next machine-wide load.
        self.detached: set[JParticleMemory] = set()
        self._stripe_offsets = k - 1 - np.arange(k)

    def load(self, rows: GatheredJSet) -> None:
        """Install a machine-wide j-set; every chip reads its stripe."""
        n = rows.n
        if -(-n // self.k) > self.capacity:
            raise ValueError(
                f"{n} particles exceed memory capacity {self.k} x {self.capacity}"
            )
        for mem in self.detached:
            mem._own = None
        self.detached.clear()
        self.rows, self.used = rows, n
        self.sizes = (n + self._stripe_offsets) // self.k
        self.generation += 1

    def detach(self, mem: JParticleMemory, rows: GatheredJSet) -> None:
        """A direct load of one bank: it holds ``rows`` of its own."""
        mem._own = rows
        self.detached.add(mem)
        self.used += rows.n - int(self.sizes[mem.stripe])
        self.sizes[mem.stripe] = rows.n
        self.generation += 1


def _row_field(name: str) -> property:
    def read(self: JParticleMemory) -> np.ndarray:
        if self._own is not None:
            return getattr(self._own, name)
        return getattr(self.store.rows, name)[self.stripe :: self.store.k]

    return property(read, doc=f"The bank's ``{name}`` rows (read-only view).")


class JParticleMemory:
    """Memory bank of one pipeline chip.

    The bank is stripe ``stripe`` of ``store``: a machine's
    :class:`StripedStore`, or a one-stripe store of its own for a bank
    built alone.

    Parameters
    ----------
    capacity:
        Maximum number of j-particles (16384 on the real chip).
    pos_format, word_format:
        Storage formats for positions and for the floating-point words.
    """

    pos_q = _row_field("pos_q")
    vel = _row_field("vel")
    acc = _row_field("acc")
    jerk = _row_field("jerk")
    snap = _row_field("snap")
    mass = _row_field("mass")
    t0 = _row_field("t0")
    #: Host-side indices of the stored particles (for bookkeeping and
    #: self-interaction exclusion).
    host_index = _row_field("host_index")

    def __init__(
        self,
        capacity: int,
        pos_format: FixedPointFormat,
        word_format: FloatFormat,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.pos_format = pos_format
        self.word_format = word_format
        self.attach(StripedStore(1, capacity), 0)

    def attach(self, store: StripedStore, stripe: int) -> None:
        """Make this bank stripe ``stripe`` of a machine's ``store``."""
        self.store, self.stripe, self._own = store, stripe, None

    @property
    def n(self) -> int:
        return int(self.store.sizes[self.stripe])

    def load(
        self,
        host_index: np.ndarray,
        x: np.ndarray,
        v: np.ndarray,
        m: np.ndarray,
        a: np.ndarray | None = None,
        jdot: np.ndarray | None = None,
        snap: np.ndarray | None = None,
        t0: np.ndarray | None = None,
    ) -> None:
        """(Re)load this bank alone, applying the storage formats
        (:func:`storage_rows`); bumps the machine's write generation."""
        n = x.shape[0]
        if n > self.capacity:
            raise ValueError(f"{n} particles exceed memory capacity {self.capacity}")
        rows = storage_rows(
            self.pos_format, self.word_format, host_index, x, v,
            round_float(self.word_format, m), a, jdot, snap, t0,
        )
        self.store.detach(self, rows)
        get_tracer().count("grape.jmem_writes", n)

    def __len__(self) -> int:
        return self.n
