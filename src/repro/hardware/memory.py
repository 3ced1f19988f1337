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
rows ``c::k`` (the round-robin stripe).  Like GRAPE-6's own j-memory,
the store is written in place, in the layout the pipelines stream: a
machine-wide load is one quantise-and-write into buffers allocated and
bound for the tile once, however many chips there are.  A bank written
directly (:meth:`JParticleMemory.load`, one chip's DMA) holds rows of
its own until the next machine-wide load re-stripes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fixedpoint import FixedPointFormat
from .floatformat import FloatFormat
from .pipeline import JSet, PipelineFormats, load_j_set, quantize, round_float


@dataclass
class GatheredJSet:
    """j-memory rows in the storage formats, row-major.

    Either a machine's whole j-set (the views :attr:`StripedStore.rows`
    of its buffers, or :func:`repro.hardware.batched.gather_chips` over
    its chips) or the rows one bank holds of its own.
    """

    pos_q: np.ndarray
    vel: np.ndarray
    mass: np.ndarray
    host_index: np.ndarray
    acc: np.ndarray
    jerk: np.ndarray
    snap: np.ndarray
    t0: np.ndarray

    @property
    def n(self) -> int:
        return self.pos_q.shape[0]


def predictor_words(word_format: FloatFormat, n: int, a=None, jdot=None, snap=None,
                    t0=None) -> tuple:
    """``(acc, jerk, snap, t0)`` of n j-particles in the storage formats.
    Each defaults to one block of read-only zeros (pure force-evaluation
    mode, where the host has already predicted the coordinates)."""

    def word(d):
        return _zeros((n, 3)) if d is None else round_float(word_format, d)

    return word(a), word(jdot), word(snap), _zeros((n,)) if t0 is None else np.array(
        t0, dtype=np.float64)


@lru_cache(maxsize=8)
def _zeros(shape: tuple) -> np.ndarray:
    """One read-only block of zeros of ``shape``, shared by every load."""
    zeros = np.zeros(shape)
    zeros.flags.writeable = False
    return zeros


def _j_memory(n: int) -> JSet:
    """Buffers for n j-particles in the tile's layout (bound at the first
    load into them)."""
    return JSet(np.empty((3, n), dtype=np.int64), np.empty((3, n)), np.empty(n),
                np.empty(n, dtype=np.int64))


#: Every store's j-memory before its first load (nothing to write into).
_NO_J_MEMORY = _j_memory(0)


class StripedStore:
    """One machine's chips as a struct of arrays.

    ``j_set`` holds the j-memory in host order as the pipeline tile
    streams it (:class:`~repro.hardware.pipeline.JSet`): bound once,
    grown only for more rows, written in place by every machine-wide
    load; ``rows`` views it row-major.  Chip ``c`` of ``k`` reads rows
    ``c::k``.  ``sizes`` is the stripe table (rows each chip holds,
    ``used`` their sum).  ``cycles`` and ``eps2`` are the chips'
    cycle counters and softening registers; ``charged`` is the clocks
    per stored j-particle charged to every chip since ``cycles`` was
    last read (:func:`~repro.hardware.chip.charge_block`), booked into
    it at the next read or stripe change.  ``generation`` is the
    machine's write generation, bumped by every load, machine-wide or
    direct.  The batched datapath reads all of it in a fixed number of
    operations, whatever ``k``.
    """

    def __init__(self, k: int, capacity: int) -> None:
        self.k, self.capacity = k, capacity
        self.j_set = _NO_J_MEMORY
        self._words: tuple | None = None  # None: zeros
        self._rows: GatheredJSet | None = None
        self.sizes = np.zeros(k, dtype=np.int64)
        self.used = 0
        self._cycles = np.zeros(k, dtype=np.int64)
        self.charged = 0
        self.eps2 = np.zeros(k)
        self.generation = 0
        #: Banks holding rows of their own until the next machine-wide load.
        self.detached: set[JParticleMemory] = set()
        self._stripe_offsets = k - 1 - np.arange(k)

    def load(self, formats: PipelineFormats, host_index, x, v, mass, **derivs) -> None:
        """Write a machine-wide j-set in place (``mass`` comes
        word-rounded, ``host_index`` None for ``0 .. n-1``); every chip
        reads its stripe.  A position off the grid raises and leaves the
        store as it was."""
        n = x.shape[0]
        if -(-n // self.k) > self.capacity:
            raise ValueError(
                f"{n} particles exceed memory capacity {self.k} x {self.capacity}"
            )
        j_set = self.j_set if n <= self.j_set.capacity else _j_memory(n)
        load_j_set(j_set, formats, x, v, mass, host_index)
        self.j_set = j_set
        self._words = predictor_words(formats.word, n, **derivs) if derivs else None
        self._rows = None
        if self.detached or n != self.used:
            self._book()
            self.sizes = (n + self._stripe_offsets) // self.k
        for mem in self.detached:
            mem._own = None
        self.detached.clear()
        self.used = n
        self.generation += 1

    def _book(self) -> np.ndarray:
        if self.charged:
            self._cycles += self.charged * self.sizes
            self.charged = 0
        return self._cycles

    cycles = property(_book, doc="The chips' cycle counters, every charge booked.")

    @property
    def rows(self) -> GatheredJSet:
        """The machine-wide j-set row-major: views of ``j_set``'s buffers
        (the next load rewrites them) and the predictor words."""
        if self._rows is None:
            cj_q, cj_v, mj, host_j = self.j_set.columns()
            words = self._words or predictor_words(FloatFormat(), len(mj))
            self._rows = GatheredJSet(cj_q.T, cj_v.T, mj, host_j, *words)
        return self._rows

    def detach(self, mem: JParticleMemory, rows: GatheredJSet) -> None:
        """A direct load of one bank: it holds ``rows`` of its own."""
        self._book()
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

    Parameters
    ----------
    capacity:
        Maximum number of j-particles (16384 on the real chip).
    pos_format, word_format:
        Storage formats for positions and for the floating-point words.
    store, stripe:
        The bank is stripe ``stripe`` of ``store``, its machine's
        :class:`StripedStore`; a bank built alone gets stripe 0 of a
        one-stripe store of its own, whatever ``stripe`` says.
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
        store: StripedStore | None = None, stripe: int = 0,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.pos_format = pos_format
        self.word_format = word_format
        if store is None:  # a bank built alone: stripe 0 of a store of its own
            store, stripe = StripedStore(1, capacity), 0
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
        """(Re)load this bank alone - the host's ``g6_set_j_particle`` DMA
        writes to one chip - in the storage formats, through their
        compiled twins; bumps the machine's write generation.  Every
        format is elementwise, so a stripe's rows equal those of a
        machine-wide load."""
        n = x.shape[0]
        if n > self.capacity:
            raise ValueError(f"{n} particles exceed memory capacity {self.capacity}")
        word = self.word_format
        self.store.detach(self, GatheredJSet(
            quantize(self.pos_format, x), round_float(word, v), round_float(word, m),
            np.array(host_index, dtype=np.int64), *predictor_words(word, n, a, jdot, snap, t0),
        ))

    def __len__(self) -> int:
        return self.n
