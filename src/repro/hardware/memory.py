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
"""

from __future__ import annotations

import numpy as np

from ..telemetry import get_tracer
from .fixedpoint import FixedPointFormat
from .floatformat import FloatFormat


class JParticleMemory:
    """Memory bank of one pipeline chip.

    Parameters
    ----------
    capacity:
        Maximum number of j-particles (16384 on the real chip).
    pos_format, word_format:
        Storage formats for positions and for the floating-point words.
    """

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
        self.n = 0
        self.pos_q = np.zeros((0, 3), dtype=np.int64)
        self.vel = np.zeros((0, 3))
        self.acc = np.zeros((0, 3))
        self.jerk = np.zeros((0, 3))
        self.snap = np.zeros((0, 3))
        self.mass = np.zeros(0)
        self.t0 = np.zeros(0)
        #: Host-side indices of the stored particles (for bookkeeping
        #: and self-interaction exclusion).
        self.host_index = np.zeros(0, dtype=np.int64)
        #: Write generation, bumped on every (re)load.  Consumers that
        #: cache gathered views of many memories (the batched emulator
        #: datapath) key their caches on the sum of these counters.
        self.version: int = 0

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
        """(Re)load the memory contents, applying the storage formats.

        This models the host's ``g6_set_j_particle`` DMA writes; higher
        derivatives default to zero (pure force-evaluation mode, where
        the host has already predicted the coordinates).
        """
        n = x.shape[0]
        if n > self.capacity:
            raise ValueError(f"{n} particles exceed memory capacity {self.capacity}")
        self.n = n
        self.host_index = np.asarray(host_index, dtype=np.int64).copy()
        self.pos_q = self.pos_format.quantize(x)
        self.vel = self.word_format.round(v)
        self.mass = self.word_format.round(m)
        zeros = np.zeros((n, 3))
        self.acc = self.word_format.round(a) if a is not None else zeros.copy()
        self.jerk = self.word_format.round(jdot) if jdot is not None else zeros.copy()
        self.snap = self.word_format.round(snap) if snap is not None else zeros.copy()
        self.t0 = np.asarray(t0, dtype=np.float64).copy() if t0 is not None else np.zeros(n)
        self.version += 1
        get_tracer().count("grape.jmem_writes", n)

    def load_preformatted(
        self,
        host_index: np.ndarray,
        pos_q: np.ndarray,
        vel: np.ndarray,
        mass: np.ndarray,
        zero3: np.ndarray,
        zero1: np.ndarray,
    ) -> None:
        """Load storage-format data quantised/rounded by the caller.

        The host library quantises the *whole* j-set once and stripes
        views of the result into the chip memories; since the storage
        formats are elementwise, the contents are identical to per-chip
        :meth:`load` calls.  Nothing is copied or allocated here: every
        array, ``host_index`` included, is a view the caller owns and
        replaces (never writes) on the next load.  ``zero3`` (n, 3) and
        ``zero1`` (n,) are read-only zeros for the higher derivatives
        and ``t0`` (pure force-evaluation mode, exactly as :meth:`load`
        defaults them), shared by the three derivative slots.  The
        caller accounts the DMA writes (``grape.jmem_writes``).
        """
        n = pos_q.shape[0]
        if n > self.capacity:
            raise ValueError(f"{n} particles exceed memory capacity {self.capacity}")
        self.n = n
        self.host_index = host_index
        self.pos_q = pos_q
        self.vel = vel
        self.mass = mass
        self.acc = self.jerk = self.snap = zero3
        self.t0 = zero1
        self.version += 1

    def __len__(self) -> int:
        return self.n
